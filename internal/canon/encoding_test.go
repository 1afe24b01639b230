package canon_test

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/baseline"
	"anonshm/internal/canon"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
)

// The word encoding replaces StateKey and Key in the explorer, so it must
// tell states apart exactly as they do. These tests walk reachable states
// with the explorer and check, for every machine and register word met:
//
//   - two values have equal AppendState iff they have equal StateKey
//     (machines) or Key (words);
//   - AppendRelabeled(dst, nil) equals AppendState;
//   - distinct canonical forms never share a fingerprint, under the full
//     symmetry group of the system.

// bijection records which rendering each encoding came with, both ways.
type bijection struct {
	byKey, byEnc map[string]string
}

func newBijection() bijection {
	return bijection{byKey: map[string]string{}, byEnc: map[string]string{}}
}

// add reports an error when key or enc was seen before with a different
// partner.
func (b bijection) add(kind, key string, enc []uint64) error {
	e := wordString(enc)
	if prev, ok := b.byKey[key]; ok && prev != e {
		return fmt.Errorf("%s %q has two encodings: %x and %x", kind, key, []byte(prev), []byte(e))
	}
	if prev, ok := b.byEnc[e]; ok && prev != key {
		return fmt.Errorf("%ss %q and %q share the encoding %v", kind, prev, key, enc)
	}
	b.byKey[key], b.byEnc[e] = e, key
	return nil
}

// wordString packs words into a string usable as a map key.
func wordString(ws []uint64) string {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// encodingChecker accumulates the evidence over the states of one system.
type encodingChecker struct {
	full     canon.Hasher
	machines bijection
	words    bijection
	// forms maps a fingerprint to a second, independent hash of the
	// canonical form it came from: two forms sharing a fingerprint show
	// as two different second hashes.
	forms map[uint64]uint64
	seed  maphash.Seed
	buf   []uint64
}

func newEncodingChecker(t *testing.T, sys *machine.System) *encodingChecker {
	t.Helper()
	full, err := canon.FullSymmetry{}.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	return &encodingChecker{
		full:     full,
		machines: newBijection(),
		words:    newBijection(),
		forms:    map[uint64]uint64{},
		seed:     maphash.MakeSeed(),
	}
}

// visit checks one state.
func (c *encodingChecker) visit(sys *machine.System) error {
	for _, m := range sys.Procs {
		c.buf = m.(canon.Encoder).AppendState(c.buf[:0])
		if err := c.machines.add("machine", m.StateKey(), c.buf); err != nil {
			return err
		}
		if err := checkRelabelNil(m, c.buf); err != nil {
			return err
		}
	}
	for g := 0; g < sys.Mem.M(); g++ {
		w := sys.Mem.CellAt(g)
		c.buf = w.(canon.Encoder).AppendState(c.buf[:0])
		if err := c.words.add("word", w.Key(), c.buf); err != nil {
			return err
		}
		if err := checkRelabelNil(w, c.buf); err != nil {
			return err
		}
	}
	form := canon.CanonicalForm(c.full, sys)
	fp := c.full.Fingerprint(sys, 0)
	second := maphash.String(c.seed, wordString(form))
	if prev, ok := c.forms[fp]; ok && prev != second {
		return fmt.Errorf("two canonical forms share fingerprint %016x; one is %v", fp, form)
	}
	c.forms[fp] = second
	return nil
}

// checkRelabelNil: relabeling by the identity is plain encoding.
func checkRelabelNil(v any, enc []uint64) error {
	r, ok := v.(canon.Relabeler)
	if !ok {
		return nil
	}
	if got := r.AppendRelabeled(nil, nil); !slices.Equal(got, enc) {
		return fmt.Errorf("%T: AppendRelabeled(nil, nil) = %v, AppendState = %v", v, got, enc)
	}
	return nil
}

// checkEncodings explores sys (without symmetry, so every orbit member
// is visited) up to maxStates states and checks each of them.
func checkEncodings(t *testing.T, sys *machine.System, opts explore.Options) *encodingChecker {
	t.Helper()
	c := newEncodingChecker(t, sys)
	opts.Engine = explore.DFSEngine
	opts.Invariant = func(n explore.Node) error { return c.visit(n.Sys) }
	res, err := explore.Run(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.States < 2 {
		t.Fatalf("only %d states explored", res.States)
	}
	return c
}

// baselineSystem wires machines over m registers holding initial, with
// identity wirings.
func baselineSystem(t *testing.T, initial anonmem.Word, machines ...machine.Machine) *machine.System {
	t.Helper()
	mem, err := anonmem.New(len(machines), initial, anonmem.IdentityWirings(len(machines), len(machines)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, machines)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// n2System is an N=2 system of one machine type, built per wiring, and
// the options its reachable states are explored under.
type n2System struct {
	name  string
	build func(perms [][]int) *machine.System
	opts  explore.Options
}

// n2Systems lists one N=2 system of each machine type.
func n2Systems(t *testing.T) []n2System {
	return []n2System{
		{"snapshot", func(perms [][]int) *machine.System {
			sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true, Wirings: perms})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, explore.Options{MaxCrashes: 1}},
		{"write-scan", func(perms [][]int) *machine.System {
			sys, _, err := core.NewWriteScanSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true, Wirings: perms})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, explore.Options{}},
		{"renaming", func(perms [][]int) *machine.System {
			sys, _, err := renaming.NewSystem(renaming.Config{Inputs: []string{"a", "b"}, Nondet: true, Wirings: perms})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, explore.Options{}},
		{"consensus", func(perms [][]int) *machine.System {
			sys, in, err := consensus.NewSystem(consensus.Config{Inputs: []string{"x", "y"}, Wirings: perms})
			if err != nil {
				t.Fatal(err)
			}
			consensus.PreinternPairs(in, []string{"x", "y"}, 3)
			return sys
		}, explore.Options{Prune: func(n explore.Node) bool {
			for _, m := range n.Sys.Procs {
				if m.(*consensus.Consensus).Timestamp() > 1 {
					return true
				}
			}
			return false
		}}},
		{"blocking", func([][]int) *machine.System {
			return baselineSystem(t, core.EmptyCell, baseline.NewBlocking(2, 0), baseline.NewBlocking(2, 1))
		}, explore.Options{MaxCrashes: 1}},
		{"double-collect", func([][]int) *machine.System {
			return baselineSystem(t, core.EmptyCell, baseline.NewDoubleCollect(2, 0), baseline.NewDoubleCollect(2, 1))
		}, explore.Options{}},
		{"weak-counter", func([][]int) *machine.System {
			return baselineSystem(t, baseline.UnsetMark, baseline.NewWeakCounter(2), baseline.NewWeakCounter(2))
		}, explore.Options{}},
	}
}

// TestEncodingInjectiveN2 covers every reachable state of an N=2 system
// of each machine type, under every wiring with processor 0 pinned.
func TestEncodingInjectiveN2(t *testing.T) {
	for _, s := range n2Systems(t) {
		t.Run(s.name, func(t *testing.T) {
			for perms := range explore.Wirings(2, 2, explore.WiringOptions{Filter: explore.FilterProc0}) {
				opts := s.opts
				opts.MaxStates = 1 << 20
				checkEncodings(t, s.build(perms), opts)
			}
		})
	}
}

// TestCloneIntoN2 copies every reachable N=2 state of each machine type
// with System.CloneInto (and so every machine's CloneInto) into one
// system, which the previous copies left in another state: crashed
// where the source is not, and the reverse, on the systems explored
// with crashes. The copy must encode and render as the source, and
// running each enabled processor of a fresh copy solo must leave the
// source's encoding unchanged, so no copy shares state a step mutates.
func TestCloneIntoN2(t *testing.T) {
	for _, s := range n2Systems(t) {
		t.Run(s.name, func(t *testing.T) {
			var dst *machine.System
			var intoCrashed, fromCrashed int
			check := func(src *machine.System) error {
				if dst != nil && src.CrashCount() != dst.CrashCount() {
					if src.CrashCount() == 0 {
						intoCrashed++
					} else {
						fromCrashed++
					}
				}
				want, key := systemWords(src), src.Key()
				dst = src.CloneInto(dst)
				if got := systemWords(dst); !slices.Equal(got, want) || dst.Key() != key {
					return fmt.Errorf("copy of %q encodes as %v, renders %q; source %v", key, got, dst.Key(), want)
				}
				for p := range src.N() {
					if !src.Enabled(p) {
						continue
					}
					dst = src.CloneInto(dst)
					for range 4 * (src.Mem.M() + 1) {
						if !dst.Enabled(p) {
							break
						}
						if _, err := dst.Step(p, 0); err != nil {
							return err
						}
					}
					if got := systemWords(src); !slices.Equal(got, want) || src.Key() != key {
						return fmt.Errorf("running p%d solo on a copy of %q changed the source to %q", p, key, src.Key())
					}
				}
				return nil
			}
			for perms := range explore.Wirings(2, 2, explore.WiringOptions{Filter: explore.FilterProc0}) {
				opts := s.opts
				opts.MaxStates = 1 << 20
				opts.Invariant = func(n explore.Node) error { return check(n.Sys) }
				if _, err := explore.Run(s.build(perms), opts); err != nil {
					t.Fatal(err)
				}
			}
			if s.opts.MaxCrashes > 0 && (intoCrashed == 0 || fromCrashed == 0) {
				t.Errorf("crash-free source into crashed copy %d times, crashed source into crash-free copy %d times; want both", intoCrashed, fromCrashed)
			}
		})
	}
}

// systemWords is the word encoding of every machine and register of sys
// (canon.Encoder), then its crash mask.
func systemWords(sys *machine.System) []uint64 {
	var ws []uint64
	for _, m := range sys.Procs {
		ws = m.(canon.Encoder).AppendState(ws)
	}
	for g := range sys.Mem.M() {
		ws = sys.Mem.CellAt(g).(canon.Encoder).AppendState(ws)
	}
	return append(ws, sys.CrashMask())
}

// TestEncodingInjectiveN3Sample checks a 10⁶-state depth-first sample
// (10⁵ under -short) of the N=3 distinct-input snapshot system with
// register choice, split over the identity wiring, whose full group has
// 6 elements with β ≠ id, and the rotation wiring, whose 3 elements also
// permute the registers.
func TestEncodingInjectiveN3Sample(t *testing.T) {
	total := 1_000_000
	if testing.Short() {
		total = 100_000
	}
	var forms, machineStates int
	for _, perms := range [][][]int{anonmem.IdentityWirings(3, 3), anonmem.RotationWirings(3, 3)} {
		sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}, Nondet: true, Wirings: perms})
		if err != nil {
			t.Fatal(err)
		}
		c := checkEncodings(t, sys, explore.Options{MaxStates: total / 2})
		forms += len(c.forms)
		machineStates += len(c.machines.byKey)
	}
	t.Logf("%d canonical forms, %d distinct machine states", forms, machineStates)
}
