package canon_test

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/machine"
)

// fingerprintCase is one N=3 snapshot system under one canonicalizer,
// with a fixed sample of states reachable from it.
type fingerprintCase struct {
	name   string
	hasher canon.Hasher
	states []*machine.System
}

// fingerprintCases covers the same-group system g,g,g with deterministic
// write order and the distinct-input system a,b,c with register choice
// (whose nontrivial group elements all carry a β), each under none, proc
// and full symmetry. None and full run on rotation wirings, where full
// symmetry admits 3 elements, all but the identity with ρ ≠ id; proc runs
// on identity wirings, where it admits all 6 processor permutations.
func fingerprintCases(tb testing.TB) []fingerprintCase {
	tb.Helper()
	var cases []fingerprintCase
	for _, sc := range []struct {
		inputs []string
		nondet bool
	}{{[]string{"g", "g", "g"}, false}, {[]string{"a", "b", "c"}, true}} {
		for _, can := range []canon.Canonicalizer{canon.Identity{}, canon.ProcSymmetry{}, canon.FullSymmetry{}} {
			wirings := anonmem.RotationWirings(3, 3)
			if _, ok := can.(canon.ProcSymmetry); ok {
				wirings = anonmem.IdentityWirings(3, 3)
			}
			sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: sc.inputs, Nondet: sc.nondet, Wirings: wirings})
			if err != nil {
				tb.Fatal(err)
			}
			h, err := can.Bind(sys)
			if err != nil {
				tb.Fatal(err)
			}
			cases = append(cases, fingerprintCase{
				name:   fmt.Sprintf("%s/%s-k%d", sc.inputs[0]+sc.inputs[1]+sc.inputs[2], can, h.GroupSize()),
				hasher: h,
				states: randomStates(tb, sys, 64, 40),
			})
		}
	}
	return cases
}

// randomStates returns n states reached from init by seeded random walks
// of up to depth steps.
func randomStates(tb testing.TB, init *machine.System, n, depth int) []*machine.System {
	tb.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	out := make([]*machine.System, 0, n)
	for range n {
		sys := init.Clone()
		for range rng.IntN(depth + 1) {
			var moves [][2]int
			for p := 0; p < sys.N(); p++ {
				if sys.Enabled(p) {
					for c := range sys.Procs[p].Pending() {
						moves = append(moves, [2]int{p, c})
					}
				}
			}
			if len(moves) == 0 {
				break
			}
			mv := moves[rng.IntN(len(moves))]
			if _, err := sys.Step(mv[0], mv[1]); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, sys)
	}
	return out
}

// BenchmarkFingerprint times one canonical fingerprint of an N=3 state.
func BenchmarkFingerprint(b *testing.B) {
	for _, c := range fingerprintCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				c.hasher.Fingerprint(c.states[i%len(c.states)], 0)
			}
		})
	}
}

// TestFingerprintZeroAllocs pins what BenchmarkFingerprint measures:
// once its pooled scratch has grown, a fingerprint allocates nothing.
// The race detector makes sync.Pool drop items on purpose, so the pin
// holds only without it.
func TestFingerprintZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, c := range fingerprintCases(t) {
		for _, sys := range c.states {
			c.hasher.Fingerprint(sys, 0) // grow the scratch
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			c.hasher.Fingerprint(c.states[i%len(c.states)], 7)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Fingerprint, want 0", c.name, allocs)
		}
	}
}

// TestFingerprintConcurrent: the parallel engine's workers share one
// hasher, and with it the pool of scratch buffers. Concurrent calls must
// agree with serial ones (make race runs this under the race detector).
func TestFingerprintConcurrent(t *testing.T) {
	for _, c := range fingerprintCases(t) {
		want := make([]uint64, len(c.states))
		for i, sys := range c.states {
			want[i] = c.hasher.Fingerprint(sys, 0)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := range 20 {
					i := (w*7 + rep*13) % len(c.states)
					if got := c.hasher.Fingerprint(c.states[i], 0); got != want[i] {
						errs <- fmt.Sprintf("%s: state %d: concurrent fingerprint %016x, serial %016x", c.name, i, got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
