package explore

import (
	"errors"
	"math"
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
)

// TestSymmetryOrbitCrossCheck is the brute-force soundness check at
// N=2/M=2: enumerate every unreduced state, canonicalize each one by
// hand, and demand that the reduced run stores exactly one state per
// distinct canonical fingerprint — no more (missed merges) and no fewer
// (unsound merges).
func TestSymmetryOrbitCrossCheck(t *testing.T) {
	for _, sym := range []canon.Canonicalizer{canon.ProcSymmetry{}, canon.FullSymmetry{}} {
		for perms := range Wirings(2, 2, WiringOptions{Filter: FilterProc0}) {
			sys, _, err := core.NewSnapshotSystem(core.Config{
				Inputs: []string{"a", "b"}, Wirings: perms, Nondet: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			hasher, err := sym.Bind(sys)
			if err != nil {
				t.Fatal(err)
			}
			orbits := map[uint64]bool{}
			full, err := Run(sys.Clone(), Options{
				Invariant: func(n Node) error {
					orbits[hasher.Fingerprint(n.Sys, 0)] = true
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			red, err := Run(sys.Clone(), Options{Canonicalizer: sym})
			if err != nil {
				t.Fatal(err)
			}
			if red.States != len(orbits) {
				t.Errorf("%s wiring %v: reduced run stored %d states, brute force counts %d orbits",
					sym, perms[1], red.States, len(orbits))
			}
			if red.States > full.States {
				t.Errorf("%s wiring %v: reduction grew the space (%d > %d)",
					sym, perms[1], red.States, full.States)
			}
			if red.Terminals == 0 {
				t.Errorf("%s wiring %v: reduced run reached no terminal state", sym, perms[1])
			}
		}
	}
}

// TestEnginesAgreeUnderSymmetry: the acceptance gate on the Figure 3
// snapshot sweep — all three engines, with symmetry on and off, produce
// the same verdict; the reduced state counts agree across engines and
// never exceed the unreduced ones.
func TestEnginesAgreeUnderSymmetry(t *testing.T) {
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0}
	for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
		var unreduced int
		{
			c := base
			ref, err := CheckSnapshotSafety(c)
			if err != nil {
				t.Fatalf("unreduced reference: %v", err)
			}
			unreduced = ref.TotalStates
		}
		states := map[Engine]int{}
		for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
			c := base
			c.Canonicalizer = sym.Canonicalizer()
			c.Engine = engine
			c.Workers = 4
			sweep, err := CheckSnapshotSafety(c)
			if err != nil {
				t.Fatalf("%v/%v: safety verdict flipped: %v", engine, sym, err)
			}
			if sweep.TotalStates == 0 {
				t.Fatalf("%v/%v: empty sweep", engine, sym)
			}
			if sweep.TotalStates > unreduced {
				t.Errorf("%v/%v: %d states exceeds unreduced %d", engine, sym, sweep.TotalStates, unreduced)
			}
			states[engine] = sweep.TotalStates
			if sym != canon.None && sweep.Stats.Symmetry != sym.String() {
				t.Errorf("%v/%v: stats symmetry %q", engine, sym, sweep.Stats.Symmetry)
			}
		}
		if states[DFSEngine] != states[BFSEngine] || states[ParallelEngine] != states[BFSEngine] {
			t.Errorf("%v: engines disagree on reduced state counts: %v", sym, states)
		}
	}
}

// TestRenamingAgreesUnderSymmetry: the Figure 4 renaming algorithm at
// N=2 stays wait-free on every engine with symmetry on; equal inputs put
// both processors in one symmetry class, distinct inputs degenerate to
// the trivial group — both must keep the verdict.
func TestRenamingAgreesUnderSymmetry(t *testing.T) {
	for _, inputs := range [][]string{{"g", "g"}, {"g1", "g2"}} {
		sys, _, err := renaming.NewSystem(renaming.Config{Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
			states := map[Engine]int{}
			for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
				res, err := Run(sys.Clone(), Options{
					Engine:        engine,
					Canonicalizer: sym.Canonicalizer(),
					Invariant:     WaitFree(DefaultSoloBound(2, 2)),
				})
				if err != nil {
					t.Fatalf("inputs %v %v/%v: %v", inputs, engine, sym, err)
				}
				if res.Cycle {
					t.Fatalf("inputs %v %v/%v: unexpected cycle", inputs, engine, sym)
				}
				states[engine] = res.States
			}
			if states[DFSEngine] != states[BFSEngine] || states[ParallelEngine] != states[BFSEngine] {
				t.Errorf("inputs %v %v: engines disagree: %v", inputs, sym, states)
			}
		}
	}
}

// TestSymmetryViolationTraceReplays: when an (orbit-invariant) invariant
// is violated under symmetry reduction, every engine still returns a
// counterexample trace that replays step by step from the initial state
// to a genuinely violating state.
func TestSymmetryViolationTraceReplays(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("done processor observed")
	inv := func(n Node) error {
		// DoneCount is a function of the orbit: permuting processors
		// permutes which machines are done, not how many.
		if n.Sys.DoneCount() > 0 {
			return boom
		}
		return nil
	}
	for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
		_, err := Run(sys.Clone(), Options{
			Engine:        engine,
			Workers:       4,
			Canonicalizer: canon.ProcSymmetry{},
			Invariant:     inv,
		})
		var ie *InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%v: expected InvariantError, got %v", engine, err)
		}
		if len(ie.Trace) == 0 {
			t.Fatalf("%v: empty counterexample trace", engine)
		}
		replay := sys.Clone()
		for i, info := range ie.Trace {
			if replay.DoneCount() > 0 {
				t.Fatalf("%v: invariant already violated before step %d", engine, i)
			}
			if info.Op.Kind == machine.OpCrash {
				_, err = replay.Crash(info.Proc)
			} else {
				_, err = replay.Step(info.Proc, info.Choice)
			}
			if err != nil {
				t.Fatalf("%v: trace does not replay at step %d: %v", engine, i, err)
			}
		}
		if replay.DoneCount() == 0 {
			t.Fatalf("%v: replayed trace does not violate the invariant", engine)
		}
	}
}

// TestSymmetryReducesStates: symmetry must actually pay on a symmetric
// system — same-input N=2 snapshot, identity wirings, a 2-element group.
func TestSymmetryReducesStates(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"g", "g"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(sys.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := Run(sys.Clone(), Options{Canonicalizer: canon.ProcSymmetry{}})
	if err != nil {
		t.Fatal(err)
	}
	if red.States >= full.States {
		t.Errorf("no reduction: %d >= %d", red.States, full.States)
	}
	if red.Stats.GroupSize != 2 {
		t.Errorf("group size %d, want 2", red.Stats.GroupSize)
	}
	if red.Stats.Symmetry != "proc" {
		t.Errorf("stats symmetry %q", red.Stats.Symmetry)
	}
}

// TestWitnessSearchPinsIdentity: the non-atomicity witness search tracks
// a fixed candidate view in its aux bit — not orbit-invariant — so it
// must run unreduced regardless of the configured symmetry, and still
// prove atomicity at N=2.
func TestWitnessSearchPinsIdentity(t *testing.T) {
	r, err := FindNonAtomicityWitness(SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Wirings: FilterProc0,
		Options: Options{Canonicalizer: canon.FullSymmetry{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Found || !r.Exhaustive {
		t.Errorf("witness result %+v", r)
	}
}

// uniformOdds is the collision estimate for states uniform 64-bit
// hashes: about states²/2 pairs, each equal with probability 2⁻⁶⁴.
func uniformOdds(states int) float64 {
	s := float64(states)
	return s * s / 0x1p65
}

// TestCollisionOddsFactor pins the collision estimate at both ends of
// the N=3 group sizes: a fingerprint is one hash of the least mirror, so
// no symmetry (k = 1) and the largest group (k = 6) both give the
// uniform-hash states²/2⁶⁵, a factor of 1.
func TestCollisionOddsFactor(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"g", "g", "g"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		can    canon.Canonicalizer
		k      int
		factor float64
	}{{canon.Identity{}, 1, 1}, {canon.FullSymmetry{}, 6, 1}} {
		res, err := Run(sys.Clone(), Options{Canonicalizer: c.can, MaxStates: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.GroupSize != c.k {
			t.Fatalf("%v: group size %d, want %d", c.can, res.Stats.GroupSize, c.k)
		}
		uniform := uniformOdds(res.States)
		if got := res.CollisionOdds; math.Abs(got/uniform-c.factor) > 1e-12 {
			t.Errorf("k=%d: odds %g = %g × uniform, want × %g", c.k, got, got/uniform, c.factor)
		}
	}
}

// TestCollisionOddsUnderSymmetry: every engine reports the uniform-hash
// odds of a reduced run.
func TestCollisionOddsUnderSymmetry(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"g", "g"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
		res, err := Run(sys.Clone(), Options{Engine: engine, Workers: 2, Canonicalizer: canon.FullSymmetry{}})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if res.Stats.GroupSize < 2 {
			t.Fatalf("%v: group size %d, want a nontrivial group", engine, res.Stats.GroupSize)
		}
		if want := uniformOdds(res.States); math.Abs(res.CollisionOdds/want-1) > 1e-12 {
			t.Errorf("%v: collision odds %g, want %g (states=%d)", engine, res.CollisionOdds, want, res.States)
		}
	}
}
