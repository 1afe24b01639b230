package explore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/baseline"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
	"anonshm/internal/view"
)

// blockingSystem builds an n-processor system of the deliberately
// non-wait-free baseline (announce, then scan until a peer shows up) over
// n registers with identity wirings.
func blockingSystem(t *testing.T, n int) *machine.System {
	t.Helper()
	in := view.NewInterner()
	machines := make([]machine.Machine, n)
	for i := range machines {
		machines[i] = baseline.NewBlocking(n, in.Intern(fmt.Sprintf("p%d", i)))
	}
	mem, err := anonmem.New(n, core.EmptyCell, anonmem.IdentityWirings(n, n))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, machines)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCrashEngineEquivalence: with a crash budget, all three engines must
// agree exactly on the reachable crash-augmented state space — states,
// edges and terminals. This is the crash analogue of
// TestParallelMatchesBFS and the in-repo form of the acceptance run
// (anonexplore -check waitfree -crashes N-1 on every engine).
func TestCrashEngineEquivalence(t *testing.T) {
	sys2, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	sys3, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	// Full deterministic N=3 exploration is far too large for a unit test;
	// cut it with the same state-local (hence engine-independent) prune as
	// TestParallelMatchesBFS.
	prune3 := func(n Node) bool {
		for _, m := range n.Sys.Procs {
			if v, ok := m.(core.Viewer); ok && v.View().Len() >= 2 {
				return true
			}
		}
		return false
	}
	cases := map[string]struct {
		sys     *machine.System
		prune   func(Node) bool
		crashes int
	}{
		"snapshot-n2-f1": {sys2, nil, 1},
		"snapshot-n2-f2": {sys2, nil, 2}, // budget n: even the last survivor may crash
		"snapshot-n3-f1": {sys3, prune3, 1},
		"snapshot-n3-f2": {sys3, prune3, 2},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && c.prune != nil {
				t.Skip("short mode: N=3 crash spaces take ~10s each")
			}
			ref, err := Run(c.sys.Clone(), Options{Engine: BFSEngine, MaxCrashes: c.crashes, Prune: c.prune})
			if err != nil {
				t.Fatal(err)
			}
			if ref.States == 0 || ref.Truncated {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			noCrash, err := Run(c.sys.Clone(), Options{Engine: BFSEngine, Prune: c.prune})
			if err != nil {
				t.Fatal(err)
			}
			if ref.States <= noCrash.States {
				t.Errorf("crash exploration found %d states, failure-free %d: crash branches missing",
					ref.States, noCrash.States)
			}
			for _, ec := range []engineConfig{{"dfs", DFSEngine, 1}, {"parallel", BFSEngine, 4}} {
				res, err := Run(c.sys.Clone(), ec.on(Options{MaxCrashes: c.crashes, Prune: c.prune}))
				if err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				if res.States != ref.States || res.Edges != ref.Edges || res.Terminals != ref.Terminals {
					t.Errorf("%s: states=%d edges=%d terminals=%d, want %d/%d/%d",
						ec.name, res.States, res.Edges, res.Terminals,
						ref.States, ref.Edges, ref.Terminals)
				}
			}
		})
	}
}

// TestCrashTerminalsAreQuiescent: terminal states of a crash-enabled
// exploration are the quiescent ones — every processor done or crashed —
// and the all-crashed state is reachable when the budget allows it.
func TestCrashTerminalsAreQuiescent(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	var sawAllCrashed, sawSurvivor bool
	inv := func(n Node) error {
		if n.Sys.Quiescent() {
			switch n.Sys.CrashCount() {
			case n.Sys.N():
				sawAllCrashed = true
			case 0:
				sawSurvivor = true
			}
		}
		return nil
	}
	if _, err := Run(sys.Clone(), Options{Engine: BFSEngine, MaxCrashes: 2, Invariant: inv}); err != nil {
		t.Fatal(err)
	}
	if !sawAllCrashed || !sawSurvivor {
		t.Errorf("quiescent coverage incomplete: allCrashed=%v failureFree=%v", sawAllCrashed, sawSurvivor)
	}
}

// TestWaitFreeWithCrashes: the Figure 3 snapshot and Figure 4 renaming
// algorithms stay wait-free with up to N−1 crash faults, on every engine,
// with identical state counts across engines.
func TestWaitFreeWithCrashes(t *testing.T) {
	c := SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Nondet:  true,
		Wirings: FilterProc0,
		Options: Options{MaxCrashes: 1},
	}
	states := map[string]int{}
	for _, ec := range engineConfigs(4) {
		cfg := c
		cfg.Options = ec.on(cfg.Options)
		sweep, err := CheckSnapshotWaitFree(cfg)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		if sweep.TotalStates == 0 {
			t.Fatalf("%s: empty sweep", ec.name)
		}
		states[ec.name] = sweep.TotalStates
	}
	if states["dfs"] != states["bfs"] || states["parallel"] != states["bfs"] {
		t.Errorf("engines disagree on crash-augmented state counts: %v", states)
	}

	// Renaming (Figure 4), one representative wiring, crash budget N−1.
	renSys, _, err := renaming.NewSystem(renaming.Config{Inputs: []string{"g1", "g2"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ec := range engineConfigs(4) {
		res, err := Run(renSys.Clone(), ec.on(Options{
			MaxCrashes: 1,
			Invariant:  WaitFree(DefaultSoloBound(2, 2)),
		}))
		if err != nil {
			t.Fatalf("renaming on %s: %v", ec.name, err)
		}
		if res.Cycle {
			t.Fatalf("renaming on %s: unexpected cycle", ec.name)
		}
	}
}

// TestBlockingFailsWaitFree: the blocking baseline is the negative
// fixture — every engine must reject it with an *InvariantError whose
// trace replays to the violating state.
func TestBlockingFailsWaitFree(t *testing.T) {
	for _, ec := range engineConfigs(4) {
		t.Run(ec.name, func(t *testing.T) {
			sys := blockingSystem(t, 2)
			_, err := Run(sys.Clone(), ec.on(Options{
				MaxCrashes: 1,
				Invariant:  WaitFree(DefaultSoloBound(2, 2)),
			}))
			var ie *InvariantError
			if !errors.As(err, &ie) {
				t.Fatalf("expected InvariantError, got %v", err)
			}
			if !strings.Contains(ie.Err.Error(), "wait-freedom violated") {
				t.Errorf("unexpected violation: %v", ie.Err)
			}
			if ie.Trace == nil {
				t.Fatal("no counterexample trace")
			}
			// The trace must replay: apply it to a fresh system and land in
			// a state where some enabled processor cannot solo-terminate.
			replay := sys.Clone()
			for _, in := range ie.Trace {
				var err error
				if in.Op.Kind == machine.OpCrash {
					_, err = replay.Crash(in.Proc)
				} else {
					_, err = replay.Step(in.Proc, 0) // blocking machines are deterministic
				}
				if err != nil {
					t.Fatalf("trace does not replay: %v", err)
				}
			}
			if err := WaitFree(DefaultSoloBound(2, 2))(Node{Sys: replay}); err == nil {
				t.Error("replayed end state satisfies the invariant; trace not a counterexample")
			}
		})
	}
}

// TestBlockingCycleDetected: without the invariant, the blocking
// baseline's solo scan loop shows up as a cycle to DFS, the engine that
// detects cycles.
func TestBlockingCycleDetected(t *testing.T) {
	sys := blockingSystem(t, 2)
	res, err := Run(sys.Clone(), Options{Engine: DFSEngine})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cycle {
		t.Error("DFS missed the scan cycle")
	}
}

// TestRootInvariantTrace is the regression test for the lost root trace:
// when the initial state itself violates the invariant, every engine
// must return an *InvariantError carrying the (empty but non-nil)
// one-node trace, not a nil one.
func TestRootInvariantTrace(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	rootErr := errors.New("root is bad")
	for _, ec := range engineConfigs(4) {
		t.Run(ec.name, func(t *testing.T) {
			_, err := Run(sys.Clone(), ec.on(Options{
				Invariant: func(n Node) error { return rootErr },
			}))
			var ie *InvariantError
			if !errors.As(err, &ie) {
				t.Fatalf("expected InvariantError, got %v", err)
			}
			if !errors.Is(ie, rootErr) {
				t.Errorf("wrong cause: %v", ie.Err)
			}
			if ie.Trace == nil {
				t.Error("root violation lost its trace")
			}
			if len(ie.Trace) != 0 {
				t.Errorf("root trace should be empty, got %d steps", len(ie.Trace))
			}
		})
	}
}
