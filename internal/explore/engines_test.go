package explore

import (
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/store"
	"anonshm/internal/view"
)

// engineCase is one system the engine-equivalence tests run on, with the
// (engine-independent) exploration options it needs to stay small.
type engineCase struct {
	sys  *machine.System
	opts Options
}

// engineConfig is one engine configuration the equivalence tests run,
// named as their subtests and messages are.
type engineConfig struct {
	name    string
	engine  Engine
	workers int
}

// on returns o set to run c.
func (c engineConfig) on(o Options) Options {
	o.Engine, o.Workers = c.engine, c.workers
	return o
}

// engineConfigs are the configurations the equivalence tests compare:
// "bfs", the breadth-first engine at one worker, "dfs", and "parallel",
// the breadth-first engine at the given worker count.
func engineConfigs(workers int) []engineConfig {
	return []engineConfig{{"bfs", BFSEngine, 1}, {"dfs", DFSEngine, 1}, {"parallel", BFSEngine, workers}}
}

// engineSystems builds the small systems the engine-equivalence tests run
// on: 2-processor snapshot systems (nondeterministic, over every
// canonical wiring), a 3-processor snapshot system cut down by a
// depth-independent prune (full exploration is ~10⁸ states), and the
// never-terminating write-scan loop (a cyclic state graph).
func engineSystems(t *testing.T) map[string]engineCase {
	t.Helper()
	out := map[string]engineCase{}
	for perms := range Wirings(2, 2, WiringOptions{Filter: FilterProc0}) {
		sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Wirings: perms, Nondet: true})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("snapshot-n2-%v", perms[1])] = engineCase{sys: sys}
	}
	sys3, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	// Views only grow, so pruning on view size is a function of the state
	// alone — every engine cuts the exact same subtree.
	prune3 := func(n Node) bool {
		for _, m := range n.Sys.Procs {
			if v, ok := m.(core.Viewer); ok && v.View().Len() >= 2 {
				return true
			}
		}
		return false
	}
	out["snapshot-n3-pruned"] = engineCase{sys: sys3, opts: Options{Prune: prune3}}
	ws, _, err := core.NewWriteScanSystem(core.Config{Inputs: []string{"a", "b"}, Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out["writescan-n2"] = engineCase{sys: ws}
	return out
}

// TestParallelMatchesBFS is the engine-equivalence test: on every small
// system, BFSEngine at several workers must visit exactly the same
// number of states, edges and terminals as BFSEngine at one worker and
// DFSEngine, and reach the same BFS MaxDepth as at one worker, since
// level rounds discover every state at its minimum depth.
func TestParallelMatchesBFS(t *testing.T) {
	for name, c := range engineSystems(t) {
		sys := c.sys
		t.Run(name, func(t *testing.T) {
			ropts := c.opts
			ropts.Engine = BFSEngine
			ref, err := Run(sys.Clone(), ropts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.States == 0 || ref.Truncated {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			dopts := c.opts
			dopts.Engine = DFSEngine
			dfs, err := Run(sys.Clone(), dopts)
			if err != nil {
				t.Fatal(err)
			}
			if dfs.States != ref.States || dfs.Edges != ref.Edges || dfs.Terminals != ref.Terminals || dfs.Pruned != ref.Pruned {
				t.Errorf("dfs: states/edges/terminals/pruned %d/%d/%d/%d, want %d/%d/%d/%d",
					dfs.States, dfs.Edges, dfs.Terminals, dfs.Pruned, ref.States, ref.Edges, ref.Terminals, ref.Pruned)
			}
			for _, workers := range []int{2, 4} {
				popts := c.opts
				popts.Engine = BFSEngine
				popts.Workers = workers
				got, err := Run(sys.Clone(), popts)
				if err != nil {
					t.Fatal(err)
				}
				if got.States != ref.States || got.Edges != ref.Edges || got.Terminals != ref.Terminals {
					t.Errorf("workers=%d: states/edges/terminals %d/%d/%d, want %d/%d/%d",
						workers, got.States, got.Edges, got.Terminals, ref.States, ref.Edges, ref.Terminals)
				}
				if got.Pruned != ref.Pruned {
					t.Errorf("workers=%d: pruned %d, want %d", workers, got.Pruned, ref.Pruned)
				}
				if got.MaxDepth != ref.MaxDepth {
					t.Errorf("workers=%d: max depth %d, want %d", workers, got.MaxDepth, ref.MaxDepth)
				}
				if got.Truncated {
					t.Errorf("workers=%d: unexpected truncation", workers)
				}
			}
		})
	}
}

// TestParallelInvariantAgreesWithSerial: every engine configuration must
// agree on the invariant verdict (violated or not) for a violated
// invariant, and the several-worker counterexample must be a real trace
// (replay-checked below).
func TestParallelInvariantAgreesWithSerial(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("done processor observed")
	inv := func(n Node) error {
		if n.Sys.DoneCount() > 0 {
			return boom
		}
		return nil
	}
	for _, ec := range engineConfigs(4) {
		_, err := Run(sys.Clone(), ec.on(Options{Invariant: inv}))
		var ie *InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: expected InvariantError, got %v", ec.name, err)
		}
		if !errors.Is(err, boom) {
			t.Errorf("%s: unwrap failed", ec.name)
		}
		if len(ie.Trace) == 0 {
			t.Errorf("%s: empty counterexample trace", ec.name)
		}
	}
}

// TestParallelCounterexampleReplays replays the breadth-first engine's
// counterexample trace at several workers step by step from the initial
// state and asserts it reaches a state that really violates the
// invariant.
func TestParallelCounterexampleReplays(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("two outputs")
	inv := func(n Node) error {
		if n.Sys.DoneCount() >= 2 {
			return boom
		}
		return nil
	}
	_, err = Run(sys.Clone(), Options{Engine: BFSEngine, Workers: 4, Invariant: inv})
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("expected InvariantError, got %v", err)
	}
	replay := sys.Clone()
	for i, info := range ie.Trace {
		if replay.DoneCount() >= 2 {
			t.Fatalf("invariant already violated before step %d of %d", i, len(ie.Trace))
		}
		if _, err := replay.Step(info.Proc, info.Choice); err != nil {
			t.Fatalf("trace does not replay at step %d: %v", i, err)
		}
	}
	if replay.DoneCount() < 2 {
		t.Fatalf("replayed trace does not violate the invariant: DoneCount=%d", replay.DoneCount())
	}
}

// TestParallelStatsInternallyConsistent pins the bookkeeping identities a
// complete (untruncated, unpruned) run must satisfy: every discovered
// state is expanded by exactly one worker, every generated successor is
// one dedup lookup, and every lookup that was not a new state is a hit.
func TestParallelStatsInternallyConsistent(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys.Clone(), Options{Engine: BFSEngine, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Engine != BFSEngine || res.Stats.Workers != 3 {
		t.Errorf("stats engine/workers = %v/%d", res.Stats.Engine, res.Stats.Workers)
	}
	var expanded int64
	for _, n := range res.Stats.WorkerSteps {
		expanded += n
	}
	if expanded != int64(res.States) {
		t.Errorf("worker steps sum %d != states %d", expanded, res.States)
	}
	if res.Stats.DedupLookups != int64(res.Edges)+1 {
		t.Errorf("dedup lookups %d != edges+1 %d", res.Stats.DedupLookups, res.Edges+1)
	}
	if res.Stats.DedupHits != int64(res.Edges)-int64(res.States)+1 {
		t.Errorf("dedup hits %d != edges-states+1 %d", res.Stats.DedupHits, res.Edges-res.States+1)
	}
	if res.Stats.WallTime <= 0 || res.StatesPerSec() <= 0 {
		t.Errorf("wall/rate not recorded: %+v", res.Stats)
	}
	if res.Stats.FrontierPeak <= 0 {
		t.Error("frontier peak not recorded")
	}
}

// TestSerialStatsRecorded checks the one-worker engines fill the same
// Stats block.
func TestSerialStatsRecorded(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{BFSEngine, DFSEngine} {
		res, err := Run(sys.Clone(), Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Engine != engine || res.Stats.Workers != 1 {
			t.Errorf("%v: stats engine/workers = %v/%d", engine, res.Stats.Engine, res.Stats.Workers)
		}
		if len(res.Stats.WorkerSteps) != 1 || res.Stats.WorkerSteps[0] == 0 {
			t.Errorf("%v: worker steps %v", engine, res.Stats.WorkerSteps)
		}
		if res.Stats.DedupLookups == 0 || res.Stats.DedupHits == 0 || res.Stats.DedupHitRate() <= 0 {
			t.Errorf("%v: dedup counters empty: %+v", engine, res.Stats)
		}
		if res.Stats.FrontierPeak <= 0 || res.StatesPerSec() <= 0 {
			t.Errorf("%v: stats incomplete: %+v", engine, res.Stats)
		}
	}
}

// TestZeroEngineIsDFS: the zero Engine is DFSEngine in Run, in the
// sweeps and in the sweep checkpoint identity.
func TestZeroEngineIsDFS(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Engine != DFSEngine {
		t.Errorf("Run: engine %v, want dfs", res.Stats.Engine)
	}
	c := SnapshotConfig{Inputs: []string{"a", "b"}, Wirings: FilterProc0, Options: Options{Checkpoint: t.TempDir()}}
	sweep, err := CheckSnapshotSafety(c)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Stats.Engine != DFSEngine {
		t.Errorf("sweep: engine %v, want dfs", sweep.Stats.Engine)
	}
	c.Resume, c.Engine = c.Checkpoint, DFSEngine
	if _, err := CheckSnapshotSafety(c); err != nil {
		t.Errorf("an explicit dfs resume of a sweep run with the zero Engine: %v", err)
	}
	cs, err := CheckConsensusBounded(ConsensusConfig{Inputs: []string{"x", "y"}, MaxTimestamp: 1, Wirings: FilterProc0})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Stats.Engine != DFSEngine {
		t.Errorf("consensus sweep: engine %v, want dfs", cs.Stats.Engine)
	}
}

// TestBoundedCutIsPinned pins where the state bound cuts the
// breadth-first engine at one worker: before the first expansion that
// would start with more than MaxStates states known, never inside one.
// The numbers are those the historical serial BFS engine reported.
func TestBoundedCutIsPinned(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"bfs":           {Engine: BFSEngine},
		"bfs-workers-1": {Engine: BFSEngine, Workers: 1},
	} {
		for _, b := range budgets {
			opts := opts
			opts.MaxStates = 1000
			res, err := Run(sys.Clone(), withBudget(t, opts, b.limit))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, b.name, err)
			}
			if res.States != 1004 || res.Edges != 1594 || res.MaxDepth != 5 || !res.Truncated {
				t.Errorf("%s/%s: states=%d edges=%d maxDepth=%d truncated=%v, want 1004/1594/5/true",
					name, b.name, res.States, res.Edges, res.MaxDepth, res.Truncated)
			}
		}
	}
}

// TestBFSTracesAreShortest: at one worker the breadth-first engine
// reports a violation at the smallest depth any violating state has,
// so its counterexample trace is a shortest one, with no budget, under
// one that spills, and across a resume. A level-by-level reference
// search computes that depth.
func TestBFSTracesAreShortest(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	doneAtLeast := func(k int) func(Node) error {
		return func(n Node) error {
			if n.Sys.DoneCount() >= k {
				return fmt.Errorf("%d processors done", n.Sys.DoneCount())
			}
			return nil
		}
	}
	cases := map[string]struct {
		inv     func(Node) error
		crashes int
	}{
		"one-done":       {doneAtLeast(1), 0},
		"both-done":      {doneAtLeast(2), 0},
		"one-done-crash": {doneAtLeast(1), 1},
		"solo-bound-16":  {WaitFree(16), 0}, // first violated two steps in
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			want := minViolationDepth(t, sys, c.inv, c.crashes)
			if want < 0 {
				t.Fatal("the reference search found no violation")
			}
			for _, run := range []string{"mem", "disk", "resumed"} {
				opts := Options{Engine: BFSEngine, Invariant: c.inv, MaxCrashes: c.crashes}
				switch run {
				case "disk":
					opts = withBudget(t, opts, tinyMemLimit)
				case "resumed":
					// Canceled after `want` discovered states, which lie
					// shallower than the violation, then resumed.
					killed := opts
					killed.Checkpoint, killed.ProgressEvery = t.TempDir(), 1
					killed.Cancel, killed.Progress = cancelAfter(want)
					if _, err := Run(sys.Clone(), killed); !errors.Is(err, ErrCanceled) {
						t.Fatalf("killed run: err = %v, want ErrCanceled", err)
					}
					opts.Resume = killed.Checkpoint
				}
				_, err := Run(sys.Clone(), opts)
				var ie *InvariantError
				if !errors.As(err, &ie) {
					t.Fatalf("%v: err = %v, want an *InvariantError", run, err)
				}
				if len(ie.Trace) != want {
					t.Errorf("%v: trace of %d steps, want the shortest, %d", run, len(ie.Trace), want)
				}
			}
		})
	}
}

// minViolationDepth is the reference for TestBFSTracesAreShortest: it
// explores init one whole depth level at a time and returns the first
// level holding a state that violates inv, or -1 if none does.
func minViolationDepth(t *testing.T, init *machine.System, inv func(Node) error, crashes int) int {
	t.Helper()
	hasher, err := canon.Identity{}.Bind(init)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{hasher.Fingerprint(init, 0): true}
	level := []*machine.System{init.Clone()}
	for depth := 0; len(level) > 0; depth++ {
		var next []*machine.System
		for _, sys := range level {
			if inv(Node{Sys: sys, Depth: depth}) != nil {
				return depth
			}
			var succs []*machine.System
			for p := 0; p < sys.N(); p++ {
				if !sys.Enabled(p) {
					continue
				}
				for c := range sys.Procs[p].Pending() {
					succ := sys.Clone()
					if _, err := succ.Step(p, c); err != nil {
						t.Fatal(err)
					}
					succs = append(succs, succ)
				}
				if sys.CrashCount() < crashes {
					succ := sys.Clone()
					if _, err := succ.Crash(p); err != nil {
						t.Fatal(err)
					}
					succs = append(succs, succ)
				}
			}
			for _, succ := range succs {
				if fp := hasher.Fingerprint(succ, 0); !seen[fp] {
					seen[fp] = true
					next = append(next, succ)
				}
			}
		}
		level = next
	}
	return -1
}

// TestExpansionAllocs bounds what the engines allocate per stored state
// on the benchmark's N=3 snapshot systems (orbit wiring 0, full
// symmetry): the same-input system under the snapshot invariant
// (15,000 states) on both engines, and the distinct-input system with
// register choice under the wait-freedom invariant (9,000 states) on
// DFS. Successors are copied into recycled systems, Pending, Output and
// the snapshot invariant allocate nothing, and the wait-freedom
// invariant copies each state into a pooled solo system, so what
// remains is the machines' own steps (the solo runs' included) and, on
// the breadth-first engine, the systems its frontier keeps and each
// state's discovery-path node. It counts mallocs over a second run of
// each configuration, after a first has warmed the canonicalizer's
// scratch pool and the invariant's.
func TestExpansionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ggg, in, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"g", "g", "g"}, Wirings: anonmem.IdentityWirings(3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	abc, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}, Wirings: anonmem.IdentityWirings(3, 3), Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := in.Lookup("g")
	safety := Options{Canonicalizer: canon.FullSymmetry{}, MaxStates: 15_000, Invariant: SnapshotInvariant([]view.ID{g, g, g})}
	waitFree := Options{Canonicalizer: canon.FullSymmetry{}, MaxStates: 9_000, Invariant: WaitFree(DefaultSoloBound(3, 3))}
	for _, c := range []struct {
		name   string
		sys    *machine.System
		opts   Options
		engine Engine
		bound  float64
	}{
		{"snapshot", ggg, safety, DFSEngine, 3},
		{"snapshot", ggg, safety, BFSEngine, 8},
		{"waitfree", abc, waitFree, DFSEngine, 14},
	} {
		opts := c.opts
		opts.Engine = c.engine
		if _, err := Run(c.sys, opts); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(c.sys, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perState := float64(after.Mallocs-before.Mallocs) / float64(res.States)
		t.Logf("%s/%v: %.2f allocations per state over %d states", c.name, c.engine, perState, res.States)
		if perState >= c.bound {
			t.Errorf("%s/%v: %.2f allocations per stored state, want fewer than %v", c.name, c.engine, perState, c.bound)
		}
	}
}

// TestParallelTruncation: the state bound stops the breadth-first engine
// at several workers and is reported.
func TestParallelTruncation(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys.Clone(), Options{Engine: BFSEngine, Workers: 4, MaxStates: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("not truncated")
	}
}

// TestParallelPruneMatchesSerial: with a depth-independent prune, the
// breadth-first engine agrees on state and pruned counts at one worker
// and at several.
func TestParallelPruneMatchesSerial(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	prune := func(n Node) bool { return n.Sys.DoneCount() > 0 }
	ref, err := Run(sys.Clone(), Options{Engine: BFSEngine, Prune: prune})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(sys.Clone(), Options{Engine: BFSEngine, Workers: 4, Prune: prune})
	if err != nil {
		t.Fatal(err)
	}
	if got.States != ref.States || got.Pruned != ref.Pruned {
		t.Errorf("states/pruned %d/%d, want %d/%d", got.States, got.Pruned, ref.States, ref.Pruned)
	}
}

// TestParseEngine covers the flag-level engine names: dfs, the zero
// value and the empty name's, and bfs.
func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{"": DFSEngine, "dfs": DFSEngine, "bfs": BFSEngine} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"bogus", "auto", "parallel"} {
		if _, err := ParseEngine(s); err == nil {
			t.Errorf("engine %q accepted", s)
		}
	}
	var zero Engine
	if zero != DFSEngine || DFSEngine.String() != "dfs" || BFSEngine.String() != "bfs" {
		t.Errorf("zero Engine %v; String = %q, %q", zero, DFSEngine, BFSEngine)
	}
}

// TestEngineFlagValue: Engine implements flag.Value, so cmd binaries can
// register it with flag.Var directly.
func TestEngineFlagValue(t *testing.T) {
	var e Engine
	var _ flag.Value = &e
	if err := e.Set("bfs"); err != nil || e != BFSEngine {
		t.Errorf("Set(bfs) = %v, e=%v", err, e)
	}
	if err := e.Set("bogus"); err == nil {
		t.Error("Set(bogus) accepted")
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var got Engine
	fs.Var(&got, "engine", "")
	if err := fs.Parse([]string{"-engine", "dfs"}); err != nil || got != DFSEngine {
		t.Errorf("flag parse: err=%v got=%v", err, got)
	}
}

// TestWiringFilterFlagValue: WiringFilter round-trips through flag.Value.
func TestWiringFilterFlagValue(t *testing.T) {
	var f WiringFilter
	var _ flag.Value = &f
	for s, want := range map[string]WiringFilter{
		"all": FilterAll, "proc0": FilterProc0, "orbits": FilterOrbits,
	} {
		if err := f.Set(s); err != nil || f != want {
			t.Errorf("Set(%q) = %v, f=%v", s, err, f)
		}
		if f.String() != s {
			t.Errorf("String() = %q, want %q", f.String(), s)
		}
	}
	if err := f.Set("bogus"); err == nil {
		t.Error("Set(bogus) accepted")
	}
}

// TestChecksAcceptEngines: the packaged sweeps take an engine and report
// identical totals across engines; engines that cannot answer the
// question are rejected uniformly.
func TestChecksAcceptEngines(t *testing.T) {
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0}
	ref, err := CheckSnapshotSafety(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, ec := range []engineConfig{{"bfs", BFSEngine, 1}, {"parallel", BFSEngine, 4}} {
		c := base
		c.Options = ec.on(c.Options)
		sweep, err := CheckSnapshotSafety(c)
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		if sweep.TotalStates != ref.TotalStates || sweep.TotalEdges != ref.TotalEdges || sweep.Terminals != ref.Terminals {
			t.Errorf("%s: sweep %+v, want totals of %+v", ec.name, sweep, ref)
		}
		hitRate := float64(sweep.Stats.DedupHits) / float64(sweep.Stats.DedupLookups)
		if sweep.Stats.Engine != ec.engine || sweep.Stats.Workers != ec.workers || sweep.Stats.WallTime <= 0 ||
			sweep.StatesPerSec() <= 0 || sweep.Stats.DedupHitRate() != hitRate {
			t.Errorf("%s: sweep stats not merged: %+v", ec.name, sweep.Stats)
		}
	}

	// Wait-freedom runs on every engine: DFS checks cycles inline, and
	// every configuration checks the solo-bound invariant — which is all
	// the breadth-first engine runs.
	for _, ec := range engineConfigs(4) {
		c := base
		c.Options = ec.on(c.Options)
		if _, err := CheckSnapshotWaitFree(c); err != nil {
			t.Errorf("waitfree with %s: %v", ec.name, err)
		}
	}

	// The witness search runs on any engine; at N=2 all prove atomicity.
	for _, ec := range []engineConfig{{"dfs", DFSEngine, 1}, {"parallel", BFSEngine, 2}} {
		w := SnapshotConfig{Inputs: []string{"a", "b"}, Wirings: FilterProc0, Options: ec.on(Options{})}
		r, err := FindNonAtomicityWitness(w)
		if err != nil {
			t.Fatalf("witness with %s: %v", ec.name, err)
		}
		if r.Found || !r.Exhaustive {
			t.Errorf("witness with %s: %+v", ec.name, r)
		}
	}

	// Consensus sweep at several workers matches the serial totals.
	cref, err := CheckConsensusBounded(ConsensusConfig{Inputs: []string{"x", "y"}, MaxTimestamp: 2, Wirings: FilterProc0})
	if err != nil {
		t.Fatal(err)
	}
	cpar, err := CheckConsensusBounded(ConsensusConfig{
		Inputs: []string{"x", "y"}, MaxTimestamp: 2, Wirings: FilterProc0,
		Options: Options{Engine: BFSEngine, Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cpar.TotalStates != cref.TotalStates || cpar.Terminals != cref.Terminals {
		t.Errorf("consensus parallel sweep %+v, want totals of %+v", cpar, cref)
	}
}

// TestSweepAccumulatesMetrics checks that a wiring sweep keeps one row
// per wiring and that the rows add up to the sweep totals: states,
// edges and pruned states sum, MaxDepth is the deepest row, and the
// sweep is truncated iff a row is.
func TestSweepAccumulatesMetrics(t *testing.T) {
	sweep, err := consensusSweep(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.PerWiring) != sweep.Wirings {
		t.Fatalf("%d rows for %d wirings", len(sweep.PerWiring), sweep.Wirings)
	}
	var sum WiringRow
	for _, row := range sweep.PerWiring {
		sum.States += row.States
		sum.Edges += row.Edges
		sum.Pruned += row.Pruned
		sum.MaxDepth = max(sum.MaxDepth, row.MaxDepth)
		sum.Truncated = sum.Truncated || row.Truncated
		if row.WallSeconds <= 0 {
			t.Errorf("row %+v carries no wall time", row)
		}
	}
	if sum.States != sweep.TotalStates || sum.Edges != sweep.TotalEdges || sum.Pruned != sweep.Pruned ||
		sum.MaxDepth != sweep.MaxDepth || sum.Truncated != sweep.Truncated {
		t.Errorf("rows sum to %+v; sweep has states=%d edges=%d pruned=%d max-depth=%d truncated=%v",
			sum, sweep.TotalStates, sweep.TotalEdges, sweep.Pruned, sweep.MaxDepth, sweep.Truncated)
	}
	if sweep.Pruned == 0 || sweep.CollisionOdds <= 0 {
		t.Errorf("consensus sweep reports pruned=%d collision-odds=%g; want both positive", sweep.Pruned, sweep.CollisionOdds)
	}
}

// TestChecksRejectOwnedOptions: the packaged checks set Invariant, Aux
// and Prune themselves, so a caller-set one is rejected before
// any state is explored; the witness search, which keeps no sweep
// checkpoint, also rejects Checkpoint and Resume.
func TestChecksRejectOwnedOptions(t *testing.T) {
	snapshot := func(o Options) SnapshotConfig {
		return SnapshotConfig{Inputs: []string{"a", "b"}, Wirings: FilterProc0, Options: o}
	}
	witness := func(o Options) error { _, err := FindNonAtomicityWitness(snapshot(o)); return err }
	checks := []struct {
		name string
		run  func(Options) error
	}{
		{"safety", func(o Options) error { _, err := CheckSnapshotSafety(snapshot(o)); return err }},
		{"waitfree", func(o Options) error { _, err := CheckSnapshotWaitFree(snapshot(o)); return err }},
		{"consensus", func(o Options) error { _, err := consensusSweep(o); return err }},
		{"atomicity", witness},
	}
	rejected := func(t *testing.T, err error, check string) {
		t.Helper()
		var ue *UnsupportedOptionError
		if !errors.As(err, &ue) || ue.Check != check {
			t.Errorf("err = %v, want an *UnsupportedOptionError from the %s check", err, check)
		}
	}
	for _, owned := range []Options{
		{Invariant: func(Node) error { return nil }},
		{Aux: func(aux uint64, _ machine.StepInfo, _ *machine.System) uint64 { return aux }},
		{Prune: func(Node) bool { return false }},
	} {
		for _, c := range checks {
			rejected(t, c.run(owned), c.name)
		}
	}
	rejected(t, witness(Options{Checkpoint: t.TempDir()}), "atomicity")
	rejected(t, witness(Options{Resume: t.TempDir()}), "atomicity")
}

// TestFPTable exercises the engines' visited set with no budget through
// the store layer, including growth well past the initial capacity, the
// zero-fingerprint substitution and the round trip through the
// checkpoint fp file.
func TestFPTable(t *testing.T) {
	st, err := store.Open(store.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, err := st.NewVisited(true)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	const n = 100_000
	rng := uint64(0x243f6a8885a308d3)
	fps := make([]uint64, n)
	for i := range fps {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		fps[i] = rng
	}
	for _, fp := range fps {
		if fresh, _, _ := tbl.Insert(fp, 3); !fresh {
			t.Fatalf("fresh fingerprint %#x reported as duplicate", fp)
		}
	}
	for _, fp := range fps {
		fresh, improved, _ := tbl.Insert(fp, 3)
		if fresh {
			t.Fatalf("known fingerprint %#x reported as fresh", fp)
		}
		if improved {
			t.Fatalf("re-insert of %#x reported as improvement", fp)
		}
	}
	if fresh, _, _ := tbl.Insert(0, 5); !fresh {
		t.Error("zero fingerprint not inserted")
	}
	if fresh, _, _ := tbl.Insert(0, 2); fresh {
		t.Error("zero fingerprint re-insert reported as fresh")
	}
	if got := tbl.Len(); got != int64(n+1) {
		t.Fatalf("Len() = %d, want %d", got, n+1)
	}
	// Every fingerprint, the zero one included, survives the round trip
	// through the checkpoint fp file.
	path := filepath.Join(t.TempDir(), "visited.fp")
	if err := tbl.WriteFPFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := st.NewVisited(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.LoadFPFile(path); err != nil {
		t.Fatal(err)
	}
	if got := back.Len(); got != int64(n+1) {
		t.Fatalf("reloaded Len() = %d, want %d", got, n+1)
	}
	for _, fp := range append(fps, 0) {
		if fresh, _, _ := back.Insert(fp, 3); fresh {
			t.Fatalf("fingerprint %#x lost in the round trip", fp)
		}
	}
}
