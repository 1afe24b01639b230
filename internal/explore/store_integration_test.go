package explore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// These tests pin the out-of-core story end to end: the disk tier must
// be observationally identical to the historical in-RAM search (same
// counters, same verdicts, on every engine and symmetry level), and a
// run killed mid-search must resume from its checkpoint to the exact
// totals an uninterrupted run produces.

// tinyMemLimit forces the disk tier to actually spill on the small test
// systems (the hot table floors at store's minimum, well under these
// state counts).
const tinyMemLimit = store.Bytes(1 << 16)

// diskOpts returns opts switched to the disk tier with a tiny ceiling.
func diskOpts(t *testing.T, opts Options) Options {
	t.Helper()
	opts.Store = store.Disk
	opts.StoreDir = t.TempDir()
	opts.MemLimit = tinyMemLimit
	return opts
}

// TestDiskMatchesMem is the store-equivalence test: on every small
// system and every engine configuration, the disk tier under a
// spill-forcing memory ceiling must report exactly the counters of the
// in-RAM store.
func TestDiskMatchesMem(t *testing.T) {
	for name, c := range engineSystems(t) {
		c := c
		t.Run(name, func(t *testing.T) {
			for _, ec := range engineConfigs(4) {
				mopts := ec.on(c.opts)
				ref, err := Run(c.sys.Clone(), mopts)
				if err != nil {
					t.Fatalf("%s mem: %v", ec.name, err)
				}
				got, err := Run(c.sys.Clone(), diskOpts(t, mopts))
				if err != nil {
					t.Fatalf("%s disk: %v", ec.name, err)
				}
				if keyOf(got) != keyOf(ref) {
					t.Errorf("%s: disk %+v, mem %+v", ec.name, keyOf(got), keyOf(ref))
				}
				if got.Stats.StoreKind != "disk" {
					t.Errorf("%s: StoreKind = %q, want disk", ec.name, got.Stats.StoreKind)
				}
				// The hot table floors at 4096 slots and flushes at
				// half-full, so any run past that many states must have
				// spilled — otherwise the ceiling was never exercised.
				if got.States >= 4096 && got.Stats.Store.Spills == 0 {
					t.Errorf("%s: ceiling %d never spilled (states=%d); equivalence untested",
						ec.name, tinyMemLimit, got.States)
				}
			}
		})
	}
}

// TestDiskMatchesMemUnderSymmetry repeats the store-equivalence check on
// every symmetry level: canonical fingerprints flow through the same
// spill/merge path as exact ones, and the reduced counts must agree
// between tiers on every engine configuration.
func TestDiskMatchesMemUnderSymmetry(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "a"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
		for _, ec := range engineConfigs(4) {
			mopts := ec.on(Options{Canonicalizer: sym.Canonicalizer()})
			ref, err := Run(sys.Clone(), mopts)
			if err != nil {
				t.Fatalf("%s/%v mem: %v", ec.name, sym, err)
			}
			got, err := Run(sys.Clone(), diskOpts(t, mopts))
			if err != nil {
				t.Fatalf("%s/%v disk: %v", ec.name, sym, err)
			}
			if keyOf(got) != keyOf(ref) {
				t.Errorf("%s/%v: disk %+v, mem %+v", ec.name, sym, keyOf(got), keyOf(ref))
			}
		}
	}
}

// cancelAfter closes a cancel channel after n progress callbacks. Safe
// under the breadth-first workers' concurrent progress calls.
func cancelAfter(n int) (<-chan struct{}, func(states, edges int)) {
	ch := make(chan struct{})
	var once sync.Once
	calls := 0
	var mu sync.Mutex
	return ch, func(states, edges int) {
		mu.Lock()
		calls++
		fire := calls >= n
		mu.Unlock()
		if fire {
			once.Do(func() { close(ch) })
		}
	}
}

// TestKillAndResume hard-cancels every engine configuration on both
// tiers at several points of the run — right after the root, and a
// quarter, half and three quarters of the way — then resumes from the
// checkpoint and demands the exact totals of an uninterrupted run. A
// periodic checkpoint every 200 states (about 50 a run) ends
// breadth-first rounds mid-level around every cancel point, while 50
// repetitions of the whole test still fit go test's default 10-minute
// timeout.
func TestKillAndResume(t *testing.T) {
	for _, kind := range []store.Kind{store.Mem, store.Disk} {
		for _, ec := range engineConfigs(4) {
			t.Run(kind.String()+"/"+ec.name, func(t *testing.T) {
				sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
				if err != nil {
					t.Fatal(err)
				}
				opts := ec.on(Options{})
				if kind == store.Disk {
					opts = diskOpts(t, opts)
				}
				ref, err := Run(sys.Clone(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if ref.States < 200 {
					t.Fatalf("reference run too small to kill mid-flight: %d states", ref.States)
				}
				for _, at := range []struct {
					name  string
					calls int
				}{
					{"at-1", 1},
					{"at-1of4", ref.States / 4},
					{"at-2of4", ref.States / 2},
					{"at-3of4", ref.States * 3 / 4},
				} {
					t.Run(at.name, func(t *testing.T) {
						dir := t.TempDir()
						killed := opts
						killed.Checkpoint = dir
						killed.CheckpointEvery = 200
						killed.ProgressEvery = 1
						killed.Cancel, killed.Progress = cancelAfter(at.calls)
						if _, err := Run(sys.Clone(), killed); !errors.Is(err, ErrCanceled) {
							t.Fatalf("killed run: err = %v, want ErrCanceled", err)
						}

						resumed := opts
						resumed.Resume = dir
						resumed.Checkpoint = dir
						resumed.CheckpointEvery = 200
						got, err := Run(sys.Clone(), resumed)
						if err != nil {
							t.Fatalf("resumed run: %v", err)
						}
						if keyOf(got) != keyOf(ref) {
							t.Errorf("resumed %+v, uninterrupted %+v", keyOf(got), keyOf(ref))
						}
					})
				}
			})
		}
	}
}

// cancelEverySucc is cancelAfter's mid-expansion twin: an identity
// Options.Aux that closes the returned cancel channel at the n-th
// successor it is called on, so the cancel lands while a state is being
// expanded. Safe under the breadth-first engine's concurrent workers.
func cancelEverySucc(n int) (<-chan struct{}, func(uint64, machine.StepInfo, *machine.System) uint64) {
	ch := make(chan struct{})
	var once sync.Once
	var calls atomic.Int64
	return ch, func(aux uint64, _ machine.StepInfo, _ *machine.System) uint64 {
		if calls.Add(1) >= int64(n) {
			once.Do(func() { close(ch) })
		}
		return aux
	}
}

// TestKillResumeEveryK is the kill/resume property test. It cancels one
// whole run again and again, resumes it from its checkpoint each time
// until it completes, and demands the uninterrupted run's totals and
// dedup counters. Periodic checkpoints also end breadth-first rounds
// mid-level between the cancels. It covers DFS and the breadth-first
// engine at 1 and at 3 workers, both tiers (disk under tinyMemLimit)
// and every symmetry level, on the N=2 same-input snapshot system,
// whose 1,364 states (700 under either reduction) lie in 23 levels,
// with two cancel sources:
//
//   - states: after every k-th discovered state (a Progress call), with
//     a checkpoint every 7 states, so a DFS checkpoint's top frame is
//     always unexpanded;
//   - successors: after every 4k-th generated successor (an identity
//     Aux), with a crash budget of 1 and a checkpoint every 4k·7/10
//     states, so a DFS checkpoint's top frame is often partly expanded
//     and its cursor may point at a crash step. The budget triples the
//     states and edges, so the sparser cadences keep this source's
//     kills and checkpoints near the first one's.
//
// k is 10. -short, which make race and CI's repeated step use, sets it
// to 40.
//
// On each tier one more breadth-first input, without symmetry, changes
// the worker count at every resume, cycling through 1, 3 and 2: a
// checkpoint does not record the worker count, and a resume deals the
// frontier over however many workers it runs.
//
// One more DFS input checks that a cycle verdict and its trace survive
// every cut point: the blocking baseline at N=2 with one crash, whose 59
// states hold scan loops DFS meets early, is canceled after every k-th
// discovered state and resumed, for each k from 1 to 59, so some
// checkpoints precede the first back edge and some follow it.
func TestKillResumeEveryK(t *testing.T) {
	k := 10
	if testing.Short() {
		k *= 4
	}
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "a"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []store.Kind{store.Mem, store.Disk} {
		for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
			for _, ec := range engineConfigs(3) {
				t.Run(fmt.Sprintf("%v/%v/%s", kind, sym, ec.name), func(t *testing.T) {
					killResumeSources(t, sys, ec.on(Options{Canonicalizer: sym.Canonicalizer()}), kind, k, nil)
				})
			}
		}
		t.Run(fmt.Sprintf("%v/none/bfs-workers-1-3-2", kind), func(t *testing.T) {
			killResumeSources(t, sys, Options{Engine: BFSEngine}, kind, k, []int{1, 3, 2})
		})
	}
	t.Run("blocking-cycle/dfs", func(t *testing.T) {
		blocking := blockingSystem(t, 2)
		opts := Options{Engine: DFSEngine, MaxCrashes: 1}
		ref, err := Run(blocking.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Cycle {
			t.Fatal("DFS found no cycle in the blocking baseline")
		}
		for k := 1; k <= ref.States; k++ {
			t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
				killResumeEveryK(t, blocking, opts, k, 7, false, nil)
			})
		}
	})
}

// killResumeSources runs killResumeEveryK on opts, on the tier kind, with
// each of TestKillResumeEveryK's two cancel sources.
func killResumeSources(t *testing.T, sys *machine.System, opts Options, kind store.Kind, k int, workers []int) {
	if kind == store.Disk {
		opts = diskOpts(t, opts)
	}
	t.Run("states", func(t *testing.T) {
		killResumeEveryK(t, sys, opts, k, 7, false, workers)
	})
	t.Run("successors", func(t *testing.T) {
		opts := opts
		opts.MaxCrashes = 1
		_, opts.Aux = cancelEverySucc(1) // the identity Aux on the reference run too
		killResumeEveryK(t, sys, opts, 4*k, 4*k*7/10, true, workers)
	})
}

// killResumeEveryK runs opts uninterrupted, then again with a
// checkpoint every `every` states and a cancel after every k-th
// discovered state, or with bySucc after every k-th generated
// successor, resuming after every cancel, and compares the two: totals,
// dedup counters and, when DFS finds a cycle, its trace. A non-empty
// workers gives the worker count of each run in turn, the first run and
// then each resume, cycling. It demands at least one cancel per 2k
// events; on DFS, the successor cancels must also leave at least one
// checkpoint whose top frame is partly expanded.
func killResumeEveryK(t *testing.T, sys *machine.System, opts Options, k, every int, bySucc bool, workers []int) {
	t.Helper()
	ref, err := Run(sys.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cycle && len(ref.CycleTrace) == 0 {
		t.Fatal("the uninterrupted run reports a cycle without its trace")
	}
	dir := t.TempDir()
	run := opts
	run.Checkpoint, run.CheckpointEvery, run.ProgressEvery = dir, every, 1
	kills, midExpansion := 0, 0
	for {
		if len(workers) > 0 {
			run.Workers = workers[kills%len(workers)]
		}
		if bySucc {
			run.Cancel, run.Aux = cancelEverySucc(k)
		} else {
			run.Cancel, run.Progress = cancelAfter(k)
		}
		got, err := Run(sys.Clone(), run)
		if errors.Is(err, ErrCanceled) {
			kills++
			if opts.Engine == DFSEngine {
				ck, err := store.LoadCheckpoint(dir)
				if err != nil {
					t.Fatal(err)
				}
				stack, err := ck.Frontier()
				if err != nil {
					t.Fatal(err)
				}
				if stack[len(stack)-1].Tag > 0 {
					midExpansion++
				}
			}
			run.Resume = dir
			continue
		}
		if err != nil {
			t.Fatalf("after %d kills: %v", kills, err)
		}
		if keyOf(got) != keyOf(ref) {
			t.Errorf("after %d kills: %+v, uninterrupted %+v", kills, keyOf(got), keyOf(ref))
		}
		if got.Stats.DedupLookups != ref.Stats.DedupLookups || got.Stats.DedupHits != ref.Stats.DedupHits {
			t.Errorf("after %d kills: %d dedup lookups and %d hits, uninterrupted %d and %d", kills,
				got.Stats.DedupLookups, got.Stats.DedupHits, ref.Stats.DedupLookups, ref.Stats.DedupHits)
		}
		if g, w := FormatTrace(got.CycleTrace), FormatTrace(ref.CycleTrace); g != w {
			t.Errorf("after %d kills: cycle trace %q, uninterrupted %q", kills, g, w)
		}
		break
	}
	// A cancel lands after the expansion in flight (DFS: the successor
	// in flight), which may discover a few more states first.
	events := ref.States
	if bySucc {
		events = ref.Edges // one generated successor per edge
	}
	if kills < events/(2*k) {
		t.Errorf("only %d kills over %d events at k=%d", kills, events, k)
	}
	if bySucc && opts.Engine == DFSEngine && midExpansion == 0 {
		t.Errorf("none of %d kills left a partly expanded top frame", kills)
	}
	t.Logf("%d kills, %d with a partly expanded top frame", kills, midExpansion)
}

// TestResumeReproducesViolation: a run canceled before it reaches an
// invariant violation must, on resume, report the same violation an
// uninterrupted run does, with its counterexample trace. The one-worker
// configurations are deterministic, so their resumed traces must render
// exactly as the reference's (20 steps on bfs, 29 on dfs); at several
// workers the trace must replay from the root to a violating state.
func TestResumeReproducesViolation(t *testing.T) {
	boom := errors.New("all processors terminated")
	inv := func(n Node) error {
		if n.Sys.DoneCount() == len(n.Sys.Procs) {
			return boom
		}
		return nil
	}
	for _, ec := range engineConfigs(4) {
		t.Run(ec.name, func(t *testing.T) {
			sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
			if err != nil {
				t.Fatal(err)
			}
			opts := ec.on(Options{Invariant: inv})
			ref, err := Run(sys.Clone(), opts)
			var refErr *InvariantError
			if !errors.As(err, &refErr) || !errors.Is(err, boom) {
				t.Fatalf("reference run: err = %v, want the planted violation", err)
			}

			dir := t.TempDir()
			killed := opts
			killed.Checkpoint = dir
			killed.CheckpointEvery = 10
			killed.ProgressEvery = 1
			killed.Cancel, killed.Progress = cancelAfter(20)
			if _, err := Run(sys.Clone(), killed); !errors.Is(err, ErrCanceled) {
				t.Fatalf("killed run: err = %v, want ErrCanceled: the violation must lie past the cancel so the resume runs", err)
			}

			resumed := opts
			resumed.Resume = dir
			got, rerr := Run(sys.Clone(), resumed)
			if !errors.Is(rerr, boom) {
				t.Fatalf("resumed run: err = %v, want the planted violation", rerr)
			}
			var ie *InvariantError
			if !errors.As(rerr, &ie) {
				t.Fatalf("resumed run: err = %T, want *InvariantError", rerr)
			}
			if len(ie.Trace) == 0 {
				t.Fatal("resumed run reports an empty counterexample trace")
			}
			t.Logf("resumed trace of %d steps, reference %d", len(ie.Trace), len(refErr.Trace))
			if ec.workers > 1 {
				replay := sys.Clone()
				for i, info := range ie.Trace {
					if _, err := replay.Step(info.Proc, info.Choice); err != nil {
						t.Fatalf("resumed trace does not replay at step %d: %v", i, err)
					}
				}
				if inv(Node{Sys: replay}) == nil {
					t.Error("resumed trace ends in a state that satisfies the invariant")
				}
				return
			}
			// One-worker engines are deterministic, so the resumed search
			// must stop at exactly the reference witness, by the same path.
			if got.States != ref.States {
				t.Errorf("resumed run found the violation at state %d, reference at %d", got.States, ref.States)
			}
			if g, w := FormatTrace(ie.Trace), FormatTrace(refErr.Trace); g != w {
				t.Errorf("resumed trace (%d steps):\n%s\nreference (%d steps):\n%s", len(ie.Trace), g, len(refErr.Trace), w)
			}
		})
	}
}

// safetySweep and consensusSweep are the two sweep shapes the resume
// tests drive: the N=2 snapshot-safety sweep (2 wirings) and the N=2
// consensus sweep at timestamp bound 1 (2 wirings, 45,857 states).
func safetySweep(o Options) (SweepResult, error) {
	return CheckSnapshotSafety(SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0, Options: o})
}

func consensusSweep(o Options) (SweepResult, error) {
	return CheckConsensusBounded(ConsensusConfig{Inputs: []string{"x", "y"}, MaxTimestamp: 1, Wirings: FilterProc0, Options: o})
}

// TestSweepKillAndResume kills a wiring sweep mid-flight and resumes it:
// completed wirings are skipped, the in-flight one resumes from its run
// checkpoint, and the aggregate totals and every per-wiring row but its
// wall time match an uninterrupted sweep.
// The consensus sweep is cut a quarter, half and three quarters of the
// way on every engine configuration (only halfway under -short, which
// make race uses). Each checkpoint re-sorts the whole visited set, so its larger
// space takes a sparser cadence than the safety sweep.
func TestSweepKillAndResume(t *testing.T) {
	quarters := []int{1, 2, 3}
	if testing.Short() {
		quarters = []int{2}
	}
	for _, tc := range []struct {
		name     string
		sweep    func(Options) (SweepResult, error)
		engines  []engineConfig
		quarters []int
		every    int
	}{
		{"safety", safetySweep, engineConfigs(4)[:1], []int{3}, 50},
		{"consensus", consensusSweep, engineConfigs(4), quarters, 500},
	} {
		for _, ec := range tc.engines {
			ref, err := tc.sweep(ec.on(Options{}))
			if err != nil {
				t.Fatal(err)
			}
			if ref.Wirings < 2 || ref.TotalStates < 400 {
				t.Fatalf("reference sweep too small to kill mid-flight: %+v", ref)
			}
			for _, q := range tc.quarters {
				t.Run(fmt.Sprintf("%s/%s/at-%dof4", tc.name, ec.name, q), func(t *testing.T) {
					dir := t.TempDir()
					killed := ec.on(Options{Checkpoint: dir, CheckpointEvery: tc.every, ProgressEvery: 1})
					killed.Cancel, killed.Progress = cancelAfter(ref.TotalStates * q / 4)
					if _, err := tc.sweep(killed); !errors.Is(err, ErrCanceled) {
						t.Fatalf("killed sweep: err = %v, want ErrCanceled", err)
					}
					got, err := tc.sweep(ec.on(Options{Checkpoint: dir, CheckpointEvery: tc.every, Resume: dir}))
					if err != nil {
						t.Fatalf("resumed sweep: %v", err)
					}
					if got.Wirings != ref.Wirings || got.TotalStates != ref.TotalStates ||
						got.TotalEdges != ref.TotalEdges || got.MaxStates != ref.MaxStates ||
						got.Terminals != ref.Terminals || got.Truncated != ref.Truncated ||
						got.Pruned != ref.Pruned || got.MaxDepth != ref.MaxDepth ||
						got.CollisionOdds != ref.CollisionOdds {
						t.Errorf("resumed sweep %+v, uninterrupted %+v", got, ref)
					}
					if len(got.PerWiring) != len(ref.PerWiring) {
						t.Fatalf("resumed sweep has %d rows, uninterrupted %d", len(got.PerWiring), len(ref.PerWiring))
					}
					for i, row := range got.PerWiring {
						row.WallSeconds = ref.PerWiring[i].WallSeconds
						if row != ref.PerWiring[i] {
							t.Errorf("wiring %d: resumed row %+v, uninterrupted %+v", i, got.PerWiring[i], ref.PerWiring[i])
						}
					}
				})
			}
		}
	}
}

// TestOptionsValidation is the table of option combinations the
// storage tier cannot honor; each must be rejected up front with an
// *UnsupportedOptionError naming the offender.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name   string
		opts   Options
		option string
	}{
		{"mem+MemLimit", Options{MemLimit: 1 << 20}, "MemLimit"},
		{"mem+StoreDir", Options{StoreDir: "/tmp/x"}, "StoreDir"},
	}
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(sys.Clone(), tc.opts)
			var ue *UnsupportedOptionError
			if !errors.As(err, &ue) {
				t.Fatalf("err = %v, want *UnsupportedOptionError", err)
			}
			if ue.Option != tc.option {
				t.Errorf("rejected option %q, want %q", ue.Option, tc.option)
			}
			if ue.Hint == "" {
				t.Error("rejection carries no hint")
			}
		})
	}
}

// TestResumeMismatchRejected: resuming a checkpoint under a different
// identity (engine, symmetry, system, crash budget) must fail with a
// *CheckpointMismatchError instead of silently corrupting the search.
func TestResumeMismatchRejected(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	killed := Options{Engine: BFSEngine, Checkpoint: dir, CheckpointEvery: 10, ProgressEvery: 1}
	killed.Cancel, killed.Progress = cancelAfter(30)
	if _, err := Run(sys.Clone(), killed); !errors.Is(err, ErrCanceled) {
		t.Fatalf("killed run: err = %v, want ErrCanceled", err)
	}

	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"engine", Options{Engine: DFSEngine, Resume: dir}, "engine"},
		{"symmetry", Options{Engine: BFSEngine, Resume: dir, Canonicalizer: canon.ProcSymmetry{}}, "symmetry"},
		{"maxCrashes", Options{Engine: BFSEngine, Resume: dir, MaxCrashes: 1}, "maxCrashes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(sys.Clone(), tc.opts)
			var me *CheckpointMismatchError
			if !errors.As(err, &me) {
				t.Fatalf("err = %v, want *CheckpointMismatchError", err)
			}
			if me.Field != tc.field {
				t.Errorf("mismatch on field %q, want %q", me.Field, tc.field)
			}
		})
	}
	t.Run("system", func(t *testing.T) {
		other, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(other, Options{Engine: BFSEngine, Resume: dir})
		var me *CheckpointMismatchError
		if !errors.As(err, &me) {
			t.Fatalf("err = %v, want *CheckpointMismatchError", err)
		}
		if me.Field != "initial-state fingerprint" {
			t.Errorf("mismatch on field %q, want initial-state fingerprint", me.Field)
		}
	})
}

// TestResumeOldFormatRejected: a checkpoint in an older format — here a
// fresh one whose meta.json claims the previous version, whose visited
// set held 12-byte (fingerprint, depth) records — is refused with the
// format-version error, not with a *CheckpointMismatchError on the root
// fingerprint, and not by silently exploring the sweep's in-flight
// wiring again from its root.
func TestResumeOldFormatRejected(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("format version %d; this build reads version %d", store.MetaVersion-1, store.MetaVersion)
	check := func(t *testing.T, err error) {
		t.Helper()
		var me *CheckpointMismatchError
		if err == nil || errors.As(err, &me) || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want the format-version error saying %q", err, want)
		}
	}

	t.Run("run", func(t *testing.T) {
		dir := t.TempDir()
		killed := Options{Engine: BFSEngine, Checkpoint: dir, CheckpointEvery: 10, ProgressEvery: 1}
		killed.Cancel, killed.Progress = cancelAfter(30)
		if _, err := Run(sys.Clone(), killed); !errors.Is(err, ErrCanceled) {
			t.Fatalf("killed run: err = %v, want ErrCanceled", err)
		}
		downgrade(t, dir)
		_, err := Run(sys.Clone(), Options{Engine: BFSEngine, Resume: dir})
		check(t, err)
	})
	t.Run("sweep", func(t *testing.T) {
		ref, err := safetySweep(Options{Engine: BFSEngine})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		killed := Options{Engine: BFSEngine, Checkpoint: dir, CheckpointEvery: 50, ProgressEvery: 1}
		killed.Cancel, killed.Progress = cancelAfter(ref.TotalStates * 3 / 4)
		if _, err := safetySweep(killed); !errors.Is(err, ErrCanceled) {
			t.Fatalf("killed sweep: err = %v, want ErrCanceled", err)
		}
		downgrade(t, sweepRunDir(dir))
		_, err = safetySweep(Options{Engine: BFSEngine, Checkpoint: dir, Resume: dir})
		check(t, err)
	})
}

// downgrade rewrites the checkpoint in dir to claim the previous format
// version.
func downgrade(t *testing.T, dir string) {
	t.Helper()
	metaPath := filepath.Join(dir, "meta.json")
	blob, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(blob, &meta); err != nil {
		t.Fatal(err)
	}
	meta["version"] = store.MetaVersion - 1
	if blob, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSweepResumeMismatchRejected: a sweep checkpoint pins every field
// of the sweep identity. Resuming under a different value of any one
// of them fails with a *CheckpointMismatchError naming it, before any
// state is explored — state keys exclude the wirings and the
// termination level, so the run checkpoint cannot tell those apart.
func TestSweepResumeMismatchRejected(t *testing.T) {
	snapshot := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0, Options: Options{Engine: BFSEngine}}
	consensus := ConsensusConfig{Inputs: []string{"x", "y"}, MaxTimestamp: 1, Wirings: FilterProc0, Options: Options{Engine: BFSEngine}}
	safetyDir, waitFreeDir, consensusDir := t.TempDir(), t.TempDir(), t.TempDir()
	ck := snapshot
	ck.Checkpoint = safetyDir
	if _, err := CheckSnapshotSafety(ck); err != nil {
		t.Fatal(err)
	}
	ck.Checkpoint = waitFreeDir
	if _, err := CheckSnapshotWaitFree(ck); err != nil {
		t.Fatal(err)
	}
	cck := consensus
	cck.Checkpoint = consensusDir
	if _, err := CheckConsensusBounded(cck); err != nil {
		t.Fatal(err)
	}

	safety := func(edit func(*SnapshotConfig)) func() (SweepResult, error) {
		return func() (SweepResult, error) {
			c := snapshot
			c.Resume = safetyDir
			edit(&c)
			return CheckSnapshotSafety(c)
		}
	}
	cases := []struct {
		field  string
		resume func() (SweepResult, error)
	}{
		{"check", func() (SweepResult, error) {
			c := snapshot
			c.Resume = safetyDir
			return CheckSnapshotWaitFree(c)
		}},
		{"engine", safety(func(c *SnapshotConfig) { c.Engine = DFSEngine })},
		{"symmetry", safety(func(c *SnapshotConfig) { c.Canonicalizer = canon.ProcSymmetry{} })},
		{"inputs", safety(func(c *SnapshotConfig) { c.Inputs = []string{"a", "c"} })},
		{"wirings", safety(func(c *SnapshotConfig) { c.Wirings = FilterOrbits })},
		{"nondet", safety(func(c *SnapshotConfig) { c.Nondet = false })},
		{"level", safety(func(c *SnapshotConfig) { c.Level = 1 })},
		{"soloBound", func() (SweepResult, error) {
			c := snapshot
			c.Resume, c.SoloBound = waitFreeDir, 1
			return CheckSnapshotWaitFree(c)
		}},
		{"maxTimestamp", func() (SweepResult, error) {
			c := consensus
			c.Resume, c.MaxTimestamp = consensusDir, 2
			return CheckConsensusBounded(c)
		}},
		{"maxCrashes", safety(func(c *SnapshotConfig) { c.MaxCrashes = 1 })},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			got, err := tc.resume()
			var me *CheckpointMismatchError
			if !errors.As(err, &me) {
				t.Fatalf("err = %v, want *CheckpointMismatchError", err)
			}
			if me.Field != tc.field {
				t.Errorf("mismatch on field %q, want %q", me.Field, tc.field)
			}
			if got.TotalStates != 0 {
				t.Errorf("explored %d states before rejecting the resume", got.TotalStates)
			}
		})
	}

	// A completed sweep resumes to a no-op with identical totals.
	ref, err := CheckSnapshotSafety(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	again := snapshot
	again.Resume = safetyDir
	got, err := CheckSnapshotSafety(again)
	if err != nil {
		t.Fatalf("resume of completed sweep: %v", err)
	}
	if got.Wirings != ref.Wirings || got.TotalStates != ref.TotalStates {
		t.Errorf("resume of completed sweep reran work: %+v, want %+v", got, ref)
	}
}
