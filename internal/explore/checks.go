package explore

import (
	"errors"
	"fmt"
	"time"

	"anonshm/internal/canon"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/obs"
	"anonshm/internal/obs/span"
	"anonshm/internal/store"
	"anonshm/internal/view"
)

// This file packages the paper's model-checking claims as ready-made
// exhaustive checks:
//
//   - E3: the Figure 3 algorithm solves the snapshot task — every pair of
//     outputs is related by containment, outputs contain the writer's own
//     input and only participating inputs (Section 5.3.2's strong form);
//   - E4: the algorithm is wait-free — the reachable step graph is acyclic
//     (Section 5.3.3; DFSEngine) and every processor solo-terminates from
//     every reachable state (every engine);
//   - E5: the algorithm is NOT an atomic memory snapshot — some execution
//     produces an output that the memory never held exactly (Section 8);
//   - E7: consensus agreement and validity over a timestamp-bounded state
//     space.

// SnapshotInvariant checks, at any state, that the outputs already emitted
// by terminated machines are valid snapshots: self-inclusive, within the
// participating inputs, and pairwise related by containment.
func SnapshotInvariant(inputs []view.ID) func(Node) error {
	all := view.Empty()
	for _, id := range inputs {
		all = all.With(id)
	}
	return func(n Node) error {
		outs, ok := core.SnapshotOutputs(n.Sys)
		for p := range outs {
			if !ok[p] {
				continue
			}
			if !outs[p].Contains(inputs[p]) {
				return fmt.Errorf("output of p%d misses own input: %v", p, outs[p])
			}
			if !outs[p].SubsetOf(all) {
				return fmt.Errorf("output of p%d exceeds participating inputs: %v", p, outs[p])
			}
			for q := 0; q < p; q++ {
				if ok[q] && !outs[p].ComparableWith(outs[q]) {
					return fmt.Errorf("outputs of p%d (%v) and p%d (%v) incomparable", p, outs[p], q, outs[q])
				}
			}
		}
		return nil
	}
}

// SweepResult aggregates exploration over many wirings.
type SweepResult struct {
	Wirings     int
	TotalStates int
	TotalEdges  int
	MaxStates   int // largest single-wiring state count
	Terminals   int
	Truncated   bool
	// Stats merges the per-wiring run stats (wall time and dedup counters
	// add, frontier peak takes the maximum across wirings).
	Stats Stats
}

// StatesPerSec is the aggregate exploration rate of the sweep.
func (s SweepResult) StatesPerSec() float64 { return s.Stats.MergedRate(s.TotalStates) }

// SnapshotConfig describes one exhaustive snapshot check.
type SnapshotConfig struct {
	Inputs []string
	// Nondet explores the algorithm's internal register choices too.
	Nondet bool
	// Wirings selects which wiring assignments the sweep visits (see
	// WiringFilter): FilterAll (the zero value) enumerates every
	// assignment, FilterProc0 pins processor 0 to the identity wiring,
	// FilterOrbits keeps one representative per wiring orbit. The orbit
	// cut is sound here because Figure 3 and the snapshot-task invariants
	// are oblivious to input-value identity.
	Wirings WiringFilter
	// Symmetry selects state-level canonicalization for every per-wiring
	// run: canon.None (exact states), canon.Proc (processor
	// permutations), canon.Full (joint processor and register
	// permutations). See Options.Canonicalizer.
	Symmetry canon.Symmetry
	// Level overrides the termination level (0 = N), for the ablation.
	Level     int
	MaxStates int
	// MaxCrashes explores crash faults: at every state with fewer than
	// MaxCrashes crashed processors, each enabled processor may crash (see
	// Options.MaxCrashes). Set to N−1 to check the full crash-fault model.
	MaxCrashes int
	// SoloBound overrides the solo-step budget of the wait-freedom
	// invariant (0 = DefaultSoloBound for the configuration).
	SoloBound int
	// Traces keeps counterexample traces (memory-heavy on large runs).
	Traces bool
	// Engine selects the search backend (AutoEngine = DFSEngine, chosen
	// for its memory profile on ~10⁸-state spaces).
	Engine Engine
	// Workers is the ParallelEngine worker count (0 = GOMAXPROCS).
	Workers int
	// Progress, when set with ProgressEvery > 0, receives per-wiring
	// progress callbacks (states, edges discovered so far).
	Progress      func(states, edges int)
	ProgressEvery int
	// Obs, when set, publishes every per-wiring run through the metrics
	// registry (see Options.Obs); counters accumulate across the sweep.
	Obs *obs.Registry
	// Events, when set, receives engine.start/engine.finish events for
	// every per-wiring run.
	Events *obs.Sink
	// Trace, when set, records the sweep as Chrome trace_event spans:
	// one "sweep" span over the whole check, one "wiring" span per
	// wiring, plus the per-run engine/store/checkpoint phases (see
	// Options.Trace).
	Trace *span.Tracer
	// StallAfter/StallAbort/StallDir arm the per-run stall watchdog (see
	// Options.StallAfter).
	StallAfter time.Duration
	StallAbort bool
	StallDir   string
	// Store selects the state-store tier for every per-wiring run:
	// store.Mem (default, everything in RAM) or store.Disk (bounded hot
	// set, overflow spilled to sorted runs; see Options.Store).
	Store store.Kind
	// StoreDir is the scratch directory of the disk tier (disk tier only;
	// "" = a temporary directory per run).
	StoreDir string
	// MemLimit is the disk tier's in-RAM ceiling (0 = store.DefaultMemLimit).
	MemLimit store.Bytes
	// Checkpoint, when non-empty, makes the sweep resumable: the directory
	// gains a sweep.json (completed-wiring count plus accumulated totals,
	// rewritten after every wiring) and a run/ subdirectory holding the
	// periodic per-run checkpoint of the wiring in flight.
	Checkpoint string
	// CheckpointEvery is the per-run checkpoint cadence in discovered
	// states (0 = DefaultCheckpointEvery).
	CheckpointEvery int
	// Resume restarts a sweep from a Checkpoint directory: completed
	// wirings are skipped, the in-flight one resumes mid-run, and
	// accumulation continues into the restored totals. The sweep identity
	// (check, engine, symmetry, inputs, nondet, crashes) must match or the
	// load fails with a *CheckpointMismatchError.
	Resume string
	// Cancel, when closed, stops the sweep at the next state boundary with
	// ErrCanceled (after a final checkpoint when Checkpoint is set).
	Cancel <-chan struct{}
}

// options assembles the per-wiring exploration options.
func (c SnapshotConfig) options() Options {
	return Options{
		Engine:        c.Engine,
		Workers:       c.Workers,
		MaxStates:     c.MaxStates,
		MaxCrashes:    c.MaxCrashes,
		Canonicalizer: c.Symmetry.Canonicalizer(),
		Traces:        c.Traces,
		Progress:      c.Progress,
		ProgressEvery: c.ProgressEvery,
		Obs:           c.Obs,
		Events:        c.Events,
		Trace:         c.Trace,
		StallAfter:    c.StallAfter,
		StallAbort:    c.StallAbort,
		StallDir:      c.StallDir,
		Store:         c.Store,
		StoreDir:      c.StoreDir,
		MemLimit:      c.MemLimit,
		Cancel:        c.Cancel,
	}
}

func (c SnapshotConfig) system(perms [][]int) (*machine.System, []view.ID, error) {
	sys, in, err := core.NewSnapshotSystem(core.Config{
		Inputs:  c.Inputs,
		Wirings: perms,
		Nondet:  c.Nondet,
		Level:   c.Level,
	})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]view.ID, len(c.Inputs))
	for i, label := range c.Inputs {
		id, ok := in.Lookup(label)
		if !ok {
			return nil, nil, fmt.Errorf("explore: input %q not interned", label)
		}
		ids[i] = id
	}
	return sys, ids, nil
}

// CheckSnapshotSafety exhaustively verifies the snapshot-task outputs over
// every wiring assignment. It returns the first violation as an
// *InvariantError. With Checkpoint/Resume set the sweep is resumable
// across process restarts (see runSweep).
func CheckSnapshotSafety(c SnapshotConfig) (SweepResult, error) {
	var sweep SweepResult
	err := c.runSweep("safety", &sweep, func(perms [][]int, opts Options) (Result, error) {
		sys, ids, err := c.system(perms)
		if err != nil {
			return Result{}, err
		}
		opts.Invariant = SnapshotInvariant(ids)
		return Run(sys, opts)
	})
	return sweep, err
}

// CheckSnapshotWaitFree exhaustively verifies wait-freedom over every
// wiring assignment, in two complementary forms. Every engine checks the
// WaitFree solo-bound invariant on every reachable state (bound: SoloBound
// or DefaultSoloBound): each enabled processor must finish within the
// budget when it runs alone, which is the property crash faults attack —
// explore with MaxCrashes = N−1 to quantify over every crash pattern.
// DFSEngine additionally verifies, inline and on every tier, that the
// reachable step graph is acyclic: the stronger guarantee that no
// adversarial interleaving runs forever. The breadth-first engines run
// the invariant form only.
func CheckSnapshotWaitFree(c SnapshotConfig) (SweepResult, error) {
	var sweep SweepResult
	bound := c.SoloBound
	if bound <= 0 {
		bound = DefaultSoloBound(len(c.Inputs), registersFor(c))
	}
	err := c.runSweep("waitfree", &sweep, func(perms [][]int, opts Options) (Result, error) {
		sys, _, err := c.system(perms)
		if err != nil {
			return Result{}, err
		}
		opts.Invariant = WaitFree(bound)
		res, err := Run(sys, opts)
		if err != nil {
			return res, err
		}
		if res.Truncated {
			return res, fmt.Errorf("explore: truncated at %d states; wait-freedom not established", res.States)
		}
		if res.Cycle {
			return res, fmt.Errorf("explore: wait-freedom violated under wiring %v: %s", perms, FormatTrace(res.CycleTrace))
		}
		return res, nil
	})
	return sweep, err
}

func registersFor(c SnapshotConfig) int {
	return len(c.Inputs) // the paper's algorithms use N registers
}

func (s *SweepResult) accumulate(res Result) {
	s.Wirings++
	s.TotalStates += res.States
	s.TotalEdges += res.Edges
	s.Terminals += res.Terminals
	if res.States > s.MaxStates {
		s.MaxStates = res.States
	}
	if res.Truncated {
		s.Truncated = true
	}
	s.Stats.Merge(res.Stats)
}

// memoryUnion returns the union of all register views.
func memoryUnion(sys *machine.System) view.View {
	u := view.Empty()
	for _, w := range sys.Mem.Cells() {
		if cell, ok := w.(core.Cell); ok {
			u = u.Union(cell.View)
		}
	}
	return u
}

// Witness describes a non-atomicity witness execution (E5).
type Witness struct {
	// Output is the snapshot output that the memory never held exactly.
	Output view.View
	// Proc is the processor that produced it.
	Proc int
	// Wirings is the wiring assignment of the witness system.
	Wirings [][]int
	// Trace is the step sequence from the initial state.
	Trace []machine.StepInfo
}

// errWitness signals a found witness through the invariant mechanism.
type errWitness struct {
	output view.View
	proc   int
}

func (e errWitness) Error() string {
	return fmt.Sprintf("p%d output %v never held by memory", e.proc, e.output)
}

// WitnessResult reports a non-atomicity witness search.
type WitnessResult struct {
	Witness Witness
	Found   bool
	// Exhaustive is true when every wiring and candidate was fully
	// explored, so Found=false proves the algorithm IS atomic for this
	// configuration (modulo fingerprint collisions).
	Exhaustive bool
}

// FindNonAtomicityWitnessIn searches one wiring assignment for an
// execution in which some processor outputs a snapshot that the memory
// (the union of all register views) never contained exactly, at any
// instant — TLC's evidence that the Figure 3 algorithm does not implement
// atomic memory snapshots. Candidates are tried one at a time, each with a
// single auxiliary bit tracking "the memory union has equaled the
// candidate", to keep the augmented state space small.
func FindNonAtomicityWitnessIn(c SnapshotConfig, perms [][]int) (WitnessResult, error) {
	sys, ids, err := c.system(perms)
	if err != nil {
		return WitnessResult{}, err
	}
	result := WitnessResult{Exhaustive: true}
	for _, cand := range subsetsOf(ids) {
		cand := cand
		aux := func(aux uint64, _ machine.StepInfo, sys *machine.System) uint64 {
			if aux == 0 && memoryUnion(sys).Equal(cand) {
				return 1
			}
			return aux
		}
		invariant := func(node Node) error {
			if node.Aux != 0 {
				return nil
			}
			outs, ok := core.SnapshotOutputs(node.Sys)
			for p := range outs {
				if ok[p] && outs[p].Equal(cand) {
					return errWitness{output: outs[p], proc: p}
				}
			}
			return nil
		}
		// Two sound prunes make the targeted search tractable:
		//  - once the memory union has equaled the candidate (aux=1), no
		//    extension of the execution can be a witness for it;
		//  - views only grow, and an output equals the machine's final
		//    view, so a witness needs some live machine whose view is
		//    still a subset of the candidate.
		prune := func(node Node) bool {
			if node.Aux != 0 {
				return true
			}
			for _, m := range node.Sys.Procs {
				if m.Done() {
					continue
				}
				if v, ok := m.(core.Viewer); ok && v.View().SubsetOf(cand) {
					return false
				}
			}
			return true
		}
		opts := c.options()
		opts.Aux = aux
		opts.Invariant = invariant
		opts.Prune = prune
		// The aux bit ("the memory union has equaled the candidate") and
		// the candidate-directed prune track a FIXED view, which a
		// symmetry canonicalizer's value relabeling does not preserve —
		// they are not orbit-invariant. The witness search therefore
		// always runs unreduced, whatever c.Symmetry says.
		opts.Canonicalizer = canon.Identity{}
		res, err := Run(sys.Clone(), opts)
		if err != nil {
			var ie *InvariantError
			if errors.As(err, &ie) {
				if ew, ok := ie.Err.(errWitness); ok {
					result.Witness = Witness{Output: ew.output, Proc: ew.proc, Wirings: perms, Trace: ie.Trace}
					result.Found = true
					return result, nil
				}
			}
			return result, err
		}
		if res.Truncated {
			result.Exhaustive = false
		}
	}
	return result, nil
}

// FindNonAtomicityWitness sweeps every wiring assignment with
// FindNonAtomicityWitnessIn and returns the first witness. If none is
// found and no search was truncated, the result proves atomicity for the
// configuration.
func FindNonAtomicityWitness(c SnapshotConfig) (WitnessResult, error) {
	n := len(c.Inputs)
	result := WitnessResult{Exhaustive: true}
	err := forEachWiring(n, registersFor(c), WiringOptions{Filter: c.Wirings}, func(perms [][]int) error {
		if result.Found {
			return nil
		}
		r, err := FindNonAtomicityWitnessIn(c, perms)
		if err != nil {
			return err
		}
		if r.Found {
			result.Witness = r.Witness
			result.Found = true
		}
		if !r.Exhaustive {
			result.Exhaustive = false
		}
		return nil
	})
	return result, err
}

func subsetsOf(ids []view.ID) []view.View {
	uniq := view.Empty()
	for _, id := range ids {
		uniq = uniq.With(id)
	}
	distinct := uniq.IDs()
	// Subset candidates are enumerated as bitmasks in an int; beyond 63
	// distinct inputs 1<<len(distinct) overflows silently (and the 2^n
	// enumeration is hopeless long before that).
	if len(distinct) > 63 {
		panic(fmt.Sprintf("explore: %d distinct inputs exceed the 63 supported by subset-mask enumeration", len(distinct)))
	}
	var out []view.View
	for mask := 1; mask < 1<<uint(len(distinct)); mask++ {
		v := view.Empty()
		for i, id := range distinct {
			if mask&(1<<uint(i)) != 0 {
				v = v.With(id)
			}
		}
		out = append(out, v)
	}
	return out
}

// ConsensusConfig describes a timestamp-bounded consensus exploration.
type ConsensusConfig struct {
	Inputs []string
	// MaxTimestamp bounds exploration: states where any processor's
	// timestamp exceeds it are kept but not expanded.
	MaxTimestamp int
	// Wirings selects which wiring assignments the sweep visits. The
	// orbit cut passes the inputs as groups: Figure 5 breaks timestamp
	// ties by smallest label, so only equal-input processors may be
	// permuted.
	Wirings WiringFilter
	// Symmetry selects state-level canonicalization for every per-wiring
	// run (processors are only exchanged within equal inputs, for the
	// same tie-breaking reason; see Consensus.SymmetryClass).
	Symmetry  canon.Symmetry
	MaxStates int
	// MaxCrashes explores crash faults (see Options.MaxCrashes); agreement
	// and validity are safety properties, so they must hold in every crash
	// pattern too.
	MaxCrashes int
	// Engine selects the search backend (AutoEngine = DFSEngine).
	Engine Engine
	// Workers is the ParallelEngine worker count (0 = GOMAXPROCS).
	Workers int
	// Obs, when set, publishes every per-wiring run through the metrics
	// registry (see Options.Obs).
	Obs *obs.Registry
	// Events, when set, receives engine.start/engine.finish events.
	Events *obs.Sink
	// Trace, when set, records sweep/wiring/run spans (see
	// SnapshotConfig.Trace).
	Trace *span.Tracer
	// StallAfter/StallAbort/StallDir arm the per-run stall watchdog (see
	// Options.StallAfter).
	StallAfter time.Duration
	StallAbort bool
	StallDir   string
	// Store, StoreDir, and MemLimit select the state-store tier of every
	// per-wiring run (see SnapshotConfig).
	Store    store.Kind
	StoreDir string
	MemLimit store.Bytes
	// Cancel, when closed, stops the sweep with ErrCanceled.
	Cancel <-chan struct{}
}

// CheckConsensusBounded explores the Figure 5 consensus algorithm up to a
// timestamp bound over every wiring, verifying agreement and validity on
// every reachable state. The bound makes this a bounded (not complete)
// verification; Result.Pruned counts cut states.
func CheckConsensusBounded(c ConsensusConfig) (SweepResult, error) {
	var sweep SweepResult
	n := len(c.Inputs)
	valid := make(map[string]bool, n)
	for _, v := range c.Inputs {
		valid[v] = true
	}
	sweepSpan := c.Trace.StartArgs("sweep", "sweep consensus",
		map[string]any{"check": "consensus"})
	defer sweepSpan.End()
	wiringIdx := 0
	err := forEachWiring(n, n, WiringOptions{Filter: c.Wirings, Groups: c.Inputs}, func(perms [][]int) error {
		wsp := c.Trace.StartArgs("wiring", fmt.Sprintf("wiring %d", wiringIdx),
			map[string]any{"wiring": wiringIdx})
		defer wsp.End()
		wiringIdx++
		sys, in, err := consensus.NewSystem(consensus.Config{Inputs: c.Inputs, Wirings: perms})
		if err != nil {
			return err
		}
		// Deterministic IDs across branches: pre-intern all pairs up to
		// one past the bound (a machine at the bound can still write
		// bound+1 before being pruned).
		consensus.PreinternPairs(in, c.Inputs, c.MaxTimestamp+2)
		invariant := func(node Node) error {
			vals, done := consensus.Decisions(node.Sys)
			decided := ""
			for p := range vals {
				if !done[p] {
					continue
				}
				if !valid[vals[p]] {
					return fmt.Errorf("p%d decided non-input %q", p, vals[p])
				}
				if decided == "" {
					decided = vals[p]
				} else if vals[p] != decided {
					return fmt.Errorf("agreement violated: %q vs %q", decided, vals[p])
				}
			}
			return nil
		}
		prune := func(node Node) bool {
			for _, m := range node.Sys.Procs {
				if cm, ok := m.(*consensus.Consensus); ok && cm.Timestamp() > c.MaxTimestamp {
					return true
				}
			}
			return false
		}
		res, err := Run(sys, Options{
			Engine:        c.Engine,
			Workers:       c.Workers,
			MaxStates:     c.MaxStates,
			MaxCrashes:    c.MaxCrashes,
			Canonicalizer: c.Symmetry.Canonicalizer(),
			Invariant:     invariant,
			Prune:         prune,
			Obs:           c.Obs,
			Events:        c.Events,
			Trace:         c.Trace,
			StallAfter:    c.StallAfter,
			StallAbort:    c.StallAbort,
			StallDir:      c.StallDir,
			Store:         c.Store,
			StoreDir:      c.StoreDir,
			MemLimit:      c.MemLimit,
			Cancel:        c.Cancel,
		})
		sweep.accumulate(res)
		return err
	})
	return sweep, err
}
