package explore

import (
	"errors"
	"fmt"

	"anonshm/internal/canon"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/machine"
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
		procs := n.Sys.Procs
		for p, m := range procs {
			out, ok := core.SnapshotOutput(m)
			if !ok {
				continue
			}
			if !out.Contains(inputs[p]) {
				return fmt.Errorf("output of p%d misses own input: %v", p, out)
			}
			if !out.SubsetOf(all) {
				return fmt.Errorf("output of p%d exceeds participating inputs: %v", p, out)
			}
			for q := 0; q < p; q++ {
				if prev, ok := core.SnapshotOutput(procs[q]); ok && !out.ComparableWith(prev) {
					return fmt.Errorf("outputs of p%d (%v) and p%d (%v) incomparable", p, out, q, prev)
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
	Pruned      int // summed over wirings
	MaxDepth    int // largest single-wiring MaxDepth
	// CollisionOdds sums the wirings' Result.CollisionOdds: each wiring
	// runs with its own visited set, so each can merge states on its own.
	CollisionOdds float64
	// PerWiring holds one row per explored wiring, in sweep order.
	PerWiring []WiringRow
	// Stats merges the per-wiring run stats (wall time and dedup counters
	// add, frontier peak takes the maximum across wirings).
	Stats Stats
}

// WiringRow is one wiring's share of a sweep.
type WiringRow struct {
	States      int     `json:"states"`
	Edges       int     `json:"edges"`
	MaxDepth    int     `json:"maxDepth"`
	Pruned      int     `json:"pruned"`
	Truncated   bool    `json:"truncated"`
	WallSeconds float64 `json:"wallSeconds"`
}

// StatesPerSec is the aggregate exploration rate of the sweep.
func (s SweepResult) StatesPerSec() float64 {
	return ratio(float64(s.TotalStates), s.Stats.WallTime.Seconds())
}

// SnapshotConfig describes one exhaustive snapshot check: the system
// (Inputs, Nondet, Level), the wiring sweep (Wirings), the solo-step
// budget (SoloBound), and the Options every per-wiring run executes
// with. On a sweep, Checkpoint and Resume name the sweep directory
// (sweep.json plus run/; see runSweep), and a caller-set Invariant,
// Aux or Prune is rejected: the check sets them itself.
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
	// Level overrides the termination level (0 = N), for the ablation.
	Level int
	// SoloBound overrides the solo-step budget of the wait-freedom
	// invariant (0 = DefaultSoloBound for the configuration).
	SoloBound int
	Options
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
	id := sweepCheckpoint{Check: "safety", Inputs: c.Inputs, Nondet: c.Nondet, Level: c.Level}
	return runSweep(id, c.Options, WiringOptions{Filter: c.Wirings}, func(perms [][]int, opts Options) (Result, error) {
		sys, ids, err := c.system(perms)
		if err != nil {
			return Result{}, err
		}
		opts.Invariant = SnapshotInvariant(ids)
		return Run(sys, opts)
	})
}

// CheckSnapshotWaitFree exhaustively verifies wait-freedom over every
// wiring assignment, in two complementary forms. Every engine checks the
// WaitFree solo-bound invariant on every reachable state (bound: SoloBound
// or DefaultSoloBound): each enabled processor must finish within the
// budget when it runs alone, which is the property crash faults attack —
// explore with MaxCrashes = N−1 to quantify over every crash pattern.
// DFSEngine additionally verifies, inline and on every tier, that the
// reachable step graph is acyclic: the stronger guarantee that no
// adversarial interleaving runs forever. BFSEngine runs the invariant
// form only. Either violation is an *InvariantError
// carrying its trace; a truncated search establishes neither form.
func CheckSnapshotWaitFree(c SnapshotConfig) (SweepResult, error) {
	bound := c.SoloBound
	if bound <= 0 {
		bound = DefaultSoloBound(len(c.Inputs), len(c.Inputs)) // the paper's algorithms use N registers
	}
	id := sweepCheckpoint{Check: "waitfree", Inputs: c.Inputs, Nondet: c.Nondet, Level: c.Level, SoloBound: bound}
	return runSweep(id, c.Options, WiringOptions{Filter: c.Wirings}, func(perms [][]int, opts Options) (Result, error) {
		sys, _, err := c.system(perms)
		if err != nil {
			return Result{}, err
		}
		opts.Invariant = WaitFree(bound)
		res, err := Run(sys, opts)
		switch {
		case err != nil:
			return res, err
		case res.Truncated:
			return res, fmt.Errorf("explore: truncated at %d states; wait-freedom not established", res.States)
		case res.Cycle:
			return res, &InvariantError{
				Err:   fmt.Errorf("wait-freedom violated under wiring %v: the reachable step graph has a cycle", perms),
				Trace: res.CycleTrace,
			}
		}
		return res, nil
	})
}

// rejectOwned rejects a caller-set Invariant, Aux or Prune: a packaged
// check sets those itself.
func rejectOwned(check string, opts Options) error {
	if opts.Invariant == nil && opts.Aux == nil && opts.Prune == nil {
		return nil
	}
	return &UnsupportedOptionError{Check: check, Option: "Invariant, Aux or Prune", Hint: "the check sets them itself"}
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
	s.Pruned += res.Pruned
	s.MaxDepth = max(s.MaxDepth, res.MaxDepth)
	s.CollisionOdds += res.CollisionOdds
	s.PerWiring = append(s.PerWiring, WiringRow{
		States: res.States, Edges: res.Edges, MaxDepth: res.MaxDepth, Pruned: res.Pruned,
		Truncated: res.Truncated, WallSeconds: res.Stats.WallTime.Seconds(),
	})
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
	if err := rejectOwned("atomicity", c.Options); err != nil {
		return WitnessResult{}, err
	}
	if c.Checkpoint != "" || c.Resume != "" {
		return WitnessResult{}, &UnsupportedOptionError{Check: "atomicity", Option: "Checkpoint or Resume",
			Hint: "the witness search runs one search per candidate and keeps no sweep checkpoint"}
	}
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
		opts := c.Options
		opts.Aux = aux
		opts.Invariant = invariant
		opts.Prune = prune
		// The aux bit ("the memory union has equaled the candidate") and
		// the candidate-directed prune track a FIXED view, which a
		// symmetry canonicalizer's value relabeling does not preserve —
		// they are not orbit-invariant. The witness search therefore
		// always runs unreduced, whatever c.Canonicalizer says.
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
// configuration. It keeps its own wiring loop rather than runSweep's,
// because it runs one search per candidate and stops at the first
// witness; it therefore rejects Checkpoint and Resume, as well as the
// Invariant, Aux and Prune it sets itself.
func FindNonAtomicityWitness(c SnapshotConfig) (WitnessResult, error) {
	n := len(c.Inputs)
	result := WitnessResult{Exhaustive: true}
	err := forEachWiring(n, n, WiringOptions{Filter: c.Wirings}, func(perms [][]int) error {
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

// ConsensusConfig describes a timestamp-bounded consensus check: the
// system (Inputs), the bound (MaxTimestamp), the wiring sweep (Wirings)
// and the Options every per-wiring run executes with. Checkpoint and
// Resume name the sweep directory, as on SnapshotConfig.
type ConsensusConfig struct {
	Inputs []string
	// MaxTimestamp bounds exploration: states where any processor's
	// timestamp exceeds it are kept but not expanded.
	MaxTimestamp int
	// Wirings selects which wiring assignments the sweep visits. The
	// orbit cut passes the inputs as groups: Figure 5 breaks timestamp
	// ties by smallest label, so only equal-input processors may be
	// permuted. A symmetry Canonicalizer likewise only exchanges
	// processors with equal inputs (see Consensus.SymmetryClass).
	Wirings WiringFilter
	Options
}

// CheckConsensusBounded explores the Figure 5 consensus algorithm up to a
// timestamp bound over every wiring, verifying agreement and validity on
// every reachable state. The bound makes this a bounded (not complete)
// verification; Result.Pruned counts cut states. Agreement and validity
// are safety properties, so they must hold under MaxCrashes too.
func CheckConsensusBounded(c ConsensusConfig) (SweepResult, error) {
	valid := make(map[string]bool, len(c.Inputs))
	for _, v := range c.Inputs {
		valid[v] = true
	}
	id := sweepCheckpoint{Check: "consensus", Inputs: c.Inputs, MaxTimestamp: c.MaxTimestamp}
	wo := WiringOptions{Filter: c.Wirings, Groups: c.Inputs}
	return runSweep(id, c.Options, wo, func(perms [][]int, opts Options) (Result, error) {
		sys, in, err := consensus.NewSystem(consensus.Config{Inputs: c.Inputs, Wirings: perms})
		if err != nil {
			return Result{}, err
		}
		// Deterministic IDs across branches: pre-intern all pairs up to
		// one past the bound (a machine at the bound can still write
		// bound+1 before being pruned).
		consensus.PreinternPairs(in, c.Inputs, c.MaxTimestamp+2)
		opts.Invariant = func(node Node) error {
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
		opts.Prune = func(node Node) bool {
			for _, m := range node.Sys.Procs {
				if cm, ok := m.(*consensus.Consensus); ok && cm.Timestamp() > c.MaxTimestamp {
					return true
				}
			}
			return false
		}
		return Run(sys, opts)
	})
}
