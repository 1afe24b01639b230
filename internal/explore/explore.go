// Package explore is an exhaustive state-space explorer for
// fully-anonymous systems — the repository's stand-in for the TLC model
// checker the paper uses to validate the Figure 3 algorithm for 3
// processors.
//
// Run is the single entry point: Options.Engine selects the serial
// depth-first engine (DFSEngine, the default) or the breadth-first
// engine (BFSEngine), which expands one level at a time at
// Options.Workers goroutines that share the level's frontier shards and
// one sharded visited set.
// Both engines search every interleaving of processor steps (and, when
// machines expose it, every internal register-choice alternative),
// deduplicating global states by 64-bit fingerprint exactly as TLC does
// (the probability of a hash collision masking a state is about
// states²/2⁶⁵, reported in Result.CollisionOdds). On top of the raw
// search the package provides:
//
//   - invariant checking with counterexample traces (safety);
//   - cycle detection over the reachable step graph (DFSEngine, inline),
//     which for these finite-state systems is exactly wait-freedom: an
//     infinite execution in a finite state space must revisit a state,
//     and every step is taken by a non-terminated processor, so the
//     algorithm is wait-free iff the reachable graph has no cycle
//     (terminated-everyone states are sinks);
//   - a 64-bit auxiliary state folded into the fingerprint, used e.g. to
//     search for the paper's non-atomicity witness (Section 8);
//   - symmetry reduction: Options.Canonicalizer plugs an internal/canon
//     canonicalizer into the fingerprint seam, so states that differ only
//     by a processor permutation (and, with canon.FullSymmetry, a joint
//     register permutation within the wiring orbit) are stored once;
//   - enumeration of wiring assignments as a Go 1.23 iterator (Wirings)
//     with selectable symmetry filters (WiringFilter): all assignments,
//     processor 0 pinned to the identity wiring, or one representative
//     per wiring orbit.
//
// Picking an engine:
//
//	engine     memory                  speed                cycles  traces
//	DFSEngine  stack + fp set (least)  single-threaded      inline  yes
//	BFSEngine  two levels + fp set     Options.Workers      no      yes (shortest)
//
// Options a packaged check cannot honor return an
// *UnsupportedOptionError.
//
// Both engines expand a state by the same successor steps, in the same
// order (successors), and take every step as a packed store.Step
// (Step.Apply). A state's steps from the root are its discovery path,
// the one provenance record: both engines checkpoint their pending work
// as paths, and every counterexample trace is a path replayed from the
// root (replayTrace) — a breadth-first entry's path, or the DFS stack's
// steps. A trace is built only when a violation or a cycle is reported,
// and a resumed run reports the same trace as an uninterrupted one.
//
// Storage. Every engine's visited set and frontier come from the
// internal/store layer. With no Options.MemLimit budget (the default)
// they live in RAM; under one they spill sorted fingerprint runs and
// delta-encoded frontier path segments to Options.StoreDir once the
// budget is reached. State counts, verdicts and counterexamples are
// identical under every budget. Options.Checkpoint periodically
// snapshots a run into a directory that a later Run can continue from
// with Options.Resume, under any budget: the visited set, the counters,
// the engine's pending work as one path segment of store entries (the
// breadth-first frontier, or the DFS stack one frame per entry) and the
// steps of the first DFS back edge.
// Options.Cancel aborts a run (writing a final checkpoint) with
// ErrCanceled.
package explore

import (
	"fmt"
	"strings"
	"time"

	"anonshm/internal/canon"
	"anonshm/internal/machine"
	"anonshm/internal/obs/span"
	"anonshm/internal/store"
)

// Node is a discovered state plus its auxiliary value, as Invariant and
// Prune see it. Sys is valid only during the call: the engines copy
// later successors into it once its state is done with, so a callback
// that keeps a system must keep a Clone.
type Node struct {
	Sys   *machine.System
	Aux   uint64
	Depth int
}

// Options configures an exploration.
type Options struct {
	// Engine selects the search backend (the zero value is DFSEngine).
	// See the Engine constants for the trade-offs.
	Engine Engine
	// Workers is BFSEngine's worker count (0 or 1 means one worker).
	// DFSEngine is serial and ignores it.
	Workers int
	// MaxStates bounds the number of distinct states; exceeding it sets
	// Result.Truncated instead of failing. Zero means DefaultMaxStates.
	// The cut falls between expansions, never inside one: once more than
	// MaxStates states are known, DFSEngine stops before generating its
	// next successor and BFSEngine's workers stop before expanding
	// their next popped state, so States exceeds MaxStates by the fresh
	// successors of the last expansion at most. At one worker the cut,
	// and every count at it, is deterministic.
	MaxStates int
	// Canonicalizer quotients the state space by the model's symmetries
	// before fingerprinting (nil = canon.Identity, no reduction): states
	// related by an admissible processor/register permutation share a
	// fingerprint and are stored once. See internal/canon for the
	// soundness rules. The reduction requires Invariant, Prune and Aux to
	// be orbit-invariant — they must not distinguish states the
	// canonicalizer merges. Counterexample traces remain valid executions;
	// with a cycle detector, the reported cycle closes at a state
	// symmetric to one on the path (a genuine non-termination witness,
	// since symmetry orbits are finite).
	Canonicalizer canon.Canonicalizer
	// hasher is the canonicalizer bound to the initial system; Run sets
	// it before dispatching to an engine.
	hasher canon.Hasher
	// MaxCrashes explores the crash-stop fault model: in every state whose
	// crash count is below the budget, each enabled processor may crash
	// (machine.System.Crash) as an additional transition. With budget
	// f = N−1 the search covers every f-resilient adversary — the setting
	// in which wait-freedom is actually defined. Crash transitions count
	// as edges, reach otherwise-unreachable quiescent states, and are
	// supported by every engine. Zero keeps the search failure-free.
	MaxCrashes int
	// Invariant, when set, is checked at every discovered state; a non-nil
	// error aborts the search and is reported as an *InvariantError.
	Invariant func(n Node) error
	// Aux, when set, folds step information into a 64-bit auxiliary state
	// distinguishing otherwise-identical system states (e.g. "has the
	// memory ever held exactly view X"). The root's aux value is 0. sys
	// is the successor the step produced, valid only during the call (as
	// Node.Sys is).
	Aux func(aux uint64, info machine.StepInfo, sys *machine.System) uint64
	// Prune, when set and returning true for a state, keeps the state but
	// does not expand its successors. Used to bound inherently infinite
	// state spaces (e.g. consensus timestamps); pruned states are counted
	// in Result.Pruned.
	Prune func(n Node) bool
	// Progress, when set, is called every ProgressEvery discovered states.
	Progress      func(states, edges int)
	ProgressEvery int
	// Trace, when set, records the run as Chrome trace_event spans: the
	// engine run itself, checkpoint writes/resumes, and (propagated into
	// the store config) spill/compaction/replay phases. Nil disables
	// tracing; instrumented call sites are ~ns no-ops.
	Trace *span.Tracer
	// StallAfter arms the stall watchdog: when no Progress callback
	// advances the discovered-state count for this long, the watchdog
	// records a watchdog trace instant, dumps goroutine and heap
	// profiles into StallDir, and — with StallAbort — cancels the run,
	// which then returns ErrStalled (exit code 5 in the binaries).
	// ProgressEvery defaults to 100k while it is armed. Zero disables
	// the watchdog.
	StallAfter time.Duration
	// StallAbort upgrades a detected stall from diagnosis to abort.
	StallAbort bool
	// StallDir is where stall profiles land ("" = current directory).
	StallDir string
	// Store is ignored; it remains only because the explorebench module
	// sets it (see store.Kind).
	Store store.Kind
	// StoreDir is the scratch directory of spilled fingerprint runs and
	// frontier path segments under a MemLimit budget ("" = a fresh temp
	// directory, removed when the run ends). Unused with no budget.
	StoreDir string
	// MemLimit is the RAM budget of the visited set and the frontier,
	// half each: past it they spill to StoreDir. 0 means no ceiling:
	// nothing spills and no directory is made. Every engine gives the
	// same state counts and verdicts under every budget.
	MemLimit store.Bytes
	// Checkpoint, when non-empty, names a directory the engine
	// atomically re-snapshots every CheckpointEvery discovered states
	// (and on cancellation), for Resume.
	Checkpoint      string
	CheckpointEvery int
	// Resume, when non-empty, loads a checkpoint directory written by a
	// previous run and continues it; the engine, symmetry, system and
	// crash budget must match what the checkpoint records
	// (*CheckpointMismatchError otherwise). A resumed run reports the
	// counterexample trace an uninterrupted one would.
	Resume string
	// Cancel, when non-nil, aborts the search once closed: the engine
	// writes a final checkpoint (if Checkpoint is set) and returns
	// partial results with ErrCanceled.
	Cancel <-chan struct{}

	// hasher is the canonicalizer bound to the initial system; st,
	// visited, resume and ckpt are the storage layer Run binds before
	// dispatching to an engine.
	st      *store.Store
	visited *store.Visited
	resume  *store.Checkpoint
	ckpt    *ckptState
}

// DefaultMaxStates bounds explorations unless overridden.
const DefaultMaxStates = 10_000_000

// Result summarizes an exploration.
type Result struct {
	States    int
	Edges     int
	Terminals int // states where every machine has terminated
	// MaxDepth is the largest first-discovery depth. On BFSEngine it is
	// the exact BFS eccentricity of the state graph: the engine expands
	// one level at a time, so every state is first discovered at its
	// minimum depth, and the value is deterministic and equal at every
	// worker count.
	// DFSEngine reports its (deterministic) depth-first discovery depth,
	// which is an upper bound. States, Edges and Terminals are exact and
	// reproducible on every engine.
	MaxDepth  int
	Truncated bool
	Pruned    int // states whose successors were cut by Options.Prune
	// CollisionOdds estimates the probability that fingerprinting merged
	// two distinct states: about states²/2 pairs, each equal with
	// probability 2⁻⁶⁴, so states²/2⁶⁵. A fingerprint is one hash of a
	// state's canonical form (canon), so the estimate is the same at
	// every symmetry group size.
	CollisionOdds float64
	// Cycle reports that DFS found a back edge: an execution that
	// revisits a global state — a wait-freedom violation for terminating
	// algorithms. CycleTrace is the first back edge found: the steps from
	// the root to the revisited state.
	Cycle      bool
	CycleTrace []machine.StepInfo
	// Stats instruments the run: wall time, frontier peak, dedup
	// counters and per-worker load; StatesPerSec derives throughput.
	Stats Stats
}

// InvariantError carries the counterexample trace to a violated
// invariant: the steps from the root to the violating state, empty when
// the root itself violates it.
type InvariantError struct {
	Err   error
	Trace []machine.StepInfo
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("invariant violated after %d steps: %v", len(e.Trace), e.Err)
}

// Unwrap supports errors.Is/As.
func (e *InvariantError) Unwrap() error { return e.Err }

// FormatTrace renders a counterexample trace compactly.
func FormatTrace(trace []machine.StepInfo) string {
	parts := make([]string, len(trace))
	for i, info := range trace {
		parts[i] = fmt.Sprintf("p%d:%s", info.Proc, info.Op)
	}
	return strings.Join(parts, " ")
}
