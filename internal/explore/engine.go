package explore

import (
	"fmt"
	"time"

	"anonshm/internal/canon"
	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// Engine selects the search backend used by Run: the depth-first
// engine or the breadth-first engine. They share the state, fingerprint
// and option model and differ in visit order, memory profile and
// parallelism.
type Engine uint8

const (
	// DFSEngine, the zero value, is the serial depth-first engine:
	// smallest memory footprint (only the current path's systems stay
	// alive), reaches terminal states early, and detects cycles inline
	// (Result.Cycle) — the only engine that does.
	DFSEngine Engine = iota
	// BFSEngine is the breadth-first engine at Options.Workers workers
	// (0 or 1 means one): the workers expand one level at a time, each
	// draining its own shard of the level and then its peers', and the
	// visited set is a sharded fingerprint table whose reads take no
	// lock. It visits states in minimal-depth order, so counterexample
	// traces are shortest; at one worker it is deterministic, like
	// DFSEngine. Invariant violations stop every worker.
	BFSEngine
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case DFSEngine:
		return "dfs"
	case BFSEngine:
		return "bfs"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// ParseEngine converts a command-line engine name to an Engine. The
// empty name means DFSEngine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "dfs":
		return DFSEngine, nil
	case "bfs":
		return BFSEngine, nil
	default:
		return DFSEngine, fmt.Errorf("explore: unknown engine %q (want dfs or bfs)", s)
	}
}

// Set implements flag.Value, so cmd binaries can register an Engine
// directly with flag.Var instead of hand-rolling ParseEngine plumbing.
func (e *Engine) Set(s string) error {
	v, err := ParseEngine(s)
	if err != nil {
		return err
	}
	*e = v
	return nil
}

// UnsupportedOptionError reports an Options feature the selected storage
// tier or packaged check cannot provide. Exactly one of Store and Check
// identifies the rejecting side: the check ("safety", "atomicity", ...)
// when Check is non-empty, else the tier ("mem", "disk").
type UnsupportedOptionError struct {
	Store  string
	Check  string
	Option string
	Hint   string
}

// Error implements error.
func (e *UnsupportedOptionError) Error() string {
	msg := fmt.Sprintf("explore: store %s does not support %s", e.Store, e.Option)
	if e.Check != "" {
		msg = fmt.Sprintf("explore: the %s check does not take %s", e.Check, e.Option)
	}
	if e.Hint != "" {
		msg += " (" + e.Hint + ")"
	}
	return msg
}

// canonicalizer is Options.Canonicalizer with its nil default,
// canon.Identity, applied: Run and the sweep identity both resolve it
// here.
func (o *Options) canonicalizer() canon.Canonicalizer {
	if o.Canonicalizer == nil {
		return canon.Identity{}
	}
	return o.Canonicalizer
}

// successors appends to dst the steps that expand sys, in the one order
// both engines take them: each enabled processor's pending choices,
// processor by processor, then, while the crash count is below
// maxCrashes, one crash per enabled processor.
func successors(dst []store.Step, sys *machine.System, maxCrashes int) []store.Step {
	for p := range sys.N() {
		if !sys.Enabled(p) {
			continue
		}
		for c := range len(sys.Procs[p].Pending()) {
			dst = append(dst, store.PackStep(p, c))
		}
	}
	if maxCrashes > 0 && sys.CrashCount() < maxCrashes {
		for p := range sys.N() {
			if sys.Enabled(p) {
				dst = append(dst, store.PackCrash(p))
			}
		}
	}
	return dst
}

// replayTrace turns a discovery path into a counterexample trace: it
// applies steps to a copy of root and returns what each step did. Both
// engines build their traces here, and only when they report one. The
// trace is non-nil even when steps is empty.
func replayTrace(root *machine.System, steps []store.Step) ([]machine.StepInfo, error) {
	sys := root.Clone()
	trace := make([]machine.StepInfo, len(steps))
	for i, step := range steps {
		info, err := step.Apply(sys)
		if err != nil {
			return nil, fmt.Errorf("explore: replaying the counterexample trace at step %d: %w", i, err)
		}
		trace[i] = info
	}
	return trace, nil
}

// freeList holds systems whose states an engine no longer needs: a
// successor is copied into one of them (System.CloneInto) instead of
// into a new allocation.
type freeList []*machine.System

// take removes and returns a system, or nil, which makes CloneInto
// allocate, when the list is empty.
func (l *freeList) take() *machine.System {
	n := len(*l)
	if n == 0 {
		return nil
	}
	sys := (*l)[n-1]
	*l = (*l)[:n-1]
	return sys
}

// Run is the single entry point for exhaustive exploration: it validates
// opts against the storage tier, binds the store (visited set, frontier
// factory, checkpoint trigger), dispatches, and fills Result.Stats.
func Run(init *machine.System, opts Options) (Result, error) {
	if err := validateOptions(&opts); err != nil {
		return Result{}, err
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	canonicalizer := opts.canonicalizer()
	hasher, err := canonicalizer.Bind(init)
	if err != nil {
		return Result{}, fmt.Errorf("explore: %w", err)
	}
	opts.hasher = hasher

	// Resolve the worker count once, here: the store splits its frontier
	// memory budget per worker.
	if opts.Engine == BFSEngine {
		opts.Workers = min(max(opts.Workers, 1), maxWorkers)
	} else {
		opts.Workers = 1
	}

	// The checkpoint identity: which run a checkpoint belongs to. The
	// root fingerprint pins the system and its canonicalization.
	id := store.Meta{Engine: opts.Engine.String(), Symmetry: canonicalizer.String(), MaxCrashes: opts.MaxCrashes}
	if opts.Checkpoint != "" || opts.Resume != "" {
		id.InitFP = fmt.Sprintf("%016x", hasher.Fingerprint(init.Clone(), 0))
	}
	if opts.Resume != "" {
		sp := opts.Trace.Start("checkpoint.resume", "load checkpoint")
		ck, err := store.LoadCheckpoint(opts.Resume)
		sp.End()
		if err != nil {
			return Result{}, fmt.Errorf("explore: %w", err)
		}
		if err := validateResume(ck.Meta, id); err != nil {
			return Result{}, err
		}
		opts.resume = ck
	}

	st, err := store.Open(store.Config{
		Kind:     opts.Store,
		Dir:      opts.StoreDir,
		MemLimit: opts.MemLimit,
		Root:     init,
		Workers:  opts.Workers,
		Trace:    opts.Trace,
	})
	if err != nil {
		return Result{}, fmt.Errorf("explore: %w", err)
	}
	defer st.Close()
	visited, err := st.NewVisited(true)
	if err != nil {
		return Result{}, fmt.Errorf("explore: %w", err)
	}
	defer visited.Close()
	if opts.resume != nil {
		sp := opts.Trace.Start("checkpoint.resume", "load visited set")
		err := opts.resume.LoadVisited(visited)
		sp.End()
		if err != nil {
			return Result{}, fmt.Errorf("explore: resume: %w", err)
		}
	}
	opts.st = st
	opts.visited = visited
	if opts.Checkpoint != "" {
		every := opts.CheckpointEvery
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		opts.ckpt = &ckptState{dir: opts.Checkpoint, every: int64(every), id: id, st: st, tr: opts.Trace}
		if opts.resume != nil {
			opts.ckpt.last = opts.resume.Meta.States
		}
	}

	wd := startWatchdog(&opts)
	defer wd.stop()
	runSpan := opts.Trace.StartArgs("run", "engine "+opts.Engine.String(),
		map[string]any{"engine": opts.Engine.String(), "workers": opts.Workers})
	defer runSpan.End()

	//lint:ignore anonlint/determinism wall time feeds only Stats (throughput reporting), never fingerprints, traces or state counts
	start := time.Now()
	var res Result
	switch opts.Engine {
	case DFSEngine:
		res, err = runDFS(init, opts)
	case BFSEngine:
		res, err = runParallel(init, opts)
	default:
		return Result{}, fmt.Errorf("explore: unknown engine %v", opts.Engine)
	}
	err = wd.stallError(err)
	res.Stats.Engine = opts.Engine
	res.Stats.Workers = opts.Workers
	res.Stats.Symmetry = canonicalizer.String()
	res.Stats.GroupSize = hasher.GroupSize()
	res.Stats.Store = st.Snapshot()
	res.Stats.StoreKind = st.Kind().String()
	res.Stats.WallTime = time.Since(start)
	s := float64(res.States)
	res.CollisionOdds = s * s / 0x1p65
	return res, err
}
