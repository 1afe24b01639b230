package explore

import (
	"fmt"

	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// DFS explores every reachable state of init depth-first. Compared to BFS
// it keeps only the current path's systems alive (the visited set stores
// 64-bit fingerprints), so it scales to the ~10⁸-state spaces of
// three-processor snapshot systems on a laptop, reaches terminal states
// early (which witness searches need), and detects cycles inline: a back
// edge to a state on the current path is an infinite execution, so for
// terminating algorithms it is exactly a wait-freedom violation.
//
// The visited set comes from the store layer (fingerprint membership;
// the disk tier bounds its RAM use); stack membership — the grey states
// of the classic coloring — stays engine-private, since only the O(depth)
// states on the current path can be grey. A frame expands its state by
// the successors steps, which it lists once into one step arena shared
// by the whole stack, and walks them with a cursor; a pop truncates the
// arena back to the frame's start. Successors are copied
// (System.CloneInto) into systems from a free list, which popped frames
// and successors already visited or on the stack feed, so it never holds
// more systems than the deepest stack had frames, and the search
// allocates no system once the stack has reached its depth; the caller's
// init is copied, never recycled. Checkpoints persist the visited
// set plus the stack as frontier entries, one per frame: its path, aux,
// depth and cursor (in Entry.Tag, -1 before expansion). A resume
// replays each frame's step on its parent's system and lists the
// successor steps of every expanded frame again.
//
// Cycle detection is built in and sets Result.Cycle; Options.Traces is
// free — counterexample traces come straight off the DFS stack.
func runDFS(init *machine.System, opts Options) (Result, error) {
	visited := opts.visited
	onStack := make(map[uint64]struct{}) // grey: fingerprints on the current stack
	var res Result
	expanded := int64(0)
	finish := func() Result {
		res.Stats.WorkerSteps = []int64{expanded}
		return res
	}

	// A frame is one state on the current path. Its successor steps are
	// arena[lo:] while it is the top frame; next is the cursor into them,
	// -1 until the frame is expanded.
	type frame struct {
		sys   *machine.System
		fp    uint64
		aux   uint64
		step  store.Step       // step that produced this state (root: unused)
		how   machine.StepInfo // what that step did, for traces
		depth int
		lo    int
		next  int
	}
	// Both grow by doubling; starting them at a typical stack's size
	// spares the run its first few reallocations.
	stack := make([]frame, 0, 64)
	arena := make([]store.Step, 0, 256)
	var free freeList

	stackTrace := func() []machine.StepInfo {
		if !opts.Traces {
			return nil
		}
		out := make([]machine.StepInfo, 0, len(stack)-1)
		for _, f := range stack[1:] {
			out = append(out, f.how)
		}
		return out
	}

	writeCkpt := func() error {
		pending := make([]store.Entry, len(stack))
		var path *store.PathNode
		for i, f := range stack {
			if i > 0 {
				path = path.Extend(f.step)
			}
			pending[i] = store.Entry{Aux: f.aux, Depth: int32(f.depth), Tag: int64(f.next), Path: path}
		}
		return opts.ckpt.write(finish(), visited, pending)
	}

	push := func(sys *machine.System, fp, aux uint64, step store.Step, how machine.StepInfo, depth int) error {
		onStack[fp] = struct{}{}
		stack = append(stack, frame{sys: sys, fp: fp, aux: aux, step: step, how: how, depth: depth, lo: len(arena), next: -1})
		res.Stats.FrontierPeak = max(res.Stats.FrontierPeak, len(stack))
		res.MaxDepth = max(res.MaxDepth, depth)
		if sys.Quiescent() {
			res.Terminals++
		}
		if opts.Invariant != nil {
			if err := opts.Invariant(Node{Sys: sys, Aux: aux, Depth: depth}); err != nil {
				return &InvariantError{Err: err, Trace: stackTrace()}
			}
		}
		if opts.Progress != nil && opts.ProgressEvery > 0 && res.States%opts.ProgressEvery == 0 {
			opts.Progress(res.States, res.Edges)
		}
		return nil
	}

	pop := func() {
		f := &stack[len(stack)-1]
		delete(onStack, f.fp)
		free = append(free, f.sys)
		arena = arena[:f.lo]
		stack = stack[:len(stack)-1]
	}

	if opts.resume != nil {
		res = resumedResult(opts.resume.Meta)
		for _, n := range res.Stats.WorkerSteps {
			expanded += n
		}
		pending, err := opts.resume.Frontier()
		if err != nil {
			return finish(), fmt.Errorf("explore: resume: %w", err)
		}
		// Rebuild the stack by replaying each frame's step on a clone of
		// its parent's system; fingerprints and the successor steps of
		// expanded frames are recomputed, cursors are restored verbatim.
		sys := init
		for i, e := range pending {
			sys = sys.Clone()
			var step store.Step
			var how machine.StepInfo
			if i > 0 {
				step = e.Path.Step
				if how, err = step.Apply(sys); err != nil {
					return finish(), fmt.Errorf("explore: resume: replaying stack frame %d: %w", i, err)
				}
			}
			// The restored aux fold may carry proc-keyed data (crash
			// masks); canon mirrors it jointly with the processor
			// permutation π, so the fingerprint stays orbit-invariant.
			// Observer-side state, not machine state.
			//lint:ignore anonlint/taint aux fold is canonicalized jointly with π (canon.Key); observer-side, orbit-invariant by construction
			fp := opts.hasher.Fingerprint(sys, e.Aux)
			onStack[fp] = struct{}{}
			stack = append(stack, frame{sys: sys, fp: fp, aux: e.Aux, step: step, how: how,
				depth: int(e.Depth), lo: len(arena), next: int(e.Tag)})
			if e.Tag >= 0 {
				arena = successors(arena, sys, opts.MaxCrashes)
			}
		}
	} else {
		initSys := init.Clone()
		res.Stats.DedupLookups++
		rootFP := opts.hasher.Fingerprint(initSys, opts.InitAux)
		if _, _, err := visited.Insert(rootFP, 0); err != nil {
			return finish(), fmt.Errorf("explore: %w", err)
		}
		res.States++
		if err := push(initSys, rootFP, opts.InitAux, 0, machine.StepInfo{}, 0); err != nil {
			return finish(), err
		}
	}

	for len(stack) > 0 {
		if opts.ckpt.due(int64(res.States)) {
			if err := writeCkpt(); err != nil {
				return finish(), err
			}
		}
		if canceled(&opts) {
			if opts.ckpt != nil {
				if err := writeCkpt(); err != nil {
					return finish(), err
				}
			}
			return finish(), ErrCanceled
		}
		if res.States > opts.MaxStates {
			res.Truncated = true
			break
		}
		f := &stack[len(stack)-1]
		if f.next < 0 {
			if opts.Prune != nil && opts.Prune(Node{Sys: f.sys, Aux: f.aux, Depth: f.depth}) {
				res.Pruned++
				pop()
				continue
			}
			arena = successors(arena, f.sys, opts.MaxCrashes)
			f.next = 0
		}
		if f.lo+f.next == len(arena) {
			expanded++
			pop()
			continue
		}
		step := arena[f.lo+f.next]
		f.next++
		succ := f.sys.CloneInto(free.take())
		info, err := step.Apply(succ)
		if err != nil {
			return finish(), fmt.Errorf("explore: %w", err)
		}
		res.Edges++
		aux := f.aux
		if opts.Aux != nil {
			aux = opts.Aux(aux, info, succ)
		}
		// aux folds the crash adversary's proc-keyed mask into the state
		// key on purpose: canon applies the same π to the mask and to
		// the registers, so equal fingerprints mean symmetric states.
		// This is the explorer (observer), not machine code.
		//lint:ignore anonlint/taint aux fold is canonicalized jointly with π (canon.Key); observer-side, orbit-invariant by construction
		fp := opts.hasher.Fingerprint(succ, aux)
		res.Stats.DedupLookups++
		if _, grey := onStack[fp]; grey {
			res.Stats.DedupHits++
			res.Cycle = true
			if res.CycleTrace == nil && opts.Traces {
				res.CycleTrace = append(stackTrace(), info)
			}
			free = append(free, succ)
			continue
		}
		depth := f.depth + 1
		fresh, _, err := visited.Insert(fp, int32(depth))
		if err != nil {
			return finish(), fmt.Errorf("explore: %w", err)
		}
		if !fresh {
			// Already fully explored (black).
			res.Stats.DedupHits++
			free = append(free, succ)
			continue
		}
		res.States++
		if err := push(succ, fp, aux, step, info, depth); err != nil {
			return finish(), err
		}
	}
	return finish(), nil
}
