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
// states on the current path can be grey. Checkpoints persist the visited
// set plus the stack itself (packed steps and expansion cursors); a
// resume replays the stack's steps from the root to rebuild the live
// systems.
//
// Cycle detection is built in and sets Result.Cycle; Options.Traces is
// free — counterexample traces come straight off the DFS stack.
func runDFS(init *machine.System, opts Options) (Result, error) {
	maxStates := opts.MaxStates
	visited := opts.visited
	onStack := make(map[uint64]struct{}) // grey: fingerprints on the current stack
	var res Result

	type frame struct {
		sys    *machine.System
		fp     uint64
		aux    uint64
		how    machine.StepInfo // step that produced this state
		p      int              // next processor to try
		c      int              // next choice of processor p
		n      int              // len(Pending) of processor p, -1 = unknown
		crashP int              // next processor to try crashing (MaxCrashes only)
		depth  int
	}

	stackTrace := func(stack []frame) []machine.StepInfo {
		if !opts.Traces {
			return nil
		}
		out := make([]machine.StepInfo, 0, len(stack)-1)
		for _, f := range stack[1:] {
			out = append(out, f.how)
		}
		return out
	}

	states := int64(0)
	expanded := int64(0)
	finish := func() Result {
		res.States = int(states)
		res.Stats.WorkerSteps = []int64{expanded}
		return res
	}

	writeCkpt := func(stack []frame) error {
		frames := make([]store.StackFrame, len(stack))
		for i, f := range stack {
			frames[i] = store.StackFrame{
				Step: uint32(packStepInfo(f.how)), Aux: f.aux,
				Depth: f.depth, P: f.p, C: f.c, N: f.n, CrashP: f.crashP,
			}
		}
		meta := store.Meta{
			States: states, Edges: int64(res.Edges),
			Terminals: int64(res.Terminals), Pruned: int64(res.Pruned),
			MaxDepth:     int32(res.MaxDepth),
			DedupLookups: res.Stats.DedupLookups, DedupHits: res.Stats.DedupHits,
			FrontierPeak: res.Stats.FrontierPeak,
			WorkerSteps:  []int64{expanded},
			Cycle:        res.Cycle,
			Stack:        frames,
		}
		if err := opts.ckpt.write(meta, visited, nil, states); err != nil {
			return fmt.Errorf("explore: checkpoint: %w", err)
		}
		return nil
	}

	push := func(stack []frame, sys *machine.System, fp, aux uint64, how machine.StepInfo, depth int) ([]frame, error) {
		onStack[fp] = struct{}{}
		stack = append(stack, frame{sys: sys, fp: fp, aux: aux, how: how, n: -1, depth: depth})
		if len(stack) > res.Stats.FrontierPeak {
			res.Stats.FrontierPeak = len(stack)
		}
		if depth > res.MaxDepth {
			res.MaxDepth = depth
		}
		if sys.Quiescent() {
			res.Terminals++
		}
		if opts.Invariant != nil {
			if err := opts.Invariant(Node{Sys: sys, Aux: aux, Depth: depth}); err != nil {
				return stack, &InvariantError{Err: err, Trace: stackTrace(stack)}
			}
		}
		if opts.Progress != nil && opts.ProgressEvery > 0 && states%int64(opts.ProgressEvery) == 0 {
			opts.Progress(int(states), res.Edges)
		}
		return stack, nil
	}

	var stack []frame
	if opts.resume != nil {
		m := opts.resume.Meta
		states = m.States
		if len(m.WorkerSteps) > 0 {
			expanded = m.WorkerSteps[0]
		}
		res.Edges = int(m.Edges)
		res.Terminals = int(m.Terminals)
		res.Pruned = int(m.Pruned)
		res.MaxDepth = int(m.MaxDepth)
		res.Stats.DedupLookups = m.DedupLookups
		res.Stats.DedupHits = m.DedupHits
		res.Stats.FrontierPeak = m.FrontierPeak
		res.Cycle = m.Cycle
		// Rebuild the stack by replaying each frame's step on a clone of
		// its parent's system; fingerprints are recomputed, cursors are
		// restored verbatim, and each frame keeps the step it replayed,
		// which the next checkpoint writes again.
		var prev *machine.System
		for i, sf := range m.Stack {
			var sys *machine.System
			var how machine.StepInfo
			if i == 0 {
				sys = init.Clone()
			} else {
				sys = prev.Clone()
				st := store.Step(sf.Step)
				var err error
				if st.Crash() {
					how, err = sys.Crash(st.Proc())
				} else {
					how, err = sys.Step(st.Proc(), st.Choice())
				}
				if err != nil {
					return finish(), fmt.Errorf("explore: resume: replaying stack frame %d: %w", i, err)
				}
			}
			// The restored aux fold may carry proc-keyed data (crash
			// masks); canon mirrors it jointly with the processor
			// permutation π, so the fingerprint stays orbit-invariant.
			// Observer-side state, not machine state.
			//lint:ignore anonlint/taint aux fold is canonicalized jointly with π (canon.Key); observer-side, orbit-invariant by construction
			fp := opts.hasher.Fingerprint(sys, sf.Aux)
			onStack[fp] = struct{}{}
			stack = append(stack, frame{
				sys: sys, fp: fp, aux: sf.Aux, how: how,
				p: sf.P, c: sf.C, n: sf.N, crashP: sf.CrashP, depth: sf.Depth,
			})
			prev = sys
		}
	} else {
		initSys := init.Clone()
		res.Stats.DedupLookups++
		rootFP := opts.hasher.Fingerprint(initSys, opts.InitAux)
		if _, _, err := visited.Insert(rootFP, 0); err != nil {
			return finish(), fmt.Errorf("explore: %w", err)
		}
		states++
		var err error
		stack, err = push(nil, initSys, rootFP, opts.InitAux, machine.StepInfo{}, 0)
		if err != nil {
			return finish(), err
		}
	}

	for len(stack) > 0 {
		if opts.ckpt.due(states) {
			if err := writeCkpt(stack); err != nil {
				return finish(), err
			}
		}
		if canceled(&opts) {
			if opts.ckpt != nil {
				if err := writeCkpt(stack); err != nil {
					return finish(), err
				}
			}
			return finish(), ErrCanceled
		}
		f := &stack[len(stack)-1]
		if states > int64(maxStates) {
			res.Truncated = true
			break
		}
		if opts.Prune != nil && f.n == -1 && f.p == 0 && f.c == 0 &&
			opts.Prune(Node{Sys: f.sys, Aux: f.aux, Depth: f.depth}) {
			res.Pruned++
			delete(onStack, f.fp)
			stack = stack[:len(stack)-1]
			continue
		}
		// Find the next (p, c) successor.
		for f.p < f.sys.N() {
			if f.n == -1 {
				if !f.sys.Enabled(f.p) {
					f.p++
					continue
				}
				f.n = len(f.sys.Procs[f.p].Pending())
				f.c = 0
			}
			if f.c >= f.n {
				f.p++
				f.n = -1
				continue
			}
			break
		}
		var succ *machine.System
		var info machine.StepInfo
		if f.p < f.sys.N() {
			succ = f.sys.Clone()
			var err error
			info, err = succ.Step(f.p, f.c)
			if err != nil {
				return finish(), fmt.Errorf("explore: %w", err)
			}
			f.c++
		} else {
			// Op successors exhausted: emit the crash successors, then pop.
			if opts.MaxCrashes > 0 && f.sys.CrashCount() < opts.MaxCrashes {
				for f.crashP < f.sys.N() && !f.sys.Enabled(f.crashP) {
					f.crashP++
				}
			} else {
				f.crashP = f.sys.N()
			}
			if f.crashP >= f.sys.N() {
				delete(onStack, f.fp)
				expanded++
				stack = stack[:len(stack)-1]
				continue
			}
			succ = f.sys.Clone()
			var err error
			info, err = succ.Crash(f.crashP)
			if err != nil {
				return finish(), fmt.Errorf("explore: %w", err)
			}
			f.crashP++
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
				res.CycleTrace = append(stackTrace(stack), info)
			}
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
			continue
		}
		states++
		stack, err = push(stack, succ, fp, aux, info, depth)
		if err != nil {
			return finish(), err
		}
	}
	return finish(), nil
}
