package explore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// This file implements the breadth-first engine: a work-stealing
// parallel breadth-first search. ParallelEngine runs it at
// Options.Workers goroutines, BFSEngine at one. With one worker there is
// nothing to steal and no discovery race, so the search is the classic
// FIFO breadth-first search: deterministic, every state first reached
// at its minimum depth, and counterexample traces shortest.
//
// Layout. Every worker owns a frontier shard (store.Frontier) of
// discovered-but-unexpanded states; it pops from the front (oldest
// first, so expansion stays roughly breadth-first) and thieves steal the
// back half of a victim's shard, so load balances without a shared
// queue. The visited set comes from the store layer: on the mem tier a
// sharded open-addressing fingerprint table whose readers probe with
// atomic loads and never take a lock, on the disk tier a hot table plus
// sorted runs behind an internal mutex. Deduplication therefore does not
// serialize the workers on the mem tier — the only shared mutable state
// on the hot path is the table's atomic slots and a handful of counters.
//
// Depth. The visited set records each fingerprint's minimum discovery
// depth. Racing workers can reach a state first along a longer path;
// when a later, shorter rediscovery improves the recorded depth, the
// engine queues a relax entry that re-expands the state's successors
// with the smaller depth (and so on, transitively). Relax expansions
// touch no counter — States, Edges, Terminals, WorkerSteps and the dedup
// counters all keep their serial identities — and terminate because
// recorded depths strictly decrease toward the true BFS depth. The final
// MaxDepth is read off the visited set after the workers join, making it
// the exact BFS eccentricity, deterministic across runs and equal at
// every worker count.
//
// Termination. A global counter tracks queued-but-unexpanded states; it
// is incremented before a state is pushed and decremented after its
// expansion completes, so it can only reach zero when no state is queued
// anywhere and no expansion (which could push more) is in flight. An
// idle worker that finds nothing to steal exits when the counter is zero.
//
// Stopping. Invariant violations and step errors set a stop flag that
// every worker checks between successor generations, so all workers quit
// promptly. The first invariant violation wins; its counterexample trace
// is rebuilt after the workers have joined, from per-worker append-only
// parent logs (node ids pack worker and log index into an int64, so the
// logs need no cross-worker synchronization). The state bound and
// Options.Cancel act only between expansions: a worker checks them at
// its loop top (cancel) or right after a pop (the bound, which then
// leaves the popped entry unexpanded), and the other workers finish the
// expansion they are in before they see the flag. So no state is ever
// half-expanded when a run stops for either reason, and the final
// checkpoint a canceled run writes after the join holds every state's
// successors or the state itself. Periodic checkpoints use a pause
// barrier: the worker whose discovery makes a checkpoint due raises a
// flag, every worker parks at its loop top (no expansion in flight), and
// the last one to park snapshots the visited set and all frontier shards
// before releasing the others.

// maxParallelWorkers bounds Options.Workers so node ids can pack the
// worker index into the top 16 bits of an int64.
const maxParallelWorkers = 1 << 15

// parNode is one entry of a worker's parent log (Traces only).
type parNode struct {
	parent int64
	how    machine.StepInfo
}

// packID builds a node id from a worker index and that worker's log index.
func packID(worker, idx int) int64 { return int64(worker)<<48 | int64(idx) }

func unpackID(id int64) (worker, idx int) {
	return int(id >> 48), int(id & (1<<48 - 1))
}

// parWorker is one worker's private state. Only the owning goroutine
// touches the counters and log; the frontier shard has its own lock.
type parWorker struct {
	fr      store.Frontier
	steps   int64 // states expanded
	lookups int64
	hits    int64
	log     []parNode // parent pointers (Traces only)
}

// parRun is the shared state of one parallel exploration.
type parRun struct {
	opts     Options
	workers  []parWorker
	visited  store.VisitedSet
	needPath bool

	states    atomic.Int64
	edges     atomic.Int64
	terminals atomic.Int64
	pruned    atomic.Int64
	pending   atomic.Int64 // queued or in-expansion states
	peak      atomic.Int64 // high-water mark of pending
	truncated atomic.Bool
	stop      atomic.Bool
	canceled  atomic.Bool

	failMu     sync.Mutex
	stepErr    error // first non-invariant failure
	invErr     error // first invariant violation
	invNode    int64 // node id of the violation (-1 without Traces)
	progressMu sync.Mutex

	// Checkpoint pause barrier.
	pause    atomic.Bool
	ckptMu   sync.Mutex
	ckptCond *sync.Cond
	parked   int // workers waiting at the barrier (ckptMu)
	activeW  int // workers that have not exited (ckptMu)
}

// runParallel is the breadth-first engine behind Run, at the
// opts.Workers workers Run resolved.
func runParallel(init *machine.System, opts Options) (Result, error) {
	nw := opts.Workers
	p := &parRun{
		opts:    opts,
		workers: make([]parWorker, nw),
		visited: opts.visited,
		activeW: nw,
	}
	p.ckptCond = sync.NewCond(&p.ckptMu)
	for w := range p.workers {
		fr, err := opts.st.NewFrontier(w, store.FIFO)
		if err != nil {
			return Result{}, fmt.Errorf("explore: %w", err)
		}
		p.workers[w].fr = fr
		defer fr.Close()
	}
	p.needPath = p.workers[0].fr.NeedsPath() || opts.ckpt != nil

	if opts.resume != nil {
		m := opts.resume.Meta
		p.states.Store(m.States)
		p.edges.Store(m.Edges)
		p.terminals.Store(m.Terminals)
		p.pruned.Store(m.Pruned)
		for i, s := range m.WorkerSteps {
			p.workers[i%nw].steps += s
		}
		p.workers[0].lookups = m.DedupLookups
		p.workers[0].hits = m.DedupHits
		entries, err := opts.resume.Frontier()
		if err != nil {
			return p.result(), fmt.Errorf("explore: resume: %w", err)
		}
		for i, e := range entries {
			e.Tag = -1
			if err := p.workers[i%nw].fr.Push(e); err != nil {
				return p.result(), fmt.Errorf("explore: resume: %w", err)
			}
		}
		p.pending.Store(int64(len(entries)))
		peak := int64(m.FrontierPeak)
		if n := int64(len(entries)); n > peak {
			peak = n
		}
		p.peak.Store(peak)
	} else {
		// Seed the root state on worker 0.
		rootSys := init.Clone()
		rootFP := opts.hasher.Fingerprint(rootSys, opts.InitAux)
		if _, _, err := p.visited.Insert(rootFP, 0); err != nil {
			return p.result(), fmt.Errorf("explore: %w", err)
		}
		p.workers[0].lookups++
		p.states.Store(1)
		rootID := int64(-1)
		if opts.Traces {
			p.workers[0].log = append(p.workers[0].log, parNode{parent: -1})
			rootID = packID(0, 0)
		}
		if rootSys.Quiescent() {
			p.terminals.Store(1)
		}
		if opts.Invariant != nil {
			if err := opts.Invariant(Node{Sys: rootSys, Aux: opts.InitAux, Depth: 0}); err != nil {
				res := p.result()
				// The one-node trace: zero steps, but non-nil when Traces is
				// set, matching DFS's root-violation behaviour.
				return res, &InvariantError{Err: err, Trace: p.traceTo(rootID)}
			}
		}
		p.pending.Store(1)
		p.peak.Store(1)
		if err := p.workers[0].fr.Push(store.Entry{Sys: rootSys, Aux: opts.InitAux, Depth: 0, Tag: rootID}); err != nil {
			return p.result(), fmt.Errorf("explore: %w", err)
		}
		// The root is discovered state 1, which only a cadence of 1 reports.
		if opts.Progress != nil && opts.ProgressEvery == 1 {
			opts.Progress(1, 0)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.work(w)
			p.ckptMu.Lock()
			p.activeW--
			p.ckptCond.Broadcast()
			p.ckptMu.Unlock()
		}(w)
	}
	wg.Wait()

	res := p.result()
	switch {
	case p.invErr != nil:
		return res, &InvariantError{Err: p.invErr, Trace: p.traceTo(p.invNode)}
	case p.stepErr != nil:
		return res, p.stepErr
	case p.canceled.Load():
		if opts.ckpt != nil {
			if err := p.writeCheckpoint(); err != nil {
				return res, fmt.Errorf("explore: checkpoint: %w", err)
			}
		}
		return res, ErrCanceled
	}
	return res, nil
}

// work is one worker's main loop: drain the own frontier shard, then
// steal; exit on stop, cancel or the state bound, or when no queued work
// remains anywhere.
func (p *parRun) work(w int) {
	self := &p.workers[w]
	idle := 0
	for {
		if p.stop.Load() || p.truncated.Load() {
			return
		}
		p.maybePause()
		if canceled(&p.opts) {
			p.canceled.Store(true)
			return
		}
		e, ok, err := self.fr.Pop()
		if err != nil {
			p.fail(fmt.Errorf("explore: %w", err))
			return
		}
		if !ok {
			e, ok = p.steal(w)
		}
		if !ok {
			if p.pending.Load() == 0 {
				return
			}
			idle++
			if idle > 8 {
				time.Sleep(50 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		if p.states.Load() > int64(p.opts.MaxStates) {
			p.truncated.Store(true)
			return
		}
		// Entries restored from a checkpoint into the mem tier carry only
		// their path; the disk tier replays inside Pop.
		if e.Sys == nil {
			if err := p.opts.st.Replay(&e); err != nil {
				p.fail(fmt.Errorf("explore: %w", err))
				return
			}
		}
		p.expand(w, e)
		p.pending.Add(-1)
	}
}

// maybePause parks the worker at the checkpoint barrier when a periodic
// checkpoint is due. The last worker to park (no expansion is in flight
// anywhere) writes the checkpoint and releases the others; workers that
// exit while the barrier is forming shrink the quorum. A worker that
// exits because the run is stopping or was cut may have left a state
// half-expanded or popped, so the barrier then writes nothing and the
// previous checkpoint stands.
func (p *parRun) maybePause() {
	if !p.pause.Load() {
		return
	}
	p.ckptMu.Lock()
	p.parked++
	for p.pause.Load() {
		if p.parked == p.activeW {
			if !p.stop.Load() && !p.truncated.Load() {
				if err := p.writeCheckpoint(); err != nil {
					p.fail(fmt.Errorf("explore: checkpoint: %w", err))
				}
			}
			p.pause.Store(false)
			break
		}
		p.ckptCond.Wait()
	}
	p.parked--
	p.ckptCond.Broadcast()
	p.ckptMu.Unlock()
}

// writeCheckpoint snapshots the visited set, every frontier shard and
// the counters. Called either by the last worker parked at the barrier
// (all other workers quiescent) or after the join.
func (p *parRun) writeCheckpoint() error {
	var snap []store.Entry
	for w := range p.workers {
		err := p.workers[w].fr.Snapshot(func(e store.Entry) error {
			e.Tag = 0
			snap = append(snap, e)
			return nil
		})
		if err != nil {
			return err
		}
	}
	states := p.states.Load()
	meta := store.Meta{
		States: states, Edges: p.edges.Load(),
		Terminals: p.terminals.Load(), Pruned: p.pruned.Load(),
		FrontierPeak: int(p.peak.Load()),
		WorkerSteps:  make([]int64, len(p.workers)),
	}
	for i := range p.workers {
		meta.WorkerSteps[i] = p.workers[i].steps
		meta.DedupLookups += p.workers[i].lookups
		meta.DedupHits += p.workers[i].hits
	}
	return p.opts.ckpt.write(meta, p.visited, snap, states)
}

// steal scans the other workers round-robin and takes the newest half of
// the first non-empty shard.
func (p *parRun) steal(w int) (store.Entry, bool) {
	n := len(p.workers)
	for off := 1; off < n; off++ {
		victim := &p.workers[(w+off)%n]
		if got := victim.fr.StealHalf(); len(got) > 0 {
			e := got[0]
			for _, b := range got[1:] {
				if err := p.workers[w].fr.Push(b); err != nil {
					p.fail(fmt.Errorf("explore: %w", err))
					return store.Entry{}, false
				}
			}
			return e, true
		}
	}
	return store.Entry{}, false
}

// expand generates every successor of e, deduplicates, and queues the new
// states on the worker's own shard. Relax entries re-run the successor
// loop purely to propagate improved depths: they touch no counter. If a
// relax entry finds a successor absent from the visited set — its
// state's original discovery entry has not been expanded yet — it is
// requeued: the improvement cannot be applied until the successors
// exist, and the original entry (already queued somewhere) guarantees
// they eventually will.
func (p *parRun) expand(w int, e store.Entry) {
	self := &p.workers[w]
	if !e.Relax {
		self.steps++
	}
	if p.opts.Prune != nil && p.opts.Prune(Node{Sys: e.Sys, Aux: e.Aux, Depth: int(e.Depth)}) {
		if !e.Relax {
			p.pruned.Add(1)
		}
		return
	}
	miss := false
	sys := e.Sys
	for proc := 0; proc < sys.N(); proc++ {
		if !sys.Enabled(proc) {
			continue
		}
		nChoices := len(sys.Procs[proc].Pending())
		for c := 0; c < nChoices; c++ {
			if p.stop.Load() {
				return
			}
			succ := sys.Clone()
			info, err := succ.Step(proc, c)
			if err != nil {
				p.fail(fmt.Errorf("explore: %w", err))
				return
			}
			ok, m := p.successor(w, e, succ, info)
			if !ok {
				return
			}
			miss = miss || m
		}
	}
	if p.opts.MaxCrashes > 0 && sys.CrashCount() < p.opts.MaxCrashes {
		for proc := 0; proc < sys.N(); proc++ {
			if !sys.Enabled(proc) {
				continue
			}
			if p.stop.Load() {
				return
			}
			succ := sys.Clone()
			info, err := succ.Crash(proc)
			if err != nil {
				p.fail(fmt.Errorf("explore: %w", err))
				return
			}
			ok, m := p.successor(w, e, succ, info)
			if !ok {
				return
			}
			miss = miss || m
		}
	}
	if miss {
		p.push(w, e)
	}
}

// successor runs one generated successor through aux folding, dedup and
// discovery; ok=false means the worker should stop expanding. For relax
// parents it only min-merges the successor's depth, queueing a further
// relax entry when the depth improved; miss reports that the successor
// was not in the visited set yet (the caller requeues the relax entry).
func (p *parRun) successor(w int, e store.Entry, succ *machine.System, info machine.StepInfo) (ok, miss bool) {
	self := &p.workers[w]
	aux := e.Aux
	if p.opts.Aux != nil {
		aux = p.opts.Aux(aux, info, succ)
	}
	fp := p.opts.hasher.Fingerprint(succ, aux)
	var path *store.PathNode
	if p.needPath {
		path = e.Path.Extend(packStepInfo(info))
	}
	if e.Relax {
		improved, found, err := p.visited.Relax(fp, e.Depth+1)
		if err != nil {
			p.fail(fmt.Errorf("explore: %w", err))
			return false, false
		}
		if improved {
			p.push(w, store.Entry{Sys: succ, Aux: aux, Depth: e.Depth + 1, Tag: -1, Path: path, Relax: true})
		}
		return true, !found
	}
	self.lookups++
	fresh, improved, err := p.visited.Insert(fp, e.Depth+1)
	if err != nil {
		p.fail(fmt.Errorf("explore: %w", err))
		return false, false
	}
	if !fresh {
		p.edges.Add(1)
		self.hits++
		if improved {
			// A shorter path to a known state: re-expand it with the
			// smaller depth so every recorded depth converges to the true
			// BFS minimum.
			p.push(w, store.Entry{Sys: succ, Aux: aux, Depth: e.Depth + 1, Tag: -1, Path: path, Relax: true})
		}
		return true, false
	}
	if !p.discovered(w, succ, aux, e.Tag, info, e.Depth+1, path) {
		return false, false
	}
	// Counted after discovery, so the Progress call inside it and an
	// invariant violation both see the edges before this one.
	p.edges.Add(1)
	return true, false
}

// push queues a relax (or requeued) entry, maintaining pending and the
// frontier peak.
func (p *parRun) push(w int, e store.Entry) {
	pend := p.pending.Add(1)
	for {
		cur := p.peak.Load()
		if pend <= cur || p.peak.CompareAndSwap(cur, pend) {
			break
		}
	}
	if err := p.workers[w].fr.Push(e); err != nil {
		p.fail(fmt.Errorf("explore: %w", err))
	}
}

// discovered registers a newly-inserted state: counters, parent log,
// invariant and the frontier push. false means the search is stopping
// (the reason is recorded in p).
func (p *parRun) discovered(w int, succ *machine.System, aux uint64, parent int64, info machine.StepInfo, depth int32, path *store.PathNode) bool {
	self := &p.workers[w]
	cnt := p.states.Add(1)
	id := int64(-1)
	if p.opts.Traces {
		self.log = append(self.log, parNode{parent: parent, how: info})
		id = packID(w, len(self.log)-1)
	}
	if succ.Quiescent() {
		p.terminals.Add(1)
	}
	if p.opts.Invariant != nil {
		if err := p.opts.Invariant(Node{Sys: succ, Aux: aux, Depth: int(depth)}); err != nil {
			p.failInvariant(err, id)
			return false
		}
	}
	pend := p.pending.Add(1)
	for {
		cur := p.peak.Load()
		if pend <= cur || p.peak.CompareAndSwap(cur, pend) {
			break
		}
	}
	if err := p.workers[w].fr.Push(store.Entry{Sys: succ, Aux: aux, Depth: depth, Tag: id, Path: path}); err != nil {
		p.fail(fmt.Errorf("explore: %w", err))
		return false
	}
	if p.opts.ckpt.due(cnt) {
		p.pause.Store(true)
	}
	if p.opts.Progress != nil && p.opts.ProgressEvery > 0 && cnt%int64(p.opts.ProgressEvery) == 0 {
		p.progressMu.Lock()
		p.opts.Progress(int(cnt), int(p.edges.Load()))
		p.progressMu.Unlock()
	}
	return true
}

// fail records the first non-invariant error and cancels all workers.
func (p *parRun) fail(err error) {
	p.failMu.Lock()
	if p.stepErr == nil && p.invErr == nil {
		p.stepErr = err
	}
	p.failMu.Unlock()
	p.stop.Store(true)
}

// failInvariant records the first invariant violation and cancels all
// workers.
func (p *parRun) failInvariant(err error, node int64) {
	p.failMu.Lock()
	if p.stepErr == nil && p.invErr == nil {
		p.invErr = err
		p.invNode = node
	}
	p.failMu.Unlock()
	p.stop.Store(true)
}

// traceTo rebuilds the step sequence from the root to the given node by
// walking the per-worker parent logs. Called only after the workers have
// joined.
func (p *parRun) traceTo(id int64) []machine.StepInfo {
	if !p.opts.Traces || id < 0 {
		return nil
	}
	var rev []machine.StepInfo
	for id != packID(0, 0) {
		w, i := unpackID(id)
		n := p.workers[w].log[i]
		rev = append(rev, n.how)
		id = n.parent
	}
	out := make([]machine.StepInfo, len(rev))
	for j := range rev {
		out[j] = rev[len(rev)-1-j]
	}
	return out
}

// result assembles the Result from the run's counters. MaxDepth is read
// off the visited set: the maximum over all states of the minimum
// discovery depth, i.e. the exact BFS eccentricity.
func (p *parRun) result() Result {
	var res Result
	res.States = int(p.states.Load())
	res.Edges = int(p.edges.Load())
	res.Terminals = int(p.terminals.Load())
	res.Pruned = int(p.pruned.Load())
	res.MaxDepth = int(p.visited.MaxDepth())
	res.Truncated = p.truncated.Load()
	res.Stats.Workers = len(p.workers)
	res.Stats.FrontierPeak = int(p.peak.Load())
	res.Stats.WorkerSteps = make([]int64, len(p.workers))
	for i := range p.workers {
		res.Stats.WorkerSteps[i] = p.workers[i].steps
		res.Stats.DedupLookups += p.workers[i].lookups
		res.Stats.DedupHits += p.workers[i].hits
	}
	return res
}
