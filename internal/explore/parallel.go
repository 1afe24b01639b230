package explore

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// This file implements the breadth-first engine, BFSEngine: a
// breadth-first search that expands one level at a time at
// Options.Workers workers. With one worker it is the classic FIFO
// breadth-first search and deterministic.
//
// Layout. Every worker owns two frontier shards (store.Frontier): cur
// holds its part of the level being expanded, next collects the fresh
// successors, which all lie one level deeper. Workers share the level:
// a worker pops the oldest entry of its own cur and, once that is
// empty, of its peers' cur shards in turn, so no entry moves between
// shards. Only seeding and a resume push into a
// cur, both before a round starts, so a cur never grows during a round
// and a worker that finds every cur empty has reached the end of the
// level. The visited set comes from the store layer: a sharded
// open-addressing fingerprint table whose hits probe with atomic loads
// and never take a lock, with or without a budget; only a miss takes
// its shard's lock, and a flush to disk all of them. Deduplication
// therefore does not serialize the workers — the only shared mutable
// state on the hot path is the table's atomic slots, the shards' locks
// and a handful of counters.
//
// Rounds. runParallel is the coordinator. It starts one round per level:
// every worker expands until it finds nothing to pop and then returns,
// so the round ends when the level is exhausted and no expansion is in
// flight. The coordinator joins the workers, turns every next into the
// new cur, and stops when all shards are empty.
//
// Depth. Every state of level d is expanded before any of level d+1, so
// every state is first discovered at its minimum depth whatever the
// worker count: MaxDepth is the deepest discovered level, the exact BFS
// eccentricity, deterministic and equal at every worker count, and a
// counterexample trace is a shortest one. A checkpoint records MaxDepth
// in store.Meta.MaxDepth, and a resume splits the checkpointed frontier
// back into the level being expanded (its shallowest entries) and the
// next.
//
// Expansion. A worker expands a state by the successors steps, listed
// into a per-worker buffer, and applies each to a copy of the state
// (System.CloneInto) made into a system from the worker's free list when
// it has one. Duplicate successors feed the list, and so does the
// expanded state once every successor has been generated; the list is
// capped at maxFreeSystems, so a frontier that shrinks from its peak
// does not leave its systems parked there until the run ends. Fresh
// successors go to the frontier, which owns them until they are popped.
//
// Provenance. Every entry carries its discovery path (store.PathNode),
// which a spilling frontier and checkpoints write. The path is also
// the entry's trace: the first invariant violation records the
// violating state's path, and after the workers have joined the
// coordinator replays it from the root into the counterexample trace
// (replayTrace).
//
// Stopping. Invariant violations and step errors set a stop flag that
// every worker checks between successor generations, so all workers quit
// promptly. The first invariant violation wins. The state bound,
// Options.Cancel and a due periodic checkpoint act only between
// expansions: a worker checks them at its loop top (cancel and the
// checkpoint) or right after a pop (the bound, which then leaves the
// popped entry unexpanded), and the other workers finish the expansion
// they are in before they see the flag. So no state is ever
// half-expanded when a round ends early, and a checkpoint the
// coordinator writes after the join holds every state's successors or
// the state itself. After a periodic checkpoint the coordinator restarts
// the same level; after a cancel it writes the final checkpoint and
// returns.

// maxWorkers bounds Options.Workers, a value that reaches Run from a
// command-line flag and starts one goroutine per worker.
const maxWorkers = 1 << 15

// maxFreeSystems caps a worker's free list. An expansion takes one
// system per successor and returns the duplicates and then the expanded
// state, so a handful covers the steady state.
const maxFreeSystems = 8

// parWorker is one worker's private state. Only the owning goroutine
// touches the counters; the frontier shards have their own locks.
type parWorker struct {
	cur, next *store.Frontier
	steps     int64 // states expanded
	lookups   int64
	hits      int64
	maxDepth  int32        // deepest state this worker discovered
	succ      []store.Step // the successor steps of the state in expansion
	free      freeList     // systems to copy successors into
}

// recycle parks sys on the worker's free list, unless the list is full.
func (wk *parWorker) recycle(sys *machine.System) {
	if len(wk.free) < maxFreeSystems {
		wk.free = append(wk.free, sys)
	}
}

// parRun is the shared state of one breadth-first exploration.
type parRun struct {
	opts    Options
	root    *machine.System // traces replay from it
	workers []parWorker
	visited *store.Visited

	states    atomic.Int64
	edges     atomic.Int64
	terminals atomic.Int64
	pruned    atomic.Int64
	pending   atomic.Int64 // queued or in-expansion states
	peak      atomic.Int64 // high-water mark of pending
	truncated atomic.Bool
	stop      atomic.Bool
	canceled  atomic.Bool
	pause     atomic.Bool // a periodic checkpoint is due

	failMu     sync.Mutex
	stepErr    error           // first non-invariant failure
	invErr     error           // first invariant violation
	invPath    *store.PathNode // the violating state's discovery path
	progressMu sync.Mutex
}

// runParallel is the breadth-first engine behind Run, at the
// opts.Workers workers Run resolved.
func runParallel(init *machine.System, opts Options) (Result, error) {
	p := &parRun{
		opts:    opts,
		root:    init,
		workers: make([]parWorker, opts.Workers),
		visited: opts.visited,
	}
	for w := range p.workers {
		for _, fr := range []**store.Frontier{&p.workers[w].cur, &p.workers[w].next} {
			f, err := opts.st.NewFrontier(w, store.FIFO)
			if err != nil {
				return Result{}, fmt.Errorf("explore: %w", err)
			}
			*fr = f
			defer f.Close()
		}
	}
	if opts.resume != nil {
		if err := p.restore(); err != nil {
			return p.result(), fmt.Errorf("explore: resume: %w", err)
		}
	} else if err := p.seed(init); err != nil {
		return p.result(), err
	}

	for {
		var wg sync.WaitGroup
		for w := range p.workers {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p.work(w)
			}(w)
		}
		wg.Wait()

		res := p.result()
		switch {
		case p.invErr != nil:
			trace, err := replayTrace(p.root, p.invPath.Steps())
			if err != nil {
				return res, err
			}
			return res, &InvariantError{Err: p.invErr, Trace: trace}
		case p.stepErr != nil:
			return res, p.stepErr
		case p.truncated.Load():
			// A cut run leaves popped entries unexpanded, so it writes no
			// checkpoint even when a cancel raced the cut.
			return res, nil
		case p.canceled.Load():
			if opts.ckpt != nil {
				if err := p.writeCheckpoint(); err != nil {
					return res, err
				}
			}
			return res, ErrCanceled
		case p.pause.Load():
			if err := p.writeCheckpoint(); err != nil {
				return res, err
			}
			p.pause.Store(false)
			continue // the same level, where it stopped
		}
		done := true
		for w := range p.workers {
			wk := &p.workers[w]
			wk.cur, wk.next = wk.next, wk.cur
			done = done && wk.cur.Len() == 0
		}
		if done {
			return res, nil
		}
	}
}

// seed discovers the root state and queues it on worker 0.
func (p *parRun) seed(init *machine.System) error {
	opts := p.opts
	rootSys := init.Clone()
	rootFP := opts.hasher.Fingerprint(rootSys, 0)
	if _, _, err := p.visited.Insert(rootFP, 0); err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	p.workers[0].lookups++
	p.states.Store(1)
	if rootSys.Quiescent() {
		p.terminals.Store(1)
	}
	if opts.Invariant != nil {
		if err := opts.Invariant(Node{Sys: rootSys, Depth: 0}); err != nil {
			// The one-node trace: zero steps, but non-nil, as on DFS.
			return &InvariantError{Err: err, Trace: []machine.StepInfo{}}
		}
	}
	p.pending.Store(1)
	p.peak.Store(1)
	if err := p.workers[0].cur.Push(store.Entry{Sys: rootSys}); err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	// The root is discovered state 1, which only a cadence of 1 reports.
	if opts.Progress != nil && opts.ProgressEvery == 1 {
		opts.Progress(1, 0)
	}
	return nil
}

// restore loads a checkpoint's counters and frontier. The frontier
// holds at most two levels: its shallowest entries are the rest of the
// level being expanded and go back into the cur shards, the others into
// the next shards, dealt round-robin over the workers.
func (p *parRun) restore() error {
	res := resumedResult(p.opts.resume.Meta)
	nw := len(p.workers)
	p.states.Store(int64(res.States))
	p.edges.Store(int64(res.Edges))
	p.terminals.Store(int64(res.Terminals))
	p.pruned.Store(int64(res.Pruned))
	for i, s := range res.Stats.WorkerSteps {
		p.workers[i%nw].steps += s
	}
	p.workers[0].lookups = res.Stats.DedupLookups
	p.workers[0].hits = res.Stats.DedupHits
	p.workers[0].maxDepth = int32(res.MaxDepth)
	entries, err := p.opts.resume.Frontier()
	if err != nil {
		return err
	}
	level := int32(math.MaxInt32)
	for _, e := range entries {
		level = min(level, e.Depth)
	}
	for i, e := range entries {
		fr := p.workers[i%nw].next
		if e.Depth == level {
			fr = p.workers[i%nw].cur
		}
		if err := fr.Push(e); err != nil {
			return err
		}
	}
	p.pending.Store(int64(len(entries)))
	p.peak.Store(max(int64(res.Stats.FrontierPeak), int64(len(entries))))
	return nil
}

// work is one worker's part of a round: expand the level, popping from
// its own cur shard and then from its peers'; return when every cur is
// empty, or at the loop top once the run stops, is cut or canceled, or
// a periodic checkpoint is due.
func (p *parRun) work(w int) {
	for !p.stop.Load() && !p.truncated.Load() && !p.pause.Load() {
		if canceled(&p.opts) {
			p.canceled.Store(true)
			return
		}
		e, ok, err := p.pop(w)
		if err != nil {
			p.fail(fmt.Errorf("explore: %w", err))
			return
		}
		if !ok {
			return
		}
		if p.states.Load() > int64(p.opts.MaxStates) {
			p.truncated.Store(true)
			return
		}
		p.expand(w, e)
		p.pending.Add(-1)
	}
}

// pop takes worker w's next entry: the oldest one of the first cur
// shard that has any, trying w's own and then (w+1) mod n, and so on.
// ok is false when every cur is empty. Frontier.Pop replays a spilled
// or restored entry, so the entry always has its Sys.
func (p *parRun) pop(w int) (store.Entry, bool, error) {
	n := len(p.workers)
	for off := range n {
		if e, ok, err := p.workers[(w+off)%n].cur.Pop(); ok || err != nil {
			return e, ok, err
		}
	}
	return store.Entry{}, false, nil
}

// writeCheckpoint snapshots the visited set, every frontier shard (the
// cur shards first, then the next ones) and the counters. Called by the
// coordinator after the join, with no expansion in flight.
func (p *parRun) writeCheckpoint() error {
	var snap []store.Entry
	collect := func(e store.Entry) error {
		snap = append(snap, e)
		return nil
	}
	for w := range p.workers {
		if err := p.workers[w].cur.Snapshot(collect); err != nil {
			return err
		}
	}
	for w := range p.workers {
		if err := p.workers[w].next.Snapshot(collect); err != nil {
			return err
		}
	}
	return p.opts.ckpt.write(p.result(), p.visited, snap)
}

// expand generates every successor of e, deduplicates, and queues the new
// states on the worker's next shard; then e.Sys goes to the free list.
func (p *parRun) expand(w int, e store.Entry) {
	self := &p.workers[w]
	self.steps++
	if p.opts.Prune != nil && p.opts.Prune(Node{Sys: e.Sys, Aux: e.Aux, Depth: int(e.Depth)}) {
		p.pruned.Add(1)
		self.recycle(e.Sys)
		return
	}
	self.succ = successors(self.succ[:0], e.Sys, p.opts.MaxCrashes)
	for _, step := range self.succ {
		if p.stop.Load() {
			return
		}
		succ := e.Sys.CloneInto(self.free.take())
		info, err := step.Apply(succ)
		if err != nil {
			p.fail(fmt.Errorf("explore: %w", err))
			return
		}
		if !p.successor(w, e, succ, step, info) {
			return
		}
	}
	self.recycle(e.Sys)
}

// successor runs one generated successor through aux folding, dedup and
// discovery; false means the worker should stop expanding.
func (p *parRun) successor(w int, e store.Entry, succ *machine.System, step store.Step, info machine.StepInfo) bool {
	self := &p.workers[w]
	aux := e.Aux
	if p.opts.Aux != nil {
		aux = p.opts.Aux(aux, info, succ)
	}
	fp := p.opts.hasher.Fingerprint(succ, aux)
	self.lookups++
	fresh, _, err := p.visited.Insert(fp, e.Depth+1)
	if err != nil {
		p.fail(fmt.Errorf("explore: %w", err))
		return false
	}
	if !fresh {
		p.edges.Add(1)
		self.hits++
		self.recycle(succ)
		return true
	}
	if !p.discovered(w, succ, aux, e.Depth+1, e.Path.Extend(step)) {
		return false
	}
	// Counted after discovery, so the Progress call inside it and an
	// invariant violation both see the edges before this one.
	p.edges.Add(1)
	return true
}

// discovered registers a newly-inserted state, reached by path:
// counters, invariant and the push onto the worker's next shard. false
// means the search is stopping (the reason is recorded in p).
func (p *parRun) discovered(w int, succ *machine.System, aux uint64, depth int32, path *store.PathNode) bool {
	self := &p.workers[w]
	cnt := p.states.Add(1)
	self.maxDepth = max(self.maxDepth, depth)
	if succ.Quiescent() {
		p.terminals.Add(1)
	}
	if p.opts.Invariant != nil {
		if err := p.opts.Invariant(Node{Sys: succ, Aux: aux, Depth: int(depth)}); err != nil {
			p.failInvariant(err, path)
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
	if err := self.next.Push(store.Entry{Sys: succ, Aux: aux, Depth: depth, Path: path}); err != nil {
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

// failInvariant records the first invariant violation, at the state
// path reaches, and cancels all workers.
func (p *parRun) failInvariant(err error, path *store.PathNode) {
	p.failMu.Lock()
	if p.stepErr == nil && p.invErr == nil {
		p.invErr = err
		p.invPath = path
	}
	p.failMu.Unlock()
	p.stop.Store(true)
}

// result assembles the Result from the run's counters. Called only
// while no worker runs.
func (p *parRun) result() Result {
	var res Result
	res.States = int(p.states.Load())
	res.Edges = int(p.edges.Load())
	res.Terminals = int(p.terminals.Load())
	res.Pruned = int(p.pruned.Load())
	res.Truncated = p.truncated.Load()
	res.Stats.Workers = len(p.workers)
	res.Stats.FrontierPeak = int(p.peak.Load())
	res.Stats.WorkerSteps = make([]int64, len(p.workers))
	for i := range p.workers {
		res.MaxDepth = max(res.MaxDepth, int(p.workers[i].maxDepth))
		res.Stats.WorkerSteps[i] = p.workers[i].steps
		res.Stats.DedupLookups += p.workers[i].lookups
		res.Stats.DedupHits += p.workers[i].hits
	}
	return res
}
