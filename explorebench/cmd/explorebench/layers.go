package main

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"anonshm/internal/canon"
	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/obs/span"
	"anonshm/internal/store"
)

// This file is the traced round: the same explore.Run calls as a timed
// round, with the canonicalizer and the invariant wrapped in span
// aggregators and the program's own store spans collected through
// Options.Trace, followed by direct calls into each layer on a sample
// of the round's own states.

const (
	// sampleSize is how many discovered states the traced round keeps.
	sampleSize = 1024
	// microReps repeats the per-state layer calls over the sample.
	microReps = 4
	// frontierEntries is how many entries the frontier calls push and
	// pop: several times the disk tier's in-RAM budget, so they spill.
	frontierEntries = 4096
)

// spanAgg sums the time and count of calls into one layer. The serial
// engines call it from a single goroutine.
type spanAgg struct {
	n, ns int64
}

func (a *spanAgg) since(t0 time.Time) {
	a.ns += time.Since(t0).Nanoseconds()
	a.n++
}

// tracedCanon times every Fingerprint call the engine makes and records
// the fingerprints, in order, for the visited-set calls.
type tracedCanon struct {
	inner canon.Canonicalizer
	agg   *spanAgg
	fps   *[]uint64
}

func (c tracedCanon) Bind(init *machine.System) (canon.Hasher, error) {
	h, err := c.inner.Bind(init)
	if err != nil {
		return nil, err
	}
	return tracedHasher{inner: h, agg: c.agg, fps: c.fps}, nil
}

func (c tracedCanon) String() string { return c.inner.String() }

type tracedHasher struct {
	inner canon.Hasher
	agg   *spanAgg
	fps   *[]uint64
}

func (h tracedHasher) Fingerprint(sys *machine.System, aux uint64) uint64 {
	t0 := time.Now()
	fp := h.inner.Fingerprint(sys, aux)
	h.agg.since(t0)
	*h.fps = append(*h.fps, fp)
	return fp
}

func (h tracedHasher) GroupSize() int { return h.inner.GroupSize() }

// sample is one discovered state kept by the reservoir.
type sample struct {
	idx   int // position of its wiring in the round
	sys   *machine.System
	depth int
}

// reservoir keeps a uniform sample of the states an invariant sees.
type reservoir struct {
	rng  *rand.Rand
	seen int64
	keep []sample
}

func (r *reservoir) offer(idx int, n explore.Node) {
	r.seen++
	if len(r.keep) < sampleSize {
		r.keep = append(r.keep, sample{idx: idx, sys: n.Sys.Clone(), depth: n.Depth})
		return
	}
	if j := r.rng.Int64N(r.seen); j < sampleSize {
		r.keep[j] = sample{idx: idx, sys: n.Sys.Clone(), depth: n.Depth}
	}
}

// traceReport is the traced child's report. Times are nanoseconds.
type traceReport struct {
	Wirings []wiringRun `json:"wirings"`
	WallNs  int64       `json:"wall_ns"`
	// Spans of the engine run: canon and invariant from the wrappers,
	// the rest from the program's Options.Trace categories.
	CanonNs      int64 `json:"canon_ns"`
	CanonCalls   int64 `json:"canon_calls"`
	InvariantNs  int64 `json:"invariant_ns"`
	InvCalls     int64 `json:"invariant_calls"`
	SpillNs      int64 `json:"spill_ns"`
	CompactNs    int64 `json:"compact_ns"`
	CheckpointNs int64 `json:"checkpoint_ns"`
	// Direct calls on the sample, per operation.
	Layers layerCosts `json:"layers"`
}

// layerCosts are ns/op and allocs/op of direct calls into each layer.
type layerCosts struct {
	FingerprintAllocs    float64 `json:"fingerprint_allocs"`
	CloneNs              float64 `json:"clone_ns"`
	CloneAllocs          float64 `json:"clone_allocs"`
	StepNs               float64 `json:"step_ns"`
	StepAllocs           float64 `json:"step_allocs"`
	InsertNs             float64 `json:"insert_ns"`
	VisitedBytesPerState float64 `json:"visited_bytes_per_state"`
	PushNs               float64 `json:"push_ns"`
	PopNs                float64 `json:"pop_ns"`
	ReplayNs             float64 `json:"replay_ns"`
}

// tracedRound explores the round's wirings with layer spans on, then
// calls each layer directly on a sample of the states it discovered.
func tracedRound(w *workload, order []int, dir string, seed uint64) (traceReport, error) {
	prep, err := w.prepare(order)
	if err != nil {
		return traceReport{}, err
	}
	var rep traceReport
	var canonAgg, invAgg spanAgg
	smp := &reservoir{rng: rand.New(rand.NewPCG(seed, 0x5a))}
	tr := span.Collect()
	fps := make([][]uint64, len(prep))
	for i, p := range prep {
		wdir := filepath.Join(dir, strconv.Itoa(i))
		opts := w.options(p.ids, wdir)
		opts.Canonicalizer = tracedCanon{inner: opts.Canonicalizer, agg: &canonAgg, fps: &fps[i]}
		inv := opts.Invariant
		opts.Invariant = func(n explore.Node) error {
			t0 := time.Now()
			err := inv(n)
			invAgg.since(t0)
			smp.offer(i, n)
			return err
		}
		opts.Trace = tr
		t0 := time.Now()
		r, err := explore.Run(p.sys, opts)
		rep.WallNs += time.Since(t0).Nanoseconds()
		rep.Wirings = append(rep.Wirings, newWiringRun(p.wiring, r, err))
		if err := os.RemoveAll(wdir); err != nil {
			return rep, err
		}
	}
	rep.CanonNs, rep.CanonCalls = canonAgg.ns, canonAgg.n
	rep.InvariantNs, rep.InvCalls = invAgg.ns, invAgg.n
	phases := tr.PhaseTotals()
	rep.SpillNs = phases["store.spill"].Nanoseconds()
	rep.CompactNs = phases["store.compact"].Nanoseconds()
	rep.CheckpointNs = phases["checkpoint.write"].Nanoseconds()

	rep.Layers, err = measureLayers(w, prep, smp.keep, fps, dir, smp.rng)
	return rep, err
}

// Sinks keep the compiler from dropping the measured calls.
var (
	sinkFP  uint64
	sinkSys *machine.System
)

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perOp turns a loop's elapsed time and allocation delta into per-op costs.
func perOp(elapsed time.Duration, allocs uint64, ops int) (ns, allocsPerOp float64) {
	if ops == 0 {
		return 0, 0
	}
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(allocs) / float64(ops)
}

// measureLayers calls canon, machine and store directly on the sample.
func measureLayers(w *workload, prep []prepared, samples []sample, fps [][]uint64, dir string, rng *rand.Rand) (layerCosts, error) {
	var lc layerCosts
	hashers := make([]canon.Hasher, len(prep))
	for i, p := range prep {
		h, err := w.symmetry.Canonicalizer().Bind(p.sys)
		if err != nil {
			return lc, err
		}
		hashers[i] = h
	}

	// canon: allocations per Fingerprint (its time comes from the run).
	a0 := mallocs()
	for range microReps {
		for _, s := range samples {
			sinkFP ^= hashers[s.idx].Fingerprint(s.sys, 0)
		}
	}
	_, lc.FingerprintAllocs = perOp(0, mallocs()-a0, microReps*len(samples))

	// machine: Clone, then Step on fresh clones of every successor.
	a0 = mallocs()
	t0 := time.Now()
	for range microReps {
		for _, s := range samples {
			sinkSys = s.sys.Clone()
		}
	}
	lc.CloneNs, lc.CloneAllocs = perOp(time.Since(t0), mallocs()-a0, microReps*len(samples))

	type move struct {
		sys  *machine.System
		p, c int
	}
	var stepTime time.Duration
	var stepAllocs uint64
	steps := 0
	for range microReps {
		var moves []move
		for _, s := range samples {
			for p := 0; p < s.sys.N(); p++ {
				if !s.sys.Enabled(p) {
					continue
				}
				for c := range s.sys.Procs[p].Pending() {
					moves = append(moves, move{sys: s.sys.Clone(), p: p, c: c})
				}
			}
		}
		a0 = mallocs()
		t0 = time.Now()
		for _, m := range moves {
			if _, err := m.sys.Step(m.p, m.c); err != nil {
				return lc, err
			}
		}
		stepTime += time.Since(t0)
		stepAllocs += mallocs() - a0
		steps += len(moves)
	}
	lc.StepNs, lc.StepAllocs = perOp(stepTime, stepAllocs, steps)

	// store: the round's own fingerprint sequence into a fresh visited
	// set of the workload's tier, and the live heap it holds.
	var insertTime time.Duration
	var inserts int
	var liveBytes, distinct int64
	for i, p := range prep {
		wdir := filepath.Join(dir, strconv.Itoa(i))
		st, err := store.Open(w.storeConfig(p.sys, wdir))
		if err != nil {
			return lc, err
		}
		runtime.GC()
		live0 := heapLive()
		v, err := st.NewVisited(false)
		if err != nil {
			return lc, err
		}
		t0 = time.Now()
		for _, fp := range fps[i] {
			if _, _, err := v.Insert(fp, 0); err != nil {
				return lc, err
			}
		}
		insertTime += time.Since(t0)
		inserts += len(fps[i])
		runtime.GC()
		liveBytes += int64(heapLive()) - int64(live0)
		distinct += v.Len()
		if err := v.Close(); err != nil {
			return lc, err
		}
		if err := st.Close(); err != nil {
			return lc, err
		}
		if err := os.RemoveAll(wdir); err != nil {
			return lc, err
		}
	}
	lc.InsertNs, _ = perOp(insertTime, 0, inserts)
	if distinct > 0 {
		lc.VisitedBytesPerState = float64(liveBytes) / float64(distinct)
	}

	// store: the frontier and path replay, which only the BFS engine uses.
	if w.engine != explore.BFSEngine || len(samples) == 0 || len(prep) == 0 {
		return lc, nil
	}
	entries := make([]store.Entry, frontierEntries)
	for i := range entries {
		sys, path, err := walk(prep[0].sys, samples[rng.IntN(len(samples))].depth, rng)
		if err != nil {
			return lc, err
		}
		entries[i] = store.Entry{Sys: sys, Depth: int32(i), Path: path}
	}
	var err error
	lc.PushNs, lc.PopNs, lc.ReplayNs, err = measureFrontier(w, prep[0].sys, entries, filepath.Join(dir, "frontier"))
	return lc, err
}

// measureFrontier pushes entries into a fresh frontier of the workload's
// tier and pops them all, then replays each entry's path from root.
func measureFrontier(w *workload, root *machine.System, entries []store.Entry, dir string) (pushNs, popNs, replayNs float64, err error) {
	st, err := store.Open(w.storeConfig(root, dir))
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	fr, err := st.NewFrontier(0, store.FIFO)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	for _, e := range entries {
		if err := fr.Push(e); err != nil {
			return 0, 0, 0, err
		}
	}
	pushNs, _ = perOp(time.Since(t0), 0, len(entries))
	t0 = time.Now()
	pops := 0
	for {
		_, ok, err := fr.Pop()
		if err != nil {
			return 0, 0, 0, err
		}
		if !ok {
			break
		}
		pops++
	}
	popNs, _ = perOp(time.Since(t0), 0, pops)
	var replay time.Duration
	for _, e := range entries {
		e.Sys = nil
		t0 = time.Now()
		if err := st.Replay(&e); err != nil {
			return 0, 0, 0, err
		}
		replay += time.Since(t0)
	}
	replayNs, _ = perOp(replay, 0, len(entries))
	if err := fr.Close(); err != nil {
		return 0, 0, 0, err
	}
	return pushNs, popNs, replayNs, st.Close()
}

// walk takes depth random steps from root, recording the path the disk
// tier replays. It stops early where no processor is enabled.
func walk(root *machine.System, depth int, rng *rand.Rand) (*machine.System, *store.PathNode, error) {
	sys := root.Clone()
	var path *store.PathNode
	for range depth {
		var moves [][2]int
		for p := 0; p < sys.N(); p++ {
			if !sys.Enabled(p) {
				continue
			}
			for c := range sys.Procs[p].Pending() {
				moves = append(moves, [2]int{p, c})
			}
		}
		if len(moves) == 0 {
			break
		}
		m := moves[rng.IntN(len(moves))]
		if _, err := sys.Step(m[0], m[1]); err != nil {
			return nil, nil, err
		}
		path = path.Extend(store.PackStep(m[0], m[1]))
	}
	return sys, path, nil
}
