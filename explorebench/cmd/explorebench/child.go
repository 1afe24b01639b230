package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/store"
	"anonshm/internal/view"
)

// This file holds what a child process does: a timed round, a set-up
// timing or a traced round. Each prints one JSON report on stdout.

// wiringRun is one wiring run of a round: its outcome plus the exact
// counters the per-layer metrics derive from.
type wiringRun struct {
	wiringOutcome
	Expansions   int64       `json:"expansions"`
	FrontierPeak int         `json:"frontier_peak"`
	DedupLookups int64       `json:"dedup_lookups"`
	DedupHits    int64       `json:"dedup_hits"`
	GroupSize    int         `json:"group_size"`
	Store        store.Stats `json:"store"`
}

func newWiringRun(wiring int, res explore.Result, err error) wiringRun {
	r := wiringRun{
		wiringOutcome: wiringOutcome{
			Wiring: wiring, States: res.States, Edges: res.Edges,
			Truncated: res.Truncated, Cycle: res.Cycle,
		},
		FrontierPeak: res.Stats.FrontierPeak,
		DedupLookups: res.Stats.DedupLookups,
		DedupHits:    res.Stats.DedupHits,
		GroupSize:    res.Stats.GroupSize,
		Store:        res.Stats.Store,
	}
	for _, n := range res.Stats.WorkerSteps {
		r.Expansions += n
	}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// roundReport is a timed child's report.
type roundReport struct {
	Wirings []wiringRun `json:"wirings"`
	// WallNs sums the wiring runs' explore.Run times: from the first
	// expanded state to the last wiring's verdict, without set-up.
	WallNs  int64           `json:"wall_ns"`
	Runtime runtimeCounters `json:"runtime"`
}

// prepared is one wiring's system, built before any state is explored.
type prepared struct {
	wiring int
	sys    *machine.System
	ids    []view.ID
}

// prepare enumerates the orbit wirings and builds the systems of a
// round's wirings.
func (w *workload) prepare(order []int) ([]prepared, error) {
	all := orbitWirings()
	out := make([]prepared, len(order))
	for i, wi := range order {
		if wi < 0 || wi >= len(all) {
			return nil, fmt.Errorf("wiring %d out of range [0,%d)", wi, len(all))
		}
		sys, ids, err := w.system(all[wi])
		if err != nil {
			return nil, fmt.Errorf("wiring %d: %w", wi, err)
		}
		out[i] = prepared{wiring: wi, sys: sys, ids: ids}
	}
	return out, nil
}

// timedRound explores the round's wirings in order, untraced.
func timedRound(w *workload, order []int, dir string) (roundReport, error) {
	prep, err := w.prepare(order)
	if err != nil {
		return roundReport{}, err
	}
	var rep roundReport
	for i, p := range prep {
		wdir := filepath.Join(dir, strconv.Itoa(i))
		opts := w.options(p.ids, wdir)
		t0 := time.Now()
		res, err := explore.Run(p.sys, opts)
		rep.WallNs += time.Since(t0).Nanoseconds()
		rep.Wirings = append(rep.Wirings, newWiringRun(p.wiring, res, err))
		if err := os.RemoveAll(wdir); err != nil {
			return rep, err
		}
	}
	rep.Runtime = readRuntime()
	return rep, nil
}

// setupReport is a set-up child's report: medians over its repetitions.
type setupReport struct {
	// Ns is one set-up of the round: orbit-wiring enumeration, then per
	// wiring core.NewSnapshotSystem, canonicalizer Bind and store Open.
	Ns int64 `json:"ns"`
	// BindNs is one Bind, averaged over the round's wirings.
	BindNs int64 `json:"bind_ns"`
}

// timeSetup repeats the set-up explore.Run's callers and explore.Run
// itself do before the first state, reps times.
func timeSetup(w *workload, order []int, dir string, reps int) (setupReport, error) {
	if reps <= 0 || len(order) == 0 {
		return setupReport{}, fmt.Errorf("set-up needs reps > 0 and wirings (got %d, %d)", reps, len(order))
	}
	// The store directories exist before timing starts, so the timed Open
	// measures the store and not the file system's directory creation.
	dirs := make([]string, len(order))
	for i := range order {
		dirs[i] = filepath.Join(dir, strconv.Itoa(i))
		if d := w.storeConfig(nil, dirs[i]).Dir; d != "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return setupReport{}, err
			}
		}
	}
	defer os.RemoveAll(dir)
	totals := make([]int64, reps)
	binds := make([]int64, reps)
	for r := range reps {
		t0 := time.Now()
		prep, err := w.prepare(order)
		if err != nil {
			return setupReport{}, err
		}
		total := time.Since(t0)
		var bind time.Duration
		for i, p := range prep {
			t1 := time.Now()
			if _, err := w.symmetry.Canonicalizer().Bind(p.sys); err != nil {
				return setupReport{}, err
			}
			t2 := time.Now()
			st, err := store.Open(w.storeConfig(p.sys, dirs[i]))
			if err != nil {
				return setupReport{}, err
			}
			total += time.Since(t1)
			bind += t2.Sub(t1)
			if err := st.Close(); err != nil {
				return setupReport{}, err
			}
		}
		totals[r] = total.Nanoseconds()
		binds[r] = bind.Nanoseconds() / int64(len(order))
	}
	return setupReport{Ns: int64(median(totals)), BindNs: int64(median(binds))}, nil
}
