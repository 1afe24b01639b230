package main

// roundTotals adds up a round's wiring runs.
type roundTotals struct {
	states, edges, expansions int64
	lookups, hits             int64
	frontierPeak              int
	groupSize                 float64
	replays, replaySteps      int64
	spills, compactions       int64
	frontierSpills, ckpts     int64
	diskWritten               int64
}

func totalsOf(runs []wiringRun) roundTotals {
	var t roundTotals
	for _, r := range runs {
		t.states += int64(r.States)
		t.edges += int64(r.Edges)
		t.expansions += r.Expansions
		t.lookups += r.DedupLookups
		t.hits += r.DedupHits
		t.frontierPeak = max(t.frontierPeak, r.FrontierPeak)
		t.groupSize += float64(r.GroupSize)
		t.replays += r.Store.Replays
		t.replaySteps += r.Store.ReplaySteps
		t.spills += r.Store.Spills
		t.compactions += r.Store.Compactions
		t.frontierSpills += r.Store.FrontierSpills
		t.ckpts += r.Store.Checkpoints
		t.diskWritten += r.Store.DiskBytesWritten
	}
	if len(runs) > 0 {
		t.groupSize /= float64(len(runs))
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOver is the median over rounds of f.
func medianOver(rounds []round, f func(round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, rd := range rounds {
		xs[i] = f(rd)
	}
	return median(xs)
}

// endToEnd are the metrics a user of the explorer sees, as medians over
// the timed rounds.
func endToEnd(rounds []round) map[string]metric {
	return map[string]metric{
		"wall_s": {medianOver(rounds, func(rd round) float64 {
			return float64(rd.rep.WallNs) / 1e9
		}), "s"},
		"states_per_cpu_s": {medianOver(rounds, func(rd round) float64 {
			return ratio(float64(totalsOf(rd.rep.Wirings).states), rd.usage.CPUSeconds)
		}), "1/s"},
		"peak_rss_mib": {medianOver(rounds, func(rd round) float64 {
			return float64(rd.usage.MaxRSSKiB) / 1024
		}), "MiB"},
		"setup_s": {medianOver(rounds, func(rd round) float64 {
			return float64(rd.setup.Ns) / 1e9
		}), "s"},
	}
}

// perLayer are the per-layer metrics: exact counters and runtime counts
// from the timed rounds (medians), set-up times from the set-up
// children, and span and direct-call times from the traced round.
func perLayer(w *workload, rounds []round, tr traceReport, steal float64) map[string]metric {
	m := map[string]metric{}
	counter := func(name, unit string, f func(t roundTotals, rd round) float64) {
		m[name] = metric{medianOver(rounds, func(rd round) float64 {
			return f(totalsOf(rd.rep.Wirings), rd)
		}), unit}
	}
	counter("explore.expansions", "count", func(t roundTotals, _ round) float64 { return float64(t.expansions) })
	counter("explore.edges_per_state", "ratio", func(t roundTotals, _ round) float64 {
		return ratio(float64(t.edges), float64(t.states))
	})
	counter("explore.frontier_peak", "count", func(t roundTotals, _ round) float64 { return float64(t.frontierPeak) })
	counter("canon.group_size", "count", func(t roundTotals, _ round) float64 { return t.groupSize })
	counter("store.dedup_hit_ratio", "fraction", func(t roundTotals, _ round) float64 {
		return ratio(float64(t.hits), float64(t.lookups))
	})
	counter("store.replays", "count", func(t roundTotals, _ round) float64 { return float64(t.replays) })
	counter("store.replay_steps_per_replay", "steps", func(t roundTotals, _ round) float64 {
		return ratio(float64(t.replaySteps), float64(t.replays))
	})
	counter("store.spills", "count", func(t roundTotals, _ round) float64 { return float64(t.spills) })
	counter("store.compactions", "count", func(t roundTotals, _ round) float64 { return float64(t.compactions) })
	counter("store.frontier_spills", "count", func(t roundTotals, _ round) float64 { return float64(t.frontierSpills) })
	counter("store.checkpoints", "count", func(t roundTotals, _ round) float64 { return float64(t.ckpts) })
	counter("store.disk_bytes_written_per_state", "B", func(t roundTotals, _ round) float64 {
		return ratio(float64(t.diskWritten), float64(t.states))
	})
	counter("store.rss_over_ceiling", "ratio", func(_ roundTotals, rd round) float64 {
		if !w.disk {
			return 0
		}
		return ratio(float64(rd.usage.MaxRSSKiB)*1024, float64(w.memLimit))
	})
	counter("runtime.allocs_per_state", "allocs", func(t roundTotals, rd round) float64 {
		return ratio(float64(rd.rep.Runtime.Allocs), float64(t.states))
	})
	counter("runtime.alloc_bytes_per_state", "B", func(t roundTotals, rd round) float64 {
		return ratio(float64(rd.rep.Runtime.AllocBytes), float64(t.states))
	})
	counter("runtime.gc_cycles", "count", func(_ roundTotals, rd round) float64 { return float64(rd.rep.Runtime.GCCycles) })
	counter("runtime.gc_cpu_share", "fraction", func(_ roundTotals, rd round) float64 { return rd.rep.Runtime.GCCPUShare })
	m["canon.bind_us"] = metric{medianOver(rounds, func(rd round) float64 { return float64(rd.setup.BindNs) / 1e3 }), "us"}

	wall := float64(tr.WallNs)
	lc := tr.Layers
	m["canon.fingerprint_ns"] = metric{ratio(float64(tr.CanonNs), float64(tr.CanonCalls)), "ns"}
	m["canon.fingerprint_allocs"] = metric{lc.FingerprintAllocs, "allocs"}
	m["canon.share"] = metric{ratio(float64(tr.CanonNs), wall), "fraction"}
	m["machine.clone_ns"] = metric{lc.CloneNs, "ns"}
	m["machine.clone_allocs"] = metric{lc.CloneAllocs, "allocs"}
	m["machine.step_ns"] = metric{lc.StepNs, "ns"}
	m["machine.step_allocs"] = metric{lc.StepAllocs, "allocs"}
	m["explore.invariant_ns"] = metric{ratio(float64(tr.InvariantNs), float64(tr.InvCalls)), "ns"}
	m["explore.invariant_share"] = metric{ratio(float64(tr.InvariantNs), wall), "fraction"}
	m["store.insert_ns"] = metric{lc.InsertNs, "ns"}
	m["store.visited_bytes_per_state"] = metric{lc.VisitedBytesPerState, "B"}
	m["store.push_ns"] = metric{lc.PushNs, "ns"}
	m["store.pop_ns"] = metric{lc.PopNs, "ns"}
	m["store.replay_ns"] = metric{lc.ReplayNs, "ns"}
	m["store.spill_s"] = metric{float64(tr.SpillNs) / 1e9, "s"}
	m["store.compact_s"] = metric{float64(tr.CompactNs) / 1e9, "s"}
	m["store.checkpoint_s"] = metric{float64(tr.CheckpointNs) / 1e9, "s"}
	m["explore.self_share"] = metric{selfShare(tr), "fraction"}
	m["host.steal_share"] = metric{steal, "fraction"}
	m["trace.overhead"] = metric{ratio(wall, medianOver(rounds, func(rd round) float64 {
		return float64(rd.rep.WallNs)
	})) - 1, "fraction"}
	return m
}

// selfShare is the explore layer's share of the traced round: its wall
// time minus the time of every other layer. Canon, the invariant and the
// store's spills, compactions and checkpoints have spans in the run; the
// machine steps and path replays, which the engine and the disk frontier
// call without one, are charged their direct-call ns/op times the round's
// exact counts. The in-RAM visited-set and frontier operations stay in
// the engine's self time.
func selfShare(tr traceReport) float64 {
	t := totalsOf(tr.Wirings)
	lc := tr.Layers
	layers := float64(tr.CanonNs+tr.InvariantNs+tr.SpillNs+tr.CompactNs+tr.CheckpointNs) +
		float64(t.edges)*(lc.CloneNs+lc.StepNs) + float64(t.replays)*lc.ReplayNs
	wall := float64(tr.WallNs)
	return ratio(max(wall-layers, 0), wall)
}
