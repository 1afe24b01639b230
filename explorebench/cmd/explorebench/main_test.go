package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

var sinkBytes [][]byte

func TestRoundOrderIsSeedDetermined(t *testing.T) {
	for _, w := range workloads {
		differs := false
		for r := range 16 {
			a, b := w.roundOrder(DefaultSeed, r), w.roundOrder(DefaultSeed, r)
			if !slices.Equal(a, b) {
				t.Fatalf("%s round %d: %v then %v under one seed", w.name, r, a, b)
			}
			if len(a) != w.perRound {
				t.Fatalf("%s round %d: %d wirings, want %d", w.name, r, len(a), w.perRound)
			}
			seen := map[int]bool{}
			for _, wi := range a {
				if seen[wi] || !slices.Contains(w.wirings, wi) {
					t.Fatalf("%s round %d: order %v repeats or leaves the workload's wirings %v", w.name, r, a, w.wirings)
				}
				seen[wi] = true
			}
			if !slices.Equal(a, w.roundOrder(HoldoutSeed, r)) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: the hold-out seed draws the same orders as the default seed", w.name)
		}
	}
}

// Every wiring either recorded seed draws is checked against exact counts.
func TestCountTableCoversRecordedSeeds(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{DefaultSeed, HoldoutSeed} {
			for r := range 64 {
				for _, wi := range w.roundOrder(seed, r) {
					if _, ok := w.atBudget[wi]; !ok {
						t.Fatalf("%s seed %d round %d: wiring %d has no recorded counts", w.name, seed, r, wi)
					}
				}
			}
		}
		if len(w.atBudget) != len(w.wirings) {
			t.Errorf("%s: %d recorded wirings for %d in the workload", w.name, len(w.atBudget), len(w.wirings))
		}
	}
}

func TestCompleteTablesSumToSweepTotals(t *testing.T) {
	for _, c := range []struct {
		name         string
		table        map[int]counts
		states, edge int
	}{
		{"full symmetry", sameGroupFullComplete, 12_011_466, 34_839_053},
		{"no symmetry", sameGroupNoneComplete, 20_070_598, 58_220_636},
	} {
		var states, edges int
		for _, n := range c.table {
			states += n.States
			edges += n.Edges
		}
		if len(c.table) != 10 || states != c.states || edges != c.edge {
			t.Errorf("%s: %d wirings sum to %d states, %d edges; want 10, %d, %d",
				c.name, len(c.table), states, edges, c.states, c.edge)
		}
	}
}

func TestCheckRejectsWrongOutcomes(t *testing.T) {
	w, err := lookupWorkload("sg3-full-dfs")
	if err != nil {
		t.Fatal(err)
	}
	want := w.atBudget[3]
	good := wiringOutcome{Wiring: 3, States: want.States, Edges: want.Edges, Truncated: true}
	if err := w.check(good); err != nil {
		t.Fatalf("recorded outcome rejected: %v", err)
	}
	for name, mutate := range map[string]func(*wiringOutcome){
		"states":           func(o *wiringOutcome) { o.States++ },
		"edges":            func(o *wiringOutcome) { o.Edges-- },
		"untruncated":      func(o *wiringOutcome) { o.Truncated = false },
		"cycle":            func(o *wiringOutcome) { o.Cycle = true },
		"error":            func(o *wiringOutcome) { o.Err = "invariant violated" },
		"unknown wiring":   func(o *wiringOutcome) { o.Wiring = 7 },
		"another wiring's": func(o *wiringOutcome) { o.Wiring = 4 },
	} {
		o := good
		mutate(&o)
		if err := w.check(o); err == nil {
			t.Errorf("%s: wrong outcome %+v accepted", name, o)
		}
	}
}

// A run whose complete count fits the budget must not be truncated.
func TestCheckRejectsUnbudgetedTruncation(t *testing.T) {
	w := *workloads[0]
	w.budget = 400_000
	w.atBudget = map[int]counts{0: w.complete[0]}
	o := wiringOutcome{Wiring: 0, States: w.complete[0].States, Edges: w.complete[0].Edges}
	if err := w.check(o); err != nil {
		t.Fatalf("complete run rejected: %v", err)
	}
	o.Truncated = true
	if err := w.check(o); err == nil {
		t.Error("truncation below the budget accepted")
	}
}

func TestEndToEndFromRusage(t *testing.T) {
	ru := &syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 1, Usec: 500_000},
		Stime:  syscall.Timeval{Usec: 500_000},
		Maxrss: 3 << 10, // KiB
	}
	u := usageOf(ru)
	if u.CPUSeconds != 2 || u.MaxRSSKiB != 3<<10 {
		t.Fatalf("usageOf = %+v, want 2 CPU seconds and 3072 KiB", u)
	}
	mk := func(states int, wallNs, setupNs int64, u usage) round {
		return round{
			setup: setupReport{Ns: setupNs},
			rep:   roundReport{WallNs: wallNs, Wirings: []wiringRun{{wiringOutcome: wiringOutcome{States: states}}}},
			usage: u,
		}
	}
	rounds := []round{
		mk(1000, 3e9, 2e6, u),
		mk(1000, 1e9, 1e6, usage{CPUSeconds: 1, MaxRSSKiB: 1 << 10}),
		mk(1000, 2e9, 3e6, usage{CPUSeconds: 4, MaxRSSKiB: 2 << 10}),
	}
	got := endToEnd(rounds)
	for name, want := range map[string]float64{
		"wall_s": 2, "states_per_cpu_s": 500, "peak_rss_mib": 2, "setup_s": 0.002,
	} {
		if got[name].Value != want {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
}

func TestRuntimeCountersDerivation(t *testing.T) {
	c := deriveCounters(100, 20, 4096, 3, 0.5, 8, 6)
	want := runtimeCounters{Allocs: 120, AllocBytes: 4096, GCCycles: 3, GCCPUShare: 0.25}
	if c != want {
		t.Errorf("deriveCounters = %+v, want %+v", c, want)
	}
	if c := deriveCounters(1, 0, 1, 0, 1, 2, 2); c.GCCPUShare != 0 {
		t.Errorf("no used CPU: GC share %v, want 0", c.GCCPUShare)
	}
	// runtime/metrics tallies small allocations per cached span, so a
	// delta is exact only to within a few spans' worth of objects,
	// and the test binary allocates in the background.
	const n = 100_000
	sinkBytes = make([][]byte, 0, n)
	before := readRuntime()
	for range n {
		sinkBytes = append(sinkBytes, make([]byte, 64))
	}
	after := readRuntime()
	sinkBytes = nil
	if d := after.Allocs - before.Allocs; d < n*95/100 || d > n*105/100 {
		t.Errorf("%d allocations moved the count by %d", n, d)
	}
	if d := after.AllocBytes - before.AllocBytes; d < 64*n*95/100 || d > 64*n*105/100 {
		t.Errorf("%d allocations of 64 B moved the byte count by %d", n, d)
	}
}

func TestPerLayerDerivation(t *testing.T) {
	w, err := lookupWorkload("sg3-none-bfs-disk")
	if err != nil {
		t.Fatal(err)
	}
	run := wiringRun{
		wiringOutcome: wiringOutcome{States: 100, Edges: 250},
		Expansions:    90, DedupLookups: 250, DedupHits: 150, FrontierPeak: 7, GroupSize: 1,
	}
	run.Store.Replays, run.Store.ReplaySteps = 80, 2000
	run.Store.DiskBytesWritten = 3200
	rd := round{
		rep:   roundReport{WallNs: 1e9, Wirings: []wiringRun{run}, Runtime: runtimeCounters{Allocs: 5000, AllocBytes: 1 << 20}},
		usage: usage{CPUSeconds: 1, MaxRSSKiB: 8 << 10},
		setup: setupReport{BindNs: 2500},
	}
	tr := traceReport{
		Wirings: []wiringRun{run}, WallNs: 2e9, CanonNs: 5e8, CanonCalls: 250, InvariantNs: 1e8, InvCalls: 100,
		SpillNs: 1e8, CompactNs: 5e7, CheckpointNs: 5e7,
		Layers: layerCosts{CloneNs: 1e6, StepNs: 1e6, ReplayNs: 1e6, InsertNs: 1e5, PushNs: 1e5, PopNs: 1e5},
	}
	m := perLayer(w, []round{rd}, tr, 0.01)
	for name, want := range map[string]float64{
		"explore.edges_per_state":            2.5,
		"store.dedup_hit_ratio":              0.6,
		"store.replay_steps_per_replay":      25,
		"store.disk_bytes_written_per_state": 32,
		"store.rss_over_ceiling":             8,
		"runtime.allocs_per_state":           50,
		"canon.bind_us":                      2.5,
		"canon.fingerprint_ns":               2e6,
		"canon.share":                        0.25,
		"explore.invariant_share":            0.05,
		"trace.overhead":                     1,
		// 2e9 - 5e8 - 1e8 - 1e8 - 5e7 - 5e7 - 250*2e6 - 80*1e6 = 6.2e8.
		"explore.self_share": 0.31,
	} {
		if got := m[name].Value; got < want*(1-1e-9) || got > want*(1+1e-9) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestParseCPUTicks(t *testing.T) {
	a, err := parseCPUTicks("cpu  100 5 50 800 10 1 2 30 7 0\ncpu0 1 2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != 998 || a.Steal != 30 {
		t.Fatalf("parsed %+v, want total 998, steal 30", a)
	}
	b := cpuTicks{Total: a.Total + 200, Steal: a.Steal + 10}
	if s := stealShare(a, b); s != 0.05 {
		t.Errorf("steal share %v, want 0.05", s)
	}
	if _, err := parseCPUTicks("intr 1 2 3\n"); err == nil {
		t.Error("a file without the cpu line parsed")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]int64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

// BENCHMARK.json at the repository root declares exactly the workloads
// and metrics this command reports.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s not declared", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %v, have %d", names, len(workloads))
	}
	rd := round{rep: roundReport{Wirings: []wiringRun{{}}}}
	for _, c := range []struct {
		kind  string
		decls []decl
		got   map[string]metric
	}{
		{"end_to_end", spec.EndToEnd, endToEnd([]round{rd})},
		{"per_layer", spec.PerLayer, perLayer(workloads[0], []round{rd}, traceReport{}, 0)},
	} {
		if len(c.decls) != len(c.got) {
			t.Errorf("%s: %d declared, %d reported", c.kind, len(c.decls), len(c.got))
		}
		for _, d := range c.decls {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s %s (%s): reported as %+v", c.kind, d.Name, d.Unit, m)
			}
		}
	}
}

// Every recorded count is what the explorer produces today.
func TestRecordedCountsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every recorded wiring")
	}
	for _, w := range workloads {
		rep, err := timedRound(w, w.wirings, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, r := range rep.Wirings {
			if err := w.check(r.wiringOutcome); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}
