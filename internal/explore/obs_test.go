package explore

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"anonshm/internal/core"
	"anonshm/internal/obs"
)

// metricValue finds one metric instance in a snapshot by name and an
// optional engine label.
func metricValue(t *testing.T, snap []obs.MetricPoint, name, engine string) float64 {
	t.Helper()
	for _, p := range snap {
		if p.Name == name && (engine == "" || p.Labels["engine"] == engine) {
			return p.Value
		}
	}
	t.Fatalf("metric %s{engine=%s} not in snapshot", name, engine)
	return 0
}

// TestRunPublishesMetrics checks that a run with Options.Obs lands its
// Stats in the registry and its lifecycle in the event sink, for every
// engine.
func TestRunPublishesMetrics(t *testing.T) {
	for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
		t.Run(engine.String(), func(t *testing.T) {
			sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.New()
			var events bytes.Buffer
			sink := obs.NewSink(&events)
			res, err := Run(sys, Options{Engine: engine, Workers: 2, Obs: reg, Events: sink})
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if got := metricValue(t, snap, "explore_states_total", engine.String()); got != float64(res.States) {
				t.Errorf("explore_states_total = %v, want %d", got, res.States)
			}
			if got := metricValue(t, snap, "explore_runs_total", engine.String()); got != 1 {
				t.Errorf("explore_runs_total = %v, want 1", got)
			}
			if got := metricValue(t, snap, "explore_edges_total", engine.String()); got != float64(res.Edges) {
				t.Errorf("explore_edges_total = %v, want %d", got, res.Edges)
			}
			if got := metricValue(t, snap, "explore_frontier_peak", engine.String()); got != float64(res.Stats.FrontierPeak) {
				t.Errorf("explore_frontier_peak = %v, want %d", got, res.Stats.FrontierPeak)
			}

			lines := strings.Split(strings.TrimSpace(events.String()), "\n")
			if len(lines) != 2 {
				t.Fatalf("got %d events, want engine.start + engine.finish:\n%s", len(lines), events.String())
			}
			var start, finish obs.Event
			if err := json.Unmarshal([]byte(lines[0]), &start); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(lines[1]), &finish); err != nil {
				t.Fatal(err)
			}
			if start.Type != "engine.start" || finish.Type != "engine.finish" {
				t.Errorf("event types = %q, %q", start.Type, finish.Type)
			}
			if got, ok := finish.Fields["states"].(float64); !ok || got != float64(res.States) {
				t.Errorf("finish.states = %v, want %d", finish.Fields["states"], res.States)
			}
		})
	}
}

// TestObsProgressGauges checks the live gauges refresh on the progress
// cadence and that a user callback still fires.
func TestObsProgressGauges(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	calls := 0
	_, err = Run(sys, Options{
		Engine:        BFSEngine,
		Obs:           reg,
		Progress:      func(states, edges int) { calls++ },
		ProgressEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("user progress callback never fired")
	}
	if reg.Gauge("explore_live_states").Value() == 0 {
		t.Error("explore_live_states gauge never set")
	}
}

// TestSweepAccumulatesMetrics checks that a wiring sweep adds run
// counters across wirings.
func TestSweepAccumulatesMetrics(t *testing.T) {
	reg := obs.New()
	sweep, err := CheckSnapshotSafety(SnapshotConfig{
		Inputs: []string{"a", "b"}, Wirings: FilterProc0, Options: Options{Obs: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := metricValue(t, snap, "explore_states_total", "dfs"); got != float64(sweep.TotalStates) {
		t.Errorf("explore_states_total = %v, want %d", got, sweep.TotalStates)
	}
	if got := metricValue(t, snap, "explore_runs_total", "dfs"); got != float64(sweep.Wirings) {
		t.Errorf("explore_runs_total = %v, want %d wirings", got, sweep.Wirings)
	}
}
