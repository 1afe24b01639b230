package explore

import (
	"bytes"
	"encoding/json"
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/obs/span"
)

// TestTracedSweepSchema is the tentpole acceptance check: a traced N=2
// full-symmetry sweep must produce a valid Chrome trace_event document
// (every event has a known phase, a name, a nonnegative timestamp;
// complete events carry a duration) whose per-phase spans account for
// the run — the per-wiring spans sum to within 10% of the sweep span
// that encloses them, and every layer of the hierarchy (sweep → wiring
// → engine run) is present.
func TestTracedSweepSchema(t *testing.T) {
	var buf bytes.Buffer
	tr := span.New(&buf)
	sweep, err := CheckSnapshotSafety(SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Nondet:  true,
		Options: Options{Canonicalizer: canon.FullSymmetry{}, Engine: DFSEngine, Trace: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Schema validity.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	cats := map[string]int{}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "i" && ph != "M" {
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
		if name, _ := ev["name"].(string); name == "" {
			t.Fatalf("event %d: missing name", i)
		}
		if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
			t.Fatalf("event %d: bad ts %v", i, ev["ts"])
		}
		if cat, _ := ev["cat"].(string); cat != "" {
			cats[cat]++
		}
	}

	// The full hierarchy is present: one sweep span, one wiring span and
	// one engine-run span per wiring.
	if cats["sweep"] != 1 {
		t.Errorf("sweep spans = %d, want 1", cats["sweep"])
	}
	if cats["wiring"] != sweep.Wirings {
		t.Errorf("wiring spans = %d, want %d (one per wiring)", cats["wiring"], sweep.Wirings)
	}
	if cats["run"] != sweep.Wirings {
		t.Errorf("run spans = %d, want %d", cats["run"], sweep.Wirings)
	}

	// Phase accounting: the wiring spans tile the sweep span (strict
	// nesting bounds them above; the 10% tolerance covers the wiring
	// iterator and checkpoint glue between them).
	totals := tr.PhaseTotals()
	wall, wirings := totals["sweep"], totals["wiring"]
	if wall <= 0 {
		t.Fatal("sweep span recorded no duration")
	}
	if wirings > wall {
		t.Errorf("nested wiring spans (%v) exceed the sweep span (%v)", wirings, wall)
	}
	if float64(wirings) < 0.9*float64(wall) {
		t.Errorf("wiring spans (%v) cover less than 90%% of the sweep wall (%v)", wirings, wall)
	}
	if runs := totals["run"]; runs > wirings {
		t.Errorf("nested run spans (%v) exceed the wiring spans (%v)", runs, wirings)
	}
}

// TestTracedDiskRunRecordsStorePhases runs under a tiny budget so spills, segment traffic and path replays all happen,
// and verifies they surface as store.* span categories.
func TestTracedDiskRunRecordsStorePhases(t *testing.T) {
	tr := span.Collect()
	sweep, err := CheckSnapshotSafety(SnapshotConfig{
		Inputs: []string{"a", "b"},
		Nondet: true,
		Options: Options{
			Engine:   BFSEngine,
			MemLimit: 1 << 10, // force the hot table and frontier to spill
			Trace:    tr,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Stats.Store.FrontierSpills == 0 {
		t.Skip("memory ceiling did not force a spill; nothing to assert")
	}
	counts := tr.PhaseCounts()
	if counts["store.spill"] == 0 {
		t.Errorf("no store.spill spans despite %d frontier spills", sweep.Stats.Store.FrontierSpills)
	}
	if sweep.Stats.Store.Replays > 0 && counts["store.replay"] == 0 &&
		sweep.Stats.Store.Replays >= replaySampleForTest {
		t.Errorf("no store.replay spans despite %d replays", sweep.Stats.Store.Replays)
	}
}

// replaySampleForTest mirrors store's replay sampling stride: below it a
// run legitimately records no replay span.
const replaySampleForTest = 256

// TestTracedCheckpointSpans verifies checkpoint writes and resume loads
// appear on the trace.
func TestTracedCheckpointSpans(t *testing.T) {
	dir := t.TempDir()
	tr := span.Collect()
	_, err := CheckSnapshotSafety(SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Nondet:  true,
		Options: Options{Engine: DFSEngine, Checkpoint: dir, CheckpointEvery: 100, Trace: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PhaseCounts()["checkpoint.write"] == 0 {
		t.Error("no checkpoint.write spans recorded")
	}
}
