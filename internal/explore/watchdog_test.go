package explore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"anonshm/internal/core"
	"anonshm/internal/exitcode"
	"anonshm/internal/obs/span"
)

// TestWatchdogCatchesWedgedEngine deliberately wedges a run — the
// invariant sleeps far longer than the stall interval, so the
// discovered-state heartbeat goes quiet — and verifies the whole fire
// path: the run aborts with ErrStalled (exit code 5), the stall lands
// in the trace, and goroutine + heap profiles appear in StallDir.
func TestWatchdogCatchesWedgedEngine(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tr := span.Collect()
	res, err := Run(sys, Options{
		Engine: DFSEngine,
		Invariant: func(n Node) error {
			// Wedge: each state takes far longer than StallAfter, so the
			// heartbeat is stale whenever the watchdog looks. Sleeping
			// (rather than blocking forever) lets the engine reach its
			// next cancel poll and honor the abort.
			time.Sleep(120 * time.Millisecond)
			return nil
		},
		ProgressEvery: 1,
		Progress:      func(states, edges int) {},
		Trace:         tr,
		StallAfter:    30 * time.Millisecond,
		StallAbort:    true,
		StallDir:      dir,
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("wedged run returned %v, want ErrStalled", err)
	}
	if code := exitcode.Code(exitcode.WithCode(exitcode.Stalled, err)); code != exitcode.Stalled {
		t.Fatalf("exit code = %d, want %d", code, exitcode.Stalled)
	}
	if res.States == 0 {
		t.Error("no partial results survived the abort")
	}
	for _, name := range []string{StallGoroutineProfile, StallHeapProfile} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("stall profile %s not written: %v", name, err)
		}
		if info.Size() == 0 {
			t.Errorf("stall profile %s is empty", name)
		}
	}
	if tr.PhaseCounts()["watchdog"] != 1 {
		t.Errorf("watchdog trace instants = %d, want 1", tr.PhaseCounts()["watchdog"])
	}
}

// TestWatchdogQuietOnProgress: a healthy run with the watchdog armed
// must complete normally and fire nothing.
func TestWatchdogQuietOnProgress(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{
		Engine:     DFSEngine,
		StallAfter: 5 * time.Second,
		StallAbort: true,
		StallDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if res.States == 0 {
		t.Fatal("no states explored")
	}
}

// TestWatchdogReportOnly: without StallAbort a stall is diagnosed but
// the run is left to finish on its own.
func TestWatchdogReportOnly(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: false})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	slow := true
	res, err := Run(sys, Options{
		Engine: DFSEngine,
		Invariant: func(n Node) error {
			if slow {
				slow = false
				time.Sleep(150 * time.Millisecond)
			}
			return nil
		},
		ProgressEvery: 1,
		StallAfter:    30 * time.Millisecond,
		StallDir:      dir,
	})
	if err != nil {
		t.Fatalf("report-only stall aborted the run: %v", err)
	}
	if res.States == 0 {
		t.Fatal("no states explored")
	}
	if _, err := os.Stat(filepath.Join(dir, StallGoroutineProfile)); err != nil {
		t.Fatalf("report-only stall wrote no profile: %v", err)
	}
}
