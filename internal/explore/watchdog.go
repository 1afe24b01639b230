package explore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// The stall watchdog turns a silently hung overnight run into a
// diagnosable artifact. It rides the Progress hook (every
// heartbeatEvery discovered states unless the caller picked a cadence):
// every callback bumps a heartbeat, and a background ticker checks
// whether the heartbeat moved. After Options.StallAfter without
// movement the watchdog fires once — a trace instant plus goroutine and
// heap profiles next to the report — and, when Options.StallAbort is
// set, cancels the run so it returns ErrStalled instead of blocking
// forever.
//
// The ticker divides StallAfter into wdTicks sub-intervals and counts
// consecutive stale observations, so detection latency is at most
// StallAfter·(1+1/wdTicks) without ever reading the wall clock (the
// determinism lint bans time.Now here; tickers are driven by the
// runtime, not read by us).

// ErrStalled is returned (wrapped with partial results) when the stall
// watchdog aborted the run: no progress for Options.StallAfter with
// StallAbort set. The binaries map it to exit code 5
// (exitcode.Stalled); goroutine/heap profiles are in Options.StallDir.
var ErrStalled = errors.New("explore: stalled: no progress within the watchdog interval")

// wdTicks is how many sub-intervals the watchdog splits StallAfter into.
const wdTicks = 4

// heartbeatEvery is the Progress cadence the watchdog arms when the
// caller did not pick one: frequent enough to detect a stall, rare
// enough to stay off the hot path.
const heartbeatEvery = 100_000

// Stall profile artifact names, written into Options.StallDir.
const (
	StallGoroutineProfile = "stall-goroutine.pprof"
	StallHeapProfile      = "stall-heap.pprof"
)

type watchdog struct {
	opts      *Options
	interval  time.Duration
	heartbeat atomic.Int64
	fired     atomic.Bool
	stall     chan struct{} // closed when the watchdog fires with abort
	quit      chan struct{}
	done      chan struct{}
}

// startWatchdog arms the watchdog when opts.StallAfter > 0, hooking
// opts.Progress (heartbeat) and opts.Cancel (merged abort channel).
// Returns nil when disabled. Call stop before Run returns.
func startWatchdog(opts *Options) *watchdog {
	if opts.StallAfter <= 0 {
		return nil
	}
	wd := &watchdog{
		opts:     opts,
		interval: opts.StallAfter / wdTicks,
		stall:    make(chan struct{}),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if wd.interval <= 0 {
		wd.interval = time.Millisecond
	}
	user := opts.Progress
	opts.Progress = func(states, edges int) {
		wd.heartbeat.Store(int64(states) + int64(edges))
		if user != nil {
			user(states, edges)
		}
	}
	if opts.ProgressEvery <= 0 {
		opts.ProgressEvery = heartbeatEvery
	}
	if opts.StallAbort {
		orig := opts.Cancel
		merged := make(chan struct{})
		go func() {
			select {
			case <-orig: // nil orig blocks forever, which is fine
			case <-wd.stall:
			case <-wd.quit:
			}
			close(merged)
		}()
		opts.Cancel = merged
	}
	go wd.watch()
	return wd
}

// watch is the watchdog goroutine: observe the heartbeat each tick,
// fire after wdTicks consecutive stale observations.
func (wd *watchdog) watch() {
	defer close(wd.done)
	ticker := time.NewTicker(wd.interval)
	defer ticker.Stop()
	last := wd.heartbeat.Load()
	stale := 0
	for {
		select {
		case <-wd.quit:
			return
		case <-ticker.C:
		}
		now := wd.heartbeat.Load()
		if now != last {
			last, stale = now, 0
			continue
		}
		stale++
		if stale < wdTicks {
			continue
		}
		wd.fire()
		return
	}
}

// fire records the stall as a trace instant, dumps the profiles, and
// (with StallAbort) releases the merged cancel channel.
func (wd *watchdog) fire() {
	wd.fired.Store(true)
	opts := wd.opts
	dir := opts.StallDir
	if dir == "" {
		dir = "."
	}
	goroutinePath := filepath.Join(dir, StallGoroutineProfile)
	heapPath := filepath.Join(dir, StallHeapProfile)
	gerr := writeProfile("goroutine", goroutinePath, 2)
	herr := writeProfile("heap", heapPath, 0)
	fields := map[string]any{
		"stallAfter": opts.StallAfter.String(),
		"abort":      opts.StallAbort,
		"goroutine":  goroutinePath,
		"heap":       heapPath,
	}
	if gerr != nil {
		fields["goroutineError"] = gerr.Error()
	}
	if herr != nil {
		fields["heapError"] = herr.Error()
	}
	opts.Trace.Instant("watchdog", "stall", fields)
	if opts.StallAbort {
		close(wd.stall)
	}
}

// writeProfile dumps one runtime/pprof profile to path.
func writeProfile(name, path string, debug int) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("explore: no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("explore: stall profile: %w", err)
	}
	if err := p.WriteTo(f, debug); err != nil {
		f.Close()
		return fmt.Errorf("explore: stall profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("explore: stall profile: %w", err)
	}
	return nil
}

// stop shuts the watchdog down and waits for its goroutine. Nil-safe.
func (wd *watchdog) stop() {
	if wd == nil {
		return
	}
	close(wd.quit)
	<-wd.done
}

// stalled reports whether the watchdog fired. Nil-safe.
func (wd *watchdog) stalled() bool { return wd != nil && wd.fired.Load() }

// stallError converts a cancellation caused by the watchdog into
// ErrStalled; other errors pass through. Nil-safe.
func (wd *watchdog) stallError(err error) error {
	if !wd.stalled() || !errors.Is(err, ErrCanceled) {
		return err
	}
	dir := wd.opts.StallDir
	if dir == "" {
		dir = "."
	}
	return fmt.Errorf("%w (no progress for %v; profiles in %s)",
		ErrStalled, wd.opts.StallAfter, dir)
}
