// Command anonexplore exhaustively checks the paper's algorithms over
// every interleaving (and optionally every wiring), replacing the TLC
// model checker used in the paper.
//
// The search backend is selectable: -engine bfs|dfs|parallel picks the
// explorer engine (dfs by default — smallest memory footprint, and the
// only engine that detects cycles, so only a dfs -check waitfree also
// verifies an acyclic step graph), and -workers sets the parallel
// engine's worker count (0 = all cores; bfs is that engine at one
// worker).
//
// Symmetry reduction: -wirings all|proc0|orbits picks how the wiring
// sweep is cut down (proc0 pins processor 0's wiring to the identity;
// orbits enumerates one representative per wiring orbit), and
// -symmetry none|proc|full canonicalizes each explored state under
// processor (and, with full, register) permutations before
// fingerprinting, so a whole symmetry orbit is stored once.
//
// Crash faults: -crashes F explores every execution in which up to F
// processors crash-stop (each enabled processor may crash at each state
// until the budget is spent). Combined with -check waitfree this verifies
// wait-freedom in the crash-fault model: every survivor terminates within
// the -solo-bound solo-step budget no matter which subset of the others
// stops forever. -crashes N-1 covers every f-resilient adversary.
//
// Out-of-core exploration: -store disk bounds RAM use to -mem (e.g.
// -mem 64MiB) by spilling visited fingerprints to sorted runs and
// frontier overflow to path-replay segments under -store-dir (a temp
// directory by default). -checkpoint DIR makes safety/waitfree sweeps
// resumable: the sweep writes DIR/sweep.json after every wiring and a
// periodic per-run checkpoint (cadence -checkpoint-every states) of the
// wiring in flight; a first ^C checkpoints and stops cleanly, and
// -resume DIR continues where it left off. Resumed runs cannot keep
// counterexample traces (checkpoints do not persist parent logs), so
// -resume reruns report the violation without a trace.
//
// Observability: results go to stdout; -progress diagnostics go to
// stderr so piped output stays clean. -report FILE writes a JSON report
// (check parameters, sweep totals, final metrics including states/sec),
// and -http ADDR serves live metrics (/metrics) and pprof
// (/debug/pprof/) while the search runs. cmd/figures -load renders
// report files back into tables.
//
// Tracing and run history: -trace FILE records the run as Chrome
// trace_event JSON — one span per sweep, wiring, engine run, store
// spill/compaction/replay and checkpoint write — loadable in Perfetto
// or chrome://tracing; the per-phase totals also land in the report's
// "trace" section. -events FILE streams engine lifecycle events as
// JSONL (the same stream anonsim's -events carries per step). -ledger
// FILE appends one JSONL entry per run (config, totals, wall time,
// phase breakdown, outcome) to a persistent history — conventionally
// .anonledger/runs.jsonl — that cmd/figures -trend turns into
// throughput trajectories and regression checks.
//
// Stall watchdog: -stall-after DUR arms a watchdog that fires when no
// state has been discovered for DUR; it records the stall in the
// metrics/events/trace streams and dumps goroutine and heap profiles
// next to the report (stall-goroutine.pprof, stall-heap.pprof).
// With -stall-abort the run is also aborted with exit code 5.
//
// Examples:
//
//	anonexplore -check safety   -inputs a,b       # snapshot-task outputs, all wirings
//	anonexplore -check safety   -inputs a,b -engine parallel -workers 4
//	anonexplore -check safety   -inputs a,b -report r.json
//	anonexplore -check safety   -inputs a,b,c -http :6060 -progress 1000000
//	anonexplore -check safety   -inputs a,b,c -store disk -mem 64MiB
//	anonexplore -check safety   -inputs a,b,c -checkpoint ck/   # ^C, then:
//	anonexplore -check safety   -inputs a,b,c -checkpoint ck/ -resume ck/
//	anonexplore -check waitfree -inputs a,b
//	anonexplore -check waitfree -inputs a,b,c -crashes 2 -nondet=false
//	anonexplore -check atomicity -inputs a,b      # proves atomicity at N=2
//	anonexplore -check consensus -inputs x,y -max-ts 2
//
// Exit status (shared with anonsim, see internal/exitcode): 0 when every
// checked invariant held, 1 on operational errors, 2 on usage errors,
// 3 when the search produced a counterexample — the one-line
// "invariant violated: ..." summary goes to stderr, the full trace to
// stdout — and 5 when -stall-abort killed a stalled run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"anonshm/internal/canon"
	"anonshm/internal/exitcode"
	"anonshm/internal/explore"
	"anonshm/internal/obs"
	"anonshm/internal/obs/ledger"
	"anonshm/internal/obs/span"
	"anonshm/internal/store"
)

func main() {
	var (
		engine    explore.Engine
		wirings   = explore.FilterProc0
		symmetry  canon.Symmetry
		storeKind store.Kind
		memLimit  store.Bytes
	)
	var (
		check      = flag.String("check", "safety", "check: safety | waitfree | atomicity | atomicity-random | consensus")
		inputsCSV  = flag.String("inputs", "a,b", "comma-separated processor inputs")
		workers    = flag.Int("workers", 0, "parallel engine workers (0 = GOMAXPROCS)")
		progress   = flag.Int("progress", 0, "print progress to stderr every N discovered states (0 = off)")
		nondet     = flag.Bool("nondet", true, "explore the algorithms' internal register choices")
		level      = flag.Int("level", 0, "snapshot termination level override (0 = N)")
		maxStates  = flag.Int("max-states", 0, "per-search state bound (0 = default)")
		crashes    = flag.Int("crashes", 0, "crash-fault budget: explore executions with up to this many crash-stopped processors")
		soloBound  = flag.Int("solo-bound", 0, "solo-step budget of the waitfree invariant (0 = derived from N and M)")
		maxTS      = flag.Int("max-ts", 2, "consensus timestamp bound")
		trials     = flag.Int("trials", 100000, "trials for atomicity-random")
		seed       = flag.Int64("seed", 1, "seed for atomicity-random")
		reportPath = flag.String("report", "", "write a JSON metrics report to this file")
		httpAddr   = flag.String("http", "", "serve live metrics (/metrics) and pprof (/debug/pprof/) on this address during the run")
		storeDir   = flag.String("store-dir", "", "disk store scratch directory (default: a temp directory per run)")
		checkpoint = flag.String("checkpoint", "", "write periodic checkpoints to this directory; ^C stops cleanly after a final one")
		ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint cadence in discovered states (0 = default)")
		resume     = flag.String("resume", "", "resume a stopped sweep from this checkpoint directory")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON trace of the run to this file (load in Perfetto)")
		eventsPath = flag.String("events", "", "stream engine lifecycle events to this file as JSONL")
		ledgerPath = flag.String("ledger", "", "append a run-history entry to this JSONL ledger (conventionally "+ledger.DefaultPath+")")
		stallAfter = flag.Duration("stall-after", 0, "watchdog: diagnose a stall after this long with no discovered state, dumping pprof profiles (0 = off)")
		stallAbort = flag.Bool("stall-abort", false, "abort a stalled run with exit code 5 (requires -stall-after)")
	)
	flag.Var(&engine, "engine", "explorer engine: auto | bfs | dfs | parallel")
	flag.Var(&wirings, "wirings", "wiring sweep filter: all | proc0 | orbits")
	flag.Var(&symmetry, "symmetry", "state canonicalizer: none | proc | full")
	flag.Var(&storeKind, "store", "state store tier: mem | disk")
	flag.Var(&memLimit, "mem", "disk tier RAM ceiling, e.g. 64MiB, 2GiB (0 = 256MiB default)")
	flag.Parse()
	reg := obs.New()
	if *httpAddr != "" {
		addr, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			os.Exit(exitcode.Usage)
		}
		fmt.Fprintf(os.Stderr, "anonexplore: serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", addr)
	}
	var tr *span.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			os.Exit(exitcode.Usage)
		}
		traceFile, tr = f, span.New(f)
	}
	var events *obs.Sink
	var eventsFile *os.File
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			os.Exit(exitcode.Usage)
		}
		eventsFile, events = f, obs.NewSink(f)
	}
	stallDir := ""
	if *reportPath != "" {
		// Stall profiles land next to the report so one artifact
		// directory carries the whole diagnosis.
		stallDir = filepath.Dir(*reportPath)
	}
	cli := options{
		check: *check, inputsCSV: *inputsCSV,
		engine: engine, workers: *workers, progress: *progress,
		nondet: *nondet, wirings: wirings, symmetry: symmetry, level: *level,
		maxStates: *maxStates, crashes: *crashes, soloBound: *soloBound,
		maxTS: *maxTS, trials: *trials, seed: *seed,
		store: storeKind, storeDir: *storeDir, memLimit: memLimit,
		checkpoint: *checkpoint, ckptEvery: *ckptEvery, resume: *resume,
		trace: tr, events: events,
		stallAfter: *stallAfter, stallAbort: *stallAbort, stallDir: stallDir,
		cancel: interruptChannel(),
	}
	rep := obs.NewReport("anonexplore", os.Args[1:])
	runErr := run(cli, reg, rep)
	if tr != nil {
		rep.Section("trace", map[string]any{"file": *tracePath, "phases": tr.PhaseSeconds()})
		if err := tr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			if runErr == nil {
				runErr = err
			}
		} else {
			fmt.Fprintf(os.Stderr, "anonexplore: wrote trace to %s\n", *tracePath)
		}
		if err := traceFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if events != nil {
		if err := events.Err(); err != nil && runErr == nil {
			runErr = err
		}
		if err := eventsFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if *ledgerPath != "" {
		if err := ledger.Append(*ledgerPath, ledgerEntry(cli, rep, tr, runErr)); err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			if runErr == nil {
				runErr = err
			}
		}
	}
	if *reportPath != "" {
		if runErr != nil {
			rep.Section("error", runErr.Error())
		}
		rep.AddMetrics(reg)
		if err := rep.WriteFile(*reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			os.Exit(exitcode.Error)
		}
		fmt.Fprintf(os.Stderr, "anonexplore: wrote report to %s\n", *reportPath)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "anonexplore:", exitcode.Summary(runErr))
		os.Exit(exitcode.Code(runErr))
	}
}

type options struct {
	check      string
	inputsCSV  string
	engine     explore.Engine
	workers    int
	progress   int
	nondet     bool
	wirings    explore.WiringFilter
	symmetry   canon.Symmetry
	level      int
	maxStates  int
	crashes    int
	soloBound  int
	maxTS      int
	trials     int
	seed       int64
	store      store.Kind
	storeDir   string
	memLimit   store.Bytes
	checkpoint string
	ckptEvery  int
	resume     string
	trace      *span.Tracer
	events     *obs.Sink
	stallAfter time.Duration
	stallAbort bool
	stallDir   string
	cancel     <-chan struct{}
}

// ledgerEntry condenses a finished run into its run-history record: the
// comparability config recovered from argv (so live entries and
// committed BENCH reports of the same invocation share a trajectory),
// the sweep totals, the traced phase breakdown and the outcome.
func ledgerEntry(cli options, rep *obs.Report, tr *span.Tracer, runErr error) ledger.Entry {
	e := ledger.Entry{
		Tool:    "anonexplore",
		Check:   cli.check,
		Config:  ledger.ConfigFromArgs(rep.Args),
		Outcome: outcomeOf(runErr),
	}
	if sec, ok := rep.Sections["sweep"].(sweepSection); ok {
		e.Wirings = sec.Wirings
		e.States = int64(sec.TotalStates)
		e.Edges = int64(sec.TotalEdges)
		e.WallSeconds = sec.WallSeconds
		e.StatesPerSec = sec.StatesPerSec
	}
	if tr != nil {
		e.Phases = tr.PhaseSeconds()
	}
	return e
}

// outcomeOf classifies a run error for the ledger's outcome column.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, explore.ErrStalled):
		return "stalled"
	case errors.Is(err, explore.ErrCanceled):
		return "canceled"
	case exitcode.Code(err) == exitcode.Violation:
		return "violation"
	default:
		return "error"
	}
}

// interruptChannel maps the first SIGINT to a graceful stop (the sweeps
// checkpoint and return ErrCanceled); a second SIGINT force-quits.
func interruptChannel() <-chan struct{} {
	cancel := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "anonexplore: interrupt — stopping at the next state (^C again to force quit)")
		close(cancel)
		<-sig
		os.Exit(exitcode.Error)
	}()
	return cancel
}

// sweepSection is the machine-readable form of a wiring sweep for
// report files.
type sweepSection struct {
	Wirings      int     `json:"wirings"`
	TotalStates  int     `json:"totalStates"`
	TotalEdges   int     `json:"totalEdges"`
	Terminals    int     `json:"terminals"`
	MaxStates    int     `json:"maxStates"`
	Truncated    bool    `json:"truncated"`
	Engine       string  `json:"engine"`
	Symmetry     string  `json:"symmetry,omitempty"`
	GroupSize    int     `json:"groupSize,omitempty"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wallSeconds"`
	StatesPerSec float64 `json:"statesPerSec"`
	FrontierPeak int     `json:"frontierPeak"`
	DedupHitRate float64 `json:"dedupHitRate"`
	// Out-of-core fields, present when the disk store was in use.
	Store          string `json:"store,omitempty"`
	Spills         int64  `json:"spills,omitempty"`
	Compactions    int64  `json:"compactions,omitempty"`
	FrontierSpills int64  `json:"frontierSpills,omitempty"`
	Replays        int64  `json:"replays,omitempty"`
	ReplaySteps    int64  `json:"replaySteps,omitempty"`
	DiskBytes      int64  `json:"diskBytes,omitempty"`
	Checkpoints    int64  `json:"checkpoints,omitempty"`
}

func sectionOf(sweep explore.SweepResult) sweepSection {
	s := sweepSection{
		Wirings:      sweep.Wirings,
		TotalStates:  sweep.TotalStates,
		TotalEdges:   sweep.TotalEdges,
		Terminals:    sweep.Terminals,
		MaxStates:    sweep.MaxStates,
		Truncated:    sweep.Truncated,
		Engine:       sweep.Stats.Engine.String(),
		Symmetry:     sweep.Stats.Symmetry,
		GroupSize:    sweep.Stats.GroupSize,
		Workers:      sweep.Stats.Workers,
		WallSeconds:  sweep.Stats.WallTime.Seconds(),
		StatesPerSec: sweep.StatesPerSec(),
		FrontierPeak: sweep.Stats.FrontierPeak,
		DedupHitRate: sweep.Stats.DedupHitRate,
		Checkpoints:  sweep.Stats.Store.Checkpoints,
	}
	if sweep.Stats.StoreKind == "disk" {
		s.Store = sweep.Stats.StoreKind
		s.Spills = sweep.Stats.Store.Spills
		s.Compactions = sweep.Stats.Store.Compactions
		s.FrontierSpills = sweep.Stats.Store.FrontierSpills
		s.Replays = sweep.Stats.Store.Replays
		s.ReplaySteps = sweep.Stats.Store.ReplaySteps
		s.DiskBytes = sweep.Stats.Store.DiskBytesWritten
	}
	return s
}

func run(cli options, reg *obs.Registry, rep *obs.Report) error {
	inputs := strings.Split(cli.inputsCSV, ",")
	rep.Section("check", map[string]any{
		"check":      cli.check,
		"inputs":     inputs,
		"engine":     cli.engine.String(),
		"workers":    cli.workers,
		"nondet":     cli.nondet,
		"wirings":    cli.wirings.String(),
		"symmetry":   cli.symmetry.String(),
		"crashes":    cli.crashes,
		"store":      cli.store.String(),
		"mem":        cli.memLimit.String(),
		"checkpoint": cli.checkpoint,
		"resume":     cli.resume,
	})
	if cli.checkpoint != "" || cli.resume != "" {
		switch cli.check {
		case "safety", "waitfree":
		default:
			return fmt.Errorf("anonexplore: -checkpoint/-resume support only the safety and waitfree sweeps, not %q", cli.check)
		}
	}
	cfg := explore.SnapshotConfig{
		Inputs:     inputs,
		Nondet:     cli.nondet,
		Wirings:    cli.wirings,
		Symmetry:   cli.symmetry,
		Level:      cli.level,
		MaxStates:  cli.maxStates,
		MaxCrashes: cli.crashes,
		SoloBound:  cli.soloBound,
		Traces:     true,
		Engine:     cli.engine,
		Workers:    cli.workers,
		Obs:        reg,
		Store:      cli.store,
		StoreDir:   cli.storeDir,
		MemLimit:   cli.memLimit,
		Checkpoint: cli.checkpoint,
		Resume:     cli.resume,
		Events:     cli.events,
		Trace:      cli.trace,
		StallAfter: cli.stallAfter,
		StallAbort: cli.stallAbort,
		StallDir:   cli.stallDir,
		Cancel:     cli.cancel,
	}
	if cli.ckptEvery > 0 {
		cfg.CheckpointEvery = cli.ckptEvery
	}
	if cli.resume != "" {
		// Checkpoints do not persist parent logs, so a resumed run cannot
		// keep counterexample traces.
		cfg.Traces = false
		fmt.Fprintln(os.Stderr, "anonexplore: resuming — counterexample traces disabled for this run")
	}
	if cli.progress > 0 {
		cfg.ProgressEvery = cli.progress
		cfg.Progress = progressPrinter()
	}
	start := time.Now()
	switch cli.check {
	case "safety":
		sweep, err := explore.CheckSnapshotSafety(cfg)
		report(sweep, start)
		rep.Section("sweep", sectionOf(sweep))
		if errors.Is(err, explore.ErrStalled) {
			return exitcode.WithCode(exitcode.Stalled, err)
		}
		if errors.Is(err, explore.ErrCanceled) {
			return canceledError(cli)
		}
		if err != nil {
			return exitcode.Violated("snapshot safety", err)
		}
		fmt.Println("snapshot-task safety holds over every explored interleaving")
	case "waitfree":
		sweep, err := explore.CheckSnapshotWaitFree(cfg)
		var unsupported *explore.UnsupportedOptionError
		if errors.As(err, &unsupported) {
			return err
		}
		report(sweep, start)
		rep.Section("sweep", sectionOf(sweep))
		if errors.Is(err, explore.ErrStalled) {
			return exitcode.WithCode(exitcode.Stalled, err)
		}
		if errors.Is(err, explore.ErrCanceled) {
			return canceledError(cli)
		}
		if err != nil {
			return exitcode.Violated("wait-freedom", err)
		}
		fmt.Println(waitFreeVerdict(sweep.Stats.Engine, cli.crashes))
	case "atomicity":
		r, err := explore.FindNonAtomicityWitness(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("elapsed %v\n", time.Since(start).Round(time.Millisecond))
		rep.Section("witness", map[string]any{"found": r.Found, "exhaustive": r.Exhaustive})
		if r.Found {
			fmt.Printf("NON-ATOMICITY WITNESS: processor %d outputs %v, never the memory union\n",
				r.Witness.Proc, r.Witness.Output)
			fmt.Printf("wirings: %v\n", r.Witness.Wirings)
			fmt.Printf("trace (%d steps): %s\n", len(r.Witness.Trace), explore.FormatTrace(r.Witness.Trace))
			return exitcode.Violated("snapshot atomicity",
				fmt.Errorf("processor %d outputs %v, never the memory union (trace on stdout)", r.Witness.Proc, r.Witness.Output))
		}
		if r.Exhaustive {
			fmt.Println("no witness exists: the algorithm IS an atomic memory snapshot at this size")
		} else {
			fmt.Println("no witness found within the state bound (search truncated; not a proof)")
		}
	case "atomicity-random":
		w, found, err := explore.RandomNonAtomicityWitness(inputs, cli.trials, cli.seed)
		if err != nil {
			return err
		}
		fmt.Printf("elapsed %v\n", time.Since(start).Round(time.Millisecond))
		rep.Section("witness", map[string]any{"found": found, "trials": cli.trials, "seed": cli.seed})
		if found {
			fmt.Printf("NON-ATOMICITY WITNESS (seed %d): processor %d outputs %v\n", w.Seed, w.Proc, w.Output)
			fmt.Printf("wirings: %v\n", w.Wirings)
			return exitcode.Violated("snapshot atomicity",
				fmt.Errorf("processor %d outputs %v, never the memory union (seed %d)", w.Proc, w.Output, w.Seed))
		}
		fmt.Printf("no witness in %d random executions\n", cli.trials)
	case "consensus":
		sweep, err := explore.CheckConsensusBounded(explore.ConsensusConfig{
			Inputs:       inputs,
			MaxTimestamp: cli.maxTS,
			Wirings:      cli.wirings,
			Symmetry:     cli.symmetry,
			MaxStates:    cli.maxStates,
			MaxCrashes:   cli.crashes,
			Engine:       cli.engine,
			Workers:      cli.workers,
			Obs:          reg,
			Events:       cli.events,
			Trace:        cli.trace,
			StallAfter:   cli.stallAfter,
			StallAbort:   cli.stallAbort,
			StallDir:     cli.stallDir,
			Store:        cli.store,
			StoreDir:     cli.storeDir,
			MemLimit:     cli.memLimit,
			Cancel:       cli.cancel,
		})
		report(sweep, start)
		rep.Section("sweep", sectionOf(sweep))
		if errors.Is(err, explore.ErrStalled) {
			return exitcode.WithCode(exitcode.Stalled, err)
		}
		if errors.Is(err, explore.ErrCanceled) {
			return canceledError(cli)
		}
		if err != nil {
			return exitcode.Violated("consensus safety", err)
		}
		fmt.Printf("agreement and validity hold over every state with timestamps ≤ %d\n", cli.maxTS)
	default:
		return fmt.Errorf("unknown check %q", cli.check)
	}
	return nil
}

// waitFreeVerdict is the line a passing -check waitfree prints. It
// claims an acyclic step graph only when DFS, the one engine that looks
// for cycles, ran the sweep; every engine checks solo termination.
func waitFreeVerdict(engine explore.Engine, crashes int) string {
	acyclic := ""
	if engine == explore.DFSEngine {
		acyclic = "the reachable step graph is acyclic and "
	}
	if crashes > 0 {
		return fmt.Sprintf("wait-freedom holds with a crash budget of %d: %severy survivor solo-terminates from every reachable state", crashes, acyclic)
	}
	return "wait-freedom holds: " + acyclic + "every processor solo-terminates from every reachable state"
}

// canceledError renders a cancellation (first SIGINT) as an operational
// error, not a violation: the run was cut short, nothing was refuted.
// %.0w wraps ErrCanceled without repeating its message, so the ledger
// can still classify the outcome with errors.Is.
func canceledError(cli options) error {
	if cli.checkpoint != "" {
		return fmt.Errorf("run canceled; checkpoint saved under %s — rerun with -resume %s to continue%.0w", cli.checkpoint, cli.checkpoint, explore.ErrCanceled)
	}
	return fmt.Errorf("run canceled (no -checkpoint dir; progress was not saved)%.0w", explore.ErrCanceled)
}

// progressPrinter returns the -progress callback. It writes to stderr —
// never stdout — so results and reports survive piping; the live
// explore_live_states/explore_live_edges gauges carry the same numbers
// to the -http endpoint.
func progressPrinter() func(states, edges int) {
	return func(states, edges int) {
		fmt.Fprintf(os.Stderr, "... %d states, %d edges\n", states, edges)
	}
}

func report(sweep explore.SweepResult, start time.Time) {
	fmt.Printf("wirings=%d states=%d edges=%d terminals=%d largest=%d truncated=%v elapsed=%v\n",
		sweep.Wirings, sweep.TotalStates, sweep.TotalEdges, sweep.Terminals,
		sweep.MaxStates, sweep.Truncated, time.Since(start).Round(time.Millisecond))
	fmt.Printf("engine=%s workers=%d states/sec=%.0f frontier-peak=%d dedup-hit=%.1f%%",
		sweep.Stats.Engine, sweep.Stats.Workers, sweep.StatesPerSec(),
		sweep.Stats.FrontierPeak, 100*sweep.Stats.DedupHitRate)
	if sweep.Stats.Symmetry != "" && sweep.Stats.Symmetry != "none" {
		fmt.Printf(" symmetry=%s group=%d", sweep.Stats.Symmetry, sweep.Stats.GroupSize)
	}
	if sweep.Stats.StoreKind == "disk" {
		st := sweep.Stats.Store
		fmt.Printf(" store=disk spills=%d compactions=%d replays=%d disk=%s",
			st.Spills, st.Compactions, st.Replays, store.Bytes(st.DiskBytesWritten))
	}
	if sweep.Stats.Store.Checkpoints > 0 {
		fmt.Printf(" checkpoints=%d", sweep.Stats.Store.Checkpoints)
	}
	fmt.Println()
}
