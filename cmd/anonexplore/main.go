// Command anonexplore exhaustively checks the paper's algorithms over
// every interleaving (and optionally every wiring), replacing the TLC
// model checker used in the paper.
//
// The search backend is selectable: -engine dfs|bfs picks the explorer
// engine (dfs by default — smallest memory footprint, and the only
// engine that detects cycles, so only a dfs -check waitfree also
// verifies an acyclic step graph), and -workers sets the breadth-first
// engine's worker count (0 or 1 means one worker).
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
// directory by default). -checkpoint DIR makes the safety, waitfree and
// consensus sweeps resumable: the sweep writes DIR/sweep.json after
// every wiring and a periodic per-run checkpoint (cadence
// -checkpoint-every states) of the wiring in flight; a first ^C
// checkpoints and stops cleanly, and -resume DIR continues where it
// left off. sweep.json records every flag that shapes the explored
// space, and a -resume under different ones is refused; -workers is not
// among them, so a bfs sweep may resume at another worker count. A
// resumed run that finds a counterexample prints its trace, as an
// uninterrupted one does.
//
// Observability: results go to stdout; -progress diagnostics go to
// stderr so piped output stays clean. A run explains itself through
// three artifacts only: the report, the ledger and the trace. -report
// FILE writes a JSON report (check parameters; the sweep totals,
// states/sec, dedup and store counters, pruned states, maximum depth,
// fingerprint-collision odds and one row per wiring; the traced phase
// totals), and -http ADDR serves pprof (/debug/pprof/) while the search
// runs. cmd/figures -load renders report files back into tables.
//
// Tracing and run history: -trace FILE records the run as Chrome
// trace_event JSON — one span per sweep, wiring, engine run, store
// spill/compaction/replay and checkpoint write — loadable in Perfetto
// or chrome://tracing; the per-phase totals also land in the report's
// "trace" section. -ledger FILE appends one JSONL entry per run
// (config, totals, wall time, phase breakdown, outcome) to a persistent
// history — conventionally .anonledger/runs.jsonl — that cmd/figures
// -trend turns into throughput trajectories and regression checks.
// (-events, the JSONL event stream, is anonsim's.)
//
// Stall watchdog: -stall-after DUR arms a watchdog that fires when no
// state has been discovered for DUR; it records the stall as a trace
// instant and dumps goroutine and heap profiles next to the report
// (stall-goroutine.pprof, stall-heap.pprof). With -stall-abort the run
// is also aborted with exit code 5, and the ledger records the outcome
// "stalled".
//
// Examples:
//
//	anonexplore -check safety   -inputs a,b       # snapshot-task outputs, all wirings
//	anonexplore -check safety   -inputs a,b -engine bfs -workers 4
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
// checked invariant held; 1 on operational errors (a canceled run, a
// truncated wait-freedom search, a missing checkpoint, an unusable
// store directory); 2 on usage errors (bad flags, an option the check
// or store tier cannot take, a -resume under different settings); 3
// when the search produced a counterexample — the one-line "invariant
// violated: ..." summary goes to stderr, the full "trace (N steps): ..."
// to stdout — and 5 when -stall-abort killed a stalled run.
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
	cli, _ := parseFlags(flag.CommandLine, os.Args[1:]) // flag.CommandLine exits 2 on a parse error
	if cli.httpAddr != "" {
		addr, err := obs.Serve(cli.httpAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			os.Exit(exitcode.Usage)
		}
		fmt.Fprintf(os.Stderr, "anonexplore: serving pprof on http://%s/debug/pprof/\n", addr)
	}
	var tr *span.Tracer
	var traceFile *os.File
	if cli.tracePath != "" {
		f, err := os.Create(cli.tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			os.Exit(exitcode.Usage)
		}
		traceFile, tr = f, span.New(f)
	}
	if cli.reportPath != "" {
		// Stall profiles land next to the report so one artifact
		// directory carries the whole diagnosis.
		cli.run.StallDir = filepath.Dir(cli.reportPath)
	}
	cli.run.Trace = tr
	cli.run.Cancel = interruptChannel()
	rep := obs.NewReport("anonexplore", os.Args[1:])
	runErr := run(cli, rep)
	if tr != nil {
		rep.Section("trace", map[string]any{"file": cli.tracePath, "phases": tr.PhaseSeconds()})
		if err := tr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			if runErr == nil {
				runErr = err
			}
		} else {
			fmt.Fprintf(os.Stderr, "anonexplore: wrote trace to %s\n", cli.tracePath)
		}
		if err := traceFile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if cli.ledgerPath != "" {
		if err := ledger.Append(cli.ledgerPath, ledgerEntry(cli, rep, tr, runErr)); err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			if runErr == nil {
				runErr = err
			}
		}
	}
	if cli.reportPath != "" {
		if runErr != nil {
			rep.Section("error", runErr.Error())
		}
		if err := rep.WriteFile(cli.reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "anonexplore:", err)
			os.Exit(exitcode.Error)
		}
		fmt.Fprintf(os.Stderr, "anonexplore: wrote report to %s\n", cli.reportPath)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "anonexplore:", exitcode.Summary(runErr))
		os.Exit(exitcode.Code(runErr))
	}
}

// options is the parsed command line: the check and the system it
// explores, the output files, and in run the one explore.Options every
// check's config embeds.
type options struct {
	check, inputsCSV string
	nondet           bool
	wirings          explore.WiringFilter
	level, soloBound int
	maxTS, trials    int
	seed             int64

	reportPath, httpAddr, tracePath, ledgerPath string

	run explore.Options
}

// parseFlags registers the command line on fs, run options straight
// into their explore.Options fields, and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	cli := options{wirings: explore.FilterProc0}
	var symmetry canon.Symmetry
	fs.StringVar(&cli.check, "check", "safety", "check: safety | waitfree | atomicity | atomicity-random | consensus")
	fs.StringVar(&cli.inputsCSV, "inputs", "a,b", "comma-separated processor inputs")
	fs.IntVar(&cli.run.Workers, "workers", 0, "breadth-first engine workers (0 or 1 = one worker)")
	fs.IntVar(&cli.run.ProgressEvery, "progress", 0, "print progress to stderr every N discovered states (0 = off)")
	fs.BoolVar(&cli.nondet, "nondet", true, "explore the algorithms' internal register choices")
	fs.IntVar(&cli.level, "level", 0, "snapshot termination level override (0 = N)")
	fs.IntVar(&cli.run.MaxStates, "max-states", 0, "per-search state bound (0 = default)")
	fs.IntVar(&cli.run.MaxCrashes, "crashes", 0, "crash-fault budget: explore executions with up to this many crash-stopped processors")
	fs.IntVar(&cli.soloBound, "solo-bound", 0, "solo-step budget of the waitfree invariant (0 = derived from N and M)")
	fs.IntVar(&cli.maxTS, "max-ts", 2, "consensus timestamp bound")
	fs.IntVar(&cli.trials, "trials", 100000, "trials for atomicity-random")
	fs.Int64Var(&cli.seed, "seed", 1, "seed for atomicity-random")
	fs.StringVar(&cli.reportPath, "report", "", "write a JSON report (check, sweep totals and per-wiring rows, trace phases) to this file")
	fs.StringVar(&cli.httpAddr, "http", "", "serve pprof (/debug/pprof/) on this address during the run")
	fs.StringVar(&cli.run.StoreDir, "store-dir", "", "disk store scratch directory (default: a temp directory per run)")
	fs.StringVar(&cli.run.Checkpoint, "checkpoint", "", "write periodic checkpoints to this directory; ^C stops cleanly after a final one")
	fs.IntVar(&cli.run.CheckpointEvery, "checkpoint-every", 0, "checkpoint cadence in discovered states (0 = default)")
	fs.StringVar(&cli.run.Resume, "resume", "", "resume a stopped sweep from this checkpoint directory")
	fs.StringVar(&cli.tracePath, "trace", "", "write a Chrome trace_event JSON trace of the run to this file (load in Perfetto)")
	fs.StringVar(&cli.ledgerPath, "ledger", "", "append a run-history entry to this JSONL ledger (conventionally "+ledger.DefaultPath+")")
	fs.DurationVar(&cli.run.StallAfter, "stall-after", 0, "watchdog: diagnose a stall after this long with no discovered state, dumping pprof profiles (0 = off)")
	fs.BoolVar(&cli.run.StallAbort, "stall-abort", false, "abort a stalled run with exit code 5 (requires -stall-after)")
	fs.Var(&cli.run.Engine, "engine", "explorer engine: dfs | bfs")
	fs.Var(&cli.wirings, "wirings", "wiring sweep filter: all | proc0 | orbits")
	fs.Var(&symmetry, "symmetry", "state canonicalizer: none | proc | full")
	fs.Var(&cli.run.Store, "store", "state store tier: mem | disk")
	fs.Var(&cli.run.MemLimit, "mem", "disk tier RAM ceiling, e.g. 64MiB, 2GiB (0 = 256MiB default)")
	if err := fs.Parse(args); err != nil {
		return cli, err
	}
	cli.run.Canonicalizer = symmetry.Canonicalizer()
	if cli.run.ProgressEvery > 0 {
		cli.run.Progress = progressPrinter()
	}
	return cli, nil
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
	Wirings       int     `json:"wirings"`
	TotalStates   int     `json:"totalStates"`
	TotalEdges    int     `json:"totalEdges"`
	Terminals     int     `json:"terminals"`
	MaxStates     int     `json:"maxStates"`
	Truncated     bool    `json:"truncated"`
	Pruned        int     `json:"pruned"`
	MaxDepth      int     `json:"maxDepth"`
	CollisionOdds float64 `json:"collisionOdds"`
	Engine        string  `json:"engine"`
	Symmetry      string  `json:"symmetry,omitempty"`
	GroupSize     int     `json:"groupSize,omitempty"`
	Workers       int     `json:"workers"`
	WallSeconds   float64 `json:"wallSeconds"`
	StatesPerSec  float64 `json:"statesPerSec"`
	FrontierPeak  int     `json:"frontierPeak"`
	DedupLookups  int64   `json:"dedupLookups"`
	DedupHits     int64   `json:"dedupHits"`
	DedupHitRate  float64 `json:"dedupHitRate"`
	WorkerSteps   []int64 `json:"workerSteps"`
	// Out-of-core fields, present when the disk store was in use.
	Store          string `json:"store,omitempty"`
	Spills         int64  `json:"spills,omitempty"`
	Compactions    int64  `json:"compactions,omitempty"`
	FrontierSpills int64  `json:"frontierSpills,omitempty"`
	FrontierLoads  int64  `json:"frontierLoads,omitempty"`
	Replays        int64  `json:"replays,omitempty"`
	ReplaySteps    int64  `json:"replaySteps,omitempty"`
	DiskBytes      int64  `json:"diskBytes,omitempty"`
	VisitedRuns    int64  `json:"visitedRuns,omitempty"`
	DiskFootprint  int64  `json:"diskFootprint,omitempty"`
	Checkpoints    int64  `json:"checkpoints,omitempty"`
	// PerWiring has one row per explored wiring, in sweep order.
	PerWiring []explore.WiringRow `json:"perWiring"`
}

func sectionOf(sweep explore.SweepResult) sweepSection {
	st := sweep.Stats
	s := sweepSection{
		Wirings:       sweep.Wirings,
		TotalStates:   sweep.TotalStates,
		TotalEdges:    sweep.TotalEdges,
		Terminals:     sweep.Terminals,
		MaxStates:     sweep.MaxStates,
		Truncated:     sweep.Truncated,
		Pruned:        sweep.Pruned,
		MaxDepth:      sweep.MaxDepth,
		CollisionOdds: sweep.CollisionOdds,
		Engine:        st.Engine.String(),
		Symmetry:      st.Symmetry,
		GroupSize:     st.GroupSize,
		Workers:       st.Workers,
		WallSeconds:   st.WallTime.Seconds(),
		StatesPerSec:  sweep.StatesPerSec(),
		FrontierPeak:  st.FrontierPeak,
		DedupLookups:  st.DedupLookups,
		DedupHits:     st.DedupHits,
		DedupHitRate:  st.DedupHitRate(),
		WorkerSteps:   st.WorkerSteps,
		Checkpoints:   st.Store.Checkpoints,
		PerWiring:     sweep.PerWiring,
	}
	if st.StoreKind == "disk" {
		s.Store = st.StoreKind
		s.Spills = st.Store.Spills
		s.Compactions = st.Store.Compactions
		s.FrontierSpills = st.Store.FrontierSpills
		s.FrontierLoads = st.Store.FrontierLoads
		s.Replays = st.Store.Replays
		s.ReplaySteps = st.Store.ReplaySteps
		s.DiskBytes = st.Store.DiskBytesWritten
		s.VisitedRuns = st.Store.Runs
		s.DiskFootprint = st.Store.DiskBytes
	}
	return s
}

func run(cli options, rep *obs.Report) error {
	inputs := strings.Split(cli.inputsCSV, ",")
	opts := cli.run
	if opts.StallAbort && opts.StallAfter <= 0 {
		return exitcode.WithCode(exitcode.Usage, errors.New("-stall-abort requires -stall-after"))
	}
	rep.Section("check", map[string]any{
		"check":      cli.check,
		"inputs":     inputs,
		"engine":     opts.Engine.String(),
		"workers":    opts.Workers,
		"nondet":     cli.nondet,
		"wirings":    cli.wirings.String(),
		"symmetry":   opts.Canonicalizer.String(),
		"crashes":    opts.MaxCrashes,
		"store":      opts.Store.String(),
		"mem":        opts.MemLimit.String(),
		"checkpoint": opts.Checkpoint,
		"resume":     opts.Resume,
	})
	cfg := explore.SnapshotConfig{
		Inputs:    inputs,
		Nondet:    cli.nondet,
		Wirings:   cli.wirings,
		Level:     cli.level,
		SoloBound: cli.soloBound,
		Options:   opts,
	}
	start := time.Now()
	var (
		sweep            explore.SweepResult
		err              error
		invariant, holds string
	)
	switch cli.check {
	case "safety":
		sweep, err = explore.CheckSnapshotSafety(cfg)
		invariant, holds = "snapshot safety", "snapshot-task safety holds over every explored interleaving"
	case "waitfree":
		sweep, err = explore.CheckSnapshotWaitFree(cfg)
		invariant, holds = "wait-freedom", waitFreeVerdict(sweep.Stats.Engine, opts.MaxCrashes)
	case "consensus":
		sweep, err = explore.CheckConsensusBounded(explore.ConsensusConfig{
			Inputs:       inputs,
			MaxTimestamp: cli.maxTS,
			Wirings:      cli.wirings,
			Options:      opts,
		})
		invariant = "consensus safety"
		holds = fmt.Sprintf("agreement and validity hold over every state with timestamps ≤ %d", cli.maxTS)
	case "atomicity":
		r, err := explore.FindNonAtomicityWitness(cfg)
		if err != nil {
			return verdict(opts, "snapshot atomicity", err)
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
		return nil
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
		return nil
	default:
		return fmt.Errorf("unknown check %q", cli.check)
	}
	report(sweep, start)
	rep.Section("sweep", sectionOf(sweep))
	if err != nil {
		return verdict(opts, invariant, err)
	}
	fmt.Println(holds)
	return nil
}

// verdict maps a failed check onto the exit codes of internal/exitcode:
// a counterexample (*explore.InvariantError) exits 3 and prints its
// trace on stdout, a watchdog abort (ErrStalled) exits 5, an option the
// run cannot take (*UnsupportedOptionError) or a resume under another
// identity (*CheckpointMismatchError) exits 2, and anything else — a
// cancel, an I/O failure, a truncated wait-freedom search — exits 1.
// A nil err stays nil.
func verdict(opts explore.Options, invariant string, err error) error {
	var (
		violation   *explore.InvariantError
		unsupported *explore.UnsupportedOptionError
		mismatch    *explore.CheckpointMismatchError
	)
	switch {
	case errors.As(err, &violation):
		fmt.Printf("trace (%d steps): %s\n", len(violation.Trace), explore.FormatTrace(violation.Trace))
		return exitcode.Violated(invariant, err)
	case errors.Is(err, explore.ErrStalled):
		return exitcode.WithCode(exitcode.Stalled, err)
	case errors.As(err, &unsupported), errors.As(err, &mismatch):
		return exitcode.WithCode(exitcode.Usage, err)
	case errors.Is(err, explore.ErrCanceled):
		return canceledError(opts.Checkpoint)
	}
	return err
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
func canceledError(checkpoint string) error {
	if checkpoint != "" {
		return fmt.Errorf("run canceled; checkpoint saved under %s — rerun with -resume %s to continue%.0w", checkpoint, checkpoint, explore.ErrCanceled)
	}
	return fmt.Errorf("run canceled (no -checkpoint dir; progress was not saved)%.0w", explore.ErrCanceled)
}

// progressPrinter returns the -progress callback. It writes to stderr —
// never stdout — so results and reports survive piping.
func progressPrinter() func(states, edges int) {
	return func(states, edges int) {
		fmt.Fprintf(os.Stderr, "... %d states, %d edges\n", states, edges)
	}
}

func report(sweep explore.SweepResult, start time.Time) {
	fmt.Printf("wirings=%d states=%d edges=%d terminals=%d largest=%d pruned=%d max-depth=%d truncated=%v elapsed=%v\n",
		sweep.Wirings, sweep.TotalStates, sweep.TotalEdges, sweep.Terminals, sweep.MaxStates,
		sweep.Pruned, sweep.MaxDepth, sweep.Truncated, time.Since(start).Round(time.Millisecond))
	fmt.Printf("engine=%s workers=%d states/sec=%.0f frontier-peak=%d dedup-hit=%.1f%% collision-odds=%.2g",
		sweep.Stats.Engine, sweep.Stats.Workers, sweep.StatesPerSec(),
		sweep.Stats.FrontierPeak, 100*sweep.Stats.DedupHitRate(), sweep.CollisionOdds)
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
