// Package anonshm is a library for computing in the fully-anonymous
// shared-memory model, reproducing Losa and Gafni, "Understanding
// Read-Write Wait-Free Coverings in the Fully-Anonymous Shared-Memory
// Model" (PODC 2024).
//
// In this model, N processors with no identifiers — all running the same
// program — communicate through M multi-writer multi-reader atomic
// registers, and even the registers are anonymous: every processor is
// wired to them through a private, arbitrary permutation fixed at start.
// The model is inspired by biological systems of indistinguishable agents
// acting on locations in space without a common frame of reference.
//
// The package provides:
//
//   - Snapshot: a wait-free group solution to the snapshot task using only
//     N registers (the paper's Figure 3 algorithm) — every participant
//     learns a set of participating inputs, all sets related by
//     containment;
//   - Rename: adaptive renaming into 1..n(n+1)/2 names for n participating
//     groups (Figure 4, Bar-Noy–Dolev over the group snapshot);
//   - Agree: obstruction-free consensus on one participating input
//     (Figure 5, a derandomized Chandra shared coin over the long-lived
//     snapshot).
//
// All three run either on real goroutines over linearizable atomic
// registers, or under deterministic step-level schedulers for
// reproducibility and adversarial testing. Verify* helpers check outputs
// against the group-solvability conditions of the paper's Section 3.
//
// The internal packages expose the full research toolkit: the write-scan
// loop and stable-view analysis of Section 4 (internal/stableview), an
// exhaustive model checker replacing the paper's TLC usage
// (internal/explore), the Section 2.1 lower-bound construction
// (internal/lowerbound), and the baselines the paper argues against
// (internal/baseline).
//
// The model checker is engine-based: explore.Run(sys, explore.Options{})
// dispatches to one of two search implementations selected by
// Options.Engine — the serial depth-first engine DFSEngine (the default,
// and the one that detects cycles inline) or the breadth-first engine
// BFSEngine, which expands one level at a time at Options.Workers
// workers — and returns per-run Stats (wall
// time, peak frontier, dedup counters) and the run's
// fingerprint-collision odds. See internal/explore's package
// documentation for the engine-selection table.
//
// The checker exploits the model's defining symmetry: processors are
// interchangeable and reach the registers only through private wiring
// permutations, so internal/canon canonicalizes every explored state
// under admissible processor permutations, register permutations and
// input relabelings before fingerprinting (explore.Options.Canonicalizer;
// -symmetry none|proc|full on the command line), storing one state per
// symmetry orbit. A state's fingerprint is one hash of its
// lexicographically least mirror, built from word encodings of its
// machines and registers (their AppendState methods). The wiring sweep composes with it: -wirings orbits
// enumerates one representative wiring per orbit of the same group
// action. The reduction is sound for orbit-invariant checks only, which
// all packaged checks are except the non-atomicity witness search (it
// pins the identity canonicalizer).
//
// State storage is a pluggable layer beneath every engine
// (internal/store), whose visited set holds fingerprints only: store.Mem
// keeps the visited set and frontier in RAM, while store.Disk holds RAM
// under a configurable ceiling (Options.MemLimit; -store disk -mem
// 64MiB) by spilling fingerprints to sorted append-only runs merged
// k-way on disk and spilling frontier states as delta-encoded paths
// regenerated by deterministic replay. Every engine supports periodic
// checkpoints (Options.Checkpoint / -checkpoint dir) from which a killed
// run resumes (Options.Resume / -resume dir) to the identical state
// count. Both engines checkpoint their pending work as one path segment
// of store entries (the breadth-first frontier, or the DFS stack one
// frame per entry with its successor cursor), since both expand a
// state by the same packed steps. Checkpoints are versioned and record
// engine, symmetry, the root state and crash budget (a wiring sweep's
// also the check, inputs, wiring filter, level and bounds), and
// resuming under different settings fails with a
// CheckpointMismatchError rather than silently mixing state spaces.
//
// Every execution layer also implements crash-stop faults: a crashed
// processor takes no further steps and produces no output, but its last
// write persists. machine.System.Crash is the model transition,
// sched.Crasher the simulated adversary (budget, seeded victims),
// explore.Options.MaxCrashes the exhaustive form (every crash pattern up
// to a budget, on every engine), and runtime.Config.Crashes the
// goroutine form (victims killed mid-operation). The matching liveness
// check is explore.WaitFree(bound): from every reachable state, every
// surviving processor must terminate within bound of its own steps —
// wait-freedom in the crash-fault sense.
//
// Observability rests on internal/obs: a dependency-free atomic metrics
// registry and JSONL event sink that the simulated scheduler
// (sched.Instrument) and the goroutine runtime publish through, exposed
// by cmd/anonsim via -report (JSON report files), -json, -events and
// -http (live metrics plus pprof). Instrumentation is nil-safe and free
// when disabled. The explorer publishes no metrics or events: each
// cmd/anonexplore run explains itself through its report (sweep totals,
// dedup and store counters, pruned states, maximum depth, collision
// odds and one row per wiring), its ledger entry and its trace, and its
// -http serves pprof only.
//
// Three deeper diagnostics build on the same design. internal/obs/span
// records runs as Chrome trace_event JSON (-trace / -trace-file,
// loadable in Perfetto): spans for every sweep, wiring and engine run,
// the store's spills, compactions and path replays, checkpoint traffic,
// sampled per-operation spans from the goroutine runtime, and instant
// events for injected crashes. internal/obs/ledger keeps a persistent
// append-only run history (-ledger, JSONL with atomic rewrites) that
// cmd/figures -trend folds — together with the committed BENCH_*.json
// reports — into per-configuration throughput trajectories, exiting
// with status 4 on a regression past the threshold. A stall watchdog
// in internal/explore (-stall-after) detects runs that stop
// discovering states, dumps goroutine and heap profiles for postmortem
// reading, and with -stall-abort cancels the run with status 5.
//
// Between the exhaustive checker and single simulated runs sits a
// scheduler zoo and a Monte-Carlo campaign layer. internal/sched grows
// beyond round-robin and uniform-random adversaries with
// latency-distribution schedulers (exponential and heavy-tailed Pareto
// virtual clocks), a bursty phase adversary, a priority-inversion
// starver, and a Weighted mixer composing any of them; sched.NewByName
// constructs each from a name and a seed, and sched.SplitSeed derives
// independent per-purpose random streams (scheduling, crash timing,
// mixer membership) from one base seed so no two consumers share a
// generator. cmd/anonsim -campaign sweeps seeds x schedulers x system
// sizes x wirings x crash budgets on a worker pool, validates every
// run's outputs post-run against the task's group-solvability
// conditions, aggregates step-count distributions into per-cell
// histograms (mean/p50/p90/max in the report, rendered by cmd/figures),
// and exits with status 3 if any run violates wait-freedom or output
// validity. internal/sched's native fuzz targets close the loop from
// the other side: fuzzer-chosen schedules drive the snapshot and
// renaming machines and every terminal state reached must be one the
// exhaustive explorer enumerates under the same crash budget.
//
// The model's semantic invariants are enforced statically by the anonlint
// analyzer suite (internal/lint, run via cmd/anonlint or make lint), seven
// analyzers over the x/tools go/analysis framework:
// anonymity checks by shape that machine implementations contain no
// processor identity (the identical-program discipline of the paper's
// Section 2) and never call into the internal/canon symmetry layer (the
// one non-analysis package allowed to inspect identity — it is the
// quotient map, not algorithm code);
// taint proves the same boundary by interprocedural dataflow, tracking
// ghost identity values (StepInfo.Proc, last-writer fields, omniscient
// inspection results, identity-named parameters) through helpers,
// closures and composite literals into machine state or fingerprint
// inputs, and reports the full source-to-sink path;
// regaccess confines the omniscient register-inspection API and the
// ghost last-writer state to the observer-side analysis packages;
// determinism flags run-to-run variation sources (map iteration order —
// bare ranges and maps.Keys/maps.Values iterators alike — wall clock,
// global randomness) in the packages feeding state enumeration;
// fpwidth guards the 64-bit fingerprint word against silent
// single-bit-shift overflow;
// waitfree requires every loop reachable from a machine's
// Pending/Advance/Done methods to have a statically bounded trip count
// (or a justified //lint:bound directive documenting the bound); and
// exitcode pins every cmd/ binary to the internal/exitcode constants,
// with suggested fixes that anonlint -fix applies in place.
// cmd/anonlint gates findings against the committed lint-baseline.json
// (empty today; legacy debt is recorded per-finding, never blanket) and
// emits SARIF 2.1.0 for code scanning (-sarif; make lint-sarif in CI).
// All binaries share the exit-status convention of internal/exitcode:
// status 3 with a one-line "invariant violated" summary whenever a run,
// search or lint sweep produces a counterexample.
package anonshm
