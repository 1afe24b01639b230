GO ?= go

.PHONY: build fmt test vet lint lint-sarif lint-fix race verify bench bench-check bench-report fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing every tracked .go file outside vendor/
# (the explorebench/ module included) that gofmt would rewrite.
fmt:
	@files=$$(git ls-files '*.go' | grep -v '^vendor/' | xargs gofmt -l); \
	if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# Model-invariant static analysis: the anonlint suite (internal/lint)
# encodes the semantic invariants plain go vet cannot see — anonymity of
# machine code (shape checks plus interprocedural taint), register-access
# discipline, replay determinism, the 64-bit fingerprint width, bounded
# loops on machine step paths, and the exit-code convention. The gate is
# the committed lint-baseline.json: any finding not individually recorded
# there fails the run (exit 3). Silence a single finding with a justified
# "//lint:ignore anonlint/<name> reason" (or "//lint:bound reason" for
# waitfree); the baseline is for legacy debt only and is empty today.
lint:
	$(GO) build -o bin/anonlint ./cmd/anonlint
	./bin/anonlint -baseline lint-baseline.json ./...

# Same sweep, plus a SARIF 2.1.0 log for CI code-scanning upload.
lint-sarif:
	$(GO) build -o bin/anonlint ./cmd/anonlint
	./bin/anonlint -baseline lint-baseline.json -sarif anonlint.sarif ./...

# Apply the analyzers' suggested fixes (e.g. exitcode's literal →
# constant rewrites) in place, then gofmt what changed.
lint-fix:
	$(GO) build -o bin/anonlint ./cmd/anonlint
	./bin/anonlint -baseline lint-baseline.json -fix ./... || true
	gofmt -w ./cmd
	$(GO) build ./...

test:
	$(GO) test ./...

# The explorer, scheduler (crash adversary) and runtime are the packages
# with real concurrency or fault injection; everything else is
# single-threaded model code, so the race detector runs only where it can
# find something. internal/canon rides along because one hasher, and
# its pool of scratch buffers, is shared by all of the breadth-first
# engine's workers (TestFingerprintConcurrent, and the
# symmetry-equivalence tests in internal/explore, drive exactly that
# sharing); internal/store because its visited table and frontier shards
# are the shared mutable state under those workers, which pop from each
# other's shards; internal/obs and its span
# tracer because metrics, histograms and trace spans are written from
# all of those goroutines at once; cmd/anonsim because the campaign
# runner's worker pool aggregates per-cell histograms across goroutines.
# -short skips the N=3 crash spaces and trims the 100-seed zoo sweep,
# which the plain test target still covers in full. The explore package
# alone takes about 300 s under the race detector on a 2-vCPU host and
# nearly 600 s, go test's default timeout, when another process holds a
# CPU, hence the explicit budget.
race:
	$(GO) test -race -short -timeout 30m ./internal/explore/ ./internal/canon/ ./internal/sched/ ./internal/runtime/ ./internal/store/ ./internal/obs/ ./internal/obs/span/ ./cmd/anonsim/

# Extended tier-1 gate: what CI (and ROADMAP.md) require before merge.
verify: fmt build vet lint test race bench-check

# The explorer benchmark is its own module (explorebench/), which the
# root ./... patterns do not reach: vet and test it here, offline and
# with the module settings explorebench/run.sh builds it under. Its
# TestRecordedCountsReproduce re-runs every recorded wiring of the three
# workloads and checks the exact state and edge counts, so it also pins
# where the engines cut a bounded search.
bench-check:
	GOWORK=off GOPROXY=off GOFLAGS= $(GO) -C explorebench vet ./...
	GOWORK=off GOPROXY=off GOFLAGS= $(GO) -C explorebench test ./...

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkExplore' -benchtime 1x .

# Short coverage-guided runs of the schedule fuzzers (internal/sched
# fuzz_test.go): fuzzer-chosen schedules cross-checked against the
# exhaustive explorer as oracle. go test accepts one -fuzz target per
# invocation, hence two lines. The seed corpora alone run under the
# plain test target; this target actually mutates for a few seconds.
fuzz-smoke:
	$(GO) test ./internal/sched/ -run '^$$' -fuzz FuzzSnapshotSchedule -fuzztime 10s
	$(GO) test ./internal/sched/ -run '^$$' -fuzz FuzzRenamingSchedule -fuzztime 10s

# Machine-readable benchmark artifacts: one report file per engine with
# sweep totals, states/sec and per-wiring rows, plus the
# symmetry-reduction comparison (same check at -symmetry none/proc/full).
# The N=3 rows run the same-group system with deterministic write order —
# the one N=3 snapshot space small enough to sweep untruncated (~72M
# states, ~15 min total), so the reduction ratio is exact rather than an
# artifact of per-wiring state caps. The store rows rerun the N=3
# full-symmetry sweep through both state-store tiers — in-RAM and disk
# under a 64MiB ceiling — so the out-of-core overhead and the
# states-match-exactly property are pinned as artifacts. Render reports
# back with `go run ./cmd/figures -load BENCH_dfs.json`.
bench-report:
	$(GO) run ./cmd/anonexplore -check safety -inputs a,b -engine dfs -report BENCH_dfs.json
	$(GO) run ./cmd/anonexplore -check safety -inputs a,b -engine bfs -report BENCH_bfs.json
	$(GO) run ./cmd/anonexplore -check safety -inputs a,b -engine bfs -workers 2 -report BENCH_parallel.json
	$(GO) run ./cmd/anonexplore -check waitfree -inputs a,b -crashes 1 -engine bfs -workers 2 -report BENCH_crash_parallel.json
	$(GO) run ./cmd/anonexplore -check safety -inputs a,b -engine dfs -symmetry none -report BENCH_sym_none_n2.json
	$(GO) run ./cmd/anonexplore -check safety -inputs a,b -engine dfs -symmetry proc -report BENCH_sym_proc_n2.json
	$(GO) run ./cmd/anonexplore -check safety -inputs a,b -engine dfs -symmetry full -report BENCH_sym_full_n2.json
	$(GO) run ./cmd/anonexplore -check safety -inputs g,g,g -nondet=false -engine dfs -symmetry none -report BENCH_sym_none_n3.json
	$(GO) run ./cmd/anonexplore -check safety -inputs g,g,g -nondet=false -engine dfs -wirings orbits -symmetry proc -report BENCH_sym_proc_n3.json
	$(GO) run ./cmd/anonexplore -check safety -inputs g,g,g -nondet=false -engine dfs -wirings orbits -symmetry full -report BENCH_sym_full_n3.json
	$(GO) run ./cmd/anonexplore -check safety -inputs g,g,g -nondet=false -engine dfs -wirings orbits -symmetry full -report BENCH_store_mem_n3.json
	$(GO) run ./cmd/anonexplore -check safety -inputs g,g,g -nondet=false -engine dfs -wirings orbits -symmetry full -store disk -mem 64MiB -report BENCH_store_disk_n3.json
