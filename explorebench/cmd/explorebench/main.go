// Command explorebench measures the explorer (internal/explore) end to
// end on three N=3 snapshot workloads and, with -trace 1, attributes a
// round's time to the canon, machine, store and explore layers.
//
// Run it from the root of a checkout, through explorebench/run.sh, which
// builds it first:
//
//	bash explorebench/run.sh -workload sg3-full-dfs -seed 1 -seconds 30 -trace 0
//
// A run repeats rounds for -seconds seconds. A round explores the
// wirings -seed draws for it, in the drawn order, in a child process of
// its own (this binary with -child), so CPU time and peak RSS come from
// that child's rusage and the Go runtime starts from its defaults each
// round. Another child times the round's set-up. Every wiring run is
// checked against recorded state and edge counts.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end medians over the rounds; with -trace 1 they are the
// per-layer metrics, from the timed rounds' exact counters plus one
// extra traced round.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anonshm/internal/exitcode"
)

const (
	// minRounds is the fewest rounds a run reports a median of.
	minRounds = 5
	// setupReps is how many times a set-up child repeats the set-up.
	setupReps = 100
	// runLimit bounds a whole run; children still running are killed.
	runLimit = 170 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	// child, order and dir are set only on the child processes.
	child string
	order string
	dir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explorebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: "+workloadNames())
	fs.Uint64Var(&c.seed, "seed", DefaultSeed, "seed for each round's wiring order and the traced round's sample")
	fs.IntVar(&c.seconds, "seconds", 30, "how long to repeat timed rounds")
	fs.IntVar(&c.trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&c.child, "child", "", "internal: run one round, setup or trace in this process")
	fs.StringVar(&c.order, "order", "", "internal: the child's wiring order, comma-separated")
	fs.StringVar(&c.dir, "dir", "", "internal: the child's scratch directory")
	if err := fs.Parse(args); err != nil {
		return exitcode.Usage
	}
	w, err := lookupWorkload(c.workload)
	if err != nil {
		fmt.Fprintln(stderr, "explorebench:", err)
		return exitcode.Usage
	}
	if c.child != "" {
		return runChild(w, c, stdout, stderr)
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(stderr, "explorebench: -seconds must be positive and -trace 0 or 1")
		return exitcode.Usage
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "explorebench:", err)
		return exitcode.Error
	}
	work := filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "explorebench:", err)
		return exitcode.Error
	}
	defer os.RemoveAll(work)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	h := &harness{ctx: ctx, self: self, w: w, seed: c.seed, work: work, stderr: stderr}
	res, runErr := h.bench(time.Duration(c.seconds)*time.Second, c.trace == 1)
	if runErr != nil {
		fmt.Fprintln(stderr, "explorebench:", runErr)
	}
	if res.Attempted == 0 {
		return exitcode.Error
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "explorebench:", err)
		return exitcode.Error
	}
	switch {
	case runErr != nil:
		return exitcode.Error
	case !res.Correct:
		return exitcode.Violation
	}
	return exitcode.OK
}

// runChild runs one child's job and prints its report.
func runChild(w *workload, c config, stdout, stderr io.Writer) int {
	order, err := parseOrder(c.order)
	if err != nil || c.dir == "" {
		fmt.Fprintf(stderr, "explorebench: child needs -order and -dir (%v)\n", err)
		return exitcode.Usage
	}
	var rep any
	switch c.child {
	case "round":
		rep, err = timedRound(w, order, c.dir)
	case "setup":
		rep, err = timeSetup(w, order, c.dir, setupReps)
	case "trace":
		rep, err = tracedRound(w, order, c.dir, c.seed)
	default:
		fmt.Fprintf(stderr, "explorebench: unknown -child %q\n", c.child)
		return exitcode.Usage
	}
	if err != nil {
		fmt.Fprintf(stderr, "explorebench: %s child: %v\n", c.child, err)
		return exitcode.Error
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "explorebench:", err)
		return exitcode.Error
	}
	return exitcode.OK
}

func parseOrder(s string) ([]int, error) {
	if s == "" {
		return nil, errors.New("empty wiring order")
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("wiring order: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

func formatOrder(order []int) string {
	parts := make([]string, len(order))
	for i, v := range order {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// round is one timed round as the parent saw it.
type round struct {
	order []int
	setup setupReport
	rep   roundReport
	usage usage
}

// harness runs the child processes of one benchmark run.
type harness struct {
	ctx    context.Context
	self   string
	w      *workload
	seed   uint64
	work   string
	stderr io.Writer

	attempted, failed int
}

// bench repeats rounds for the given time, then reports end-to-end
// metrics, or per-layer ones after a traced round.
func (h *harness) bench(seconds time.Duration, traced bool) (result, error) {
	start := time.Now()
	ticks0, stealOK := readCPUTicks()
	var rounds []round
	var last time.Duration
	var err error
	for r := 0; r < minRounds || time.Since(start)+last <= seconds; r++ {
		t0 := time.Now()
		var rd round
		if rd, err = h.round(h.w.roundOrder(h.seed, r)); err != nil {
			break
		}
		rounds = append(rounds, rd)
		last = time.Since(t0)
	}
	ticks1, _ := readCPUTicks()
	steal := 0.0
	if stealOK {
		steal = stealShare(ticks0, ticks1)
		fmt.Fprintf(h.stderr, "explorebench: %s: host steal share %.4f over %d rounds\n", h.w.name, steal, len(rounds))
	}
	res := result{Metrics: map[string]metric{}}
	if err == nil && !traced {
		res.Metrics = endToEnd(rounds)
	}
	if err == nil && traced {
		var tr traceReport
		if tr, err = h.trace(rounds[0].order); err == nil {
			res.Metrics = perLayer(h.w, rounds, tr, steal)
		}
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	res.Correct = err == nil && h.failed == 0
	return res, err
}

// round runs one set-up child and one timed child over order.
func (h *harness) round(order []int) (round, error) {
	rd := round{order: order}
	out, _, err := h.child("setup", order)
	if err == nil {
		err = json.Unmarshal(out, &rd.setup)
	}
	if err != nil {
		return rd, fmt.Errorf("set-up: %w", err)
	}
	out, rd.usage, err = h.child("round", order)
	if err == nil {
		err = json.Unmarshal(out, &rd.rep)
	}
	if err != nil {
		h.attempted += len(order)
		h.failed += len(order)
		return rd, fmt.Errorf("round %v: %w", order, err)
	}
	h.checkRuns(order, rd.rep.Wirings)
	fmt.Fprintf(h.stderr, "explorebench: %s wirings %v: wall %.3fs cpu %.3fs rss %.1fMiB setup %.3fms\n",
		h.w.name, order, float64(rd.rep.WallNs)/1e9, rd.usage.CPUSeconds,
		float64(rd.usage.MaxRSSKiB)/1024, float64(rd.setup.Ns)/1e6)
	return rd, nil
}

// trace runs the traced child over order.
func (h *harness) trace(order []int) (traceReport, error) {
	var tr traceReport
	out, _, err := h.child("trace", order, "-seed", strconv.FormatUint(h.seed, 10))
	if err == nil {
		err = json.Unmarshal(out, &tr)
	}
	if err != nil {
		h.attempted += len(order)
		h.failed += len(order)
		return tr, fmt.Errorf("traced round %v: %w", order, err)
	}
	h.checkRuns(order, tr.Wirings)
	return tr, nil
}

// checkRuns counts each wiring of order as one attempted operation and
// each one that is missing or fails its check as failed.
func (h *harness) checkRuns(order []int, runs []wiringRun) {
	h.attempted += len(order)
	for i, wi := range order {
		if i >= len(runs) || runs[i].Wiring != wi {
			h.failed++
			fmt.Fprintf(h.stderr, "explorebench: %s: wiring %d: no result\n", h.w.name, wi)
			continue
		}
		if err := h.w.check(runs[i].wiringOutcome); err != nil {
			h.failed++
			fmt.Fprintf(h.stderr, "explorebench: %s: %v\n", h.w.name, err)
		}
	}
}

// child runs this binary in child mode and returns its report and usage.
func (h *harness) child(mode string, order []int, extra ...string) ([]byte, usage, error) {
	args := append([]string{
		"-child", mode, "-workload", h.w.name, "-order", formatOrder(order),
		"-dir", filepath.Join(h.work, mode),
	}, extra...)
	cmd := exec.CommandContext(h.ctx, h.self, args...)
	cmd.Env = defaultRuntimeEnv(os.Environ())
	cmd.Stderr = h.stderr
	// A child must not outlive a parent that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, usage{}, fmt.Errorf("%s child: %w", mode, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, usage{}, errors.New("no rusage for child")
	}
	return out, usageOf(ru), nil
}

// defaultRuntimeEnv drops the variables that change the Go runtime's
// defaults, so children run as the explorer's users run it.
func defaultRuntimeEnv(env []string) []string {
	out := make([]string, 0, len(env))
	for _, kv := range env {
		name, _, _ := strings.Cut(kv, "=")
		switch name {
		case "GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		out = append(out, kv)
	}
	return out
}
