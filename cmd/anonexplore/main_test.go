package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonshm/internal/exitcode"
	"anonshm/internal/explore"
	"anonshm/internal/obs"
)

// TestWaitFreeVerdict: a passing wait-freedom sweep claims an acyclic
// step graph only when DFS ran it, since no other engine looks for
// cycles; every verdict claims solo termination.
func TestWaitFreeVerdict(t *testing.T) {
	for _, c := range []struct {
		engine  explore.Engine
		crashes int
		acyclic bool
		subject string
	}{
		{explore.DFSEngine, 0, true, "every processor"},
		{explore.BFSEngine, 0, false, "every processor"},
		{explore.DFSEngine, 1, true, "every survivor"},
		{explore.BFSEngine, 2, false, "every survivor"},
	} {
		got := waitFreeVerdict(c.engine, c.crashes)
		if strings.Contains(got, "acyclic") != c.acyclic {
			t.Errorf("%v, %d crashes: %q; want the acyclicity clause: %v", c.engine, c.crashes, got, c.acyclic)
		}
		if !strings.Contains(got, c.subject+" solo-terminates") {
			t.Errorf("%v, %d crashes: %q lacks %q", c.engine, c.crashes, got, c.subject+" solo-terminates")
		}
		if c.crashes > 0 && !strings.Contains(got, "crash budget of") {
			t.Errorf("%v, %d crashes: %q omits the crash budget", c.engine, c.crashes, got)
		}
	}
}

// TestVerdictExitCodes pins how a failed check maps onto the exit codes
// of internal/exitcode, and that the mapped error still carries what
// the ledger classifies its outcome by.
func TestVerdictExitCodes(t *testing.T) {
	violation := &explore.InvariantError{Err: errors.New("outputs incomparable")}
	for _, c := range []struct {
		name    string
		err     error
		code    int
		outcome string
	}{
		{"nil", nil, exitcode.OK, "ok"},
		{"counterexample", violation, exitcode.Violation, "violation"},
		{"wrapped counterexample", fmt.Errorf("sweep: %w", violation), exitcode.Violation, "violation"},
		{"stalled", fmt.Errorf("%w (no progress for 1s)", explore.ErrStalled), exitcode.Stalled, "stalled"},
		{"unsupported option", &explore.UnsupportedOptionError{Store: "mem", Option: "StoreDir"}, exitcode.Usage, "error"},
		{"checkpoint mismatch", &explore.CheckpointMismatchError{Field: "engine"}, exitcode.Usage, "error"},
		{"canceled", fmt.Errorf("explore: %w", explore.ErrCanceled), exitcode.Error, "canceled"},
		{"operational", errors.New("explore: store: disk full"), exitcode.Error, "error"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := verdict(explore.Options{}, "snapshot safety", c.err)
			if got := exitcode.Code(err); got != c.code {
				t.Errorf("exit code %d (%v), want %d", got, err, c.code)
			}
			if got := outcomeOf(err); got != c.outcome {
				t.Errorf("ledger outcome %q, want %q", got, c.outcome)
			}
		})
	}
}

// runCLI parses args as the command line, runs the check, and returns
// the exit code main would exit with and what the run printed on stdout.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cli, err := parseFlags(flag.NewFlagSet("anonexplore", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	runErr := run(cli, obs.NewReport("anonexplore", args))
	os.Stdout = stdout
	w.Close()
	return exitcode.Code(runErr), <-printed
}

// TestExitCodes runs the command line end to end: a counterexample
// exits 3 and prints its trace on stdout, also when a resume from a
// checkpoint finds it, a run that cannot complete exits 1, and options
// the check or the store cannot take, a -stall-abort with no watchdog to
// abort, or a resume under another sweep identity, exit 2.
func TestExitCodes(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	waitFree := filepath.Join(tmp, "waitfree")
	if code, _ := runCLI(t, "-check", "waitfree", "-inputs", "a,b", "-checkpoint", waitFree); code != exitcode.OK {
		t.Fatalf("waitfree checkpoint run exited %d", code)
	}
	orbits := filepath.Join(tmp, "orbits")
	violated := filepath.Join(tmp, "violated") // written by the "counterexample checkpoint" row
	if code, _ := runCLI(t, "-check", "safety", "-inputs", "a,b,c", "-wirings", "orbits", "-max-states", "200", "-checkpoint", orbits); code != exitcode.OK {
		t.Fatalf("orbit checkpoint run exited %d", code)
	}
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stdout string
	}{
		{"counterexample", []string{"-check", "waitfree", "-inputs", "a,b", "-solo-bound", "16"}, exitcode.Violation, "trace (14 steps): p0:"},
		{"counterexample checkpoint", []string{"-check", "waitfree", "-inputs", "a,b", "-solo-bound", "16", "-checkpoint", violated, "-checkpoint-every", "5"}, exitcode.Violation, "trace (14 steps): p0:"},
		{"resumed counterexample", []string{"-check", "waitfree", "-inputs", "a,b", "-solo-bound", "16", "-checkpoint", violated, "-checkpoint-every", "5", "-resume", violated}, exitcode.Violation, "trace (14 steps): p0:"},
		{"missing checkpoint", []string{"-check", "safety", "-inputs", "a,b", "-resume", filepath.Join(tmp, "missing")}, exitcode.Error, ""},
		{"unusable store dir", []string{"-check", "safety", "-inputs", "a,b", "-store", "disk", "-store-dir", filepath.Join(file, "sub")}, exitcode.Error, ""},
		{"truncated waitfree", []string{"-check", "waitfree", "-inputs", "a,b,c", "-max-states", "1000"}, exitcode.Error, ""},
		{"store dir on mem", []string{"-check", "consensus", "-inputs", "x,y", "-store-dir", tmp}, exitcode.Usage, ""},
		{"atomicity checkpoint", []string{"-check", "atomicity", "-inputs", "a,b", "-checkpoint", filepath.Join(tmp, "atomicity")}, exitcode.Usage, ""},
		{"stall abort without stall after", []string{"-check", "safety", "-inputs", "a,b", "-stall-abort"}, exitcode.Usage, ""},
		{"resume other solo bound", []string{"-check", "waitfree", "-inputs", "a,b", "-resume", waitFree, "-solo-bound", "1"}, exitcode.Usage, ""},
		{"resume other wirings", []string{"-check", "safety", "-inputs", "a,b,c", "-wirings", "proc0", "-max-states", "200", "-resume", orbits}, exitcode.Usage, ""},
		{"resume other level", []string{"-check", "safety", "-inputs", "a,b,c", "-wirings", "orbits", "-max-states", "200", "-level", "1", "-resume", orbits}, exitcode.Usage, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, stdout := runCLI(t, c.args...)
			if code != c.code {
				t.Errorf("exit code %d, want %d", code, c.code)
			}
			if !strings.Contains(stdout, c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, stdout)
			}
		})
	}
}

// TestReportSweepSection pins what the report's sweep section carries
// by key: the consensus sweep at timestamp bound 1 prunes 2,614 states,
// and its two wiring rows hold 23,975 and 21,882 states at depths 86 and
// 83; the dedup counts, per-worker steps and collision odds are there
// too, and the section reports no disk-tier key on the mem tier.
func TestReportSweepSection(t *testing.T) {
	args := []string{"-check", "consensus", "-inputs", "x,y", "-max-ts", "1"}
	cli, err := parseFlags(flag.NewFlagSet("anonexplore", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	rep := obs.NewReport("anonexplore", args)
	if err := run(cli, rep); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep.Sections["sweep"])
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"pruned", "maxDepth", "collisionOdds", "dedupLookups", "dedupHits", "workerSteps", "perWiring"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("sweep section lacks %q: %s", k, blob)
		}
	}
	for _, k := range []string{"frontierLoads", "visitedRuns", "diskFootprint"} {
		if _, ok := keys[k]; ok {
			t.Errorf("mem-tier sweep section carries disk-tier key %q", k)
		}
	}
	var sec sweepSection
	if err := json.Unmarshal(blob, &sec); err != nil {
		t.Fatal(err)
	}
	if sec.Pruned != 2614 || sec.MaxDepth != 86 || sec.DedupLookups != 86488 || sec.DedupHits != 40631 {
		t.Errorf("pruned=%d maxDepth=%d dedup=%d/%d, want 2614, 86 and 40631/86488",
			sec.Pruned, sec.MaxDepth, sec.DedupHits, sec.DedupLookups)
	}
	want := []struct{ states, depth int }{{23975, 86}, {21882, 83}}
	if len(sec.PerWiring) != len(want) {
		t.Fatalf("%d rows, want %d", len(sec.PerWiring), len(want))
	}
	for i, w := range want {
		if row := sec.PerWiring[i]; row.States != w.states || row.MaxDepth != w.depth {
			t.Errorf("row %d: %+v, want states=%d maxDepth=%d", i, row, w.states, w.depth)
		}
	}
}
