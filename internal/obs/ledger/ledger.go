// Package ledger is the persistent run history of the anonshm binaries:
// one JSONL file (default .anonledger/runs.jsonl, overridable with
// -ledger FILE) that every -ledger-enabled run appends one entry to —
// its configuration (engine, symmetry, memory budget, crash budget,
// wirings), the explored-state totals from Result.Stats, wall time, and
// the per-phase timing breakdown from span tracing. `cmd/figures
// -trend` reads the ledger (plus the committed BENCH_*.json history)
// and renders states/sec and phase-time trajectories across runs,
// exiting with exitcode.Regression when the latest run falls below a
// threshold fraction of the ledger median for the same configuration.
//
// Appends go through read-all + temp-file + atomic rename (not
// O_APPEND), so an interrupted write can never leave a torn line that
// poisons later trend reads; Read additionally skips any malformed line
// so a ledger written by an older binary or damaged externally degrades
// to the entries that still parse.
package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"anonshm/internal/obs"
)

// DefaultPath is the conventional ledger location relative to the
// working directory when -ledger is passed without a file.
const DefaultPath = ".anonledger/runs.jsonl"

// Entry records one completed (or aborted) run.
type Entry struct {
	// Time is the wall-clock completion time, RFC3339 UTC. It exists
	// for humans reading trajectories; nothing replays from it.
	Time string `json:"time,omitempty"`
	// Tool is the producing binary ("anonexplore", "anonsim").
	Tool string `json:"tool"`
	// Check names what ran ("safety", "waitfree", "consensus", ...).
	Check string `json:"check,omitempty"`
	// Config holds the run parameters that define comparability:
	// engine, symmetry, mem, crashes, inputs, nondet, wirings.
	Config map[string]any `json:"config,omitempty"`
	// Wirings is how many wirings the sweep covered.
	Wirings int `json:"wirings,omitempty"`
	// States/Edges/Steps are the summed exploration totals.
	States int64 `json:"states,omitempty"`
	Edges  int64 `json:"edges,omitempty"`
	Steps  int64 `json:"steps,omitempty"`
	// WallSeconds is the end-to-end run time; StatesPerSec the
	// headline throughput figure the trend check guards.
	WallSeconds  float64 `json:"wallSeconds,omitempty"`
	StatesPerSec float64 `json:"statesPerSec,omitempty"`
	// Phases maps span categories (sweep, wiring, run, store.spill,
	// ...) to seconds spent, from span.Tracer.PhaseSeconds.
	Phases map[string]float64 `json:"phases,omitempty"`
	// Outcome is "ok", "violation", "stalled", "canceled" or "error".
	Outcome string `json:"outcome,omitempty"`
}

// Key derives the configuration identity used to group comparable runs
// for trend analysis: same tool, check and config ⇒ same trajectory.
func (e Entry) Key() string {
	parts := []string{e.Tool, e.Check}
	keys := make([]string, 0, len(e.Config))
	for k := range e.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, e.Config[k]))
	}
	return strings.Join(parts, " ")
}

// Stamp fills Time with the current wall clock if unset.
func (e *Entry) Stamp() {
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339)
	}
}

// Append adds one entry to the ledger at path, creating parent
// directories as needed. The whole file is rewritten through an atomic
// rename so a concurrent SIGINT cannot tear it.
func Append(path string, e Entry) error {
	e.Stamp()
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("ledger: marshal entry: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("ledger: mkdir %s: %w", dir, err)
		}
	}
	prev, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ledger: read %s: %w", path, err)
	}
	if len(prev) > 0 && prev[len(prev)-1] != '\n' {
		prev = append(prev, '\n')
	}
	data := append(prev, line...)
	data = append(data, '\n')
	if err := obs.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}

// Read parses the ledger at path in append order. Malformed lines are
// skipped, not fatal; a missing file reads as an empty ledger.
func Read(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", path, err)
	}
	defer f.Close()
	var out []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("ledger: scan %s: %w", path, err)
	}
	return out, nil
}

// FromReport converts a BENCH-style obs report into a ledger entry so
// `figures -trend` can mix the committed BENCH_*.json history into a
// trajectory. Sections land as generic JSON maps: the sweep section
// carries totals, and config fields are recovered from the recorded
// argv. Returns false when the report has no sweep totals to compare.
func FromReport(rep *obs.Report) (Entry, bool) {
	e := Entry{Tool: rep.Tool, Config: map[string]any{}}
	sweep, ok := rep.Sections["sweep"].(map[string]any)
	if !ok {
		return e, false
	}
	num := func(key string) float64 {
		f, _ := sweep[key].(float64)
		return f
	}
	e.States = int64(num("totalStates"))
	e.Edges = int64(num("totalEdges"))
	e.Wirings = int(num("wirings"))
	e.WallSeconds = num("wallSeconds")
	e.StatesPerSec = num("statesPerSec")
	if check, ok := rep.Sections["check"].(map[string]any); ok {
		if name, ok := check["check"].(string); ok {
			e.Check = name
		}
	}
	for k, v := range ConfigFromArgs(rep.Args) {
		e.Config[k] = v
	}
	e.Outcome = "ok"
	return e, e.States > 0
}

// configFlags are the argv flags that define run comparability. Flags
// not listed (e.g. -report, -progress, -trace) do not change what is
// explored and are ignored.
var configFlags = map[string]bool{
	"check": true, "inputs": true, "engine": true, "workers": true,
	"symmetry": true, "mem": true, "crashes": true,
	"nondet": true, "wirings": true, "registers": true, "depth": true,
	"max-states": true, "algo": true, "sched": true, "wiring": true,
	"seed": true, "steps": true,
	// anonsim crash-stream identity and -campaign sweep shape. crash-seed
	// matters because its default derivation changed (splitmix64 split of
	// -seed, historically seed+1): entries on the two rules must not share
	// a trend trajectory.
	"crash-seed": true, "campaign": true, "algos": true, "ns": true,
	"schedulers": true, "seeds": true, "crash-budgets": true,
}

// ConfigFromArgs extracts the comparability-defining -flag value pairs
// from a recorded argv. Both the binaries' own ledger appends and
// FromReport use it, so a live ledger entry and a committed BENCH
// report of the same invocation land in the same trajectory.
func ConfigFromArgs(args []string) map[string]any {
	out := map[string]any{}
	for i := 0; i < len(args); i++ {
		arg := args[i]
		if !strings.HasPrefix(arg, "-") {
			continue
		}
		name := strings.TrimLeft(arg, "-")
		value := ""
		if j := strings.IndexByte(name, '='); j >= 0 {
			name, value = name[:j], name[j+1:]
		} else if i+1 < len(args) && !strings.HasPrefix(args[i+1], "-") {
			value = args[i+1]
			i++
		}
		if configFlags[name] {
			out[name] = value
		}
	}
	return out
}
