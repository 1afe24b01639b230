package explore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"anonshm/internal/obs"
	"anonshm/internal/store"
)

// Sweep-level checkpointing. A wiring sweep (CheckSnapshotSafety,
// CheckSnapshotWaitFree, CheckConsensusBounded) is many independent Run
// calls; its checkpoint directory layers on top of the per-run format:
//
//	<dir>/sweep.json — the sweep identity (check, engine, symmetry,
//	                   inputs, wiring filter, nondet, level, solo bound,
//	                   timestamp bound, crash budget), the number of
//	                   wirings fully explored, and the accumulated
//	                   SweepResult
//	<dir>/run        — a per-run checkpoint (store.WriteCheckpoint) of
//	                   the wiring in flight, removed when it completes
//
// sweep.json is rewritten (atomically) after every completed wiring; a
// resume matches the identity field by field, skips the completed
// wirings, re-enters the in-flight one through Options.Resume when
// <dir>/run exists, and continues accumulating into the restored
// totals. The identity must be complete on its own: state keys exclude
// both the wirings and the termination level, so the run checkpoint's
// root fingerprint cannot tell a wiring filter or a level apart.

// sweepMetaVersion versions sweep.json alongside store.MetaVersion.
// Version 3 added the per-wiring rows to the accumulated SweepResult;
// version 4 renumbered Engine, which the accumulated Stats record as a
// number.
const sweepMetaVersion = 4

// sweepCheckpoint is the sweep.json document: the sweep identity, which
// a resume must match field by field, then the progress made.
type sweepCheckpoint struct {
	Version      int         `json:"version"`
	Check        string      `json:"check"`
	Engine       string      `json:"engine"`
	Symmetry     string      `json:"symmetry"`
	Inputs       []string    `json:"inputs"`
	Wirings      string      `json:"wirings"`
	Nondet       bool        `json:"nondet"`
	Level        int         `json:"level"`
	SoloBound    int         `json:"soloBound"`
	MaxTimestamp int         `json:"maxTimestamp"`
	MaxCrashes   int         `json:"maxCrashes"`
	Completed    int         `json:"completed"`
	Sweep        SweepResult `json:"sweep"`
}

func sweepMetaPath(dir string) string { return filepath.Join(dir, "sweep.json") }

// sweepRunDir is the per-run checkpoint directory inside a sweep
// checkpoint.
func sweepRunDir(dir string) string { return filepath.Join(dir, "run") }

// loadSweepCheckpoint reads <dir>/sweep.json and matches it against the
// requested identity id.
func loadSweepCheckpoint(dir string, id sweepCheckpoint) (*sweepCheckpoint, error) {
	blob, err := os.ReadFile(sweepMetaPath(dir))
	if err != nil {
		return nil, fmt.Errorf("explore: resume: %w", err)
	}
	var sc sweepCheckpoint
	if err := json.Unmarshal(blob, &sc); err != nil {
		return nil, fmt.Errorf("explore: resume: %s: %w", sweepMetaPath(dir), err)
	}
	if sc.Version != sweepMetaVersion {
		return nil, fmt.Errorf("explore: resume: sweep checkpoint has version %d; this build reads version %d", sc.Version, sweepMetaVersion)
	}
	if err := firstMismatch([]identityField{
		{"check", sc.Check, id.Check},
		{"engine", sc.Engine, id.Engine},
		{"symmetry", sc.Symmetry, id.Symmetry},
		{"inputs", fmt.Sprintf("%q", sc.Inputs), fmt.Sprintf("%q", id.Inputs)},
		{"wirings", sc.Wirings, id.Wirings},
		{"nondet", fmt.Sprint(sc.Nondet), fmt.Sprint(id.Nondet)},
		{"level", fmt.Sprint(sc.Level), fmt.Sprint(id.Level)},
		{"soloBound", fmt.Sprint(sc.SoloBound), fmt.Sprint(id.SoloBound)},
		{"maxTimestamp", fmt.Sprint(sc.MaxTimestamp), fmt.Sprint(id.MaxTimestamp)},
		{"maxCrashes", fmt.Sprint(sc.MaxCrashes), fmt.Sprint(id.MaxCrashes)},
	}); err != nil {
		return nil, err
	}
	return &sc, nil
}

// writeSweepCheckpoint atomically rewrites <dir>/sweep.json — through
// the shared fsync+rename helper, so a kill mid-rewrite cannot leave a
// torn sweep.json that would poison the next resume.
func writeSweepCheckpoint(dir string, sc sweepCheckpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("explore: sweep checkpoint: %w", err)
	}
	blob, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return fmt.Errorf("explore: sweep checkpoint: %w", err)
	}
	if err := obs.WriteFileAtomic(sweepMetaPath(dir), append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("explore: sweep checkpoint: %w", err)
	}
	return nil
}

// runSweep is the one wiring-sweep driver: it calls body once per
// assignment wo keeps, for len(id.Inputs) processors over as many
// registers (the paper's algorithms use N), and accumulates the
// results. id is the check's half of the sweep identity; runSweep fills
// in the engine, symmetry and crash budget from opts and the filter from
// wo. opts.Checkpoint and opts.Resume name the sweep directory; body
// gets opts with both rewritten to the run checkpoint of the wiring in
// flight, sets the check's Invariant (and Prune), and calls Run.
func runSweep(id sweepCheckpoint, opts Options, wo WiringOptions, body func(perms [][]int, opts Options) (Result, error)) (SweepResult, error) {
	var sweep SweepResult
	if err := rejectOwned(id.Check, opts); err != nil {
		return sweep, err
	}
	id.Version = sweepMetaVersion
	id.Engine = opts.Engine.String()
	id.Symmetry = opts.canonicalizer().String()
	id.Wirings = wo.Filter.String()
	id.MaxCrashes = opts.MaxCrashes
	sweepSpan := opts.Trace.StartArgs("sweep", "sweep "+id.Check,
		map[string]any{"check": id.Check, "engine": id.Engine, "symmetry": id.Symmetry})
	defer sweepSpan.End()
	dir, resumeDir := opts.Checkpoint, opts.Resume
	completed := 0
	if resumeDir != "" {
		sc, err := loadSweepCheckpoint(resumeDir, id)
		if err != nil {
			return sweep, err
		}
		completed, sweep = sc.Completed, sc.Sweep
	} else if dir != "" {
		// Seed sweep.json before the first wiring so a cancel at any
		// point — even inside wiring 0 — leaves a resumable directory.
		if err := writeSweepCheckpoint(dir, id); err != nil {
			return sweep, err
		}
	}
	idx := 0
	n := len(id.Inputs)
	err := forEachWiring(n, n, wo, func(perms [][]int) error {
		i := idx
		idx++
		if i < completed {
			return nil
		}
		run := opts
		run.Checkpoint, run.Resume = "", ""
		if dir != "" {
			run.Checkpoint = sweepRunDir(dir)
		}
		if resumeDir != "" && i == completed {
			// Re-enter the wiring that was in flight when the sweep
			// stopped, if its run checkpoint exists (the sweep may also
			// have stopped exactly between wirings). A run checkpoint
			// that exists but does not load, e.g. one in an older
			// format, fails the resume instead of being redone.
			_, err := store.LoadCheckpoint(sweepRunDir(resumeDir))
			switch {
			case err == nil:
				run.Resume = sweepRunDir(resumeDir)
			case !errors.Is(err, fs.ErrNotExist):
				return fmt.Errorf("explore: resume: %w", err)
			}
		}
		wsp := opts.Trace.StartArgs("wiring", fmt.Sprintf("wiring %d", i),
			map[string]any{"wiring": i})
		res, err := body(perms, run)
		wsp.End()
		sweep.accumulate(res)
		if err != nil {
			return err
		}
		if dir != "" {
			if err := os.RemoveAll(sweepRunDir(dir)); err != nil {
				return fmt.Errorf("explore: sweep checkpoint: %w", err)
			}
			sc := id
			sc.Completed, sc.Sweep = i+1, sweep
			if err := writeSweepCheckpoint(dir, sc); err != nil {
				return err
			}
		}
		return nil
	})
	return sweep, err
}
