package explore

import (
	"errors"
	"fmt"

	"anonshm/internal/machine"
	"anonshm/internal/obs/span"
	"anonshm/internal/store"
)

// This file is the option-validation and checkpoint plumbing behind
// Run: which (engine, store, feature) combinations are meaningful, how
// a resume is matched against the checkpoint it came from, and the
// shared periodic-checkpoint trigger the engines poll.

// ErrCanceled is returned (wrapped with partial results) when
// Options.Cancel fires mid-search. If Options.Checkpoint is set, a
// final checkpoint is written before returning, so a canceled run can
// be resumed.
var ErrCanceled = errors.New("explore: canceled")

// DefaultCheckpointEvery is the checkpoint cadence (in discovered
// states) when Options.Checkpoint is set but CheckpointEvery is not.
const DefaultCheckpointEvery = 1_000_000

// CheckpointMismatchError reports a Resume whose options contradict
// what the checkpoint records: resuming under a different engine,
// symmetry, system (root fingerprint) or crash budget would silently
// corrupt the search, so it is rejected instead.
type CheckpointMismatchError struct {
	Field      string
	Checkpoint string
	Requested  string
}

// Error implements error.
func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("explore: resume: checkpoint records %s=%s but the run requests %s=%s",
		e.Field, e.Checkpoint, e.Field, e.Requested)
}

// validateOptions rejects option combinations no engine/store pair can
// honor. engine is already resolved (never AutoEngine).
func validateOptions(engine Engine, opts *Options) error {
	if opts.Store == store.Mem {
		if opts.MemLimit != 0 {
			return &UnsupportedOptionError{Store: "mem", Option: "MemLimit",
				Hint: "the in-RAM store has no spill ceiling; use Store: store.Disk (-store disk)"}
		}
		if opts.StoreDir != "" {
			return &UnsupportedOptionError{Store: "mem", Option: "StoreDir",
				Hint: "the in-RAM store writes nothing; use Store: store.Disk (-store disk)"}
		}
	}
	if opts.Resume != "" && opts.Traces {
		return &UnsupportedOptionError{Engine: engine, Option: "Resume with Traces",
			Hint: "checkpoints do not persist parent logs; rerun without Resume for a traced counterexample"}
	}
	return nil
}

// validateResume matches a loaded checkpoint against the run's identity
// (engine, symmetry, root fingerprint, crash budget).
func validateResume(ck *store.Checkpoint, engine Engine, symmetry, initFP string, maxCrashes int) error {
	m := ck.Meta
	if m.Engine != engine.String() {
		return &CheckpointMismatchError{Field: "engine", Checkpoint: m.Engine, Requested: engine.String()}
	}
	if m.Symmetry != symmetry {
		return &CheckpointMismatchError{Field: "symmetry", Checkpoint: m.Symmetry, Requested: symmetry}
	}
	if m.InitFP != initFP {
		return &CheckpointMismatchError{Field: "initial-state fingerprint", Checkpoint: m.InitFP, Requested: initFP}
	}
	if m.MaxCrashes != maxCrashes {
		return &CheckpointMismatchError{Field: "maxCrashes",
			Checkpoint: fmt.Sprint(m.MaxCrashes), Requested: fmt.Sprint(maxCrashes)}
	}
	return nil
}

// ckptState is the engines' shared periodic-checkpoint trigger. The
// identity half of meta is prefilled by Run; engines fill the counters
// at each write.
type ckptState struct {
	dir   string
	every int64
	meta  store.Meta // identity fields only
	last  int64      // states at the previous checkpoint
	st    *store.Store
	tr    *span.Tracer
}

// due reports whether a periodic checkpoint should be written at the
// given discovered-state count. Nil-safe.
func (c *ckptState) due(states int64) bool {
	return c != nil && states-c.last >= c.every
}

// write checkpoints the visited set plus either a frontier snapshot or
// a DFS stack (in meta.Stack), with meta's counter fields already
// filled by the engine.
func (c *ckptState) write(meta store.Meta, v store.VisitedSet, frontier []store.Entry, states int64) error {
	meta.Engine = c.meta.Engine
	meta.Symmetry = c.meta.Symmetry
	meta.InitFP = c.meta.InitFP
	meta.MaxCrashes = c.meta.MaxCrashes
	sp := c.tr.StartArgs("checkpoint.write", "write checkpoint",
		map[string]any{"states": states, "frontier": len(frontier)})
	err := store.WriteCheckpoint(c.dir, meta, v, frontier)
	sp.End()
	if err != nil {
		return err
	}
	c.last = states
	c.st.AddCheckpoint()
	return nil
}

// canceled reports whether opts.Cancel has fired. Nil-safe, never
// blocks.
func canceled(opts *Options) bool {
	if opts.Cancel == nil {
		return false
	}
	select {
	case <-opts.Cancel:
		return true
	default:
		return false
	}
}

// packStepInfo converts an executed step to the store's packed path
// representation.
func packStepInfo(info machine.StepInfo) store.Step {
	if info.Op.Kind == machine.OpCrash {
		return store.PackCrash(info.Proc)
	}
	return store.PackStep(info.Proc, info.Choice)
}
