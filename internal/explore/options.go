package explore

import (
	"errors"
	"fmt"

	"anonshm/internal/obs/span"
	"anonshm/internal/store"
)

// This file is the checkpoint plumbing behind Run: how a resume is
// matched against the checkpoint it came from, and the shared
// periodic-checkpoint trigger the engines poll.

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

// validateResume matches a loaded checkpoint's metadata against the
// run's identity id (engine, symmetry, root fingerprint, crash budget).
func validateResume(m, id store.Meta) error {
	return firstMismatch([]identityField{
		{"engine", m.Engine, id.Engine},
		{"symmetry", m.Symmetry, id.Symmetry},
		{"initial-state fingerprint", m.InitFP, id.InitFP},
		{"maxCrashes", fmt.Sprint(m.MaxCrashes), fmt.Sprint(id.MaxCrashes)},
	})
}

// identityField is one field of a run or sweep checkpoint identity: the
// value the checkpoint records and the value the run requests.
type identityField struct{ name, checkpoint, requested string }

// firstMismatch reports the first field whose two values differ as a
// *CheckpointMismatchError, or nil when all agree.
func firstMismatch(fields []identityField) error {
	for _, f := range fields {
		if f.checkpoint != f.requested {
			return &CheckpointMismatchError{Field: f.name, Checkpoint: f.checkpoint, Requested: f.requested}
		}
	}
	return nil
}

// ckptState is the engines' shared periodic-checkpoint trigger and
// writer. Run fills the run identity id; the engines hand their
// counters over as a Result at each write.
type ckptState struct {
	dir   string
	every int64
	id    store.Meta // identity fields only
	last  int64      // states at the previous checkpoint
	st    *store.Store
	tr    *span.Tracer
}

// due reports whether a periodic checkpoint should be written at the
// given discovered-state count. Nil-safe.
func (c *ckptState) due(states int64) bool {
	return c != nil && states-c.last >= c.every
}

// write checkpoints the visited set, the engine's pending entries (the
// breadth-first frontier or the depth-first stack) and res's counters,
// which resumedResult reads back.
func (c *ckptState) write(res Result, v *store.Visited, pending []store.Entry) error {
	meta := c.id
	meta.States = int64(res.States)
	meta.Edges = int64(res.Edges)
	meta.Terminals = int64(res.Terminals)
	meta.Pruned = int64(res.Pruned)
	meta.MaxDepth = int32(res.MaxDepth)
	meta.DedupLookups = res.Stats.DedupLookups
	meta.DedupHits = res.Stats.DedupHits
	meta.FrontierPeak = res.Stats.FrontierPeak
	meta.WorkerSteps = res.Stats.WorkerSteps
	for _, info := range res.CycleTrace {
		meta.CycleSteps = append(meta.CycleSteps, store.StepOf(info))
	}
	sp := c.tr.StartArgs("checkpoint.write", "write checkpoint",
		map[string]any{"states": meta.States, "frontier": len(pending)})
	err := store.WriteCheckpoint(c.dir, meta, v, pending)
	sp.End()
	if err != nil {
		return fmt.Errorf("explore: checkpoint: %w", err)
	}
	c.last = meta.States
	c.st.AddCheckpoint()
	return nil
}

// resumedResult reads back the counters ckptState.write recorded in m.
// The cycle verdict is DFS's to restore: its trace replays from the
// root.
func resumedResult(m store.Meta) Result {
	return Result{
		States: int(m.States), Edges: int(m.Edges), Terminals: int(m.Terminals),
		Pruned: int(m.Pruned), MaxDepth: int(m.MaxDepth),
		Stats: Stats{
			DedupLookups: m.DedupLookups, DedupHits: m.DedupHits,
			FrontierPeak: m.FrontierPeak, WorkerSteps: m.WorkerSteps,
		},
	}
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
