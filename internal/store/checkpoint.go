package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoints. A checkpoint is a directory:
//
//	meta.json    — Meta: format version, run identity (engine, symmetry,
//	               root fingerprint, crash budget), cumulative counters
//	               and the depth-first engine's first back edge
//	               (CycleSteps)
//	visited.fp   — the visited set as one sorted fingerprint run ("ANVF")
//	frontier.seg — the pending work as one path segment ("ANSF"): the
//	               breadth-first frontier, or the depth-first stack, one
//	               entry per frame from the root up, each frame's
//	               successor cursor in Entry.Tag
//
// Writes are atomic: everything lands in <dir>.tmp, which is renamed
// over <dir> last, so a checkpoint directory is always complete. The
// format is versioned (MetaVersion / the file headers) and carries no
// compatibility machinery: a resume across builds whose formats differ
// is rejected, not migrated.

// MetaVersion is the checkpoint metadata version this build reads and
// writes. Version 2 fingerprints states by one hash of their canonical
// word encoding, so a version-1 visited set and root fingerprint name
// other states. Version 3 frontier records no longer carry a
// re-expansion flag, and breadth-first checkpoints record MaxDepth,
// which a version-2 one leaves at 0. Version 4 visited sets hold bare
// 8-byte fingerprints (run format version 2), where version 3 ones
// held 12-byte (fingerprint, depth) records. Version 5 writes the
// depth-first stack into frontier.seg, one entry per frame, where
// version 4 wrote it into meta.json with four cursors per frame.
// Version 6 records a found cycle as CycleSteps, the back edge's steps
// from the root, so a resume rebuilds its trace; version 5 recorded a
// bare cycle flag, which this build would read as no cycle at all.
const MetaVersion = 6

const (
	metaName     = "meta.json"
	visitedName  = "visited.fp"
	frontierName = "frontier.seg"
)

// Meta identifies and sizes a checkpointed run.
type Meta struct {
	Version int `json:"version"`

	// Run identity: a resume must match all of these.
	Engine     string `json:"engine"`
	Symmetry   string `json:"symmetry"`
	InitFP     string `json:"initFP"` // root fingerprint, hex: pins system+inputs+canonicalizer
	MaxCrashes int    `json:"maxCrashes"`

	// Cumulative counters at the checkpoint instant.
	States       int64   `json:"states"`
	Edges        int64   `json:"edges"`
	Terminals    int64   `json:"terminals"`
	Pruned       int64   `json:"pruned"`
	MaxDepth     int32   `json:"maxDepth"`
	DedupLookups int64   `json:"dedupLookups"`
	DedupHits    int64   `json:"dedupHits"`
	FrontierPeak int     `json:"frontierPeak"`
	WorkerSteps  []int64 `json:"workerSteps,omitempty"`
	// CycleSteps is the first DFS back edge found before the
	// checkpoint, as steps from the root to the revisited state: a
	// resumed run keeps the cycle verdict and replays its trace. Empty
	// when no cycle was found.
	CycleSteps []Step `json:"cycleSteps,omitempty"`
}

// Checkpoint is a loaded checkpoint directory.
type Checkpoint struct {
	Meta Meta
	Dir  string
}

// WriteCheckpoint atomically replaces dir with a checkpoint of v and
// the engine's pending entries (each carrying its Path). The caller
// fills every Meta field but the version.
func WriteCheckpoint(dir string, meta Meta, v *Visited, pending []Entry) error {
	meta.Version = MetaVersion
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := v.WriteFPFile(filepath.Join(tmp, visitedName)); err != nil {
		return err
	}
	if _, err := writeSegFile(filepath.Join(tmp, frontierName), pending); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, metaName), append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint directory's metadata.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	blob, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		return nil, fmt.Errorf("store: loading checkpoint: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return nil, fmt.Errorf("store: loading checkpoint %s: %w", dir, err)
	}
	if meta.Version != MetaVersion {
		return nil, fmt.Errorf("store: checkpoint %s has format version %d; this build reads version %d (checkpoints do not migrate across format changes)",
			dir, meta.Version, MetaVersion)
	}
	return &Checkpoint{Meta: meta, Dir: dir}, nil
}

// LoadVisited fills v with the checkpoint's visited set.
func (c *Checkpoint) LoadVisited(v *Visited) error {
	return v.LoadFPFile(filepath.Join(c.Dir, visitedName))
}

// Frontier decodes the checkpoint's pending entries in the order they
// were written, with Sys nil and Path set.
func (c *Checkpoint) Frontier() ([]Entry, error) {
	return readSegFile(filepath.Join(c.Dir, frontierName))
}
