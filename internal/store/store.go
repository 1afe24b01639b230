// Package store is the state-storage layer behind the explorer
// engines: the visited set (fingerprint membership with
// insert-if-absent) and the frontier (the discovered-but-unexpanded
// work queue of the breadth-first engine). One dial sizes both:
// Config.MemLimit, a RAM budget. With no budget (0) the visited set and
// the frontier live in RAM and grow as needed, and the store writes no
// file. Under a budget they spill to disk when it is reached, and every
// budget gives the same counts. The visited set holds fingerprints
// only, in one table: a sharded open-addressing hot table over sorted
// runs that only a budget ever writes.
//
// Spilling follows the Mace/DiVinE school of external-memory model
// checking, adapted to states that cannot be serialized (machines are
// live Go objects behind interfaces):
//
//   - The visited set's hot table holds recently inserted
//     fingerprints; when it reaches its budgeted size, the fingerprints
//     are sorted and flushed as a compact append-only run file. Each run
//     carries a small in-RAM sparse index (one fingerprint per 4KiB
//     block of 512 fingerprints) and a bloom filter, so membership
//     probes cost at most one block read per run, and runs are k-way
//     merged into one when their number grows (compaction).
//   - The frontier spills by *path*, not by state: every entry carries
//     the step sequence that produced it from the initial state (a
//     shared-structure linked list, so sibling entries share their
//     ancestor prefix), and spilled segments store those paths
//     delta-encoded against the previous entry. Popping a spilled entry
//     replays its path from the root — O(depth) steps, the price of not
//     holding the state in RAM.
//   - Checkpoints snapshot the visited set (one sorted fingerprint run),
//     the engine's pending work as one path segment (the breadth-first
//     frontier, or the depth-first stack with one entry per frame) and
//     the engine counters into a directory that a later run can resume
//     from, under any budget.
//
// The discovery path is a state's one provenance record: the explorer
// replays it into counterexample traces, so a trace needs no RAM beyond
// the paths the pending entries already hold, and a resumed run
// rebuilds the same trace.
//
// Everything in this package is deterministic: no wall-clock reads, no
// global randomness, and every table is sorted before it is written, so
// identical runs produce identical spill files and checkpoint bytes.
// The package never inspects machine or register *contents* beyond the
// opaque fingerprints and replayed step indices the explorer hands it —
// it is storage for the observer side of the model, inside the
// determinism lint scope and outside the regaccess allowlist.
package store

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"

	"anonshm/internal/machine"
	"anonshm/internal/obs/span"
)

// Kind and its values Mem and Disk are ignored: Config.MemLimit alone
// decides whether anything spills. They remain only because the
// explorebench module sets Config.Kind and explore.Options.Store.
type Kind uint8

// The Kind values the explorebench module sets.
const (
	Mem Kind = iota
	Disk
)

// Bytes is a byte count that parses human-readable sizes ("64MiB",
// "1GiB", "4096") as a flag.Value.
type Bytes int64

// byteUnits in descending suffix-length order so "MiB" wins over "B".
var byteUnits = []struct {
	suffix string
	mult   int64
}{
	{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
	{"KB", 1000}, {"MB", 1000_000}, {"GB", 1000_000_000},
	{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	{"B", 1},
}

// String implements flag.Value.
func (b Bytes) String() string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", int64(b)>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", int64(b)>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", int64(b)>>10)
	default:
		return fmt.Sprintf("%d", int64(b))
	}
}

// Set implements flag.Value.
func (b *Bytes) Set(s string) error {
	for _, u := range byteUnits {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(strings.TrimSuffix(s, u.suffix), "%d", &n); err != nil || n < 0 {
			return fmt.Errorf("store: bad size %q", s)
		}
		*b = Bytes(n * u.mult)
		return nil
	}
	var n int64
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 0 {
		return fmt.Errorf("store: bad size %q (want e.g. 4096, 64MiB, 1GiB)", s)
	}
	*b = Bytes(n)
	return nil
}

// Order selects a frontier's service discipline. FIFO is the only one:
// the breadth-first engine is the only frontier user, and the
// depth-first engine keeps its own stack.
type Order uint8

// FIFO pops oldest-first.
const FIFO Order = 0

// Config configures one Store.
type Config struct {
	// Kind is ignored; see Kind.
	Kind Kind
	// Dir is the scratch directory for visited runs and frontier
	// segments under a budget. Empty means a fresh os.MkdirTemp
	// directory, removed on Close. Without a budget nothing is written
	// and Dir is unused.
	Dir string
	// MemLimit is the RAM budget of the visited hot table and the
	// in-RAM frontier entries, half each; past it both spill to Dir. 0
	// means no ceiling: nothing spills and no directory is made.
	MemLimit Bytes
	// Root is the initial system; the frontier replays the paths of
	// spilled and checkpoint-restored entries from it.
	Root *machine.System
	// Workers is the breadth-first engine's worker count; 0 means 1.
	// Each worker holds two frontier shards (its part of the level being
	// expanded and of the next), so a budget splits its frontier half
	// into 2·Workers shares, and the visited table is sharded by it.
	Workers int
	// Trace, when non-nil, records the store's I/O phases as spans:
	// visited spills and compactions, frontier segment spills/loads, and
	// sampled path replays. Nil disables tracing at no cost.
	Trace *span.Tracer
}

// Entry is one element of an engine's pending work: a discovered state
// the breadth-first frontier has yet to expand, or, in a checkpoint,
// one frame of the depth-first stack.
type Entry struct {
	// Sys is the live state. Nil for entries decoded from a spilled
	// segment or a checkpoint; Frontier.Pop replays Path from the root
	// to rebuild it before returning the entry.
	Sys *machine.System
	// Aux is the engine's 64-bit auxiliary state for this entry.
	Aux uint64
	// Depth is the entry's discovery depth: the steps from the root
	// along the discovering path, which the breadth-first engine makes
	// the state's minimum distance from the root.
	Depth int32
	// Tag is an engine-private value carried through spills and
	// checkpoints. The depth-first engine checkpoints each stack frame's
	// successor cursor in it (-1 before the frame is expanded); the
	// breadth-first engine leaves it 0.
	Tag int64
	// Path is the reversed step list that produced this state from the
	// root, shared structurally with sibling entries: the entry's
	// provenance. Every entry an engine hands the store carries it (nil
	// only at the root): the frontier spills it, checkpoints write it,
	// and the explorer replays it into a counterexample trace.
	Path *PathNode
}

// Stats counts the storage layer's work. All fields are cumulative for
// the lifetime of the Store; read them with Snapshot.
type Stats struct {
	// Spills counts visited hot-table flushes to run files.
	Spills int64
	// Compactions counts run merges.
	Compactions int64
	// Runs is the current number of visited run files.
	Runs int64
	// FrontierSpills counts frontier segments written to disk.
	FrontierSpills int64
	// FrontierLoads counts frontier segments read back.
	FrontierLoads int64
	// Replays counts frontier states rebuilt by path replay.
	Replays int64
	// ReplaySteps counts the machine steps taken by those replays.
	ReplaySteps int64
	// Checkpoints counts checkpoints written through this store's
	// lifetime counters (engines increment it via AddCheckpoint).
	Checkpoints int64
	// DiskBytesWritten is the total bytes written to runs and segments.
	DiskBytesWritten int64
	// DiskBytes is the current on-disk footprint (runs + live segments).
	DiskBytes int64
}

// stats is the shared atomic counter block behind Stats.
type stats struct {
	spills, compactions, runs         atomic.Int64
	frontierSpills, frontierLoads     atomic.Int64
	replays, replaySteps, checkpoints atomic.Int64
	diskWritten, diskBytes            atomic.Int64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Spills:           s.spills.Load(),
		Compactions:      s.compactions.Load(),
		Runs:             s.runs.Load(),
		FrontierSpills:   s.frontierSpills.Load(),
		FrontierLoads:    s.frontierLoads.Load(),
		Replays:          s.replays.Load(),
		ReplaySteps:      s.replaySteps.Load(),
		Checkpoints:      s.checkpoints.Load(),
		DiskBytesWritten: s.diskWritten.Load(),
		DiskBytes:        s.diskBytes.Load(),
	}
}

// Store is a factory for one exploration's visited set and frontier
// shards, sharing a scratch directory, the memory budget and the
// counters.
type Store struct {
	cfg     Config
	dir     string // resolved scratch dir (under a budget)
	ownDir  bool   // we created it; Close removes it
	stats   *stats
	nextSeg atomic.Int64 // segment file sequence, store-wide
}

// Open prepares the store. Under a budget it creates (or adopts) its
// scratch directory; Close removes it only if Open created it. With no
// budget it touches no file.
func Open(cfg Config) (*Store, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	s := &Store{cfg: cfg, stats: &stats{}}
	if cfg.MemLimit <= 0 {
		return s, nil
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "anonshm-store-*")
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.dir, s.ownDir = dir, true
	} else {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.dir = cfg.Dir
	}
	return s, nil
}

// Snapshot returns the current storage counters.
func (s *Store) Snapshot() Stats { return s.stats.snapshot() }

// AddCheckpoint counts one written checkpoint.
func (s *Store) AddCheckpoint() { s.stats.checkpoints.Add(1) }

// NewVisited builds the visited set, sized and flushed by the budget.
// It serves any number of workers, so the argument is ignored; it
// remains only because the explorebench module calls NewVisited with
// it, as it does the never-nil error.
func (s *Store) NewVisited(bool) (*Visited, error) {
	return newVisited(s), nil
}

// NewFrontier builds one frontier shard. With no budget a shard has no
// RAM ceiling and never spills; under one, half the budget feeds the
// frontier, two shards per worker. w and order are ignored: every shard
// pops in FIFO order, the only Order, and both parameters remain only
// because the explorebench module calls NewFrontier with them.
func (s *Store) NewFrontier(w int, order Order) (*Frontier, error) {
	maxRAM := math.MaxInt
	if s.cfg.MemLimit > 0 {
		budget := int64(s.cfg.MemLimit) / 2 / int64(2*s.cfg.Workers)
		maxRAM = max(int(budget/entryRAMEstimate), minFrontierRAM)
	}
	return &Frontier{st: s, maxRAM: maxRAM}, nil
}

// replaySample thins the per-replay spans: replays are a spilling
// frontier's per-pop hot path (millions per run), so only one in
// replaySample gets an event; totals stay unbiased enough to rank
// phases.
const replaySample = 256

// Replay rebuilds e.Sys by replaying e.Path from the root. No-op when
// Sys is already present.
func (s *Store) Replay(e *Entry) error {
	if e.Sys != nil {
		return nil
	}
	if s.cfg.Root == nil {
		return fmt.Errorf("store: cannot replay a spilled entry without Config.Root")
	}
	if s.cfg.Trace != nil && s.stats.replays.Load()%replaySample == 0 {
		defer s.cfg.Trace.Start("store.replay", "path replay").End()
	}
	steps := e.Path.Steps()
	sys := s.cfg.Root.Clone()
	for _, st := range steps {
		if _, err := st.Apply(sys); err != nil {
			return fmt.Errorf("store: replaying spilled path: %w", err)
		}
	}
	s.stats.replays.Add(1)
	s.stats.replaySteps.Add(int64(len(steps)))
	e.Sys = sys
	return nil
}

// segPath returns a fresh segment file path (store-wide sequence, so
// names never collide across frontier shards).
func (s *Store) segPath() string {
	return fmt.Sprintf("%s/seg-%08d.seg", s.dir, s.nextSeg.Add(1))
}

// Close releases the scratch directory if this store created it.
func (s *Store) Close() error {
	if s.ownDir {
		return os.RemoveAll(s.dir)
	}
	return nil
}
