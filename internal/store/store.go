// Package store is the state-storage layer behind the explorer
// engines: the visited set (fingerprint membership with
// insert-if-absent) and the frontier (the discovered-but-unexpanded
// work queue of the breadth-first engine). Every engine runs either
// fully in RAM (Mem) or out-of-core (Disk) when the state space exceeds
// memory; both tiers give the same counts. The visited set holds
// fingerprints only, in one table per tier: a sharded open-addressing
// table on the mem tier, the hot table and sorted runs below on the
// disk tier. The frontier is one type on both tiers; only the disk tier
// gives it a RAM ceiling.
//
// The disk tier follows the Mace/DiVinE school of external-memory model
// checking, adapted to states that cannot be serialized (machines are
// live Go objects behind interfaces):
//
//   - The visited set keeps a bounded in-RAM hot table of recently
//     inserted fingerprints; when it fills, the fingerprints are sorted
//     and flushed as a compact append-only run file. Each run carries a
//     small in-RAM sparse index (one fingerprint per 4KiB block of 512
//     fingerprints) and a bloom filter, so membership probes cost at
//     most one block read per run, and runs are k-way merged into one
//     when their number grows (compaction).
//   - The frontier spills, on this tier only, by *path*, not by state:
//     every entry carries the step sequence that produced it from the
//     initial state (a shared-structure linked list, so sibling entries
//     share their ancestor prefix), and spilled segments store those
//     paths delta-encoded against the previous entry. Popping a spilled
//     entry replays its path from the root — O(depth) steps, the price
//     of not holding the state in RAM.
//   - Checkpoints snapshot the visited set (one sorted fingerprint run),
//     the engine's pending work as one path segment (the breadth-first
//     frontier, or the depth-first stack with one entry per frame) and
//     the engine counters into a directory that a later run can resume
//     from.
//
// On both tiers the discovery path is a state's one provenance record:
// the explorer replays it into counterexample traces, so a trace needs
// no RAM beyond the paths the pending entries already hold, and a
// resumed run rebuilds the same trace.
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

// Kind selects the storage tier. The zero value is Mem.
type Kind uint8

const (
	// Mem keeps the visited set and frontier fully in RAM, bounded only
	// by memory.
	Mem Kind = iota
	// Disk bounds RAM use by Config.MemLimit and spills the visited set
	// (sorted fingerprint runs) and frontier (delta-encoded path
	// segments) to Config.Dir.
	Disk
)

// String implements flag.Value.
func (k Kind) String() string {
	switch k {
	case Mem:
		return "mem"
	case Disk:
		return "disk"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Set implements flag.Value, so cmd binaries register -store directly.
func (k *Kind) Set(s string) error {
	switch s {
	case "", "mem":
		*k = Mem
	case "disk":
		*k = Disk
	default:
		return fmt.Errorf("store: unknown store kind %q (want mem or disk)", s)
	}
	return nil
}

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

// DefaultMemLimit is the disk tier's RAM ceiling when none is given.
const DefaultMemLimit = Bytes(256 << 20)

// Order selects a frontier's service discipline. FIFO is the only one:
// the breadth-first engine is the only frontier user, and the
// depth-first engine keeps its own stack.
type Order uint8

// FIFO pops oldest-first.
const FIFO Order = 0

// Config configures one Store.
type Config struct {
	// Kind selects the tier (Mem by default).
	Kind Kind
	// Dir is the disk tier's scratch directory. Empty means a fresh
	// os.MkdirTemp directory, removed on Close.
	Dir string
	// MemLimit is the disk tier's RAM ceiling for the visited hot table
	// and in-RAM frontier segments (0 = DefaultMemLimit). The mem tier
	// rejects it — that is the caller's validation job (the explorer
	// reports an UnsupportedOptionError).
	MemLimit Bytes
	// Root is the initial system; the disk tier replays spilled frontier
	// paths from it. Required for Disk and for checkpoint resume.
	Root *machine.System
	// Workers is the number of engine workers; 0 means 1. Each worker
	// holds two frontier shards (the level it expands and the next), so
	// the disk tier splits the frontier half of MemLimit into 2·Workers
	// shares, and the mem tier sizes its visited table's shards by it.
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
	// segment or checkpoint, on either tier; Frontier.Pop replays Path
	// from the root to rebuild it before returning the entry, but
	// StealHalf hands such an entry over as it is.
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
	// only at the root): the disk tier's frontier spills it, checkpoints
	// write it, and the explorer replays it into a counterexample trace.
	Path *PathNode
}

// VisitedSet is fingerprint membership with insert-if-absent. It holds
// fingerprints only: engines track their own depths. Both tiers' sets
// are safe for concurrent use.
type VisitedSet interface {
	// Insert records fp; fresh reports that it was absent. err is I/O
	// failure in the disk tier (the mem tier never fails). depth is
	// ignored and improved is always false: both remain only because
	// the explorebench module calls Insert with this signature.
	Insert(fp uint64, depth int32) (fresh, improved bool, err error)
	// Len returns the number of distinct fingerprints inserted.
	Len() int64
	// WriteFPFile writes the set as one sorted fingerprint run at path
	// (the checkpoint format, loadable by LoadFPFile).
	WriteFPFile(path string) error
	// LoadFPFile replaces the set's contents with a run previously
	// written by WriteFPFile.
	LoadFPFile(path string) error
	// Close releases any resources (disk runs).
	Close() error
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
	dir     string // resolved scratch dir (disk tier)
	ownDir  bool   // we created it; Close removes it
	stats   *stats
	nextSeg atomic.Int64 // segment file sequence, store-wide
}

// Open validates cfg and prepares the store. The disk tier creates (or
// adopts) its scratch directory; Close removes it only if Open created
// it.
func Open(cfg Config) (*Store, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	s := &Store{cfg: cfg, stats: &stats{}}
	if cfg.Kind == Disk {
		if cfg.Root == nil {
			return nil, fmt.Errorf("store: disk tier needs Config.Root for path replay")
		}
		if cfg.MemLimit <= 0 {
			s.cfg.MemLimit = DefaultMemLimit
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
	}
	return s, nil
}

// Kind returns the store's tier.
func (s *Store) Kind() Kind { return s.cfg.Kind }

// Snapshot returns the current storage counters.
func (s *Store) Snapshot() Stats { return s.stats.snapshot() }

// AddCheckpoint counts one written checkpoint.
func (s *Store) AddCheckpoint() { s.stats.checkpoints.Add(1) }

// NewVisited builds the visited set: the sharded open-addressing table
// on the mem tier, the hot table and runs on the disk tier. Both serve
// any number of workers, so the argument is ignored; it remains only
// because the explorebench module calls NewVisited with it.
func (s *Store) NewVisited(bool) (VisitedSet, error) {
	switch s.cfg.Kind {
	case Mem:
		return newMemTable(s.cfg.Workers), nil
	case Disk:
		// Half the budget feeds the visited hot table; the frontier
		// shards split the rest.
		return newDiskVisited(s, int64(s.cfg.MemLimit)/2)
	default:
		return nil, fmt.Errorf("store: unknown kind %v", s.cfg.Kind)
	}
}

// NewFrontier builds one frontier shard. A mem-tier shard has no RAM
// ceiling and never spills. w and order are ignored: every shard pops
// in FIFO order, the only Order, and both parameters remain only
// because the explorebench module calls NewFrontier with them.
func (s *Store) NewFrontier(w int, order Order) (*Frontier, error) {
	switch s.cfg.Kind {
	case Mem:
		return &Frontier{st: s, maxRAM: math.MaxInt}, nil
	case Disk:
		// Half the budget feeds the frontier: two shards per worker.
		budget := int64(s.cfg.MemLimit) / 2 / int64(2*s.cfg.Workers)
		return &Frontier{st: s, maxRAM: max(int(budget/diskEntryEstimate), minFrontierRAM)}, nil
	default:
		return nil, fmt.Errorf("store: unknown kind %v", s.cfg.Kind)
	}
}

// replaySample thins the per-replay spans: replays are the disk tier's
// per-pop hot path (millions per run), so only one in replaySample gets
// an event; totals stay unbiased enough to rank phases.
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
