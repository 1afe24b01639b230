package explore

import (
	"time"

	"anonshm/internal/store"
)

// Stats instruments an exploration: how fast the engine ran, how much
// frontier it had to hold, how often deduplication paid off, and how
// evenly the breadth-first workers spread the work. Every engine fills
// it.
type Stats struct {
	// Engine is the engine that ran.
	Engine Engine
	// Symmetry names the canonicalizer the run fingerprinted under
	// ("none", "proc", "full").
	Symmetry string
	// GroupSize is the number of admissible symmetry-group elements the
	// canonicalizer bound for the initial system (1 = no reduction).
	GroupSize int
	// Workers is the number of expansion workers: Options.Workers
	// resolved for BFSEngine, 1 for DFSEngine.
	Workers int
	// WallTime is the end-to-end duration of the search.
	WallTime time.Duration
	// FrontierPeak is the largest number of discovered-but-unexpanded
	// states held at once (stack for DFS; for the breadth-first engine,
	// both levels' shards of every worker plus the states being
	// expanded).
	FrontierPeak int
	// DedupLookups counts fingerprint-table probes (one per generated
	// successor, plus one for the initial state).
	DedupLookups int64
	// DedupHits counts probes that found an already-known state; the hit
	// rate DedupHits/DedupLookups is how much work fingerprinting saved.
	DedupHits int64
	// WorkerSteps is the number of states expanded by each worker; a
	// skewed distribution means the workers did not share the levels
	// evenly.
	WorkerSteps []int64
	// Store counts the storage layer's work: spills, compactions, path
	// replays, checkpoints and disk bytes. Spills, compactions and disk
	// bytes stay zero with no Options.MemLimit budget.
	Store store.Stats
}

// DedupHitRate is DedupHits/DedupLookups (0 when no lookups).
func (s Stats) DedupHitRate() float64 { return ratio(float64(s.DedupHits), float64(s.DedupLookups)) }

// StatesPerSec is States divided by Stats.WallTime (0 when no time
// was recorded).
func (r Result) StatesPerSec() float64 { return ratio(float64(r.States), r.Stats.WallTime.Seconds()) }

// ratio is n/d, or 0 when d is not positive.
func ratio(n, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return n / d
}

// Merge folds another run's stats into s, for sweeps over many wirings:
// durations and counters add, peaks take the maximum, and the per-worker
// step counts add element-wise.
func (s *Stats) Merge(o Stats) {
	s.Engine = o.Engine
	if s.Symmetry == "" {
		s.Symmetry = o.Symmetry
	}
	if o.GroupSize > s.GroupSize {
		s.GroupSize = o.GroupSize
	}
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.WallTime += o.WallTime
	if o.FrontierPeak > s.FrontierPeak {
		s.FrontierPeak = o.FrontierPeak
	}
	s.DedupLookups += o.DedupLookups
	s.DedupHits += o.DedupHits
	for len(s.WorkerSteps) < len(o.WorkerSteps) {
		s.WorkerSteps = append(s.WorkerSteps, 0)
	}
	for i, n := range o.WorkerSteps {
		s.WorkerSteps[i] += n
	}
	s.Store.Spills += o.Store.Spills
	s.Store.Compactions += o.Store.Compactions
	if o.Store.Runs > s.Store.Runs {
		s.Store.Runs = o.Store.Runs
	}
	s.Store.FrontierSpills += o.Store.FrontierSpills
	s.Store.FrontierLoads += o.Store.FrontierLoads
	s.Store.Replays += o.Store.Replays
	s.Store.ReplaySteps += o.Store.ReplaySteps
	s.Store.Checkpoints += o.Store.Checkpoints
	s.Store.DiskBytesWritten += o.Store.DiskBytesWritten
	if o.Store.DiskBytes > s.Store.DiskBytes {
		s.Store.DiskBytes = o.Store.DiskBytes
	}
}
