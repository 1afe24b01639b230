// Package obs is the repository's observability substrate: an atomic
// metrics registry (counters, gauges, fixed-bucket histograms with
// labeled families), a structured JSONL event sink, machine-readable run
// reports, and an HTTP handler serving live metrics plus pprof.
//
// The package is dependency-free (standard library only) and built so
// instrumentation can stay compiled into hot loops:
//
//   - Handles, not lookups. Registry.Counter/Gauge/Histogram perform the
//     (locked) name+label lookup once; callers keep the returned handle
//     and the hot path is a single atomic add or store.
//   - Nil is off. Every method on *Registry, *Counter, *Gauge,
//     *Histogram and *Sink is nil-receiver-safe and does nothing, so
//     "instrumentation disabled" is just a nil registry — no branches at
//     call sites, and the no-op path costs about a nanosecond (see
//     BenchmarkCounterDisabled).
//
// The step schedulers (internal/sched) and the goroutine runtime
// (internal/runtime) publish metrics through this package, and
// cmd/anonsim exposes them via -report files, -events and a -http
// introspection endpoint. The explorer (internal/explore) publishes no
// metrics or events: cmd/anonexplore reports a run through the sections
// of its Report, the run ledger (internal/obs/ledger) and the span
// trace (internal/obs/span), and serves pprof only under -http.
// cmd/figures renders report files of both tools back into tables.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically-increasing metric. The zero value is ready;
// a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for the value to stay monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. The zero value is
// ready; a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d via a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind discriminates registry entries.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// entry is one registered metric instance.
type entry struct {
	name   string
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds labeled metric families. A nil *Registry is a valid
// "observability off" registry: every method returns a nil handle whose
// methods are no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// metricID renders the canonical identity of a metric instance:
// name{k1=v1,k2=v2} with label keys sorted.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// get returns the entry for (name, labels), creating it with build on
// first use. Re-registering the same identity with a different kind is a
// programming error and panics.
func (r *Registry) get(name string, kind metricKind, labels []Label, build func(e *entry)) *entry {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[id]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", id, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: append([]Label(nil), labels...), kind: kind}
	build(e)
	r.metrics[id] = e
	return e
}

// Counter returns the counter for (name, labels), creating it on first
// use. Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter, labels, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, kindGauge, labels, func(e *entry) { e.g = &Gauge{} }).g
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use (later calls reuse the
// existing buckets). Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, kindHistogram, labels, func(e *entry) { e.h = newHistogram(buckets) }).h
}

// BucketCount is one histogram bucket in a snapshot. Le is the bucket's
// inclusive upper bound rendered as a string ("+Inf" for the overflow
// bucket) so snapshots stay valid JSON.
type BucketCount struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// MetricPoint is one metric instance at snapshot time.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	// Value is the counter count or gauge level (absent for histograms).
	Value float64 `json:"value"`
	// Count and Sum summarize a histogram's observations.
	Count   int64         `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric, sorted by identity. A nil
// registry snapshots to nil.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ids := make([]string, 0, len(r.metrics))
	for id := range r.metrics {
		ids = append(ids, id)
	}
	entries := make([]*entry, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		entries = append(entries, r.metrics[id])
	}
	r.mu.Unlock()

	out := make([]MetricPoint, 0, len(entries))
	for _, e := range entries {
		p := MetricPoint{Name: e.name, Kind: string(e.kind)}
		if len(e.labels) > 0 {
			p.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				p.Labels[l.Key] = l.Value
			}
		}
		switch e.kind {
		case kindCounter:
			p.Value = float64(e.c.Value())
		case kindGauge:
			p.Value = e.g.Value()
		case kindHistogram:
			p.Count, p.Sum, p.Buckets = e.h.snapshot()
		}
		out = append(out, p)
	}
	return out
}

// WriteJSON writes the snapshot as an indented JSON array — the payload
// of the /metrics HTTP endpoint and of report files.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = []MetricPoint{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
