package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("steps_total", L("proc", "0"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same identity returns the same handle regardless of label order.
	c2 := r.Counter("steps_total", L("proc", "0"))
	if c2 != c {
		t.Fatal("second lookup returned a different handle")
	}
	if other := r.Counter("steps_total", L("proc", "1")); other == c {
		t.Fatal("different labels returned the same handle")
	}
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("frontier")
	g.Set(10)
	g.Add(2.5)
	if got := g.Value(); got != 12.5 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("wall_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("sum = %v, want 56.05", got)
	}
	_, _, buckets := h.snapshot()
	wantCum := []int64{1, 3, 4, 5} // cumulative: ≤0.1, ≤1, ≤10, +Inf
	for i, b := range buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d (le=%s) = %d, want %d", i, b.Le, b.Count, wantCum[i])
		}
	}
	if buckets[len(buckets)-1].Le != "+Inf" {
		t.Errorf("last bucket le = %q", buckets[len(buckets)-1].Le)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", []float64{1}).Observe(1)
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil registry JSON = %q", buf.String())
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	h := r.Histogram("lat", ExpBuckets(1, 2, 4))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 10))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("runs_total", L("engine", "bfs")).Add(3)
	r.Gauge("states_per_sec").Set(123456.7)
	r.Histogram("wall_seconds", []float64{1, 10}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var pts []MetricPoint
	if err := json.Unmarshal(buf.Bytes(), &pts); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[0].Name != "runs_total" || pts[0].Labels["engine"] != "bfs" || pts[0].Value != 3 {
		t.Errorf("counter point = %+v", pts[0])
	}
}

func TestSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.Emit("run.start", -1, map[string]any{"algo": "snapshot"})
	s.Emit("step", 0, map[string]any{"proc": 1, "op": "write"})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || ev.T != 0 || ev.Type != "step" {
		t.Errorf("event = %+v", ev)
	}
	var nilSink *Sink
	nilSink.Emit("ignored", 0, nil) // must not panic
	if nilSink.Err() != nil || nilSink.Count() != 0 {
		t.Error("nil sink not inert")
	}
}

func TestReportRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("states_total").Add(42)
	rep := NewReport("anonexplore", []string{"-check", "safety"})
	rep.Section("sweep", map[string]any{"wirings": 2, "states": 42})
	rep.AddMetrics(reg)
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "anonexplore" || len(got.Args) != 2 {
		t.Errorf("report header = %+v", got)
	}
	if len(got.Metrics) != 1 || got.Metrics[0].Value != 42 {
		t.Errorf("report metrics = %+v", got.Metrics)
	}
	if _, ok := got.Sections["sweep"]; !ok {
		t.Error("sweep section lost")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Error("report file is not valid JSON")
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := New()
	reg.Counter("hits").Add(7)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	pprofOnly := httptest.NewServer(Handler(nil))
	defer pprofOnly.Close()

	getFrom := func(srv *httptest.Server, path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	get := func(path string) (int, string) { return getFrom(srv, path) }

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var pts []MetricPoint
	if err := json.Unmarshal([]byte(body), &pts); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if len(pts) != 1 || pts[0].Value != 7 {
		t.Errorf("/metrics points = %+v", pts)
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index status %d body %q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d", code)
	}

	// A nil registry serves pprof only: no /metrics, and the index does
	// not list it.
	if code, _ := getFrom(pprofOnly, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("nil registry: /debug/pprof/ status %d", code)
	}
	if code, _ := getFrom(pprofOnly, "/metrics"); code != http.StatusNotFound {
		t.Errorf("nil registry: /metrics status %d, want 404", code)
	}
	if code, body := getFrom(pprofOnly, "/"); code != http.StatusOK || strings.Contains(body, "/metrics") {
		t.Errorf("nil registry: index status %d body %q", code, body)
	}
}

func TestServe(t *testing.T) {
	reg := New()
	addr, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-4, 10, 4)
	want := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}
