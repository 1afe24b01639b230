package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"anonshm/internal/core"
	"anonshm/internal/machine"
)

// xorshift is the tests' deterministic fingerprint stream.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func TestBytesFlag(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
		err  bool
	}{
		{"64MiB", 64 << 20, false},
		{"1GiB", 1 << 30, false},
		{"2KiB", 2048, false},
		{"4096", 4096, false},
		{"512B", 512, false},
		{"1M", 1 << 20, false},
		{"10MB", 10_000_000, false},
		{"-5", 0, true},
		{"fast", 0, true},
	}
	for _, c := range cases {
		var b Bytes
		err := b.Set(c.in)
		if (err != nil) != c.err {
			t.Errorf("Set(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && b != c.want {
			t.Errorf("Set(%q) = %d, want %d", c.in, b, c.want)
		}
	}
	if got := Bytes(64 << 20).String(); got != "64MiB" {
		t.Errorf("String() = %q, want 64MiB", got)
	}
	var rt Bytes
	if err := rt.Set(Bytes(3 << 30).String()); err != nil || rt != 3<<30 {
		t.Errorf("round trip: %v %d", err, rt)
	}
}

func TestStepPacking(t *testing.T) {
	for _, proc := range []int{0, 1, 5, 63} {
		for _, choice := range []int{0, 1, 7, 1000} {
			s := PackStep(proc, choice)
			if s.Crash() || s.Proc() != proc || s.Choice() != choice {
				t.Fatalf("PackStep(%d,%d) decoded to crash=%v proc=%d choice=%d",
					proc, choice, s.Crash(), s.Proc(), s.Choice())
			}
		}
		c := PackCrash(proc)
		if !c.Crash() || c.Proc() != proc {
			t.Fatalf("PackCrash(%d) decoded to crash=%v proc=%d", proc, c.Crash(), c.Proc())
		}
	}
}

func TestPathSharing(t *testing.T) {
	root := (*PathNode)(nil).Extend(PackStep(0, 0))
	a := root.Extend(PackStep(1, 0))
	b := root.Extend(PackCrash(1))
	if a.Parent != root || b.Parent != root {
		t.Fatal("siblings must share the parent node")
	}
	steps := a.Steps()
	if len(steps) != 2 || steps[0] != PackStep(0, 0) || steps[1] != PackStep(1, 0) {
		t.Fatalf("Steps() = %v", steps)
	}
}

// budgets are the RAM budgets the shared tests run under, named for
// where the fingerprints end up: all in the in-RAM table with no
// budget, or partly in run files on disk under one that spills.
var budgets = []struct {
	name  string
	limit Bytes
}{{"memTable", 0}, {"disk", 1 << 20}}

// openVisited opens a store under the budget limit (0 = none) and its
// visited set, both closed when the test ends.
func openVisited(t *testing.T, limit Bytes) (*Store, *Visited) {
	t.Helper()
	st, err := Open(Config{Dir: t.TempDir(), MemLimit: limit, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.NewVisited(false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		v.Close()
		st.Close()
	})
	return st, v
}

// testRoot builds a root system whose processor 0 is always enabled
// (the never-terminating write-scan loop), so any step sequence of
// (proc 0, choice 0) is a valid replay path.
func testRoot(t *testing.T) *machine.System {
	t.Helper()
	sys, _, err := core.NewWriteScanSystem(core.Config{Inputs: []string{"a", "b"}, Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// fpFileSet writes v as a checkpoint fp file and reads it back as a
// fingerprint set.
func fpFileSet(t *testing.T, v *Visited) map[uint64]bool {
	t.Helper()
	path := filepath.Join(t.TempDir(), "visited.fp")
	if err := v.WriteFPFile(path); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	if err := readFPRun(path, func(fp uint64) error {
		got[fp] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestVisitedConformance(t *testing.T) {
	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			_, v := openVisited(t, b.limit)
			const n = 50_000
			fp := uint64(0xdecafbad)
			fps := make([]uint64, 0, n)
			want := map[uint64]bool{0: true}
			for i := 0; i < n; i++ {
				fp = xorshift(fp)
				fps = append(fps, fp)
				want[fp] = true
				fresh, improved, err := v.Insert(fp, int32(i%97))
				if err != nil {
					t.Fatal(err)
				}
				if !fresh || improved {
					t.Fatalf("first insert of %#x: fresh=%v improved=%v", fp, fresh, improved)
				}
			}
			// Zero fingerprint round-trips (open-addressing substitution).
			if fresh, _, err := v.Insert(0, 3); err != nil || !fresh {
				t.Fatalf("insert of fp 0: fresh=%v err=%v", fresh, err)
			}
			if fresh, _, err := v.Insert(0, 3); err != nil || fresh {
				t.Fatalf("re-insert of fp 0: fresh=%v err=%v", fresh, err)
			}
			if got := v.Len(); got != n+1 {
				t.Fatalf("Len() = %d, want %d", got, n+1)
			}
			// Duplicates are no-ops, whatever their depth.
			for i, fp := range fps[:1000] {
				if fresh, improved, err := v.Insert(fp, int32(i%97)-1); err != nil || fresh || improved {
					t.Fatalf("dup insert %#x: fresh=%v improved=%v err=%v", fp, fresh, improved, err)
				}
			}
			// Every fingerprint reaches the fp file (the tables write
			// fp 0 substituted).
			got := fpFileSet(t, v)
			if got[zeroFPSubstitute] {
				got[0] = true
				delete(got, zeroFPSubstitute)
			}
			if len(got) != len(want) {
				t.Fatalf("fp file has %d records, want %d", len(got), len(want))
			}
			for fp := range want {
				if !got[fp] {
					t.Fatalf("fp file lacks %#x", fp)
				}
			}
		})
	}
}

func TestVisitedFPFileRoundTrip(t *testing.T) {
	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			_, v := openVisited(t, b.limit)
			fp := uint64(0xfeedface)
			for i := 0; i < 10_000; i++ {
				fp = xorshift(fp)
				if _, _, err := v.Insert(fp, int32(i%31)); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), "visited.fp")
			if err := v.WriteFPFile(path); err != nil {
				t.Fatal(err)
			}
			// Reload into a fresh table and compare membership.
			_, nv := openVisited(t, 0)
			if err := nv.LoadFPFile(path); err != nil {
				t.Fatal(err)
			}
			if nv.Len() != v.Len() {
				t.Fatalf("reloaded Len() = %d, want %d", nv.Len(), v.Len())
			}
			fp = uint64(0xfeedface)
			for i := 0; i < 10_000; i++ {
				fp = xorshift(fp)
				if fresh, _, _ := nv.Insert(fp, 0); fresh {
					t.Fatalf("fp %#x missing after the round trip", fp)
				}
			}
		})
	}
}

// TestMemTableConcurrentInserts drives the visited table from 8
// goroutines whose fingerprint streams overlap (each fingerprint goes
// to 4 of them, in different orders). With no budget every shard grows
// several times while the others insert; under a 256 KiB budget the
// table flushes about 32 times and compacts its runs about 4 times
// while they insert. Exactly one insert per fingerprint may report fresh, and the
// table must count and write each fingerprint once: an insert lost or
// doubled across a grow, a flush or a compaction fails here.
func TestMemTableConcurrentInserts(t *testing.T) {
	const (
		goroutines = 8
		distinct   = 1 << 17 // ~2k per shard: 4 grows from 256 slots
	)
	fps := make([]uint64, distinct)
	fp := uint64(0x0ddba11)
	for i := range fps {
		fp = xorshift(fp)
		fps[i] = fp
	}
	for _, limit := range []Bytes{0, 256 << 10} {
		t.Run(fmt.Sprintf("budget-%v", limit), func(t *testing.T) {
			st, err := Open(Config{Dir: t.TempDir(), MemLimit: limit, Workers: goroutines})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			tbl, err := st.NewVisited(true)
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Close()
			fresh := make([]atomic.Int32, distinct)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Goroutine g covers half the fingerprints, from its
					// own offset, forwards or backwards.
					for k := 0; k < distinct/2; k++ {
						j := k
						if g%2 == 1 {
							j = distinct/2 - 1 - k
						}
						i := (g*distinct/goroutines + j) % distinct
						ok, _, err := tbl.Insert(fps[i], 0)
						if err != nil {
							t.Error(err)
							return
						}
						if ok {
							fresh[i].Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			for i := range fresh {
				if n := fresh[i].Load(); n != 1 {
					t.Fatalf("fingerprint %#x reported fresh %d times, want 1", fps[i], n)
				}
			}
			if s := st.Snapshot(); limit == 0 {
				for i := range tbl.shards {
					if n := len(tbl.shards[i].slots.Load().arr); n < 256<<3 {
						t.Fatalf("shard %d has %d slots: it grew fewer than 3 times", i, n)
					}
				}
			} else if s.Spills < 8 || s.Compactions < 1 {
				t.Fatalf("%d flushes and %d compactions, want at least 8 and 1", s.Spills, s.Compactions)
			}
			if got := tbl.Len(); got != distinct {
				t.Fatalf("Len() = %d, want %d", got, distinct)
			}
			path := filepath.Join(t.TempDir(), "visited.fp")
			if err := tbl.WriteFPFile(path); err != nil {
				t.Fatal(err)
			}
			var written []uint64
			if err := readFPRun(path, func(fp uint64) error {
				written = append(written, fp)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(fps)
			slices.Sort(want)
			if !slices.Equal(written, want) {
				t.Fatalf("fp file holds %d fingerprints, not each of the %d once", len(written), distinct)
			}
		})
	}
}

// frontierBudgets are the frontier tests' budgets: none, and one small
// enough to spill, named for where the entries end up.
var frontierBudgets = []struct {
	name  string
	limit Bytes
}{{"mem", 0}, {"disk", 1 << 16}}

// TestFrontierOrders pops FIFO with no budget and across spills.
func TestFrontierOrders(t *testing.T) {
	for _, b := range frontierBudgets {
		t.Run(fmt.Sprintf("%s-%d", b.name, FIFO), func(t *testing.T) {
			st, err := Open(Config{Dir: t.TempDir(), MemLimit: b.limit, Root: testRoot(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			fr, err := st.NewFrontier(0, FIFO)
			if err != nil {
				t.Fatal(err)
			}
			defer fr.Close()
			sys := testRoot(t)
			var path *PathNode
			const n = 2000 // enough to force spills at 64KiB
			for i := 0; i < n; i++ {
				path = path.Extend(PackStep(0, 0))
				if err := fr.Push(Entry{Sys: sys.Clone(), Aux: uint64(i), Depth: int32(i), Path: path}); err != nil {
					t.Fatal(err)
				}
			}
			if fr.Len() != n {
				t.Fatalf("Len() = %d, want %d", fr.Len(), n)
			}
			for i := 0; i < n; i++ {
				e, ok, err := fr.Pop()
				if err != nil || !ok {
					t.Fatalf("Pop #%d: ok=%v err=%v", i, ok, err)
				}
				if e.Aux != uint64(i) {
					t.Fatalf("Pop #%d: aux=%d, want %d", i, e.Aux, i)
				}
				if e.Sys == nil {
					t.Fatalf("Pop #%d returned a nil Sys (replay missing)", i)
				}
			}
			if _, ok, _ := fr.Pop(); ok {
				t.Fatal("Pop on empty frontier reported ok")
			}
		})
	}
}

// TestFrontierPeersDrainOneShard: the breadth-first workers pop from
// each other's shards, so several goroutines drain one shard at once,
// loading its spilled segments and replaying its path-only entries as
// they go. Every entry must come back exactly once with a live Sys,
// with no budget and under one that spills several segments, and every
// spilled segment must be loaded.
func TestFrontierPeersDrainOneShard(t *testing.T) {
	const n, poppers = 2000, 4
	for _, b := range frontierBudgets {
		t.Run(b.name, func(t *testing.T) {
			st, err := Open(Config{Dir: t.TempDir(), MemLimit: b.limit, Root: testRoot(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			fr, err := st.NewFrontier(0, FIFO)
			if err != nil {
				t.Fatal(err)
			}
			defer fr.Close()
			sys := testRoot(t)
			paths := make([]*PathNode, 8) // paths[d] takes d+1 steps
			var path *PathNode
			for d := range paths {
				path = path.Extend(PackStep(d%2, 0))
				paths[d] = path
			}
			for i := range n {
				e := Entry{Aux: uint64(i), Path: paths[i%len(paths)]}
				if i%3 != 0 { // every third entry carries only its path, as a restored one does
					e.Sys = sys.Clone()
				}
				if err := fr.Push(e); err != nil {
					t.Fatal(err)
				}
			}
			if s := st.Snapshot(); b.limit > 0 && s.FrontierSpills < 2 {
				t.Fatalf("%d segments spilled, want several", s.FrontierSpills)
			}
			var popped [n]atomic.Int32
			var wg sync.WaitGroup
			for range poppers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						e, ok, err := fr.Pop()
						if err != nil {
							t.Error(err)
							return
						}
						if !ok {
							return
						}
						if e.Sys == nil {
							t.Errorf("entry %d popped without its Sys", e.Aux)
						}
						popped[e.Aux].Add(1)
					}
				}()
			}
			wg.Wait()
			for i := range popped {
				if c := popped[i].Load(); c != 1 {
					t.Fatalf("entry %d popped %d times, want once", i, c)
				}
			}
			s := st.Snapshot()
			if s.FrontierLoads != s.FrontierSpills {
				t.Fatalf("loads (%d) != spills (%d) after draining", s.FrontierLoads, s.FrontierSpills)
			}
			t.Logf("%d segments spilled and loaded, %d entries replayed", s.FrontierSpills, s.Replays)
		})
	}
}

func TestDiskFrontierSpills(t *testing.T) {
	st, err := Open(Config{Dir: t.TempDir(), MemLimit: 1 << 16, Root: testRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fr, err := st.NewFrontier(0, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	sys := testRoot(t)
	var path *PathNode
	for i := 0; i < 5000; i++ {
		path = path.Extend(PackStep(i%2, 0))
		if err := fr.Push(Entry{Sys: sys.Clone(), Depth: int32(i), Path: path}); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Snapshot(); s.FrontierSpills == 0 || s.DiskBytesWritten == 0 {
		t.Fatalf("no spills recorded under a 64KiB ceiling: %+v", s)
	}
	for i := 0; i < 5000; i++ {
		if _, ok, err := fr.Pop(); !ok || err != nil {
			t.Fatalf("Pop #%d: ok=%v err=%v", i, ok, err)
		}
	}
	s := st.Snapshot()
	if s.FrontierLoads != s.FrontierSpills {
		t.Fatalf("loads (%d) != spills (%d) after draining", s.FrontierLoads, s.FrontierSpills)
	}
	if s.Replays == 0 || s.ReplaySteps == 0 {
		t.Fatalf("draining spilled entries recorded no replays: %+v", s)
	}
}

// TestNoBudgetWritesNothing: with no budget the store creates no
// directory and writes no file, even when Config.Dir names one, however
// many fingerprints and frontier entries it holds.
func TestNoBudgetWritesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(Config{Dir: dir, Root: testRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.NewVisited(false)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := st.NewFrontier(0, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	fp := uint64(0xabad1dea)
	for i := 0; i < 100_000; i++ {
		fp = xorshift(fp)
		if _, _, err := v.Insert(fp, 0); err != nil {
			t.Fatal(err)
		}
	}
	sys := testRoot(t)
	var path *PathNode
	for i := 0; i < 5000; i++ {
		path = path.Extend(PackStep(0, 0))
		if err := fr.Push(Entry{Sys: sys, Path: path}); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Snapshot(); s != (Stats{}) {
		t.Errorf("unbudgeted store counted disk work: %+v", s)
	}
	for _, c := range []io.Closer{fr, v, st} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("unbudgeted store made %s (stat err = %v)", dir, err)
	}
}
