package store

import (
	"fmt"
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

func TestKindFlag(t *testing.T) {
	var k Kind
	for _, c := range []struct {
		in   string
		want Kind
		err  bool
	}{{"mem", Mem, false}, {"disk", Disk, false}, {"", Mem, false}, {"tape", 0, true}} {
		err := k.Set(c.in)
		if (err != nil) != c.err {
			t.Errorf("Set(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && k != c.want {
			t.Errorf("Set(%q) = %v, want %v", c.in, k, c.want)
		}
	}
	if Mem.String() != "mem" || Disk.String() != "disk" {
		t.Errorf("Kind strings: %q %q", Mem.String(), Disk.String())
	}
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

// visitedImpls builds every VisitedSet implementation for a shared
// conformance test.
func visitedImpls(t *testing.T) map[string]VisitedSet {
	t.Helper()
	diskStore, err := Open(Config{Kind: Disk, Dir: t.TempDir(), MemLimit: 1 << 20, Root: testRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { diskStore.Close() })
	dv, err := diskStore.NewVisited(false)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]VisitedSet{
		"memTable": newMemTable(4),
		"disk":     dv,
	}
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
func fpFileSet(t *testing.T, v VisitedSet) map[uint64]bool {
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
	for name, v := range visitedImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer v.Close()
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
	for name, v := range visitedImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer v.Close()
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
			nv := newMemTable(1)
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

// TestMemTableConcurrentInserts drives the mem-tier table from 8
// goroutines whose fingerprint streams overlap (each fingerprint goes
// to 4 of them, in different orders), enough that every shard grows
// several times while the others insert. Exactly one insert per
// fingerprint may report fresh, and the table must count and write each
// fingerprint once: an insert lost or doubled across a grow fails here.
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
	tbl := newMemTable(goroutines)
	fresh := make([]atomic.Int32, distinct)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutine g covers half the fingerprints, from its own
			// offset, forwards or backwards.
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
	for i := range tbl.shards {
		if n := len(tbl.shards[i].slots.Load().arr); n < 256<<3 {
			t.Fatalf("shard %d has %d slots: it grew fewer than 3 times", i, n)
		}
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
}

// TestFrontierOrders pops FIFO on both tiers, across disk spills.
func TestFrontierOrders(t *testing.T) {
	for _, kind := range []Kind{Mem, Disk} {
		t.Run(fmt.Sprintf("%v-%d", kind, FIFO), func(t *testing.T) {
			st, err := Open(Config{Kind: kind, Dir: t.TempDir(), MemLimit: 1 << 16, Root: testRoot(t)})
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
			const n = 2000 // enough to force disk spills at 64KiB
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

func TestFrontierStealHalf(t *testing.T) {
	for _, kind := range []Kind{Mem, Disk} {
		t.Run(kind.String(), func(t *testing.T) {
			st, err := Open(Config{Kind: kind, Dir: t.TempDir(), MemLimit: 1 << 24, Root: testRoot(t)})
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
			for i := 0; i < 10; i++ {
				path = path.Extend(PackStep(0, 0))
				if err := fr.Push(Entry{Sys: sys.Clone(), Aux: uint64(i), Path: path}); err != nil {
					t.Fatal(err)
				}
			}
			got := fr.StealHalf()
			if len(got) != 5 {
				t.Fatalf("StealHalf() took %d, want 5", len(got))
			}
			for i, e := range got {
				if e.Aux != uint64(5+i) {
					t.Fatalf("stolen entry %d has aux %d, want %d (newest half)", i, e.Aux, 5+i)
				}
			}
			if fr.Len() != 5 {
				t.Fatalf("Len() after steal = %d, want 5", fr.Len())
			}
		})
	}
}

func TestDiskFrontierSpills(t *testing.T) {
	st, err := Open(Config{Kind: Disk, Dir: t.TempDir(), MemLimit: 1 << 16, Root: testRoot(t)})
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
