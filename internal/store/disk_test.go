package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// smallBudget is small enough that spills and compactions actually
// happen in the tests below.
const smallBudget = 1 << 17

// TestDiskVisitedAgainstReference drives enough inserts through a tiny
// hot table to force many spills and at least one compaction, checking
// every answer against an in-RAM reference map.
func TestDiskVisitedAgainstReference(t *testing.T) {
	st, v := openVisited(t, smallBudget)
	defer v.Close()
	ref := map[uint64]bool{}
	fp := uint64(0x1234567890abcdef)
	ops := 200_000
	if testing.Short() {
		ops = 60_000
	}
	for i := 0; i < ops; i++ {
		fp = xorshift(fp)
		// Re-insert every third fingerprint from earlier in the stream so
		// the hot-table and run paths both get exercised.
		probe := fp
		if i%3 == 0 && i > 1000 {
			probe = xorshift(uint64(i / 3))
		}
		present := ref[probe]
		fresh, improved, err := v.Insert(probe, int32(i%101))
		if err != nil {
			t.Fatal(err)
		}
		if fresh == present || improved {
			t.Fatalf("op %d: fp %#x fresh=%v improved=%v but present=%v", i, probe, fresh, improved, present)
		}
		ref[probe] = true
	}
	if got, want := v.Len(), int64(len(ref)); got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	s := st.Snapshot()
	if s.Spills == 0 {
		t.Fatal("no spills under a 128KiB ceiling")
	}
	if s.Compactions == 0 {
		t.Fatal("no compactions after many spills")
	}
	// The checkpoint file must carry the exact same contents.
	path := filepath.Join(t.TempDir(), "visited.fp")
	if err := v.WriteFPFile(path); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	prev := uint64(0)
	err := readFPRun(path, func(fp uint64) error {
		if fp <= prev && prev != 0 {
			t.Fatalf("run not strictly sorted: %#x after %#x", fp, prev)
		}
		prev = fp
		got[fp] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("checkpoint has %d records, want %d", len(got), len(ref))
	}
	for fp := range ref {
		if fp == 0 {
			fp = zeroFPSubstitute
		}
		if !got[fp] {
			t.Fatalf("checkpoint lacks %#x", fp)
		}
	}
}

func TestDiskVisitedCloseRemovesRuns(t *testing.T) {
	st, v := openVisited(t, smallBudget)
	fp := uint64(0xbeef)
	for i := 0; i < 120_000; i++ {
		fp = xorshift(fp)
		if _, _, err := v.Insert(fp, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st.Snapshot().Runs == 0 {
		t.Fatal("expected on-disk runs before Close")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().DiskBytes; got != 0 {
		t.Fatalf("DiskBytes after Close = %d, want 0", got)
	}
	matches, _ := filepath.Glob(filepath.Join(st.dir, "run-*.fp"))
	if len(matches) != 0 {
		t.Fatalf("run files left behind: %v", matches)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	// A small tree of paths with shared prefixes, odd auxes and tags.
	root := (*PathNode)(nil).Extend(PackStep(0, 0))
	left := root.Extend(PackStep(1, 2))
	entries := []Entry{
		{Aux: 0, Depth: 0, Tag: -1, Path: nil}, // root state: empty path
		{Aux: 42, Depth: 1, Tag: 7, Path: root},
		{Aux: 1 << 63, Depth: 2, Tag: -12345, Path: left},
		{Aux: 3, Depth: 3, Tag: 0, Path: left.Extend(PackCrash(1))},
		{Aux: 4, Depth: 2, Tag: 99, Path: root.Extend(PackStep(0, 1))},
	}
	path := filepath.Join(t.TempDir(), "x.seg")
	if _, err := writeSegFile(path, entries); err != nil {
		t.Fatal(err)
	}
	got, err := readSegFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.Aux != e.Aux || g.Depth != e.Depth || g.Tag != e.Tag {
			t.Fatalf("entry %d: got %+v, want %+v", i, g, e)
		}
		ws, gs := e.Path.Steps(), g.Path.Steps()
		if len(ws) != len(gs) {
			t.Fatalf("entry %d: path length %d, want %d", i, len(gs), len(ws))
		}
		for j := range ws {
			if ws[j] != gs[j] {
				t.Fatalf("entry %d step %d: got %v, want %v", i, j, gs[j], ws[j])
			}
		}
	}
	// Structural sharing survives: entries 2 and 3 share the decoded
	// prefix chain.
	if got[3].Path.Parent != got[2].Path.Parent.Parent {
		t.Log("note: decoded chains for entries 2/3 do not share nodes")
	}
}

// TestFileFormatRefused: a file whose header carries another format
// version or the other file kind's magic, or is cut short, is refused
// with an error naming the version or the magic. A version-1 run held
// 12-byte (fingerprint, depth) records, so reading one as 8-byte
// fingerprints would load wrong states.
func TestFileFormatRefused(t *testing.T) {
	dir := t.TempDir()
	run := filepath.Join(dir, "visited.fp")
	if _, err := writeFPRun(run, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(run)
	if err != nil {
		t.Fatal(err)
	}
	v1 := slices.Clone(valid)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	seg := filepath.Join(dir, "frontier.seg")
	if _, err := writeSegFile(seg, []Entry{{Aux: 7}}); err != nil {
		t.Fatal(err)
	}
	segBytes, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"version 1", v1, "ANVF format version 1"},
		{"segment magic", segBytes, `bad magic "ANSF" (want "ANVF")`},
		{"short header", valid[:10], "reading ANVF header"},
	} {
		path := filepath.Join(dir, "bad.fp")
		if err := os.WriteFile(path, c.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, v := openVisited(t, 0)
		if err := v.LoadFPFile(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadFPFile err = %v, want one saying %q", c.name, err, c.want)
		}
	}
	if _, err := readSegFile(run); err == nil || !strings.Contains(err.Error(), `bad magic "ANVF" (want "ANSF")`) {
		t.Errorf("readSegFile on a run file: err = %v, want the bad-magic error", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	_, v := openVisited(t, 0)
	for i := uint64(1); i <= 1000; i++ {
		if _, _, err := v.Insert(i*2654435761, int32(i%17)); err != nil {
			t.Fatal(err)
		}
	}
	var path *PathNode
	var frontier []Entry
	for i := 0; i < 50; i++ {
		path = path.Extend(PackStep(0, 0))
		frontier = append(frontier, Entry{Aux: uint64(i), Depth: int32(i + 1), Path: path})
	}
	meta := Meta{
		Engine: "bfs", Symmetry: "full", InitFP: "00ff", MaxCrashes: 1,
		States: 1000, Edges: 4242, Terminals: 3, MaxDepth: 16,
		DedupLookups: 4243, DedupHits: 3243, FrontierPeak: 77,
	}
	if err := WriteCheckpoint(dir, meta, v, frontier); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("tmp directory left behind")
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Meta.Engine != "bfs" || ck.Meta.States != 1000 || ck.Meta.Edges != 4242 ||
		ck.Meta.InitFP != "00ff" || ck.Meta.Version != MetaVersion {
		t.Fatalf("meta round trip: %+v", ck.Meta)
	}
	_, nv := openVisited(t, 0)
	if err := ck.LoadVisited(nv); err != nil {
		t.Fatal(err)
	}
	if nv.Len() != 1000 {
		t.Fatalf("visited round trip: len=%d", nv.Len())
	}
	fps := fpFileSet(t, nv)
	for i := uint64(1); i <= 1000; i++ {
		if !fps[i*2654435761] {
			t.Fatalf("visited round trip lost fp %d", i)
		}
	}
	fes, err := ck.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) != 50 || fes[49].Aux != 49 || fes[49].Depth != 50 || len(fes[49].Path.Steps()) != 50 {
		t.Fatalf("frontier round trip: %d entries, last %+v", len(fes), fes[len(fes)-1])
	}
	// A second checkpoint atomically replaces the first.
	meta.States = 2000
	if err := WriteCheckpoint(dir, meta, v, nil); err != nil {
		t.Fatal(err)
	}
	ck2, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Meta.States != 2000 {
		t.Fatalf("overwrite: %+v", ck2.Meta)
	}
	if fes, err := ck2.Frontier(); err != nil || len(fes) != 0 {
		t.Fatalf("checkpoint without pending entries returned a frontier: %v %v", fes, err)
	}
	// Version mismatches are rejected, not migrated.
	blob, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"version": 999}`)
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("future-version checkpoint loaded without error")
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}
