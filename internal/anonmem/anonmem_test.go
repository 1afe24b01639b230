package anonmem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// word is a trivial Word for tests.
type word string

func (w word) Key() string { return string(w) }

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		m     int
		init  Word
		perms [][]int
	}{
		{"zero M", 0, word("x"), [][]int{{}}},
		{"nil initial", 2, nil, [][]int{{0, 1}}},
		{"no processors", 2, word("x"), nil},
		{"short wiring", 2, word("x"), [][]int{{0}}},
		{"out of range", 2, word("x"), [][]int{{0, 2}}},
		{"negative", 2, word("x"), [][]int{{0, -1}}},
		{"duplicate", 2, word("x"), [][]int{{0, 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.m, c.init, c.perms); err == nil {
				t.Error("New accepted invalid input")
			}
		})
	}
}

func TestReadWriteThroughWiring(t *testing.T) {
	// Processor 0 has identity wiring; processor 1 is rotated by one.
	perms := [][]int{{0, 1, 2}, {1, 2, 0}}
	mem, err := New(3, word("init"), perms)
	if err != nil {
		t.Fatal(err)
	}
	if mem.N() != 2 || mem.M() != 3 {
		t.Fatalf("N=%d M=%d", mem.N(), mem.M())
	}

	// p1's local register 0 is global register 1.
	res := mem.Write(1, 0, word("a"))
	if res.Global != 1 || res.Overwrote.Key() != "init" || res.PrevWriter != NoWriter {
		t.Errorf("write result = %+v", res)
	}
	if mem.CellAt(1).Key() != "a" {
		t.Errorf("global cell 1 = %q", mem.CellAt(1).Key())
	}
	// p0 reads it at its local index 1.
	rr := mem.Read(0, 1)
	if rr.Word.Key() != "a" || rr.Global != 1 || rr.LastWriter != 1 {
		t.Errorf("read result = %+v", rr)
	}
	// Untouched register still reports NoWriter.
	if got := mem.Read(0, 0); got.LastWriter != NoWriter || got.Word.Key() != "init" {
		t.Errorf("untouched read = %+v", got)
	}
}

func TestWriteNilPanics(t *testing.T) {
	mem, _ := New(1, word("i"), IdentityWirings(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("Write(nil) did not panic")
		}
	}()
	mem.Write(0, 0, nil)
}

func TestGlobalAndWiring(t *testing.T) {
	perms := [][]int{{2, 0, 1}}
	mem, err := New(3, word("i"), perms)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Global(0, 0) != 2 || mem.Global(0, 2) != 1 {
		t.Error("Global translation wrong")
	}
	w := mem.Wiring(0)
	w[0] = 99
	if mem.Global(0, 0) != 2 {
		t.Error("Wiring exposed internal slice")
	}
}

func TestIdentityRotationWirings(t *testing.T) {
	id := IdentityWirings(2, 3)
	for p := range id {
		for i, g := range id[p] {
			if i != g {
				t.Fatalf("identity wiring p%d[%d]=%d", p, i, g)
			}
		}
	}
	rot := RotationWirings(3, 3)
	if rot[1][0] != 1 || rot[2][2] != 1 {
		t.Errorf("rotation wirings = %v", rot)
	}
	for p, perm := range rot {
		if err := checkPermutation(perm, 3); err != nil {
			t.Errorf("rotation p%d invalid: %v", p, err)
		}
	}
}

func TestRandomWiringsAreValidPermutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		for _, perm := range RandomWirings(rng, n, m) {
			if checkPermutation(perm, m) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLastWrittenBy(t *testing.T) {
	mem, _ := New(3, word("i"), IdentityWirings(2, 3))
	mem.Write(0, 0, word("x"))
	mem.Write(1, 2, word("y"))
	byP0 := mem.LastWrittenBy(func(w int) bool { return w == 0 })
	if len(byP0) != 1 || byP0[0] != 0 {
		t.Errorf("byP0 = %v", byP0)
	}
	fresh := mem.LastWrittenBy(func(w int) bool { return w == NoWriter })
	if len(fresh) != 1 || fresh[0] != 1 {
		t.Errorf("fresh = %v", fresh)
	}
}

func TestCloneIndependence(t *testing.T) {
	mem, _ := New(2, word("i"), IdentityWirings(1, 2))
	mem.Write(0, 0, word("x"))
	cp := mem.CloneInto(nil)
	cp.Write(0, 1, word("y"))
	if mem.CellAt(1).Key() != "i" {
		t.Error("clone write leaked into original")
	}
	if cp.CellAt(0).Key() != "x" {
		t.Error("clone lost original contents")
	}
	if mem.LastWriterAt(1) != NoWriter || cp.LastWriterAt(1) != 0 {
		t.Error("ghost state not cloned properly")
	}
	if mem.Key() == cp.Key() {
		t.Error("diverged memories share a key")
	}
}

// TestTableIdentity: copies share their source's wiring table, through
// any chain of copies and into memories of another lineage; a separate
// New never does, even from equal permutations.
func TestTableIdentity(t *testing.T) {
	mem, _ := New(2, word("i"), IdentityWirings(2, 2))
	other, _ := New(2, word("i"), IdentityWirings(2, 2))
	if mem.Table() == other.Table() {
		t.Error("separate New calls share a wiring table")
	}
	cp := mem.CloneInto(nil).CloneInto(other)
	if cp.Table() != mem.Table() {
		t.Error("a copy of a copy lost its source's wiring table")
	}
}

func TestKeyExcludesGhostState(t *testing.T) {
	a, _ := New(2, word("i"), IdentityWirings(2, 2))
	b, _ := New(2, word("i"), IdentityWirings(2, 2))
	a.Write(0, 0, word("v"))
	b.Write(1, 0, word("v")) // same contents, different ghost writer
	if a.Key() != b.Key() {
		t.Errorf("keys differ on ghost-only difference: %q vs %q", a.Key(), b.Key())
	}
}

func TestCellsIsCopy(t *testing.T) {
	mem, _ := New(2, word("i"), IdentityWirings(1, 2))
	cs := mem.Cells()
	cs[0] = word("mutated")
	if mem.CellAt(0).Key() != "i" {
		t.Error("Cells exposed internal slice")
	}
}

func TestStringMentionsRegisters(t *testing.T) {
	mem, _ := New(2, word("i"), IdentityWirings(1, 2))
	s := mem.String()
	if !strings.Contains(s, "r1=") || !strings.Contains(s, "r2=") {
		t.Errorf("String() = %q", s)
	}
}
