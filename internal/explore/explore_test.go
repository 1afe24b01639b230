package explore

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

func TestPermutations(t *testing.T) {
	perms := Permutations(3)
	if len(perms) != 6 {
		t.Fatalf("permutations = %d", len(perms))
	}
	if fmt.Sprint(perms[0]) != "[0 1 2]" {
		t.Errorf("first permutation %v is not identity", perms[0])
	}
	seen := map[string]bool{}
	for _, p := range perms {
		seen[fmt.Sprint(p)] = true
	}
	if len(seen) != 6 {
		t.Error("duplicate permutations")
	}
}

func TestWiringCountAndWirings(t *testing.T) {
	for _, c := range []struct {
		n, m   int
		filter WiringFilter
		want   int
	}{
		{2, 2, FilterProc0, 2}, {2, 2, FilterAll, 4},
		{3, 3, FilterProc0, 36}, {3, 3, FilterAll, 216},
		{1, 3, FilterProc0, 1},
		// Orbit counts verified by Burnside's lemma over the action
		// σ'_q = ρ∘σ_{π(q)} of S_n × S_m on wiring assignments.
		{2, 2, FilterOrbits, 2}, {3, 3, FilterOrbits, 10},
		{1, 3, FilterOrbits, 1},
	} {
		if got := WiringCount(c.n, c.m, c.filter); got != c.want {
			t.Errorf("WiringCount(%d,%d,%v) = %d, want %d", c.n, c.m, c.filter, got, c.want)
		}
		count := 0
		for perms := range Wirings(c.n, c.m, WiringOptions{Filter: c.filter}) {
			count++
			if len(perms) != c.n {
				t.Fatalf("wiring for %d processors", len(perms))
			}
		}
		if count != c.want {
			t.Errorf("Wirings(%d,%d,%v) yielded %d, want %d", c.n, c.m, c.filter, count, c.want)
		}
	}
	// The orbit representatives, in enumeration order: sweeps and the
	// benchmark address wirings by their position in it.
	want := [][][]int{
		{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}},
		{{0, 1, 2}, {0, 1, 2}, {0, 2, 1}},
		{{0, 1, 2}, {0, 1, 2}, {1, 0, 2}},
		{{0, 1, 2}, {0, 1, 2}, {1, 2, 0}},
		{{0, 1, 2}, {0, 1, 2}, {2, 1, 0}},
		{{0, 1, 2}, {0, 1, 2}, {2, 0, 1}},
		{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}},
		{{0, 1, 2}, {0, 2, 1}, {1, 2, 0}},
		{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}},
		{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}},
	}
	if got := slices.Collect(Wirings(3, 3, WiringOptions{Filter: FilterOrbits})); !reflect.DeepEqual(got, want) {
		t.Errorf("N=3 orbit representatives = %v, want %v", got, want)
	}
	for _, c := range []struct {
		n, m   int
		groups []string
		want   int
	}{
		{2, 2, nil, 2}, {2, 3, nil, 5}, {3, 3, nil, 10}, {3, 4, nil, 111}, {4, 3, nil, 24}, {3, 5, nil, 2467},
		{3, 3, []string{"a", "a", "b"}, 21}, {4, 4, []string{"a", "b", "a", "b"}, 3804},
	} {
		count := 0
		for range Wirings(c.n, c.m, WiringOptions{Filter: FilterOrbits, Groups: c.groups}) {
			count++
		}
		if count != c.want {
			t.Errorf("Wirings(%d,%d,orbits,groups %v) yielded %d, want %d", c.n, c.m, c.groups, count, c.want)
		}
	}
}

// TestWiringOrbitsCoverAll checks FilterOrbits soundness directly: every
// FilterAll wiring must be reachable from some yielded representative by
// a processor permutation π composed with a register permutation ρ.
func TestWiringOrbitsCoverAll(t *testing.T) {
	const n, m = 2, 3
	reps := [][][]int{}
	for perms := range Wirings(n, m, WiringOptions{Filter: FilterOrbits}) {
		reps = append(reps, perms)
	}
	procPerms := Permutations(n)
	regPerms := Permutations(m)
	covered := func(w [][]int) bool {
		for _, rep := range reps {
			for _, pi := range procPerms {
				for _, rho := range regPerms {
					ok := true
					for q := 0; q < n && ok; q++ {
						for i := 0; i < m; i++ {
							if w[q][i] != rho[rep[pi[q]][i]] {
								ok = false
								break
							}
						}
					}
					if ok {
						return true
					}
				}
			}
		}
		return false
	}
	total := 0
	for w := range Wirings(n, m, WiringOptions{Filter: FilterAll}) {
		total++
		if !covered(w) {
			t.Fatalf("wiring %v not covered by any orbit representative", w)
		}
	}
	if total != WiringCount(n, m, FilterAll) {
		t.Fatalf("enumerated %d wirings, want %d", total, WiringCount(n, m, FilterAll))
	}
}

// TestWiringGroupsRestrictOrbits checks that Groups confines the
// processor permutation: with distinct groups no processor swap is
// admissible, so the orbit count can only go up.
func TestWiringGroupsRestrictOrbits(t *testing.T) {
	free := 0
	for range Wirings(2, 2, WiringOptions{Filter: FilterOrbits}) {
		free++
	}
	grouped := 0
	for range Wirings(2, 2, WiringOptions{Filter: FilterOrbits, Groups: []string{"x", "y"}}) {
		grouped++
	}
	if grouped < free {
		t.Errorf("grouped orbits %d < ungrouped %d", grouped, free)
	}
}

// exploreBoth runs BFS and DFS on clones of the same system and asserts
// they agree on state and terminal counts.
func exploreBoth(t *testing.T, sys *machine.System, opts Options) (Result, Result) {
	t.Helper()
	bOpts := opts
	bOpts.Engine = BFSEngine
	b, err := Run(sys.Clone(), bOpts)
	if err != nil {
		t.Fatal(err)
	}
	dOpts := opts
	dOpts.Engine = DFSEngine
	d, err := Run(sys.Clone(), dOpts)
	if err != nil {
		t.Fatal(err)
	}
	if b.States != d.States {
		t.Errorf("BFS states %d != DFS states %d", b.States, d.States)
	}
	if b.Terminals != d.Terminals {
		t.Errorf("BFS terminals %d != DFS terminals %d", b.Terminals, d.Terminals)
	}
	if b.Edges != d.Edges {
		t.Errorf("BFS edges %d != DFS edges %d", b.Edges, d.Edges)
	}
	return b, d
}

func TestBFSAndDFSAgreeOnSnapshotN2(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := exploreBoth(t, sys, Options{})
	if b.States == 0 || b.Terminals == 0 {
		t.Errorf("degenerate exploration: %+v", b)
	}
}

func TestSnapshotSafetyN2AllWirings(t *testing.T) {
	sweep, err := CheckSnapshotSafety(SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Nondet:  true,
		Wirings: FilterProc0,
	})
	if err != nil {
		t.Fatalf("safety violated: %v", err)
	}
	if sweep.Wirings != 2 || sweep.Truncated {
		t.Errorf("sweep = %+v", sweep)
	}
	if sweep.Terminals == 0 {
		t.Error("no terminal states reached")
	}
}

func TestSnapshotSafetyN2Groups(t *testing.T) {
	// Two processors in the same group (equal inputs).
	if _, err := CheckSnapshotSafety(SnapshotConfig{
		Inputs:  []string{"g", "g"},
		Nondet:  true,
		Wirings: FilterProc0,
	}); err != nil {
		t.Fatalf("safety violated: %v", err)
	}
}

func TestSnapshotWaitFreeN2AllWirings(t *testing.T) {
	sweep, err := CheckSnapshotWaitFree(SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Nondet:  true,
		Wirings: FilterProc0,
	})
	if err != nil {
		t.Fatalf("wait-freedom violated: %v", err)
	}
	if sweep.Wirings != 2 {
		t.Errorf("sweep = %+v", sweep)
	}
}

// TestFootnote4LevelN1SufficesAtN2 checks the paper's footnote 4 at N=2:
// terminating at level N−1 = 1 is still safe (exhaustively, all wirings).
func TestFootnote4LevelN1SufficesAtN2(t *testing.T) {
	if _, err := CheckSnapshotSafety(SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Level:   1,
		Nondet:  true,
		Wirings: FilterProc0,
	}); err != nil {
		t.Fatalf("level N-1 unsafe at N=2: %v", err)
	}
	if _, err := CheckSnapshotWaitFree(SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Level:   1,
		Nondet:  true,
		Wirings: FilterProc0,
	}); err != nil {
		t.Fatalf("level N-1 not wait-free at N=2: %v", err)
	}
}

func TestWriteScanHasCycles(t *testing.T) {
	// The write-scan loop never terminates: its (finite) state graph must
	// contain a cycle, which DFS must report.
	sys, _, err := core.NewWriteScanSystem(core.Config{Inputs: []string{"a", "b"}, Registers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(sys.Clone(), Options{Engine: DFSEngine})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Cycle {
		t.Error("DFS found no cycle in the write-scan loop")
	}
	if len(d.CycleTrace) == 0 {
		t.Error("no cycle trace recorded")
	}
	if d.Terminals != 0 {
		t.Error("write-scan terminated")
	}
}

func TestInvariantViolationCarriesTrace(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("no output allowed")
	inv := func(n Node) error {
		if n.Sys.DoneCount() > 0 {
			return boom
		}
		return nil
	}
	for _, engine := range []Engine{BFSEngine, DFSEngine} {
		name := engine.String()
		_, err := Run(sys.Clone(), Options{Engine: engine, Invariant: inv})
		var ie *InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: err = %v", name, err)
		}
		if !errors.Is(err, boom) {
			t.Errorf("%s: unwrap failed", name)
		}
		if len(ie.Trace) == 0 {
			t.Errorf("%s: empty trace", name)
		}
		// Solo processor: 1 write + 1 read per iteration, 1 iteration
		// (m=n=1), then output: 3 steps.
		if len(ie.Trace) != 3 {
			t.Errorf("%s: trace length %d, want 3", name, len(ie.Trace))
		}
		if s := FormatTrace(ie.Trace); !strings.Contains(s, "output") {
			t.Errorf("%s: trace %q misses output step", name, s)
		}
	}
}

func TestTruncationReported(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{BFSEngine, DFSEngine} {
		name := engine.String()
		res, err := Run(sys.Clone(), Options{Engine: engine, MaxStates: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Errorf("%s: not truncated", name)
		}
	}
}

func TestPruneCuts(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(sys.Clone(), Options{Engine: DFSEngine})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Run(sys.Clone(), Options{Engine: DFSEngine, Prune: func(n Node) bool { return n.Depth >= 5 }})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Pruned == 0 {
		t.Error("nothing pruned")
	}
	if pruned.States >= full.States {
		t.Errorf("pruned states %d >= full %d", pruned.States, full.States)
	}
}

func TestNoWitnessAtN2(t *testing.T) {
	// Exhaustive over both canonical wirings: at N=2 the algorithm IS an
	// atomic memory snapshot (every output was the memory union at some
	// instant). The paper's non-atomicity witness requires N=3.
	r, err := FindNonAtomicityWitness(SnapshotConfig{
		Inputs:  []string{"a", "b"},
		Wirings: FilterProc0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Found {
		t.Errorf("unexpected witness at N=2: %+v", r.Witness)
	}
	if !r.Exhaustive {
		t.Error("N=2 witness search should be exhaustive")
	}
}

func TestConsensusBoundedN2(t *testing.T) {
	sweep, err := CheckConsensusBounded(ConsensusConfig{
		Inputs:       []string{"x", "y"},
		MaxTimestamp: 2,
		Wirings:      FilterProc0,
	})
	if err != nil {
		t.Fatalf("consensus safety violated: %v", err)
	}
	if sweep.Wirings != 2 || sweep.TotalStates == 0 {
		t.Errorf("sweep = %+v", sweep)
	}
}

func TestSnapshotInvariantRejectsBadOutputs(t *testing.T) {
	// Feed the invariant a hand-built system with invalid outputs via a
	// level-1 threshold and a crafted schedule is hard; instead check the
	// invariant function directly on a tiny fake.
	in := view.NewInterner()
	a, b := in.Intern("a"), in.Intern("b")
	inv := SnapshotInvariant([]view.ID{a, b})
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv(Node{Sys: sys}); err != nil {
		t.Errorf("fresh system rejected: %v", err)
	}
}

func TestMemoryUnion(t *testing.T) {
	sys, in, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !memoryUnion(sys).IsEmpty() {
		t.Error("initial union not empty")
	}
	if _, err := sys.Step(0, 0); err != nil { // p0 writes {a}
		t.Fatal(err)
	}
	aID, _ := in.Lookup("a")
	if !memoryUnion(sys).Equal(view.Of(aID)) {
		t.Errorf("union = %v", memoryUnion(sys))
	}
}

func TestSubsetsOf(t *testing.T) {
	subs := subsetsOf([]view.ID{0, 1, 0})
	if len(subs) != 3 { // nonempty subsets of {0,1}
		t.Errorf("subsets = %d, want 3", len(subs))
	}
}

func TestRandomNonAtomicityWitnessRuns(t *testing.T) {
	// Small smoke run; discovery is not expected at these sizes.
	_, found, err := RandomNonAtomicityWitness([]string{"a", "b"}, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("witness at N=2 contradicts the exhaustive result")
	}
	if _, _, err := RandomNonAtomicityWitness(nil, 1, 1); err == nil {
		t.Error("empty inputs accepted")
	}
}

func TestCheckSnapshotSafetyDetectsBrokenLevel(t *testing.T) {
	// Level 1 at N=3 is below the paper's N−1 floor. The pathological
	// behaviour needs specific wirings and schedules; the exhaustive
	// sweep must find a violation if one exists within the bound. We keep
	// the bound small here — the full result is produced by cmd/figures.
	// The sweep has found no violation within this bound so far, and it
	// is the largest item in the race detector's -short run, so -short
	// skips it up front; the plain run still sweeps.
	if testing.Short() {
		t.Skip("sweeps 36 wirings at 60,000 states each; run without -short")
	}
	_, err := CheckSnapshotSafety(SnapshotConfig{
		Inputs:  []string{"a", "b", "c"},
		Level:   1,
		Wirings: FilterProc0,
		Options: Options{MaxStates: 60_000},
	})
	var ie *InvariantError
	if err == nil {
		t.Skip("no violation within the small bound; cmd/figures runs the full search")
	}
	if !errors.As(err, &ie) {
		t.Fatalf("unexpected error: %v", err)
	}
	t.Logf("level-1 violation found: %v", ie.Err)
}

func TestFingerprintSensitivity(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	hasher, err := canon.Identity{}.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	fp0 := hasher.Fingerprint(sys, 0)
	if hasher.Fingerprint(sys, 0) != fp0 {
		t.Error("fingerprint not deterministic")
	}
	if hasher.Fingerprint(sys, 1) == fp0 {
		t.Error("aux not folded into fingerprint")
	}
	cp := sys.Clone()
	if _, err := cp.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	if hasher.Fingerprint(cp, 0) == fp0 {
		t.Error("step did not change fingerprint")
	}
}

func TestWiringsAreRestoredPerCall(t *testing.T) {
	// Wirings hands out independent copies.
	var first [][]int
	for perms := range Wirings(2, 2, WiringOptions{}) {
		if first == nil {
			first = perms
			continue
		}
		first[0][0] = 99 // mutate previous copy; must not affect anything
	}
	if _, err := anonmem.New(2, core.EmptyCell, anonmem.IdentityWirings(2, 2)); err != nil {
		t.Fatal(err)
	}
}
