package renaming

import (
	"fmt"
	"math/rand"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/core"
	"anonshm/internal/sched"
	"anonshm/internal/tasks"
	"anonshm/internal/view"
)

func maxSteps(n int) int { return 2000 * n * n * n }

func checkRenamingRun(t *testing.T, inputs []string, wirings [][]int, s sched.Scheduler, nondet bool) []int {
	t.Helper()
	sys, _, err := NewSystem(Config{Inputs: inputs, Wirings: wirings, Nondet: nondet})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sys, s, maxSteps(len(inputs)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != sched.StopAllDone {
		t.Fatalf("renaming did not terminate: %+v", res)
	}
	names, done := Names(sys)
	outs := make([]tasks.RenamingOutput, len(names))
	for i := range names {
		outs[i] = tasks.RenamingOutput{Name: names[i], Done: done[i]}
	}
	e := tasks.Execution{Groups: inputs}
	if err := tasks.CheckGroupRenaming(e, tasks.RenamingParam, outs); err != nil {
		t.Errorf("group renaming violated: %v", err)
	}
	if err := tasks.CheckGroupRenamingBrute(e, tasks.RenamingParam, outs); err != nil {
		t.Errorf("group renaming violated (brute): %v", err)
	}
	return names
}

func TestNameFor(t *testing.T) {
	w := view.Of(2, 5, 9)
	cases := []struct {
		id   view.ID
		want int
	}{{2, 4}, {5, 5}, {9, 6}} // z=3: base 3(2)/2=3, ranks 1..3
	for _, c := range cases {
		got, err := NameFor(w, c.id)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("NameFor(%d) = %d, want %d", c.id, got, c.want)
		}
	}
	if _, err := NameFor(w, 3); err == nil {
		t.Error("NameFor of non-member did not error")
	}
	// Size-1 snapshot gets name 1.
	if got, _ := NameFor(view.Of(4), 4); got != 1 {
		t.Errorf("singleton name = %d, want 1", got)
	}
}

func TestRenamingSolo(t *testing.T) {
	// A solo processor sees only itself: snapshot {own}, name 1.
	sys, _, err := NewSystem(Config{Inputs: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(sys, sched.NewSolo(1), 100, nil); err != nil {
		t.Fatal(err)
	}
	names, done := Names(sys)
	if !done[0] || names[0] != 1 {
		t.Errorf("solo name = %v %v, want 1", names, done)
	}
}

func TestRenamingDistinctGroupsSchedulers(t *testing.T) {
	inputs := []string{"a", "b", "c", "d"}
	schedulers := map[string]func() sched.Scheduler{
		"roundrobin": func() sched.Scheduler { return &sched.RoundRobin{} },
		"random":     func() sched.Scheduler { return sched.NewRandom(11) },
		"solo":       func() sched.Scheduler { return sched.NewSolo(4) },
		"coverer":    func() sched.Scheduler { return &sched.Coverer{} },
	}
	for name, mk := range schedulers {
		t.Run(name, func(t *testing.T) {
			names := checkRenamingRun(t, inputs, anonmem.RotationWirings(4, 4), mk(), false)
			// Distinct groups ⇒ all names distinct and within 1..10.
			seen := map[int]bool{}
			for _, n := range names {
				if seen[n] {
					t.Errorf("duplicate name %d in %v", n, names)
				}
				seen[n] = true
			}
		})
	}
}

func TestRenamingSequentialIsPerfect(t *testing.T) {
	// Fully sequential runs rename perfectly adaptively: the k-th
	// processor sees exactly k groups, getting name k(k−1)/2 + k.
	inputs := []string{"a", "b", "c"}
	names := checkRenamingRun(t, inputs, nil, sched.NewSolo(3), false)
	want := []int{1, 3, 6}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("names = %v, want %v", names, want)
	}
}

func TestRenamingWithGroupsRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		groups := []string{"G1", "G2", "G3"}
		inputs := make([]string, n)
		for i := range inputs {
			inputs[i] = groups[rng.Intn(len(groups))]
		}
		sys, _, err := NewSystem(Config{
			Inputs:  inputs,
			Wirings: anonmem.RandomWirings(rng, n, n),
			Nondet:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(sys, &sched.Random{Rng: rng, ChoiceRandom: true}, maxSteps(n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != sched.StopAllDone {
			t.Fatalf("seed %d: did not terminate", seed)
		}
		names, done := Names(sys)
		outs := make([]tasks.RenamingOutput, n)
		for i := range outs {
			outs[i] = tasks.RenamingOutput{Name: names[i], Done: done[i]}
		}
		e := tasks.Execution{Groups: inputs}
		if err := tasks.CheckGroupRenamingBrute(e, tasks.RenamingParam, outs); err != nil {
			t.Errorf("seed %d: %v (names=%v groups=%v)", seed, err, names, inputs)
		}
	}
}

func TestRenamingAdaptiveBound(t *testing.T) {
	// The bound depends on participating groups, not processors: many
	// processors in few groups must still fit within f(#groups).
	inputs := []string{"g1", "g1", "g1", "g2"}
	names := checkRenamingRun(t, inputs, nil, &sched.RoundRobin{}, false)
	bound := tasks.RenamingParam(2) // 3
	for p, n := range names {
		if n > bound {
			t.Errorf("p%d name %d exceeds adaptive bound %d", p, n, bound)
		}
	}
}

func TestRenamingCloneAndStateKey(t *testing.T) {
	r := New(2, 2, 0, false)
	cp := r.CloneInto(nil).(*Renaming)
	if r.StateKey() != cp.StateKey() {
		t.Error("clone differs immediately")
	}
	cp.Advance(0, nil)
	if r.StateKey() == cp.StateKey() {
		t.Error("clone advance affected original")
	}
}

func TestRenamingAdvanceAfterDonePanics(t *testing.T) {
	sys, _, err := NewSystem(Config{Inputs: []string{"g"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(sys, sched.NewSolo(1), 100, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	sys.Procs[0].Advance(0, nil)
}

func TestRenamingViewerInterface(t *testing.T) {
	r := New(2, 2, 3, false)
	if !r.View().Equal(view.Of(3)) {
		t.Errorf("initial view = %v", r.View())
	}
	var _ core.Viewer = r
}

func TestNewSystemValidation(t *testing.T) {
	if _, _, err := NewSystem(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, _, err := NewSystem(Config{Inputs: []string{"a"}, Wirings: [][]int{{3}}}); err == nil {
		t.Error("bad wiring accepted")
	}
}
