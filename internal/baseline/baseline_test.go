package baseline

import (
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/sched"
	"anonshm/internal/stableview"
	"anonshm/internal/view"
)

func TestDoubleCollectSolo(t *testing.T) {
	in := view.NewInterner()
	dc := NewDoubleCollect(2, in.Intern("a"))
	mem, err := anonmem.New(2, core.EmptyCell, anonmem.IdentityWirings(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, []machine.Machine{dc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sys, sched.NewSolo(1), 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != sched.StopAllDone {
		t.Fatalf("solo double collect did not terminate: %+v", res)
	}
	out := dc.Output().(core.Cell)
	id, _ := in.Lookup("a")
	if !out.View.Equal(view.Of(id)) {
		t.Errorf("output = %v", out.View)
	}
	if dc.Collects() < 2 {
		t.Errorf("collects = %d", dc.Collects())
	}
}

func TestDoubleCollectTwoProcsRoundRobin(t *testing.T) {
	in := view.NewInterner()
	a, b := in.Intern("a"), in.Intern("b")
	mem, err := anonmem.New(2, core.EmptyCell, anonmem.IdentityWirings(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, []machine.Machine{
		NewDoubleCollect(2, a), NewDoubleCollect(2, b),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sys, &sched.RoundRobin{}, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != sched.StopAllDone {
		t.Fatalf("did not terminate: %+v", res)
	}
}

// TestDoubleCollectFailsUnderFigure2 is the E11 ablation: the Figure 2
// covering pattern drives two double-collect shadows to terminate with
// INCOMPARABLE outputs — double collect is not a valid snapshot rule in
// the fully-anonymous model. The level rule of Figure 3 exists precisely
// to rule this out.
func TestDoubleCollectFailsUnderFigure2(t *testing.T) {
	outs, in, err := Figure2DoubleCollectDemo(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outputs = %v", outs)
	}
	if outs[0].ComparableWith(outs[1]) {
		t.Fatalf("shadow outputs comparable: %s vs %s — pathology not reproduced",
			outs[0].Format(in), outs[1].Format(in))
	}
	if got := outs[0].Format(in); got != "{1,2}" {
		t.Errorf("shadow p output = %s, want {1,2}", got)
	}
	if got := outs[1].Format(in); got != "{1,3}" {
		t.Errorf("shadow p' output = %s, want {1,3}", got)
	}
}

func TestDoubleCollectPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad m", func() { NewDoubleCollect(0, 0) })
	mustPanic("bad word", func() {
		dc := NewDoubleCollect(1, 0)
		dc.Advance(0, nil) // write
		dc.Advance(0, Mark(true))
	})
}

func TestWeakCounterSequentialIdentity(t *testing.T) {
	// Non-anonymous memory (identity wirings): sequential increments
	// return 1, 2, 3 — the property GR's snapshot relies on.
	n := 3
	mem, err := anonmem.New(n, UnsetMark, anonmem.IdentityWirings(n, n))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]machine.Machine, n)
	for i := range procs {
		procs[i] = NewWeakCounter(n)
	}
	sys, err := machine.NewSystem(mem, procs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sys, sched.NewSolo(n), 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != sched.StopAllDone {
		t.Fatalf("did not terminate: %+v", res)
	}
	for p := 0; p < n; p++ {
		if got := int(sys.Procs[p].Output().(Value)); got != p+1 {
			t.Errorf("p%d counter = %d, want %d", p, got, p+1)
		}
	}
}

// TestWeakCounterBreaksUnderAnonymity shows the race collapsing without a
// shared register order: with rotated wirings, sequential increments all
// return 1 — monotonicity, the property GR's construction needs, is gone.
func TestWeakCounterBreaksUnderAnonymity(t *testing.T) {
	n := 3
	mem, err := anonmem.New(n, UnsetMark, anonmem.RotationWirings(n, n))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]machine.Machine, n)
	for i := range procs {
		procs[i] = NewWeakCounter(n)
	}
	sys, err := machine.NewSystem(mem, procs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(sys, sched.NewSolo(n), 1000, nil); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if got := int(sys.Procs[p].Output().(Value)); got != 1 {
			t.Errorf("p%d counter = %d, want 1 (each races along its own order)", p, got)
		}
	}
}

func TestWeakCounterExhaustion(t *testing.T) {
	mem, err := anonmem.New(1, Mark(true), anonmem.IdentityWirings(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, []machine.Machine{NewWeakCounter(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(sys, sched.NewSolo(1), 100, nil); err != nil {
		t.Fatal(err)
	}
	if got := int(sys.Procs[0].Output().(Value)); got != 2 {
		t.Errorf("exhausted counter = %d, want m+1 = 2", got)
	}
}

func TestWeakCounterCloneAndStateKey(t *testing.T) {
	w := NewWeakCounter(2)
	cp := w.CloneInto(nil).(*WeakCounter)
	cp.Advance(0, Mark(true))
	if w.StateKey() == cp.StateKey() {
		t.Error("clone advance affected original")
	}
	var _ = stableview.Hook(nil) // keep import for the demo file
}
