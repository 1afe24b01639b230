package sched

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
	"anonshm/internal/obs"
	"anonshm/internal/obs/span"
)

// wrm writes its tag to register 0, reads register 0, then outputs —
// the minimal machine exercising every op kind and a covering overwrite
// when two of them interleave.
type wrm struct {
	tag word
	pc  int
}

func (m *wrm) Pending() []machine.Op {
	switch m.pc {
	case 0:
		return []machine.Op{{Kind: machine.OpWrite, Reg: 0, Word: m.tag}}
	case 1:
		return []machine.Op{{Kind: machine.OpRead, Reg: 0}}
	case 2:
		return []machine.Op{{Kind: machine.OpOutput, Word: m.tag}}
	default:
		return nil
	}
}
func (m *wrm) Advance(int, anonmem.Word) { m.pc++ }
func (m *wrm) Done() bool                { return m.pc >= 3 }
func (m *wrm) Output() anonmem.Word {
	if !m.Done() {
		return nil
	}
	return m.tag
}
func (m *wrm) CloneInto(dst machine.Machine) machine.Machine {
	d := machine.Reuse[wrm](dst)
	*d = *m
	return d
}
func (m *wrm) StateKey() string { return string(m.tag) + string(rune('0'+m.pc)) }

func runInstrumented(t *testing.T, reg *obs.Registry, sink *obs.Sink) *Instrument {
	t.Helper()
	mem, err := anonmem.New(1, word("-"), anonmem.IdentityWirings(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, []machine.Machine{&wrm{tag: "a"}, &wrm{tag: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstrument(reg, sink)
	// a writes, b covers a's write, both read (from b), both output.
	if _, err := Run(sys, &Scripted{Script: Procs(0, 1, 0, 1, 0, 1)}, 100, in); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInstrumentCounters(t *testing.T) {
	reg := obs.New()
	in := runInstrumented(t, reg, nil)

	steps := in.ProcSteps()
	if len(steps) != 2 || steps[0] != 3 || steps[1] != 3 {
		t.Errorf("proc steps = %v, want [3 3]", steps)
	}
	access := in.RegisterAccess()
	if len(access) != 1 {
		t.Fatalf("register access = %v", access)
	}
	// Two writes, two reads, and b's write covered a's differing word.
	if access[0].Reads != 2 || access[0].Writes != 2 || access[0].Coverings != 1 {
		t.Errorf("register 0 access = %+v, want reads=2 writes=2 coverings=1", access[0])
	}

	if got := reg.Counter("sched_ops_total", obs.L("op", "output")).Value(); got != 2 {
		t.Errorf("output ops = %d, want 2", got)
	}
	// Both reads observed b's write: two reader->writer=1 edges.
	if got := reg.Counter("sched_readfrom_total", obs.L("reader", "0"), obs.L("writer", "1")).Value(); got != 1 {
		t.Errorf("readfrom{0,1} = %d, want 1", got)
	}
	if got := reg.Counter("sched_readfrom_total", obs.L("reader", "1"), obs.L("writer", "1")).Value(); got != 1 {
		t.Errorf("readfrom{1,1} = %d, want 1", got)
	}
}

func TestInstrumentStepEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	runInstrumented(t, obs.New(), sink)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d step events, want 6", len(lines))
	}
	var second obs.Event
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Type != "step" || second.T != 1 {
		t.Errorf("event = %+v", second)
	}
	if second.Fields["op"] != "write" || second.Fields["covering"] != true {
		t.Errorf("b's covering write not flagged: %v", second.Fields)
	}
}

// TestInstrumentCrashInstant checks that an attached tracer receives an
// instant event per injected crash fault, and that the nil tracer is a
// no-op.
func TestInstrumentCrashInstant(t *testing.T) {
	tr := span.Collect()
	in := NewInstrument(obs.New(), nil).WithTrace(tr)
	crash := machine.StepInfo{Proc: 1, Op: machine.Op{Kind: machine.OpCrash}, Global: -1, ReadFrom: -1, PrevWriter: -1}
	in.OnStep(4, crash, nil)
	in.OnStep(9, machine.StepInfo{Proc: 0, Op: machine.Op{Kind: machine.OpOutput}, Global: -1, ReadFrom: -1, PrevWriter: -1}, nil)
	if got := tr.PhaseCounts()["sched.crash"]; got != 1 {
		t.Errorf("sched.crash instants = %d, want 1", got)
	}
	// Untouched tracer: crash accounting still works.
	in2 := NewInstrument(obs.New(), nil)
	in2.OnStep(0, crash, nil)
	if in2.Crashes() != 1 {
		t.Errorf("crashes = %d, want 1", in2.Crashes())
	}
}

// TestInstrumentNilRegistry checks the disabled path records nothing and
// does not panic.
func TestInstrumentNilRegistry(t *testing.T) {
	in := runInstrumented(t, nil, nil)
	if got := in.RegisterAccess(); len(got) != 1 || got[0].Reads != 0 {
		t.Errorf("nil-registry access = %v", got)
	}
}

func TestObservers(t *testing.T) {
	if Observers(nil, nil) != nil {
		t.Error("all-nil Observers != nil")
	}
	var calls []string
	a := ObserverFunc(func(int, machine.StepInfo, *machine.System) { calls = append(calls, "a") })
	b := ObserverFunc(func(int, machine.StepInfo, *machine.System) { calls = append(calls, "b") })
	if got := Observers(a); got == nil {
		t.Error("single observer dropped")
	}
	combined := Observers(a, nil, b)
	combined.OnStep(0, machine.StepInfo{}, nil)
	if len(calls) != 2 || calls[0] != "a" || calls[1] != "b" {
		t.Errorf("calls = %v", calls)
	}
}
