package core

import (
	"fmt"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// Config describes a fully-anonymous system running one of the core
// algorithms.
type Config struct {
	// Inputs holds one input label per processor; processors with equal
	// labels form a group in the sense of Section 3.2.
	Inputs []string
	// Registers is M, the number of shared registers. Zero means N (the
	// paper's algorithms all use exactly N registers).
	Registers int
	// Wirings holds one permutation of 0..M-1 per processor; nil means
	// identity wirings. Use anonmem.RandomWirings or RotationWirings for
	// adversarial settings.
	Wirings [][]int
	// Nondet exposes the algorithms' internal register-choice
	// nondeterminism to the scheduler/explorer.
	Nondet bool
	// Level overrides the snapshot termination level (default N). Used
	// only by the level-threshold ablation; levels below N−1 are unsafe.
	Level int
}

func (c Config) registers() int {
	if c.Registers > 0 {
		return c.Registers
	}
	return len(c.Inputs)
}

func (c Config) wirings(m int) [][]int {
	if c.Wirings != nil {
		return c.Wirings
	}
	return anonmem.IdentityWirings(len(c.Inputs), m)
}

func (c Config) validate() error {
	if len(c.Inputs) == 0 {
		return fmt.Errorf("core: no inputs")
	}
	m := c.registers()
	if m <= 0 || m > 64 {
		return fmt.Errorf("core: register count %d out of range [1,64]", m)
	}
	if c.Wirings != nil && len(c.Wirings) != len(c.Inputs) {
		return fmt.Errorf("core: %d wirings for %d processors", len(c.Wirings), len(c.Inputs))
	}
	return nil
}

// NewSnapshotSystem builds a system of Figure 3 snapshot machines plus the
// interner mapping input labels to view IDs.
func NewSnapshotSystem(c Config) (*machine.System, *view.Interner, error) {
	if err := c.validate(); err != nil {
		return nil, nil, err
	}
	in := view.NewInterner()
	m := c.registers()
	level := c.Level
	if level == 0 {
		level = len(c.Inputs)
	}
	procs := make([]machine.Machine, len(c.Inputs))
	for i, label := range c.Inputs {
		procs[i] = NewSnapshotAtLevel(level, m, in.Intern(label), c.Nondet)
	}
	mem, err := anonmem.New(m, EmptyCell, c.wirings(m))
	if err != nil {
		return nil, nil, err
	}
	sys, err := machine.NewSystem(mem, procs)
	if err != nil {
		return nil, nil, err
	}
	return sys, in, nil
}

// NewWriteScanSystem builds a system of Figure 1 write-scan machines plus
// the interner mapping input labels to view IDs.
func NewWriteScanSystem(c Config) (*machine.System, *view.Interner, error) {
	if err := c.validate(); err != nil {
		return nil, nil, err
	}
	in := view.NewInterner()
	m := c.registers()
	procs := make([]machine.Machine, len(c.Inputs))
	for i, label := range c.Inputs {
		procs[i] = NewWriteScan(m, in.Intern(label), c.Nondet)
	}
	mem, err := anonmem.New(m, EmptyCell, c.wirings(m))
	if err != nil {
		return nil, nil, err
	}
	sys, err := machine.NewSystem(mem, procs)
	if err != nil {
		return nil, nil, err
	}
	return sys, in, nil
}

// SnapshotOutputs extracts the snapshot views of all terminated machines,
// indexed by processor; entries are zero Views for processors that have
// not terminated (check the ok slice).
func SnapshotOutputs(sys *machine.System) ([]view.View, []bool) {
	outs := make([]view.View, sys.N())
	ok := make([]bool, sys.N())
	for i, m := range sys.Procs {
		outs[i], ok[i] = SnapshotOutput(m)
	}
	return outs, ok
}

// SnapshotOutput is SnapshotOutputs for one machine, without allocating:
// its output view once it has terminated with a Cell, else ok is false.
func SnapshotOutput(m machine.Machine) (view.View, bool) {
	if !m.Done() {
		return view.View{}, false
	}
	cell, ok := m.Output().(Cell)
	return cell.View, ok
}
