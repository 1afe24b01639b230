// Package renaming implements the adaptive renaming algorithm of Section 6
// (Figure 4): the Bar-Noy–Dolev transformation from snapshots to names in
// the range 1..n(n+1)/2, running on top of the GROUP solution to the
// snapshot task of Section 5.
//
// A processor takes a snapshot W of the participating group identifiers,
// ranks its own group within W (position r in the sorted order, 1-based),
// and takes the name z(z−1)/2 + r where z = |W|: name 1 is reserved for
// the snapshot of size 1, names 2 and 3 for snapshots of size 2, and so
// on. The subtlety the paper highlights (and Gafni 2004 glossed over) is
// that with a group snapshot, two same-group processors may obtain
// incomparable snapshots; because any such pair "reserves" all the sizes
// between the intersection and the union of their snapshots, cross-group
// name collisions still cannot happen, while same-group collisions are
// permitted by group solvability.
package renaming

import (
	"fmt"
	"strconv"

	"anonshm/internal/anonmem"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// Name is the output word: the acquired name, ≥ 1.
type Name int

// Key implements anonmem.Word.
func (n Name) Key() string { return strconv.Itoa(int(n)) }

var _ anonmem.Word = Name(0)

// AppendState appends the name's word encoding: the tag, then the name
// (canon.Encoder).
func (n Name) AppendState(dst []uint64) []uint64 {
	return append(dst, machine.TagName.Word(0), uint64(n))
}

// NameFor computes the Bar-Noy–Dolev name for a snapshot W and a group
// that must be a member of W: z(z−1)/2 + rank.
func NameFor(w view.View, group view.ID) (int, error) {
	r, ok := w.Rank(group)
	if !ok {
		return 0, fmt.Errorf("renaming: group %d not in snapshot %v", group, w)
	}
	z := w.Len()
	return z*(z-1)/2 + r, nil
}

// Renaming is the Figure 4 machine: it drives an embedded Figure 3
// snapshot machine and converts the resulting snapshot into a name.
type Renaming struct {
	snap  *core.Snapshot
	input view.ID
	ready bool // snapshot complete, name computed, output step pending
	done  bool
	name  int
}

// New returns a renaming machine for n processors over m registers whose
// group identifier is input.
func New(n, m int, input view.ID, nondet bool) *Renaming {
	return &Renaming{snap: core.NewSnapshot(n, m, input, nondet), input: input}
}

var _ machine.Machine = (*Renaming)(nil)
var _ core.Viewer = (*Renaming)(nil)

// View implements core.Viewer (the embedded snapshot's view).
func (r *Renaming) View() view.View { return r.snap.View() }

// Snapshot returns the embedded snapshot machine's final view; meaningful
// once the name is computed.
func (r *Renaming) Snapshot() view.View { return r.snap.SnapshotView() }

// Name returns the acquired name; it is only meaningful once Done.
func (r *Renaming) Name() int { return r.name }

// Pending implements machine.Machine.
func (r *Renaming) Pending() []machine.Op {
	if r.done {
		return nil
	}
	if r.ready {
		return []machine.Op{{Kind: machine.OpOutput, Word: Name(r.name)}}
	}
	return r.snap.Pending()
}

// Advance implements machine.Machine.
func (r *Renaming) Advance(choice int, read anonmem.Word) {
	if r.done {
		panic("renaming: Advance on terminated machine")
	}
	if r.ready {
		r.done = true
		return
	}
	r.snap.Advance(choice, read)
	// The embedded machine's output step is pure local computation; absorb
	// it into this step and compute the name (still one PlusCal label).
	if !r.snap.Done() && r.snap.Pending()[0].Kind == machine.OpOutput {
		r.snap.Advance(0, nil)
		name, err := NameFor(r.snap.SnapshotView(), r.input)
		if err != nil {
			panic(err) // unreachable: snapshots always contain the own input
		}
		r.name = name
		r.ready = true
	}
}

// Done implements machine.Machine.
func (r *Renaming) Done() bool { return r.done }

// Output implements machine.Machine.
func (r *Renaming) Output() anonmem.Word {
	if !r.done {
		return nil
	}
	return Name(r.name)
}

// CloneInto implements machine.Machine: the embedded snapshot machine is
// copied into dst's own.
func (r *Renaming) CloneInto(dst machine.Machine) machine.Machine {
	d := machine.Reuse[Renaming](dst)
	snap := d.snap
	*d = *r
	d.snap = r.snap.CloneInto(snap).(*core.Snapshot)
	return d
}

// StateKey implements machine.Machine.
func (r *Renaming) StateKey() string {
	switch {
	case r.done:
		return "rn:d:" + strconv.Itoa(r.name)
	case r.ready:
		return "rn:o:" + strconv.Itoa(r.name)
	default:
		return "rn:" + r.snap.StateKey()
	}
}

// AppendState appends the word encoding of the fields StateKey renders
// (canon.Encoder): the tag word with the stage (0 running, 1 output
// pending, 2 done), then the name once it is computed, or the embedded
// snapshot machine's encoding while it runs.
func (r *Renaming) AppendState(dst []uint64) []uint64 {
	switch {
	case r.done:
		return append(dst, machine.TagRenaming.Word(2), uint64(r.name))
	case r.ready:
		return append(dst, machine.TagRenaming.Word(1), uint64(r.name))
	default:
		return r.snap.AppendState(append(dst, machine.TagRenaming.Word(0)))
	}
}

// SymmetryClass identifies the machine for the symmetry-reduction layer
// (canon.Symmetric). The group identifier is part of the class: NameFor
// ranks the own group within the snapshot, so the algorithm is NOT
// oblivious to value identity and only equal-input processors may be
// exchanged (no canon.Relabelable).
func (r *Renaming) SymmetryClass() string {
	return "rn:" + r.snap.SymmetryClass() + ":in" + strconv.Itoa(int(r.input))
}

// Config mirrors core.Config for building renaming systems.
type Config = core.Config

// NewSystem builds a system of renaming machines plus the interner mapping
// group labels to view IDs.
func NewSystem(c Config) (*machine.System, *view.Interner, error) {
	if len(c.Inputs) == 0 {
		return nil, nil, fmt.Errorf("renaming: no inputs")
	}
	in := view.NewInterner()
	m := c.Registers
	if m == 0 {
		m = len(c.Inputs)
	}
	procs := make([]machine.Machine, len(c.Inputs))
	for i, label := range c.Inputs {
		procs[i] = New(len(c.Inputs), m, in.Intern(label), c.Nondet)
	}
	wirings := c.Wirings
	if wirings == nil {
		wirings = anonmem.IdentityWirings(len(c.Inputs), m)
	}
	mem, err := anonmem.New(m, core.EmptyCell, wirings)
	if err != nil {
		return nil, nil, err
	}
	sys, err := machine.NewSystem(mem, procs)
	if err != nil {
		return nil, nil, err
	}
	return sys, in, nil
}

// Names extracts the acquired names of terminated machines.
func Names(sys *machine.System) ([]int, []bool) {
	names := make([]int, sys.N())
	done := make([]bool, sys.N())
	for i, m := range sys.Procs {
		if !m.Done() {
			continue
		}
		n, ok := m.Output().(Name)
		if !ok {
			continue
		}
		names[i] = int(n)
		done[i] = true
	}
	return names, done
}
