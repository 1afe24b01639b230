package baseline

import (
	"fmt"
	"strconv"
	"strings"

	"anonshm/internal/anonmem"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// Blocking is the deliberately non-wait-free comparator: announce your
// input once, then scan the registers until you see some OTHER processor's
// announcement, and only then output the union. Any two processors running
// together terminate, so the algorithm looks fine under fair schedules —
// but a processor running alone (equivalently, one whose peers have all
// crashed) scans forever. It is the minimal witness that crash faults and
// solo executions, not fair interleavings, are what wait-freedom is about,
// and the negative fixture for the explore package's WaitFree invariant
// and cycle detection: its solo scan loop revisits states, so the step
// graph has a cycle and every solo-step bound is exceeded.
type Blocking struct {
	m       int
	v       view.View
	phase   blkPhase
	scanIdx int
	out     view.View
}

type blkPhase uint8

const (
	blkAnnounce blkPhase = iota + 1
	blkWait
	blkOutput
	blkDone
)

// NewBlocking returns a blocking machine over m registers with input id.
func NewBlocking(m int, input view.ID) *Blocking {
	if m <= 0 || m > 64 {
		panic(fmt.Sprintf("baseline: register count %d out of range", m))
	}
	return &Blocking{m: m, v: view.Of(input), phase: blkAnnounce}
}

var (
	_ machine.Machine = (*Blocking)(nil)
	_ core.Viewer     = (*Blocking)(nil)
)

// View implements core.Viewer.
func (b *Blocking) View() view.View { return b.v }

// Pending implements machine.Machine.
func (b *Blocking) Pending() []machine.Op {
	switch b.phase {
	case blkAnnounce:
		return []machine.Op{{Kind: machine.OpWrite, Reg: 0, Word: core.Cell{View: b.v}}}
	case blkWait:
		return []machine.Op{{Kind: machine.OpRead, Reg: b.scanIdx}}
	case blkOutput:
		return []machine.Op{{Kind: machine.OpOutput, Word: core.Cell{View: b.out}}}
	case blkDone:
		return nil
	default:
		panic("baseline: invalid phase")
	}
}

// Advance implements machine.Machine.
func (b *Blocking) Advance(_ int, read anonmem.Word) {
	switch b.phase {
	case blkAnnounce:
		b.phase = blkWait
		b.scanIdx = 0
	case blkWait:
		cell, ok := read.(core.Cell)
		if !ok {
			panic(fmt.Sprintf("baseline: read unexpected word %T", read))
		}
		b.v = b.v.Union(cell.View)
		if b.v.Len() > 1 {
			// Heard from a peer: safe to finish. Alone, this never fires.
			b.out = b.v
			b.phase = blkOutput
			return
		}
		b.scanIdx = (b.scanIdx + 1) % b.m
	case blkOutput:
		b.phase = blkDone
	case blkDone:
		panic("baseline: Advance on terminated machine")
	}
}

// Done implements machine.Machine.
func (b *Blocking) Done() bool { return b.phase == blkDone }

// Output implements machine.Machine.
func (b *Blocking) Output() anonmem.Word {
	if b.phase != blkDone {
		return nil
	}
	return core.Cell{View: b.out}
}

// CloneInto implements machine.Machine. Views are immutable, so copying
// the fields is a deep copy.
func (b *Blocking) CloneInto(dst machine.Machine) machine.Machine {
	d := machine.Reuse[Blocking](dst)
	*d = *b
	return d
}

// StateKey implements machine.Machine.
func (b *Blocking) StateKey() string {
	var sb strings.Builder
	sb.WriteString("blk:")
	sb.WriteString(b.v.Key())
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(int(b.phase)))
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(b.scanIdx))
	return sb.String()
}

// AppendState appends the word encoding of the fields StateKey renders
// (canon.Encoder): the tag word with the phase and the scan index (below
// m ≤ 64), then the view.
func (b *Blocking) AppendState(dst []uint64) []uint64 {
	dst = append(dst, machine.TagBlocking.Word(uint64(b.phase)|uint64(b.scanIdx)<<8))
	return b.v.AppendWords(dst)
}
