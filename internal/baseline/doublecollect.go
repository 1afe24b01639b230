// Package baseline implements the comparators the paper positions itself
// against:
//
//   - the classic double-collect snapshot rule ("terminate when two
//     consecutive scans read the same values everywhere"), which Section 4
//     shows is NOT a valid termination rule in the fully-anonymous model —
//     the Figure 2 shadows complete arbitrarily many identical collects
//     while holding incomparable views;
//   - a Guerraoui–Ruppert-style weak counter (the core of their anonymous
//     atomic snapshot), whose register race fundamentally requires a
//     shared ordering of the registers and therefore breaks under
//     anonymous wirings (Section 8, Related work).
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

// DoubleCollect is the baseline snapshot rule: write your view once, then
// repeatedly scan all registers; when two consecutive scans return
// identical contents register by register, output your view. The
// write-scan structure (including fair rewrites of the view) matches
// Figure 1, so the Figure 2 pathology applies: the rule terminates with
// incomparable outputs under covering schedules.
type DoubleCollect struct {
	m         int
	v         view.View
	unwritten uint64
	phase     dcPhase
	scanIdx   int
	prev      []view.View // previous collect, one view per register
	cur       []view.View
	acc       view.View
	collects  int
	done      bool
	out       view.View
}

type dcPhase uint8

const (
	dcWrite dcPhase = iota + 1
	dcScan
	dcOutput
	dcDone
)

// NewDoubleCollect returns a double-collect machine over m registers with
// initial view {input}.
func NewDoubleCollect(m int, input view.ID) *DoubleCollect {
	if m <= 0 || m > 64 {
		panic(fmt.Sprintf("baseline: register count %d out of range", m))
	}
	return &DoubleCollect{
		m:         m,
		v:         view.Of(input),
		unwritten: (uint64(1) << uint(m)) - 1,
		phase:     dcWrite,
	}
}

var (
	_ machine.Machine = (*DoubleCollect)(nil)
	_ core.Viewer     = (*DoubleCollect)(nil)
)

// View implements core.Viewer.
func (d *DoubleCollect) View() view.View { return d.v }

// Collects returns the number of completed scans.
func (d *DoubleCollect) Collects() int { return d.collects }

// Pending implements machine.Machine.
func (d *DoubleCollect) Pending() []machine.Op {
	switch d.phase {
	case dcWrite:
		r := 0
		for ; r < d.m; r++ {
			if d.unwritten&(1<<uint(r)) != 0 {
				break
			}
		}
		return []machine.Op{{Kind: machine.OpWrite, Reg: r, Word: core.Cell{View: d.v}}}
	case dcScan:
		return []machine.Op{{Kind: machine.OpRead, Reg: d.scanIdx}}
	case dcOutput:
		return []machine.Op{{Kind: machine.OpOutput, Word: core.Cell{View: d.out}}}
	case dcDone:
		return nil
	default:
		panic("baseline: invalid phase")
	}
}

// Advance implements machine.Machine.
func (d *DoubleCollect) Advance(_ int, read anonmem.Word) {
	switch d.phase {
	case dcWrite:
		r := 0
		for ; r < d.m; r++ {
			if d.unwritten&(1<<uint(r)) != 0 {
				break
			}
		}
		d.unwritten &^= 1 << uint(r)
		if d.unwritten == 0 {
			d.unwritten = (uint64(1) << uint(d.m)) - 1
		}
		d.phase = dcScan
		d.scanIdx = 0
		d.cur = d.cur[:0]
		d.acc = view.Empty()
	case dcScan:
		cell, ok := read.(core.Cell)
		if !ok {
			panic(fmt.Sprintf("baseline: read unexpected word %T", read))
		}
		d.cur = append(d.cur, cell.View)
		d.acc = d.acc.Union(cell.View)
		d.scanIdx++
		if d.scanIdx == d.m {
			d.collects++
			// prev and cur keep separate storage, which each copy owns
			// (CloneInto), so the next collect can reuse cur's.
			same := len(d.prev) > 0 && equalViews(d.prev, d.cur)
			d.prev = append(d.prev[:0], d.cur...)
			d.v = d.v.Union(d.acc)
			if same {
				d.out = d.v
				d.phase = dcOutput
			} else {
				// Re-assert the view (fairly) and collect again.
				d.phase = dcWrite
			}
		}
	case dcOutput:
		d.phase = dcDone
	case dcDone:
		panic("baseline: Advance on terminated machine")
	}
}

func equalViews(a, b []view.View) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Done implements machine.Machine.
func (d *DoubleCollect) Done() bool { return d.phase == dcDone }

// Output implements machine.Machine.
func (d *DoubleCollect) Output() anonmem.Word {
	if d.phase != dcDone {
		return nil
	}
	return core.Cell{View: d.out}
}

// CloneInto implements machine.Machine. The two collects are the only
// state Advance mutates in place, so they are copied into dst's own
// slices; views are immutable.
func (d *DoubleCollect) CloneInto(dst machine.Machine) machine.Machine {
	cp := machine.Reuse[DoubleCollect](dst)
	prev, cur := cp.prev, cp.cur
	*cp = *d
	cp.prev = append(prev[:0], d.prev...)
	cp.cur = append(cur[:0], d.cur...)
	return cp
}

// StateKey implements machine.Machine.
func (d *DoubleCollect) StateKey() string {
	var sb strings.Builder
	sb.WriteString("dc:")
	sb.WriteString(d.v.Key())
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatUint(d.unwritten, 16))
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(int(d.phase)))
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(d.scanIdx))
	sb.WriteByte(':')
	writeKeys(&sb, d.prev)
	sb.WriteByte(';')
	writeKeys(&sb, d.cur)
	return sb.String()
}

// writeKeys renders a collect as its views' keys, comma-separated.
func writeKeys(sb *strings.Builder, collect []view.View) {
	for i, v := range collect {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(v.Key())
	}
}

// AppendState appends the word encoding of the fields StateKey renders
// (canon.Encoder): the tag word with the phase and the scan index (at
// most m ≤ 64), the unwritten mask, the view, then the previous and the
// current collect, each as its length followed by its views.
func (d *DoubleCollect) AppendState(dst []uint64) []uint64 {
	dst = append(dst, machine.TagDoubleCollect.Word(uint64(d.phase)|uint64(d.scanIdx)<<8), d.unwritten)
	dst = d.v.AppendWords(dst)
	for _, collect := range [2][]view.View{d.prev, d.cur} {
		dst = append(dst, uint64(len(collect)))
		for _, v := range collect {
			dst = v.AppendWords(dst)
		}
	}
	return dst
}
