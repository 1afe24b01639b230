package core

import (
	"fmt"
	"strconv"
	"strings"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// WriteScan is the non-terminating write-scan loop of Section 4 (Figure 1).
//
// The processor starts with the view {input} and forever alternates between
// (a) writing its view to one register it has not written since it last
// wrote all of them — the paper's write-fairness requirement — and (b) a
// scan reading all M registers one by one, after which everything read is
// added to the view.
//
// The machine never terminates; it exists to study the eventual pattern:
// which views can be maintained forever (stable views), and what structure
// they form (Theorem 4.8: a DAG with a unique source).
type WriteScan struct {
	m         int     // number of registers
	input     view.ID // initial input (symmetry reduction only)
	nondet    bool    // expose all fair write choices to the explorer
	phase     phase
	v         view.View
	unwritten uint64 // bitmask over local register indices, fairness bookkeeping
	scanIdx   int
	acc       view.View // union of views read during the current scan
	scans     int       // completed scans, for stabilization detection
}

type phase uint8

const (
	phaseWrite phase = iota + 1
	phaseScan
)

// allRegs returns the full unwritten mask for m registers.
func allRegs(m int) uint64 { return (uint64(1) << uint(m)) - 1 }

// NewWriteScan returns a write-scan machine over m registers whose initial
// view is {input}. If nondet is true, Pending exposes every fair choice of
// register to write (the PlusCal `with` nondeterminism); otherwise the
// machine deterministically writes the lowest-indexed unwritten register.
func NewWriteScan(m int, input view.ID, nondet bool) *WriteScan {
	if m <= 0 || m > 64 {
		panic(fmt.Sprintf("core: register count %d out of range [1,64]", m))
	}
	return &WriteScan{
		m:         m,
		input:     input,
		nondet:    nondet,
		phase:     phaseWrite,
		v:         view.Of(input),
		unwritten: allRegs(m),
	}
}

var _ machine.Machine = (*WriteScan)(nil)
var _ Viewer = (*WriteScan)(nil)

// View implements Viewer.
func (w *WriteScan) View() view.View { return w.v }

// Scans returns the number of completed scans.
func (w *WriteScan) Scans() int { return w.scans }

// ScanProgress reports whether the machine is mid-scan and how many local
// registers it has read in the current scan.
func (w *WriteScan) ScanProgress() (scanning bool, readLocals int) {
	if w.phase != phaseScan {
		return false, 0
	}
	return true, w.scanIdx
}

// Pending implements machine.Machine.
func (w *WriteScan) Pending() []machine.Op {
	switch w.phase {
	case phaseWrite:
		return writeOps(Cell{View: w.v}, w.unwritten, w.m, w.nondet)
	case phaseScan:
		return readOps[w.scanIdx][:]
	default:
		panic(fmt.Sprintf("core: write-scan in invalid phase %d", w.phase))
	}
}

// Advance implements machine.Machine.
func (w *WriteScan) Advance(choice int, read anonmem.Word) {
	switch w.phase {
	case phaseWrite:
		r := w.writtenReg(choice)
		w.unwritten &^= 1 << uint(r)
		if w.unwritten == 0 {
			w.unwritten = allRegs(w.m)
		}
		w.phase = phaseScan
		w.scanIdx = 0
		w.acc = view.Empty()
	case phaseScan:
		cell, ok := read.(Cell)
		if !ok {
			panic(fmt.Sprintf("core: write-scan read unexpected word %T", read))
		}
		w.acc = w.acc.Union(cell.View)
		w.scanIdx++
		if w.scanIdx == w.m {
			w.v = w.v.Union(w.acc)
			w.phase = phaseWrite
			w.scans++
		}
	}
}

// writtenReg resolves which local register the given pending choice writes.
func (w *WriteScan) writtenReg(choice int) int {
	if !w.nondet {
		return lowestBit(w.unwritten)
	}
	idx := 0
	for r := 0; r < w.m; r++ {
		if w.unwritten&(1<<uint(r)) != 0 {
			if idx == choice {
				return r
			}
			idx++
		}
	}
	panic(fmt.Sprintf("core: write-scan choice %d out of range", choice))
}

func lowestBit(mask uint64) int {
	for r := 0; r < 64; r++ {
		if mask&(1<<uint(r)) != 0 {
			return r
		}
	}
	panic("core: empty register mask")
}

// Done implements machine.Machine; the write-scan loop never terminates.
func (w *WriteScan) Done() bool { return false }

// Output implements machine.Machine.
func (w *WriteScan) Output() anonmem.Word { return nil }

// CloneInto implements machine.Machine. Views are immutable, so copying
// the fields is a deep copy.
func (w *WriteScan) CloneInto(dst machine.Machine) machine.Machine {
	d := machine.Reuse[WriteScan](dst)
	*d = *w
	return d
}

// StateKey implements machine.Machine.
func (w *WriteScan) StateKey() string {
	var sb strings.Builder
	sb.WriteString("ws:")
	sb.WriteString(w.v.Key())
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatUint(w.unwritten, 16))
	sb.WriteByte(':')
	if w.phase == phaseWrite {
		sb.WriteByte('w')
	} else {
		sb.WriteByte('s')
		sb.WriteString(strconv.Itoa(w.scanIdx))
		sb.WriteByte(':')
		sb.WriteString(w.acc.Key())
	}
	return sb.String()
}

// SymmetryClass identifies the machine's program and parameters for the
// symmetry-reduction layer (canon.Symmetric). Like the snapshot machine,
// the write-scan loop is value-oblivious, so the input is absent and
// relabeling is supported instead.
func (w *WriteScan) SymmetryClass() string {
	class := "ws:m" + strconv.Itoa(w.m)
	if w.nondet {
		return class + ":nd1"
	}
	return class + ":nd0"
}

// InputID returns the machine's input (canon.Relabelable).
func (w *WriteScan) InputID() view.ID { return w.input }

// AppendState appends the word encoding of the fields StateKey renders
// (canon.Encoder): the tag word with the phase and, mid-scan, the scan
// index (at most m ≤ 64); the unwritten mask; the view; then the scan
// accumulator mid-scan.
func (w *WriteScan) AppendState(dst []uint64) []uint64 { return w.AppendRelabeled(dst, nil) }

// AppendRelabeled is AppendState with every input ID in the machine's
// views replaced via beta (canon.Relabelable).
func (w *WriteScan) AppendRelabeled(dst []uint64, beta []view.ID) []uint64 {
	fields := uint64(w.phase)
	if w.phase == phaseScan {
		fields |= uint64(w.scanIdx) << 8
	}
	dst = append(dst, machine.TagWriteScan.Word(fields), w.unwritten)
	dst = w.v.AppendRelabeled(dst, beta)
	if w.phase == phaseScan {
		dst = w.acc.AppendRelabeled(dst, beta)
	}
	return dst
}
