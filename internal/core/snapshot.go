package core

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// Snapshot is the wait-free snapshot-task algorithm of Section 5
// (Figure 3), the paper's main algorithmic contribution.
//
// Registers hold (view, level) pairs, initially (∅, 0). The processor
// starts with view {input} and level 0 and repeats a write-scan loop:
//
//  1. Write phase: write (view, level) to a register not yet written since
//     the processor last wrote all of them (write fairness; the PlusCal
//     `with` choice of register is exposed as machine nondeterminism).
//  2. Scan phase: read all M registers one by one. If every register held
//     exactly the processor's own view, set level to one plus the minimum
//     level read; otherwise reset level to 0. Then add everything read to
//     the view.
//
// When the level reaches N (the number of processors), the processor
// terminates and outputs its view as its snapshot. Footnote 4 of the paper
// notes level N−1 already suffices, but the correctness proof is stated
// for N; NewSnapshotAtLevel exposes the threshold for the ablation
// experiment.
//
// The same machine, re-invoked via Invoke, is the long-lived snapshot of
// Section 7: a new invocation keeps all local state but resets the level
// to 0 and adds the new input to the view.
type Snapshot struct {
	n         int     // termination level (number of processors)
	m         int     // number of registers
	input     view.ID // input of the current invocation (symmetry reduction only)
	nondet    bool
	phase     snapPhase
	v         view.View
	level     int
	unwritten uint64
	scanIdx   int
	minLevel  int
	eqAll     bool
	acc       view.View
	out       view.View
	scans     int
	invokes   int
	// ops is Pending in the write and output phases, built when the
	// machine enters the phase and shared read-only by its copies; once
	// done, ops[0].Word is the output.
	ops []machine.Op
}

type snapPhase uint8

const (
	snapWrite snapPhase = iota + 1
	snapScan
	snapOutput
	snapDone
)

// NewSnapshot returns a Figure 3 snapshot machine for n processors over m
// registers with initial view {input}. If nondet is true, Pending exposes
// every fair register choice during the write phase.
func NewSnapshot(n, m int, input view.ID, nondet bool) *Snapshot {
	return NewSnapshotAtLevel(n, m, input, nondet)
}

// NewSnapshotAtLevel is NewSnapshot with an explicit termination level.
// The paper proves correctness at level N (the number of processors) and
// notes level N−1 suffices; lower levels are unsafe and exist only so
// experiments can demonstrate that (see the level-threshold ablation).
func NewSnapshotAtLevel(level, m int, input view.ID, nondet bool) *Snapshot {
	if m <= 0 || m > 64 {
		panic(fmt.Sprintf("core: register count %d out of range [1,64]", m))
	}
	if level <= 0 {
		panic(fmt.Sprintf("core: termination level %d out of range", level))
	}
	s := &Snapshot{
		n:         level,
		m:         m,
		input:     input,
		nondet:    nondet,
		v:         view.Of(input),
		unwritten: allRegs(m),
		invokes:   1,
	}
	s.enterWrite()
	return s
}

var _ machine.Machine = (*Snapshot)(nil)
var (
	_ Viewer  = (*Snapshot)(nil)
	_ Leveler = (*Snapshot)(nil)
)

// View implements Viewer.
func (s *Snapshot) View() view.View { return s.v }

// Level implements Leveler.
func (s *Snapshot) Level() int { return s.level }

// Scans returns the number of completed scans across all invocations.
func (s *Snapshot) Scans() int { return s.scans }

// ScanProgress reports whether the machine is mid-scan and, if so, how
// many local registers it has already read in the current scan (their
// local indices are 0..k-1). The proof-level predicates of Section 5
// (Definition 5.1) depend on this.
func (s *Snapshot) ScanProgress() (scanning bool, readLocals int) {
	if s.phase != snapScan {
		return false, 0
	}
	return true, s.scanIdx
}

// Invocations returns how many times the machine has been invoked
// (1 for a single-shot use).
func (s *Snapshot) Invocations() int { return s.invokes }

// SnapshotView returns the output view; it is only meaningful once Done.
func (s *Snapshot) SnapshotView() view.View { return s.out }

// Pending implements machine.Machine. It allocates nothing: the write
// and output ops were built on entering the phase, the read ops come
// from a shared table.
func (s *Snapshot) Pending() []machine.Op {
	switch s.phase {
	case snapWrite, snapOutput:
		return s.ops
	case snapScan:
		return readOps[s.scanIdx][:]
	case snapDone:
		return nil
	default:
		panic(fmt.Sprintf("core: snapshot in invalid phase %d", s.phase))
	}
}

// Advance implements machine.Machine.
func (s *Snapshot) Advance(choice int, read anonmem.Word) {
	switch s.phase {
	case snapWrite:
		r := s.writtenReg(choice)
		s.unwritten &^= 1 << uint(r)
		if s.unwritten == 0 {
			s.unwritten = allRegs(s.m)
		}
		s.phase = snapScan
		s.scanIdx = 0
		s.minLevel = -1
		s.eqAll = true
		s.acc = view.Empty()
	case snapScan:
		cell, ok := read.(Cell)
		if !ok {
			panic(fmt.Sprintf("core: snapshot read unexpected word %T", read))
		}
		if !cell.View.Equal(s.v) {
			s.eqAll = false
		}
		if s.minLevel < 0 || cell.Level < s.minLevel {
			s.minLevel = cell.Level
		}
		s.acc = s.acc.Union(cell.View)
		s.scanIdx++
		if s.scanIdx == s.m {
			s.endScan()
		}
	case snapOutput:
		s.out = s.v
		s.phase = snapDone
	case snapDone:
		panic("core: Advance on terminated snapshot machine")
	}
}

// endScan applies lines 20–24 of Figure 3: update the level, then fold the
// scanned values into the view, then terminate if the level reached N.
func (s *Snapshot) endScan() {
	s.scans++
	if s.eqAll {
		s.level = s.minLevel + 1
	} else {
		s.level = 0
	}
	s.v = s.v.Union(s.acc)
	if s.level >= s.n {
		s.phase = snapOutput
		s.ops = []machine.Op{{Kind: machine.OpOutput, Word: Cell{View: s.v, Level: s.level}}}
	} else {
		s.enterWrite()
	}
}

// enterWrite starts a write phase: Pending offers every fair register
// choice, each writing the current (view, level).
func (s *Snapshot) enterWrite() {
	s.phase = snapWrite
	s.ops = writeOps(Cell{View: s.v, Level: s.level}, s.unwritten, s.m, s.nondet)
}

// writeOps lists a write phase's ops: one per register in unwritten
// (only the lowest without nondet), each writing word.
func writeOps(word anonmem.Word, unwritten uint64, m int, nondet bool) []machine.Op {
	if !nondet {
		return []machine.Op{{Kind: machine.OpWrite, Reg: lowestBit(unwritten), Word: word}}
	}
	ops := make([]machine.Op, 0, bits.OnesCount64(unwritten))
	for r := 0; r < m; r++ {
		if unwritten&(1<<uint(r)) != 0 {
			ops = append(ops, machine.Op{Kind: machine.OpWrite, Reg: r, Word: word})
		}
	}
	return ops
}

// readOps[r] is Pending while a scan is about to read local register r
// (m ≤ 64 bounds r).
var readOps = func() (ops [64][1]machine.Op) {
	for r := range ops {
		ops[r][0] = machine.Op{Kind: machine.OpRead, Reg: r}
	}
	return ops
}()

func (s *Snapshot) writtenReg(choice int) int {
	if !s.nondet {
		return lowestBit(s.unwritten)
	}
	idx := 0
	for r := 0; r < s.m; r++ {
		if s.unwritten&(1<<uint(r)) != 0 {
			if idx == choice {
				return r
			}
			idx++
		}
	}
	panic(fmt.Sprintf("core: snapshot choice %d out of range", choice))
}

// Done implements machine.Machine.
func (s *Snapshot) Done() bool { return s.phase == snapDone }

// Output implements machine.Machine. The output word is a Cell whose View
// is the snapshot: the one the output step emitted.
func (s *Snapshot) Output() anonmem.Word {
	if s.phase != snapDone {
		return nil
	}
	return s.ops[0].Word
}

// Invoke re-opens a terminated machine as the long-lived snapshot of
// Section 7: the level resets to 0, the new input joins the view, and the
// machine resumes its write-scan loop. It panics if the machine has not
// terminated its current invocation.
func (s *Snapshot) Invoke(input view.ID) {
	if s.phase != snapDone {
		panic("core: Invoke on a snapshot machine that has not terminated")
	}
	s.level = 0
	s.input = input
	s.v = s.v.With(input)
	s.out = view.View{}
	s.invokes++
	s.enterWrite()
}

// CloneInto implements machine.Machine. Views are immutable and ops
// read-only, so copying the fields is a deep copy.
func (s *Snapshot) CloneInto(dst machine.Machine) machine.Machine {
	d := machine.Reuse[Snapshot](dst)
	*d = *s
	return d
}

// StateKey implements machine.Machine.
func (s *Snapshot) StateKey() string {
	var sb strings.Builder
	sb.WriteString("sn:")
	sb.WriteString(s.v.Key())
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(s.level))
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatUint(s.unwritten, 16))
	sb.WriteByte(':')
	switch s.phase {
	case snapWrite:
		sb.WriteByte('w')
	case snapScan:
		sb.WriteByte('s')
		sb.WriteString(strconv.Itoa(s.scanIdx))
		sb.WriteByte(':')
		sb.WriteString(s.acc.Key())
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(s.minLevel))
		if s.eqAll {
			sb.WriteByte('=')
		} else {
			sb.WriteByte('!')
		}
	case snapOutput:
		sb.WriteByte('o')
	case snapDone:
		sb.WriteByte('d')
		sb.WriteByte(':')
		sb.WriteString(s.out.Key())
	}
	return sb.String()
}

// SymmetryClass identifies the machine's program and parameters for the
// symmetry-reduction layer (canon.Symmetric): two snapshot machines with
// equal class run the same algorithm and may be exchanged by a processor
// permutation. The input is deliberately absent — the machine is
// value-oblivious and supports relabeling instead (see AppendRelabeled).
func (s *Snapshot) SymmetryClass() string {
	class := "sn:l" + strconv.Itoa(s.n) + ":m" + strconv.Itoa(s.m)
	if s.nondet {
		return class + ":nd1"
	}
	return class + ":nd0"
}

// InputID returns the input of the current invocation, the seed of the
// symmetry layer's value relabeling (canon.Relabelable).
func (s *Snapshot) InputID() view.ID { return s.input }

// AppendState appends the word encoding of the fields StateKey renders
// (canon.Encoder): the tag word with the phase and, mid-scan, the scan
// index (at most m ≤ 64) and the all-equal flag; the unwritten mask; the
// level; mid-scan the minimum level read; the view; then the scan
// accumulator mid-scan, or the output once done.
func (s *Snapshot) AppendState(dst []uint64) []uint64 { return s.AppendRelabeled(dst, nil) }

// AppendRelabeled is AppendState with every input ID in the machine's
// views replaced via beta. Figure 3 manipulates views only through
// Equal/Union/level arithmetic, so relabeled states step in lockstep
// with the originals (canon.Relabelable).
func (s *Snapshot) AppendRelabeled(dst []uint64, beta []view.ID) []uint64 {
	fields := uint64(s.phase)
	if s.phase == snapScan {
		fields |= uint64(s.scanIdx)<<8 | flag(s.eqAll)<<16
	}
	dst = append(dst, machine.TagSnapshot.Word(fields), s.unwritten, uint64(s.level))
	if s.phase == snapScan {
		dst = append(dst, uint64(s.minLevel))
	}
	dst = s.v.AppendRelabeled(dst, beta)
	switch s.phase {
	case snapScan:
		dst = s.acc.AppendRelabeled(dst, beta)
	case snapDone:
		dst = s.out.AppendRelabeled(dst, beta)
	}
	return dst
}

// flag is a bool as an encoding bit.
func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
