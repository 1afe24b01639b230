// Package machine defines the state-machine abstraction that every
// algorithm in this repository is written against, and the System that
// executes machines against a fully-anonymous memory.
//
// Each PlusCal figure of the paper becomes one Machine implementation whose
// atomic steps correspond exactly to the PlusCal labels: a step is a single
// register read, a single register write, or an output step, each bundled
// with the local computation that follows it (PlusCal executes everything
// between two labels atomically). A single Machine implementation is reused
// by the deterministic simulator, the adversarial schedulers, the
// exhaustive explorer (which needs CloneInto and a word encoding, see
// Tag) and the goroutine runtime.
package machine

import (
	"fmt"

	"anonshm/internal/anonmem"
)

// OpKind enumerates the kinds of atomic steps a machine can take.
type OpKind uint8

const (
	// OpRead reads one local register; the result is passed to Advance.
	OpRead OpKind = iota + 1
	// OpWrite writes Op.Word to one local register.
	OpWrite
	// OpOutput emits Op.Word as the machine's final output and terminates
	// the machine.
	OpOutput
	// OpCrash marks a crash-stop fault injected by the adversary. Machines
	// never offer it in Pending; it appears only in the StepInfo produced
	// by System.Crash, so traces and observers can render fault events
	// uniformly with regular steps.
	OpCrash
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpOutput:
		return "output"
	case OpCrash:
		return "crash"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one atomic step a machine offers to take.
type Op struct {
	Kind OpKind
	// Reg is the machine-local register index for OpRead/OpWrite.
	Reg int
	// Word is the value written (OpWrite) or emitted (OpOutput).
	Word anonmem.Word
}

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("read(r%d)", o.Reg)
	case OpWrite:
		return fmt.Sprintf("write(r%d,%s)", o.Reg, o.Word.Key())
	case OpOutput:
		return fmt.Sprintf("output(%s)", o.Word.Key())
	case OpCrash:
		return "crash"
	default:
		return fmt.Sprintf("op(%d)", o.Kind)
	}
}

// Machine is a deterministic-by-default sequential program with explicit
// atomic steps. Machines never learn their own processor identifier — they
// are anonymous; the System addresses them by index purely for scheduling.
type Machine interface {
	// Pending returns the operations the machine may perform next, or nil
	// iff Done. Deterministic machines return exactly one op; machines with
	// internal nondeterminism (PlusCal `with` choices, e.g. which unwritten
	// register to write) return one op per alternative, with index 0 being
	// the default the non-exhaustive runners take. The returned slice is
	// read-only: a machine may hand the same slice to every call, and to
	// its copies, until it advances.
	Pending() []Op

	// Advance applies the result of executing Pending()[choice]: read holds
	// the value read for OpRead and is nil otherwise. Advance performs all
	// local computation up to the next label.
	Advance(choice int, read anonmem.Word)

	// Done reports whether the machine has terminated (taken its OpOutput
	// step). Machines that never terminate (the write-scan loop) always
	// return false.
	Done() bool

	// Output returns the machine's output word, or nil if not Done.
	Output() anonmem.Word

	// CloneInto returns an independent deep copy of the machine. When dst
	// holds a machine of the receiver's concrete type, CloneInto
	// overwrites it in place and returns it; otherwise (dst nil, or of
	// another type) it allocates the copy. Whatever the machine owns
	// deeply and mutates in place is copied into dst's own storage, never
	// aliased, so stepping either machine afterwards leaves the other
	// unchanged; immutable values (views, boxed register words, Pending's
	// ops) may be shared.
	CloneInto(dst Machine) Machine

	// StateKey returns a canonical string rendering of the machine's
	// local state, for traces and analyses. The explorer deduplicates
	// states by the word encoding below, not by this string.
	StateKey() string
}

// Reuse is the first step of a CloneInto implementation: it returns dst
// when it holds a non-nil *T, and a new T otherwise.
func Reuse[T any, PT interface {
	*T
	Machine
}](dst Machine) PT {
	if d, ok := dst.(PT); ok && d != nil {
		return d
	}
	return new(T)
}

// The exhaustive explorer needs more than Machine: its canonicalizer
// (internal/canon) fingerprints a global state from a word encoding of
// every machine and register word, so each type it explores also has
//
//	AppendState(dst []uint64) []uint64
//
// appending a self-delimiting encoding of exactly the fields its
// StateKey (or Key) renders: two values encode equally iff they render
// equally. The first word carries the type's Tag in its top byte, so
// encodings of different types never coincide; small fields share that
// word only where the type's constructor bounds their range.

// Tag identifies the type of a word-encoded machine or register word.
// The tags live here, in one list, so that no two types share one.
type Tag uint8

// The encoding tags of the repository's machines and register words.
const (
	TagCell Tag = iota + 1
	TagName
	TagDecision
	TagMark
	TagValue
	TagSnapshot
	TagWriteScan
	TagRenaming
	TagConsensus
	TagBlocking
	TagDoubleCollect
	TagWeakCounter
)

// Word returns the first word of an encoding: t in the top byte, fields
// (which must fit in the low 56 bits) below it.
func (t Tag) Word(fields uint64) uint64 { return uint64(t)<<56 | fields }

// StepInfo describes one executed step, for tracing and analyses.
type StepInfo struct {
	Proc   int
	Choice int
	Op     Op
	// Global is the global register index touched (read/write), or -1.
	Global int
	// Read is the word read (OpRead only).
	Read anonmem.Word
	// ReadFrom is the processor whose write was read (OpRead only), or
	// anonmem.NoWriter if the register was unwritten.
	ReadFrom int
	// Overwrote is the word replaced (OpWrite only).
	Overwrote anonmem.Word
	// PrevWriter is the processor whose write was overwritten (OpWrite
	// only), or anonmem.NoWriter.
	PrevWriter int
	// Output is the emitted word (OpOutput only).
	Output anonmem.Word
}

// System bundles a memory with its machines and executes steps.
//
// Beyond regular steps the system supports the crash-stop fault model of
// the anonymous-computability literature (Raynal–Taubenfeld, Delporte-
// Gallet et al.): Crash permanently disables a processor mid-execution.
// A crashed processor takes no further steps and produces no output; its
// last completed write stays in the memory (crash-stop, not crash-recover).
type System struct {
	Mem   *anonmem.Memory
	Procs []Machine
	// crashed[p] marks processor p as crash-stopped. Nil (or all false,
	// in a system CloneInto overwrote) until the first crash, so
	// failure-free executions pay nothing and their Key stays
	// byte-identical to the pre-fault-model encoding.
	crashed []bool
}

// NewSystem validates that the memory is wired for exactly len(procs)
// processors and returns the system.
func NewSystem(mem *anonmem.Memory, procs []Machine) (*System, error) {
	if mem.N() != len(procs) {
		return nil, fmt.Errorf("machine: memory wired for %d processors, got %d machines", mem.N(), len(procs))
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("machine: no machines")
	}
	// CrashMask and the explorer's fingerprints pack the crashed set as
	// one bit per processor in a uint64; 1<<p is silently 0 for p >= 64,
	// which would drop crash bits and alias distinct states.
	if len(procs) > 64 {
		return nil, fmt.Errorf("machine: %d processors exceed the 64 supported by crash masks and state fingerprints", len(procs))
	}
	for i, m := range procs {
		if m == nil {
			return nil, fmt.Errorf("machine: nil machine at index %d", i)
		}
	}
	return &System{Mem: mem, Procs: procs}, nil
}

// N returns the number of processors.
func (s *System) N() int { return len(s.Procs) }

// Enabled reports whether processor p can take a step: it has neither
// terminated nor crashed.
func (s *System) Enabled(p int) bool { return !s.Procs[p].Done() && !s.Crashed(p) }

// Crashed reports whether processor p has crash-stopped.
func (s *System) Crashed(p int) bool {
	return s.crashed != nil && s.crashed[p]
}

// CrashCount returns how many processors have crashed.
func (s *System) CrashCount() int {
	n := 0
	for _, c := range s.crashed {
		if c {
			n++
		}
	}
	return n
}

// CrashMask returns the crashed processors as a bitmask (bit p set iff
// processor p crashed). Like the explorer's register fingerprint, it
// supports at most 64 processors — far beyond any exhaustively checkable
// system.
func (s *System) CrashMask() uint64 {
	var mask uint64
	for p, c := range s.crashed {
		if c {
			mask |= 1 << uint(p)
		}
	}
	return mask
}

// Crash permanently disables processor p (crash-stop): p takes no further
// steps and never outputs. Crashing a terminated or already-crashed
// processor is an error — both are meaningless in the model. The returned
// StepInfo describes the fault event for traces and observers.
func (s *System) Crash(p int) (StepInfo, error) {
	if p < 0 || p >= len(s.Procs) {
		return StepInfo{}, fmt.Errorf("machine: processor %d out of range", p)
	}
	if s.Procs[p].Done() {
		return StepInfo{}, fmt.Errorf("machine: processor %d has terminated; nothing to crash", p)
	}
	if s.Crashed(p) {
		return StepInfo{}, fmt.Errorf("machine: processor %d already crashed", p)
	}
	if s.crashed == nil {
		s.crashed = make([]bool, len(s.Procs))
	}
	s.crashed[p] = true
	return StepInfo{Proc: p, Op: Op{Kind: OpCrash}, Global: -1, ReadFrom: anonmem.NoWriter, PrevWriter: anonmem.NoWriter}, nil
}

// AllDone reports whether every machine has terminated.
func (s *System) AllDone() bool {
	for _, m := range s.Procs {
		if !m.Done() {
			return false
		}
	}
	return true
}

// Quiescent reports whether no processor can take a step: every machine
// has terminated or crashed. Without crashes this coincides with AllDone;
// with crashes it is the terminal condition of an execution — the sinks
// of the crash-enabled state graph.
func (s *System) Quiescent() bool {
	for p, m := range s.Procs {
		if !m.Done() && !s.Crashed(p) {
			return false
		}
	}
	return true
}

// DoneCount returns how many machines have terminated.
func (s *System) DoneCount() int {
	n := 0
	for _, m := range s.Procs {
		if m.Done() {
			n++
		}
	}
	return n
}

// Step executes choice c of processor p's pending operations atomically and
// advances the machine. It returns a description of the step.
func (s *System) Step(p, c int) (StepInfo, error) {
	if p < 0 || p >= len(s.Procs) {
		return StepInfo{}, fmt.Errorf("machine: processor %d out of range", p)
	}
	if s.Crashed(p) {
		return StepInfo{}, fmt.Errorf("machine: processor %d has crashed", p)
	}
	m := s.Procs[p]
	ops := m.Pending()
	if len(ops) == 0 {
		return StepInfo{}, fmt.Errorf("machine: processor %d has terminated", p)
	}
	if c < 0 || c >= len(ops) {
		return StepInfo{}, fmt.Errorf("machine: processor %d choice %d out of range (%d choices)", p, c, len(ops))
	}
	op := ops[c]
	info := StepInfo{Proc: p, Choice: c, Op: op, Global: -1, ReadFrom: anonmem.NoWriter, PrevWriter: anonmem.NoWriter}
	switch op.Kind {
	case OpRead:
		res := s.Mem.Read(p, op.Reg)
		info.Global = res.Global
		info.Read = res.Word
		info.ReadFrom = res.LastWriter
		m.Advance(c, res.Word)
	case OpWrite:
		res := s.Mem.Write(p, op.Reg, op.Word)
		info.Global = res.Global
		info.Overwrote = res.Overwrote
		info.PrevWriter = res.PrevWriter
		m.Advance(c, nil)
	case OpOutput:
		info.Output = op.Word
		m.Advance(c, nil)
		if !m.Done() {
			return info, fmt.Errorf("machine: processor %d not Done after output step", p)
		}
	default:
		return StepInfo{}, fmt.Errorf("machine: processor %d pending op has invalid kind %v", p, op.Kind)
	}
	return info, nil
}

// Clone returns an independent deep copy of the system.
func (s *System) Clone() *System { return s.CloneInto(nil) }

// CloneInto returns an independent deep copy of the system, written over
// dst when dst is non-nil: its memory, machines (Machine.CloneInto) and
// crash set are overwritten in place, so copying into an earlier copy of
// the same system allocates nothing beyond what the machines' own
// CloneInto allocate. dst must not be shared with anyone who still
// needs its old state.
func (s *System) CloneInto(dst *System) *System {
	if dst == nil {
		dst = new(System)
	}
	dst.Mem = s.Mem.CloneInto(dst.Mem)
	if len(dst.Procs) != len(s.Procs) {
		dst.Procs = make([]Machine, len(s.Procs))
		dst.crashed = nil
	}
	for i, m := range s.Procs {
		dst.Procs[i] = m.CloneInto(dst.Procs[i])
	}
	// A crash-free source leaves dst's crash set all false (or nil), so
	// no crash bit of dst's old state survives into its key.
	if s.crashed == nil {
		clear(dst.crashed)
	} else {
		dst.crashed = append(dst.crashed[:0], s.crashed...)
	}
	return dst
}

// Key returns a canonical encoding of the global state: register contents,
// every machine's local state, and (only when faults were injected) the
// set of crashed processors. Wirings are fixed per execution and therefore
// excluded; failure-free keys are byte-identical to the pre-fault-model
// encoding.
func (s *System) Key() string {
	key := s.Mem.Key()
	for _, m := range s.Procs {
		key += "\x00" + m.StateKey()
	}
	if mask := s.CrashMask(); mask != 0 {
		key += fmt.Sprintf("\x00\x01crashed:%x", mask)
	}
	return key
}

// Outputs returns the outputs of the terminated machines, indexed by
// processor; entries for non-terminated machines are nil.
func (s *System) Outputs() []anonmem.Word {
	out := make([]anonmem.Word, len(s.Procs))
	for i, m := range s.Procs {
		if m.Done() {
			out[i] = m.Output()
		}
	}
	return out
}
