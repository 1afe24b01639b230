// Package canon canonicalizes explorer states under the symmetries of
// the fully-anonymous shared-memory model before they are fingerprinted,
// so the explorer stores one representative per symmetry orbit instead
// of every orbit member.
//
// The model's defining property — processors are interchangeable and
// reach the registers only through private wiring permutations — is pure
// symmetry: a group element is a triple (π, ρ, β) of a processor
// permutation π, a register permutation ρ and an input-value relabeling
// β, and two global states related by an admissible triple are
// behaviorally indistinguishable. A triple is admissible when
//
//   - π maps every processor to one with the same SymmetryClass (same
//     program, same parameters);
//   - ρ is induced by the wirings: σ_{π(p)} = ρ∘σ_p for every p (with
//     ProcSymmetry, ρ is required to be the identity, i.e. π may only
//     exchange identically-wired processors);
//   - β is induced by the inputs: β(input_p) = input_{π(p)} must be a
//     well-defined bijection, and when β is not the identity every
//     machine must support Relabelable (value-oblivious algorithms like
//     Figure 1/Figure 3 do; rank- or label-ordering algorithms like
//     Figure 4 renaming and Figure 5 consensus do not, and instead fold
//     their input into SymmetryClass so only equal-input processors are
//     exchanged).
//
// Under these rules the mirrored execution steps in lockstep: when
// processor p steps from state s, processor π(p) takes the β-relabeled
// step from the mirrored state, touching global register ρ(g) instead of
// g.
//
// States are compared as words, never as strings. Every machine and
// register word appends a self-delimiting encoding of its live state
// (Encoder); the mirror of a state under a triple is the registers'
// encodings in ρ order, then the machines' in π order, each prefixed by
// its length, then the crash mask permuted by π. The canonical form of a
// state is its lexicographically least mirror, and its fingerprint is
// one 64-bit hash of that form. The admissible triples form a group, so
// orbit members have the same mirrors and therefore the same
// fingerprint, and the explorer's deduplication merges them. Soundness
// needs less: the encoding is injective, so equal canonical forms mean
// some mirror of one state equals some mirror of the other, i.e. the
// states share an orbit, and equal fingerprints mean the same up to the
// odds of a 64-bit hash collision.
//
// The reduction is sound only for orbit-invariant checks: Options
// callbacks (Invariant, Prune, Aux) must not distinguish states within
// one orbit. All of the repository's checks qualify except the
// non-atomicity witness search, which tracks a fixed candidate view in
// its auxiliary state and therefore pins canon.Identity.
//
// This package inspects processor identity by construction — it is the
// quotient map, not algorithm code — and is therefore the one non-lint
// package exempted from the anonymity analyzer's boundary: machine code
// must never call into it.
package canon

import (
	"fmt"

	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// Canonicalizer chooses the symmetry group states are quotiented by.
// Bind inspects a system's fixed structure (machine types, wirings,
// inputs) once, up front, and returns the Hasher the explorer calls per
// state. Implementations must be usable as flag defaults: stateless
// values whose String names the -symmetry spelling.
type Canonicalizer interface {
	// Bind computes the admissible symmetry group of init and returns a
	// Hasher for states reachable from it. The Hasher is safe for
	// concurrent use by the breadth-first engine's workers. Bind fails
	// when a machine or an initial register word of init is not an
	// Encoder.
	Bind(init *machine.System) (Hasher, error)
	// String names the canonicalizer ("none", "proc", "full").
	String() string
}

// Hasher fingerprints states under a bound symmetry group.
type Hasher interface {
	// Fingerprint hashes the canonical form of sys (its least mirror),
	// folding aux in afterwards (aux is orbit-independent by contract).
	Fingerprint(sys *machine.System, aux uint64) uint64
	// GroupSize is the number of admissible group elements (1 = no
	// reduction beyond exact-state deduplication).
	GroupSize() int
}

// Encoder is implemented by every machine and register word the explorer
// fingerprints (see machine.Tag for the encoding's conventions).
type Encoder interface {
	// AppendState appends a type-tagged, self-delimiting word encoding
	// of exactly the state the value's StateKey (or Key) renders: two
	// values have equal encodings iff they render equally.
	AppendState(dst []uint64) []uint64
}

// Relabeler is implemented by machines and register words whose
// encodings can be rewritten under a bijective relabeling of input-value
// IDs — the β component of a group element. Group elements with a
// non-identity β skip (soundly) any state holding a word without it.
type Relabeler interface {
	// AppendRelabeled appends the AppendState encoding the value would
	// have if every input ID i in it were replaced by beta[i] (IDs past
	// len(beta) stay put). A nil beta is the identity: the result then
	// equals AppendState's.
	AppendRelabeled(dst []uint64, beta []view.ID) []uint64
}

// Symmetric is implemented by machines that may be exchanged by a
// processor permutation. The contract: two machines of one system with
// equal SymmetryClass are interchangeable programs — exchanging their
// entire local states (with registers and all other machines untouched)
// yields a behaviorally equivalent global state. Machines that cannot
// relabel input values (no Relabelable) must fold their input into the
// class, so only equal-input processors are ever exchanged. A system
// containing any machine without Symmetric gets the trivial group.
type Symmetric interface {
	// SymmetryClass returns a canonical encoding of the machine's
	// program and parameters (not its mutable state).
	SymmetryClass() string
}

// Relabelable is implemented by machines oblivious to value identity
// (they use views solely through set operations), which is what lets a
// group element carry a non-identity β.
type Relabelable interface {
	Relabeler
	// InputID returns the machine's input value ID; β is induced from
	// these (β(input_p) = input_{π(p)}).
	InputID() view.ID
}

// Identity is the trivial canonicalizer: no symmetry reduction, states
// are fingerprinted exactly as stored. It binds the group that holds
// only the identity element.
type Identity struct{}

// Bind implements Canonicalizer.
func (Identity) Bind(init *machine.System) (Hasher, error) { return bind(init, None) }

// String implements Canonicalizer.
func (Identity) String() string { return "none" }

// ProcSymmetry quotients by processor permutations alone: π may exchange
// processors with equal SymmetryClass and identical wirings (ρ = id).
type ProcSymmetry struct{}

// Bind implements Canonicalizer.
func (ProcSymmetry) Bind(init *machine.System) (Hasher, error) { return bind(init, Proc) }

// String implements Canonicalizer.
func (ProcSymmetry) String() string { return "proc" }

// FullSymmetry quotients by joint processor and register permutations:
// π may exchange processors whose wirings agree up to a global register
// relabeling ρ = σ_{π(0)}∘σ_0⁻¹.
type FullSymmetry struct{}

// Bind implements Canonicalizer.
func (FullSymmetry) Bind(init *machine.System) (Hasher, error) { return bind(init, Full) }

// String implements Canonicalizer.
func (FullSymmetry) String() string { return "full" }

var (
	_ Canonicalizer = Identity{}
	_ Canonicalizer = ProcSymmetry{}
	_ Canonicalizer = FullSymmetry{}
)

// Symmetry is the command-line selector for the three canonicalizers.
// The zero value is None. *Symmetry implements flag.Value.
type Symmetry uint8

const (
	// None selects Identity.
	None Symmetry = iota
	// Proc selects ProcSymmetry.
	Proc
	// Full selects FullSymmetry.
	Full
)

// String implements flag.Value.
func (s Symmetry) String() string {
	switch s {
	case None:
		return "none"
	case Proc:
		return "proc"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Symmetry(%d)", uint8(s))
	}
}

// Set implements flag.Value.
func (s *Symmetry) Set(v string) error {
	switch v {
	case "", "none":
		*s = None
	case "proc":
		*s = Proc
	case "full":
		*s = Full
	default:
		return fmt.Errorf("canon: unknown symmetry %q (want none, proc or full)", v)
	}
	return nil
}

// Canonicalizer returns the canonicalizer the selector names.
func (s Symmetry) Canonicalizer() Canonicalizer {
	switch s {
	case Proc:
		return ProcSymmetry{}
	case Full:
		return FullSymmetry{}
	default:
		return Identity{}
	}
}
