package explore

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"anonshm/internal/anonmem"
	"anonshm/internal/canon"
	"anonshm/internal/machine"
)

// This file provides the invariant form of the wait-freedom check:
// bounded solo termination at every reachable state. On its own it
// establishes obstruction-freedom: every processor finishes when it
// eventually runs alone. Wait-freedom also needs the cycle form, which
// only DFSEngine detects, inline: no interleaving runs forever.
// BFSEngine runs the invariant form alone, since invariants are checked
// per state with no global graph, so a BFSEngine run establishes
// obstruction-freedom, not wait-freedom.
//
// The two forms catch different failure shapes. A cycle is an execution in
// which live processors step forever — non-termination under adversarial
// interleaving (the double-collect rule fails this way). The solo bound
// catches helping dependencies: a processor that cannot finish on its own
// steps — exactly what crash faults expose, because a crashed processor is
// indistinguishable from one that is never scheduled again. Explored with
// Options.MaxCrashes = N−1, the solo-bound invariant verifies that every
// survivor finishes on its own no matter which subset of the others stops
// forever; with DFSEngine's cycle form it verifies wait-freedom in the
// crash-fault model of Raynal–Taubenfeld and Delporte-Gallet et al.
//
// Memo. A solo run of processor p reads only p's machine and the
// registers p reaches through its wiring σ_p, and most reachable states
// share both with a state checked before: on the N=3 distinct-input
// benchmark round, 93% of solo runs start where an earlier one of the
// same wiring run did. So the check remembers every solo run's outcome —
// its step count, or "over the bound" — under its start key: p, then
// p's machine encoding, then each register's encoding in p's local
// order (register σ_p[0] first), each prefixed by its length. These are
// the canon.Encoder encodings whose equality the explorer's
// deduplication already trusts to mean equal behaviour, so the key
// determines the run. A hit compares the whole key word for word, never
// a hash alone, so verdicts and counterexamples equal the unmemoized
// check's.
//
// The encodings omit a machine's fixed parameters (Snapshot's
// termination level, for one), so a memo serves one system lineage: the
// states copied from one root, which share its memory's wiring table
// (anonmem.Memory.Table). A state of another system clears the memo, and
// so does a memo past memoCap key words, which bounds its RAM. A
// processor whose machine or register words have no AppendState runs
// solo every time.

// WaitFree returns an invariant asserting bounded solo termination: from
// the checked state, every enabled (non-crashed, non-terminated) processor
// must reach its output within bound of its own steps when it runs alone,
// taking its default (index 0) choices. A processor that exceeds the bound
// — a blocked spin-loop waiting for others, or an unbounded helping
// protocol — violates the invariant, and the counterexample trace leads to
// the state the solo run started from.
//
// Solo runs are memoized (see the memo notes above): the closure
// remembers each run's outcome under its exact start key, for the
// states of one system lineage (a state of another system clears the
// memo), up to memoCap key words, and gives the verdict and error text
// the solo run would give. The memos live in a pool the closure owns,
// one per concurrent caller, so the breadth-first engine's workers each
// use their own without a lock. Calling WaitFree allocates no memo; one
// grows as states arrive.
func WaitFree(bound int) func(Node) error {
	if bound <= 0 {
		panic(fmt.Sprintf("explore: WaitFree bound %d must be positive", bound))
	}
	var pool sync.Pool
	return func(n Node) error {
		s, _ := pool.Get().(*soloScratch)
		if s == nil {
			s = new(soloScratch)
		}
		err := s.check(n.Sys, bound)
		pool.Put(s)
		return err
	}
}

// memoCap bounds a memo's stored key words (8 MiB); an insert past it
// clears the memo first.
const memoCap = 1 << 20

// soloScratch is one caller's working memory: the system solo runs copy
// states into, and the memo of their outcomes, an open-addressing table
// of start keys stored back to back in words.
type soloScratch struct {
	solo *machine.System
	// table is the wiring table of the lineage the memo serves.
	table anonmem.WiringTable
	key   []uint64 // the start key being looked up
	words []uint64
	// slots has a power-of-two length (or none), at most half used.
	slots []memoSlot
	used  int
}

// memoSlot is one memoized solo run: its start key words[off:off+n],
// the key's hash, and the run's step count (bound+1: over the bound).
// n is 0 in an empty slot, since no key is empty.
type memoSlot struct {
	hash   uint64
	off, n uint32
	steps  int
}

// check runs, or recalls, the solo run of every enabled processor of
// sys and reports the first that does not finish within bound steps.
func (s *soloScratch) check(sys *machine.System, bound int) error {
	if t := sys.Mem.Table(); t != s.table {
		s.reset()
		s.table = t
	}
	for p := 0; p < sys.N(); p++ {
		if !sys.Enabled(p) {
			continue
		}
		steps, err := s.steps(sys, p, bound)
		if err != nil {
			return err
		}
		if steps > bound {
			return fmt.Errorf("processor %d not done after %d solo steps: wait-freedom violated", p, bound)
		}
	}
	return nil
}

// steps returns the steps processor p of sys takes to finish alone, or
// bound+1 when it has not finished after bound: from the memo when it
// holds p's start key, otherwise from a solo run, whose outcome the memo
// then records.
func (s *soloScratch) steps(sys *machine.System, p, bound int) (int, error) {
	keyed := s.appendKey(sys, p)
	var h uint64
	if keyed {
		h = hashKey(s.key)
		if i, ok := s.lookup(h); ok {
			return s.slots[i].steps, nil
		}
	}
	steps, err := s.run(sys, p, bound)
	if keyed && err == nil {
		s.insert(h, steps)
	}
	return steps, err
}

// run runs processor p of sys alone, on a copy of sys made into s.solo,
// and returns the steps it took to finish, or bound+1 when it has not
// finished after bound steps.
func (s *soloScratch) run(sys *machine.System, p, bound int) (int, error) {
	s.solo = sys.CloneInto(s.solo)
	steps := 0
	for ; !s.solo.Procs[p].Done(); steps++ {
		if steps >= bound {
			return bound + 1, nil
		}
		if _, err := s.solo.Step(p, 0); err != nil {
			return 0, fmt.Errorf("solo run of processor %d: %w", p, err)
		}
	}
	return steps, nil
}

// appendKey builds p's solo-run start key from sys in s.key and reports
// whether it could: not when p's machine or a register word has no
// AppendState.
func (s *soloScratch) appendKey(sys *machine.System, p int) bool {
	mach, ok := sys.Procs[p].(canon.Encoder)
	if !ok {
		return false
	}
	s.key = appendSegment(append(s.key[:0], uint64(p)), mach)
	for r := 0; r < sys.Mem.M(); r++ {
		w, ok := sys.Mem.CellAt(sys.Mem.Global(p, r)).(canon.Encoder)
		if !ok {
			return false
		}
		s.key = appendSegment(s.key, w)
	}
	return true
}

// appendSegment appends e's encoding to key, prefixed by its length.
func appendSegment(key []uint64, e canon.Encoder) []uint64 {
	at := len(key)
	key = e.AppendState(append(key, 0))
	key[at] = uint64(len(key) - at - 1)
	return key
}

// hashKey hashes a start key to pick its slot. Equal hashes only
// shortlist a slot; lookup then compares the keys themselves. Four
// lanes take turns with the words, so their multiplications overlap.
func hashKey(key []uint64) uint64 {
	a, b, c, d := uint64(len(key)), uint64(0), uint64(0), uint64(0)
	for ; len(key) >= 4; key = key[4:] {
		a, b, c, d = mixWord(a, key[0]), mixWord(b, key[1]), mixWord(c, key[2]), mixWord(d, key[3])
	}
	for _, w := range key {
		a = mixWord(a, w)
	}
	h := a ^ bits.RotateLeft64(b, 16) ^ bits.RotateLeft64(c, 32) ^ bits.RotateLeft64(d, 48)
	h ^= h >> 32
	return h * 0xC2B2AE3D27D4EB4F
}

// mixWord folds one word into a hash lane.
func mixWord(h, w uint64) uint64 {
	return bits.RotateLeft64(h^w, 27) * 0x9E3779B185EBCA87
}

// lookup returns the slot holding s.key, whose hash is h, and true; or,
// when no slot does, the empty slot where probing for it stopped (-1
// while the memo has no slots) and false.
func (s *soloScratch) lookup(h uint64) (int, bool) {
	if len(s.slots) == 0 {
		return -1, false
	}
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.n == 0 {
			return i, false
		}
		if sl.hash == h && slices.Equal(s.words[sl.off:sl.off+sl.n], s.key) {
			return i, true
		}
	}
}

// insert records steps as the outcome of s.key, whose hash is h and
// which the memo does not hold, copying the key into words.
func (s *soloScratch) insert(h uint64, steps int) {
	if len(s.words)+len(s.key) > memoCap {
		s.reset()
	}
	if 2*(s.used+1) > len(s.slots) {
		s.grow()
	}
	i, _ := s.lookup(h)
	s.slots[i] = memoSlot{hash: h, off: uint32(len(s.words)), n: uint32(len(s.key)), steps: steps}
	s.words = append(s.words, s.key...)
	s.used++
}

// grow doubles the slot table (to 256 slots at first) and rehashes it.
func (s *soloScratch) grow() {
	old := s.slots
	s.slots = make([]memoSlot, max(2*len(old), 256))
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.n == 0 {
			continue
		}
		i := int(sl.hash) & mask
		for s.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// reset empties the memo, keeping its storage.
func (s *soloScratch) reset() {
	s.words = s.words[:0]
	clear(s.slots)
	s.used = 0
}

// DefaultSoloBound returns a solo-step budget sufficient for the paper's
// algorithms at n processors over m registers. A Figure 3 snapshot
// machine running alone completes each level iteration in one write plus
// m reads and can absorb at most one view change before its scans turn
// stable, so n+2 iterations plus the output step always suffice; the
// factor 2 is slack for the renaming and long-lived variants.
func DefaultSoloBound(n, m int) int {
	return 2 * (n + 2) * (m + 2)
}
