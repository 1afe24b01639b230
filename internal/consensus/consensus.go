// Package consensus implements the obstruction-free consensus algorithm of
// Section 7 (Figure 5): a derandomization, following Guerraoui and Ruppert,
// of Chandra's shared-coin algorithm, running over the long-lived variant
// of the Section 5 snapshot algorithm.
//
// Each processor maintains a preferred value (initially its input, a group
// identifier) and a monotonically increasing timestamp, and repeatedly
// invokes the long-lived snapshot with the pair (preference, timestamp) as
// input. From the returned snapshot it computes, per value, the maximum
// timestamp it appears with. It decides value v when v's maximum timestamp
// is at least 2 greater than every other value's — where a value that does
// not appear counts as timestamp 0, since a processor that has not yet
// been seen starts at timestamp 0 (without this floor, a solo processor
// could decide before anyone else wrote anything and violate agreement).
// Otherwise it adopts the value with the highest timestamp (ties broken by
// smallest label) and re-invokes with timestamp one above the maximum.
//
// All communication goes through the long-lived snapshot: the consensus
// layer never touches a register directly, exactly as the paper notes.
package consensus

import (
	"fmt"
	"strconv"
	"strings"

	"anonshm/internal/anonmem"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// Decision is the output word: the decided group label.
type Decision string

// Key implements anonmem.Word.
func (d Decision) Key() string { return string(d) }

var _ anonmem.Word = Decision("")

// AppendState appends the decision's word encoding: the tag, then the
// label (canon.Encoder).
func (d Decision) AppendState(dst []uint64) []uint64 {
	return appendString(append(dst, machine.TagDecision.Word(0)), string(d))
}

// appendString appends the self-delimiting word encoding of s: its
// length in bytes, then its bytes packed eight to a word.
func appendString(dst []uint64, s string) []uint64 {
	dst = append(dst, uint64(len(s)))
	for i := 0; i < len(s); i += 8 {
		var w uint64
		for j := i; j < len(s) && j < i+8; j++ {
			w |= uint64(s[j]) << (8 * uint(j-i))
		}
		dst = append(dst, w)
	}
	return dst
}

// pairSep separates value and timestamp in interned snapshot inputs. Value
// labels must not contain it.
const pairSep = "\x1f"

// EncodePair renders a (value, timestamp) snapshot input label.
func EncodePair(value string, ts int) string {
	return value + pairSep + strconv.Itoa(ts)
}

// DecodePair parses a snapshot input label back into (value, timestamp).
func DecodePair(label string) (string, int, error) {
	i := strings.LastIndex(label, pairSep)
	if i < 0 {
		return "", 0, fmt.Errorf("consensus: label %q is not a (value, timestamp) pair", label)
	}
	ts, err := strconv.Atoi(label[i+len(pairSep):])
	if err != nil {
		return "", 0, fmt.Errorf("consensus: label %q has bad timestamp: %w", label, err)
	}
	return label[:i], ts, nil
}

// Consensus is the Figure 5 machine.
type Consensus struct {
	in    *view.Interner
	snap  *core.Snapshot
	input string
	pref  string
	ts    int
	// ready means a decision was reached and the output step is pending.
	ready    bool
	done     bool
	decision string
	rounds   int
}

// New returns a consensus machine for n processors over m registers with
// the given input value (a group label, which must not contain the
// internal separator). All machines of one system must share the interner.
func New(in *view.Interner, n, m int, input string, nondet bool) (*Consensus, error) {
	if strings.Contains(input, pairSep) {
		return nil, fmt.Errorf("consensus: input %q contains the reserved separator", input)
	}
	id := in.Intern(EncodePair(input, 0))
	return &Consensus{
		in:    in,
		snap:  core.NewSnapshot(n, m, id, nondet),
		input: input,
		pref:  input,
	}, nil
}

var _ machine.Machine = (*Consensus)(nil)

// Rounds returns how many snapshot invocations have completed.
func (c *Consensus) Rounds() int { return c.rounds }

// Preference returns the current preferred value.
func (c *Consensus) Preference() string { return c.pref }

// Timestamp returns the current timestamp.
func (c *Consensus) Timestamp() int { return c.ts }

// Pending implements machine.Machine.
func (c *Consensus) Pending() []machine.Op {
	if c.done {
		return nil
	}
	if c.ready {
		return []machine.Op{{Kind: machine.OpOutput, Word: Decision(c.decision)}}
	}
	return c.snap.Pending()
}

// Advance implements machine.Machine.
func (c *Consensus) Advance(choice int, read anonmem.Word) {
	if c.done {
		panic("consensus: Advance on terminated machine")
	}
	if c.ready {
		c.done = true
		return
	}
	c.snap.Advance(choice, read)
	// When the embedded snapshot's invocation completes, absorb its output
	// step (pure local computation) and run the Figure 5 round logic.
	if !c.snap.Done() && c.snap.Pending()[0].Kind == machine.OpOutput {
		c.snap.Advance(0, nil)
		c.rounds++
		c.processSnapshot(c.snap.SnapshotView())
	}
}

// processSnapshot applies the decision/adoption rule to one snapshot.
func (c *Consensus) processSnapshot(w view.View) {
	maxTs := make(map[string]int)
	for _, id := range w.IDs() {
		label := c.in.Label(id)
		value, ts, err := DecodePair(label)
		if err != nil {
			panic(err) // unreachable: only encoded pairs enter the views
		}
		if cur, ok := maxTs[value]; !ok || ts > cur {
			maxTs[value] = ts
		}
	}
	// Decide v iff maxTs[v] ≥ maxTs[w]+2 for every other value w, with
	// absent values counting as timestamp 0 (unseen processors start at 0).
	best, second := "", -1
	bestTs := -1
	for v, t := range maxTs {
		switch {
		case t > bestTs, t == bestTs && v < best:
			if bestTs >= 0 && bestTs > second {
				second = bestTs
			}
			best, bestTs = v, t
		case t > second:
			second = t
		}
	}
	if second < 0 {
		second = 0 // no other value seen: floor at timestamp 0
	}
	if bestTs >= second+2 {
		c.decision = best
		c.ready = true
		return
	}
	// Adopt and re-invoke.
	c.pref = best
	c.ts = bestTs + 1
	c.snap.Invoke(c.in.Intern(EncodePair(c.pref, c.ts)))
}

// Done implements machine.Machine.
func (c *Consensus) Done() bool { return c.done }

// Output implements machine.Machine.
func (c *Consensus) Output() anonmem.Word {
	if !c.done {
		return nil
	}
	return Decision(c.decision)
}

// CloneInto implements machine.Machine: the embedded snapshot machine is
// copied into dst's own. The interner is shared, matching how systems
// are built (it only grows, and labels are immutable).
func (c *Consensus) CloneInto(dst machine.Machine) machine.Machine {
	d := machine.Reuse[Consensus](dst)
	snap := d.snap
	*d = *c
	d.snap = c.snap.CloneInto(snap).(*core.Snapshot)
	return d
}

// StateKey implements machine.Machine.
func (c *Consensus) StateKey() string {
	switch {
	case c.done:
		return "cs:d:" + c.decision
	case c.ready:
		return "cs:o:" + c.decision
	default:
		return "cs:" + c.pref + ":" + strconv.Itoa(c.ts) + ":" + c.snap.StateKey()
	}
}

// AppendState appends the word encoding of the fields StateKey renders
// (canon.Encoder): the tag word with the stage (0 running, 1 output
// pending, 2 done), then the decision once reached, or the preference,
// the timestamp and the embedded snapshot machine's encoding while it
// runs.
func (c *Consensus) AppendState(dst []uint64) []uint64 {
	switch {
	case c.done:
		return appendString(append(dst, machine.TagConsensus.Word(2)), c.decision)
	case c.ready:
		return appendString(append(dst, machine.TagConsensus.Word(1)), c.decision)
	default:
		dst = appendString(append(dst, machine.TagConsensus.Word(0)), c.pref)
		return c.snap.AppendState(append(dst, uint64(c.ts)))
	}
}

// SymmetryClass identifies the machine for the symmetry-reduction layer
// (canon.Symmetric). The input value is part of the class: the adoption
// rule breaks timestamp ties by smallest label, so the algorithm is NOT
// oblivious to value identity and only equal-input processors may be
// exchanged (no canon.Relabelable).
func (c *Consensus) SymmetryClass() string {
	return "cs:" + c.snap.SymmetryClass() + ":in:" + c.input
}

// Config mirrors core.Config for building consensus systems.
type Config = core.Config

// NewSystem builds a system of consensus machines plus the shared interner.
func NewSystem(c Config) (*machine.System, *view.Interner, error) {
	if len(c.Inputs) == 0 {
		return nil, nil, fmt.Errorf("consensus: no inputs")
	}
	in := view.NewInterner()
	m := c.Registers
	if m == 0 {
		m = len(c.Inputs)
	}
	procs := make([]machine.Machine, len(c.Inputs))
	for i, label := range c.Inputs {
		cm, err := New(in, len(c.Inputs), m, label, c.Nondet)
		if err != nil {
			return nil, nil, err
		}
		procs[i] = cm
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

// PreinternPairs interns every (value, timestamp) pair with ts ≤ maxTs in
// a fixed order. Exhaustive exploration requires this: view IDs must not
// depend on the order in which different branches first see a pair, or
// state keys would collide across semantically different states.
func PreinternPairs(in *view.Interner, values []string, maxTs int) {
	for ts := 0; ts <= maxTs; ts++ {
		for _, v := range values {
			in.Intern(EncodePair(v, ts))
		}
	}
}

// Decisions extracts the decided values of terminated machines.
func Decisions(sys *machine.System) ([]string, []bool) {
	vals := make([]string, sys.N())
	done := make([]bool, sys.N())
	for i, m := range sys.Procs {
		if !m.Done() {
			continue
		}
		d, ok := m.Output().(Decision)
		if !ok {
			continue
		}
		vals[i] = string(d)
		done[i] = true
	}
	return vals, done
}
