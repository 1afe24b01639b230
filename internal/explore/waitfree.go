package explore

import (
	"fmt"

	"anonshm/internal/machine"
)

// This file provides the invariant form of the wait-freedom check: bounded
// solo termination at every reachable state. It complements the cycle
// form, which DFSEngine detects inline, and is the only form BFSEngine
// runs, since invariants are checked per state with no global graph.
//
// The two forms catch different failure shapes. A cycle is an execution in
// which live processors step forever — non-termination under adversarial
// interleaving (the double-collect rule fails this way). The solo bound
// catches helping dependencies: a processor that cannot finish on its own
// steps — exactly what crash faults expose, because a crashed processor is
// indistinguishable from one that is never scheduled again. Explored with
// Options.MaxCrashes = N−1, the solo-bound invariant verifies that every
// survivor finishes no matter which subset of the others stops forever —
// the property that defines wait-freedom in the crash-fault model of
// Raynal–Taubenfeld and Delporte-Gallet et al.

// WaitFree returns an invariant asserting bounded solo termination: from
// the checked state, every enabled (non-crashed, non-terminated) processor
// must reach its output within bound of its own steps when it runs alone,
// taking its default (index 0) choices. A processor that exceeds the bound
// — a blocked spin-loop waiting for others, or an unbounded helping
// protocol — violates the invariant, and the counterexample trace leads to
// the state the solo run started from.
func WaitFree(bound int) func(Node) error {
	if bound <= 0 {
		panic(fmt.Sprintf("explore: WaitFree bound %d must be positive", bound))
	}
	return func(n Node) error {
		sys := n.Sys
		// One solo system per call, recopied for each processor: the
		// closure is shared by the breadth-first engine's workers, so
		// it cannot own one.
		var solo *machine.System
		for p := 0; p < sys.N(); p++ {
			if !sys.Enabled(p) {
				continue
			}
			solo = sys.CloneInto(solo)
			for steps := 0; !solo.Procs[p].Done(); steps++ {
				if steps >= bound {
					return fmt.Errorf("processor %d not done after %d solo steps: wait-freedom violated", p, bound)
				}
				if _, err := solo.Step(p, 0); err != nil {
					return fmt.Errorf("solo run of processor %d: %w", p, err)
				}
			}
		}
		return nil
	}
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
