package explore

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

func witnessForCandidate(c SnapshotConfig, perms [][]int, cand view.View, maxStates int) (bool, []machine.StepInfo, bool, error) {
	sys, _, err := c.system(perms)
	if err != nil {
		return false, nil, false, err
	}
	aux := func(aux uint64, _ machine.StepInfo, sys *machine.System) uint64 {
		if aux == 0 && memoryUnion(sys).Equal(cand) {
			return 1
		}
		return aux
	}
	invariant := func(node Node) error {
		if node.Aux != 0 {
			return nil
		}
		outs, ok := core.SnapshotOutputs(node.Sys)
		for p := range outs {
			if ok[p] && outs[p].Equal(cand) {
				return errWitness{output: outs[p], proc: p}
			}
		}
		return nil
	}
	prune := func(node Node) bool {
		if node.Aux != 0 {
			return true
		}
		for _, m := range node.Sys.Procs {
			if m.Done() {
				continue
			}
			if v, ok := m.(core.Viewer); ok && v.View().SubsetOf(cand) {
				return false
			}
		}
		return true
	}
	res, err := Run(sys, Options{Engine: DFSEngine, MaxStates: maxStates, Aux: aux, Invariant: invariant, Prune: prune})
	if err != nil {
		var ie *InvariantError
		if errors.As(err, &ie) {
			if _, ok := ie.Err.(errWitness); ok {
				return true, ie.Trace, true, nil
			}
		}
		return false, nil, false, err
	}
	return false, nil, !res.Truncated, nil
}

func TestWitnessProbe(t *testing.T) {
	if os.Getenv("ANONSHM_PROBE") == "" {
		t.Skip("set ANONSHM_PROBE=1 to run")
	}
	c := SnapshotConfig{Inputs: []string{"a", "b", "c"}}
	// Derived from the cover-overlap analysis: A=identity, B=[2,0,1], C=[0,2,1]
	// and close variants.
	wiringSets := [][][]int{
		{{0, 1, 2}, {2, 0, 1}, {0, 2, 1}},
		{{0, 1, 2}, {2, 0, 1}, {0, 1, 2}},
		{{0, 1, 2}, {1, 2, 0}, {0, 2, 1}},
		{{0, 1, 2}, {2, 0, 1}, {2, 0, 1}},
		{{0, 1, 2}, {1, 2, 0}, {2, 1, 0}},
		{{0, 1, 2}, {2, 1, 0}, {0, 2, 1}},
	}
	cands := []view.View{view.Of(0, 1), view.Of(0, 2), view.Of(1, 2)}
	start := time.Now()
	for wi, perms := range wiringSets {
		for ci, cand := range cands {
			found, trace, exhaustive, err := witnessForCandidate(c, perms, cand, 60_000_000)
			fmt.Printf("wiring %d cand %v: found=%v exhaustive=%v err=%v elapsed=%v\n", wi, cand, found, exhaustive, err, time.Since(start))
			if err != nil {
				t.Fatal(err)
			}
			if found {
				fmt.Printf("WITNESS trace (%d): %s\n", len(trace), FormatTrace(trace))
				fmt.Printf("wirings: %v cand index %d\n", perms, ci)
				return
			}
		}
	}
	fmt.Println("no witness in derived set")
}
