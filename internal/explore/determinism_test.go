package explore

import (
	"testing"
)

// These tests pin run-to-run determinism: the verification story depends
// on identical binaries producing identical state counts, so any
// unordered map feeding enumeration would surface here as a flaky diff.
// (The `for p := range outs` loops in checks.go that looked suspect
// iterate []view.View slices returned by core.SnapshotOutputs — ordered
// by construction; the anonlint/determinism analyzer guards against a
// future map sneaking in.)

// resultKey projects the fields of a Result that must be bit-identical
// across runs — everything except Stats (wall time, throughput).
type resultKey struct {
	states, edges, terminals, maxDepth, pruned int
	truncated, cycle                           bool
}

func keyOf(r Result) resultKey {
	return resultKey{
		states: r.States, edges: r.Edges, terminals: r.Terminals,
		maxDepth: r.MaxDepth, pruned: r.Pruned,
		truncated: r.Truncated, cycle: r.Cycle,
	}
}

// TestRunDeterminism re-runs every engine configuration on every small
// system and demands identical summaries each time — including the
// breadth-first engine at several workers, where the order in which
// the workers pop is the likeliest source of drift.
func TestRunDeterminism(t *testing.T) {
	for name, c := range engineSystems(t) {
		c := c
		t.Run(name, func(t *testing.T) {
			for _, ec := range engineConfigs(4) {
				opts := ec.on(c.opts)
				var ref resultKey
				for run := 0; run < 3; run++ {
					res, err := Run(c.sys.Clone(), opts)
					if err != nil {
						t.Fatalf("%s run %d: %v", ec.name, run, err)
					}
					// MaxDepth is a hard assertion on every configuration:
					// the breadth-first engine expands level by level, so
					// every worker count discovers each state at its
					// minimum depth.
					k := keyOf(res)
					if run == 0 {
						ref = k
						continue
					}
					if k != ref {
						t.Errorf("%s run %d diverged: %+v, first run %+v", ec.name, run, k, ref)
					}
				}
			}
		})
	}
}

// TestSweepDeterminism re-runs the full snapshot-safety sweep (which
// exercises SnapshotInvariant and the wiring enumeration in checks.go)
// and demands identical aggregates.
func TestSweepDeterminism(t *testing.T) {
	cfg := SnapshotConfig{Inputs: []string{"a", "b"}, Wirings: FilterProc0, Nondet: true}
	type sweepKey struct {
		wirings, totalStates, totalEdges, maxStates, terminals int
		truncated                                              bool
	}
	var ref sweepKey
	for run := 0; run < 2; run++ {
		res, err := CheckSnapshotSafety(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		k := sweepKey{
			wirings: res.Wirings, totalStates: res.TotalStates, totalEdges: res.TotalEdges,
			maxStates: res.MaxStates, terminals: res.Terminals, truncated: res.Truncated,
		}
		if run == 0 {
			ref = k
			continue
		}
		if k != ref {
			t.Errorf("run %d diverged: %+v, first run %+v", run, k, ref)
		}
	}
}
