package explore

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestProbeSizes measures raw exploration sizes; run explicitly with
// ANONSHM_PROBE=1. It is a development tool, not part of the suite.
func TestProbeSizes(t *testing.T) {
	if os.Getenv("ANONSHM_PROBE") == "" {
		t.Skip("set ANONSHM_PROBE=1 to run")
	}
	c := SnapshotConfig{Inputs: []string{"a", "b", "c"}, Wirings: FilterProc0, Options: Options{MaxStates: 400_000_000}}
	sys, _, err := c.system(nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Run(sys, Options{
		Engine:    DFSEngine,
		MaxStates: c.MaxStates,
		Progress: func(states, edges int) {
			fmt.Printf("... %d states, %d edges, %v\n", states, edges, time.Since(start))
		},
		ProgressEvery: 10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("n=3 identity DFS: states=%d edges=%d terminals=%d maxdepth=%d cycle=%v truncated=%v in %v\n",
		res.States, res.Edges, res.Terminals, res.MaxDepth, res.Cycle, res.Truncated, time.Since(start))
}
