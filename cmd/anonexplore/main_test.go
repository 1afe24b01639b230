package main

import (
	"strings"
	"testing"

	"anonshm/internal/explore"
)

// TestWaitFreeVerdict: a passing wait-freedom sweep claims an acyclic
// step graph only when DFS ran it, since no other engine looks for
// cycles; every verdict claims solo termination.
func TestWaitFreeVerdict(t *testing.T) {
	for _, c := range []struct {
		engine  explore.Engine
		crashes int
		acyclic bool
		subject string
	}{
		{explore.DFSEngine, 0, true, "every processor"},
		{explore.BFSEngine, 0, false, "every processor"},
		{explore.ParallelEngine, 0, false, "every processor"},
		{explore.DFSEngine, 1, true, "every survivor"},
		{explore.ParallelEngine, 2, false, "every survivor"},
	} {
		got := waitFreeVerdict(c.engine, c.crashes)
		if strings.Contains(got, "acyclic") != c.acyclic {
			t.Errorf("%v, %d crashes: %q; want the acyclicity clause: %v", c.engine, c.crashes, got, c.acyclic)
		}
		if !strings.Contains(got, c.subject+" solo-terminates") {
			t.Errorf("%v, %d crashes: %q lacks %q", c.engine, c.crashes, got, c.subject+" solo-terminates")
		}
		if c.crashes > 0 && !strings.Contains(got, "crash budget of") {
			t.Errorf("%v, %d crashes: %q omits the crash budget", c.engine, c.crashes, got)
		}
	}
}
