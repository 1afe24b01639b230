package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
)

// soloRuns is the unmemoized check WaitFree memoizes, kept as the
// reference: it runs every enabled processor of sys alone, each on a
// copy of sys made into solo, and reports the first that does not
// finish within bound steps. It returns the system it copied into.
func soloRuns(sys, solo *machine.System, bound int) (*machine.System, error) {
	for p := 0; p < sys.N(); p++ {
		if !sys.Enabled(p) {
			continue
		}
		solo = sys.CloneInto(solo)
		for steps := 0; !solo.Procs[p].Done(); steps++ {
			if steps >= bound {
				return solo, fmt.Errorf("processor %d not done after %d solo steps: wait-freedom violated", p, bound)
			}
			if _, err := solo.Step(p, 0); err != nil {
				return solo, fmt.Errorf("solo run of processor %d: %w", p, err)
			}
		}
	}
	return solo, nil
}

// reachableStates returns a copy of every state Run discovers from sys
// under opts.
func reachableStates(t *testing.T, sys *machine.System, opts Options) []*machine.System {
	t.Helper()
	var states []*machine.System
	opts.Invariant = func(n Node) error {
		states = append(states, n.Sys.Clone())
		return nil
	}
	if _, err := Run(sys, opts); err != nil {
		t.Fatal(err)
	}
	return states
}

// errText is err's text, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestWaitFreeMemoMatchesSoloRuns: at every bound up to the default, a
// memoized WaitFree gives every reachable state of three N=2 systems
// exactly the verdict and error text of the unmemoized solo runs. The
// states arrive in a shuffled order, so a hit often serves a state far
// from the one that filled its entry, and the small bounds flip
// verdicts, so a wrong hit shows (at the default bound nearly every
// state passes).
func TestWaitFreeMemoMatchesSoloRuns(t *testing.T) {
	snap, _, err := core.NewSnapshotSystem(core.Config{
		Inputs: []string{"a", "b"}, Nondet: true, Wirings: anonmem.RotationWirings(2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	ren, _, err := renaming.NewSystem(renaming.Config{Inputs: []string{"g1", "g2"}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var states []*machine.System
	for _, c := range []struct {
		sys     *machine.System
		crashes int
	}{{snap, 1}, {blockingSystem(t, 2), 0}, {ren, 0}} {
		s := reachableStates(t, c.sys, Options{MaxCrashes: c.crashes})
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		states = append(states, s...)
	}
	var solo *machine.System
	for bound := 1; bound <= DefaultSoloBound(2, 2); bound++ {
		check := WaitFree(bound)
		violations := 0
		for i, sys := range states {
			var want error
			solo, want = soloRuns(sys, solo, bound)
			if got := check(Node{Sys: sys}); errText(got) != errText(want) {
				t.Fatalf("bound %d, state %d (%q): memoized %q, solo runs %q", bound, i, sys.Key(), errText(got), errText(want))
			}
			if want != nil {
				violations++
			}
		}
		t.Logf("bound %d: %d of %d states violate", bound, violations, len(states))
	}
}

// TestWaitFreeMemoScopedToSystem: one closure fed the roots of two
// systems whose states encode equally — Figure 3 terminating at level 1
// and at the default level 3 — gives each its own verdict. Processor 0
// of the level-1 root finishes alone in 13 steps, of the level-3 root
// in 37, so at bound 13 only the level-3 root violates. The pool may
// hand either call a fresh memo, so the roots alternate several times.
func TestWaitFreeMemoScopedToSystem(t *testing.T) {
	abc := []string{"a", "b", "c"}
	low, _, err := core.NewSnapshotSystem(core.Config{Inputs: abc, Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, _, err := core.NewSnapshotSystem(core.Config{Inputs: abc})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(sys *machine.System) []uint64 {
		return sys.Procs[0].(canon.Encoder).AppendState(nil)
	}
	if !slices.Equal(encode(low), encode(high)) {
		t.Fatal("the two roots encode differently; the test needs equal encodings")
	}
	const want = "processor 0 not done after 13 solo steps: wait-freedom violated"
	check := WaitFree(13)
	for range 8 {
		if err := check(Node{Sys: low}); err != nil {
			t.Fatalf("level-1 root: %v", err)
		}
		if err := check(Node{Sys: high}); errText(err) != want {
			t.Fatalf("level-3 root: %q, want %q", errText(err), want)
		}
	}
}

// TestWaitFreeMemoConcurrentWorkers: the breadth-first engine's four
// workers share one WaitFree closure, each through its own pooled memo,
// and reach the depth-first engine's verdict under a crash budget of
// one on the N=2 snapshot system (at the default bound, and at bound 16,
// which it violates) and on the blocking baseline. A violation's trace
// is a shortest one, as long at four workers as at one.
func TestWaitFreeMemoConcurrentWorkers(t *testing.T) {
	snap, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sys   *machine.System
		bound int
	}{
		{"snapshot", snap, DefaultSoloBound(2, 2)},
		{"snapshot-solo-bound-16", snap, 16},
		{"blocking", blockingSystem(t, 2), DefaultSoloBound(2, 2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(engine Engine, workers int) (violated bool, trace int) {
				_, err := Run(c.sys.Clone(), Options{
					Engine: engine, Workers: workers, MaxCrashes: 1, Invariant: WaitFree(c.bound),
				})
				var ie *InvariantError
				if err != nil && !errors.As(err, &ie) {
					t.Fatalf("%v at %d workers: %v", engine, workers, err)
				}
				if ie == nil {
					return false, 0
				}
				return true, len(ie.Trace)
			}
			want, _ := run(DFSEngine, 1)
			oneViolated, oneTrace := run(BFSEngine, 1)
			fourViolated, fourTrace := run(BFSEngine, 4)
			if oneViolated != want || fourViolated != want {
				t.Errorf("violated: dfs %v, bfs at one worker %v, at four %v", want, oneViolated, fourViolated)
			}
			if fourTrace != oneTrace {
				t.Errorf("trace of %d steps at four workers, %d at one", fourTrace, oneTrace)
			}
		})
	}
}
