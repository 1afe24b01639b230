package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/store"
	"anonshm/internal/view"
)

// Seeds recorded for the benchmark: DefaultSeed is the one changes are
// tuned on, HoldoutSeed the one a claimed gain must also hold on.
const (
	DefaultSeed = 1
	HoldoutSeed = 20240503
)

// counts is one wiring run's exact outcome: distinct states and edges.
type counts struct {
	States, Edges int
}

// workload is one N=3 snapshot configuration run through explore.Run. A
// round explores perRound of its wirings, drawn from the seed in a
// seed-drawn order, each up to budget distinct states.
type workload struct {
	name     string
	inputs   []string
	nondet   bool
	symmetry canon.Symmetry
	engine   explore.Engine
	// waitFree checks the solo-run invariant instead of snapshot safety.
	waitFree bool
	// disk selects the disk tier with memLimit as its RAM ceiling and a
	// checkpoint every ckptEvery discovered states.
	disk      bool
	memLimit  store.Bytes
	ckptEvery int
	// wirings are indices into orbitWirings; a round visits perRound of
	// them.
	wirings  []int
	perRound int
	// budget is explore.Options.MaxStates for every wiring run.
	budget int
	// atBudget holds the exact counts of each wiring run at budget.
	atBudget map[int]counts
	// complete holds the untruncated counts of each wiring, where known;
	// a run whose complete count is at most budget must finish
	// untruncated.
	complete map[int]counts
}

// orbitWirings lists the orbit-representative wirings of 3 processors
// over 3 registers; a wiring's index is its position here.
func orbitWirings() [][][]int {
	var out [][][]int
	for w := range explore.Wirings(3, 3, explore.WiringOptions{Filter: explore.FilterOrbits}) {
		out = append(out, w)
	}
	return out
}

// nontrivialGroup are the orbit wirings whose full-symmetry group under
// equal inputs has more than one element.
var nontrivialGroup = []int{0, 1, 2, 3, 4, 5, 9}

// sameGroupComplete is the untruncated count of the same-group system
// (inputs g,g,g, deterministic write order) per orbit wiring, under full
// symmetry and under none; identical on every engine and tier.
var (
	sameGroupFullComplete = map[int]counts{
		0: {370_220, 1_075_371}, 1: {1_047_885, 3_041_830}, 2: {1_090_289, 3_166_920},
		3: {1_002_899, 2_908_592}, 4: {959_298, 2_780_398}, 5: {1_001_027, 2_903_252},
		6: {2_040_328, 5_920_182}, 7: {1_911_437, 5_539_847}, 8: {1_950_635, 5_655_380},
		9: {637_448, 1_847_281},
	}
	sameGroupNoneComplete = map[int]counts{
		0: {2_156_159, 6_261_999}, 1: {2_074_890, 6_022_758}, 2: {2_159_005, 6_270_868},
		3: {1_985_447, 5_757_867}, 4: {1_898_865, 5_503_330}, 5: {1_981_552, 5_746_736},
		6: {2_040_328, 5_920_182}, 7: {1_911_437, 5_539_847}, 8: {1_950_635, 5_655_380},
		9: {1_912_280, 5_541_669},
	}
)

// The workloads are scaled to fit a round into a few seconds: each wiring
// run stops at a fixed state budget, which the engines cut
// deterministically, so every run is checked against exact counts.
var workloads = []*workload{
	{
		// The canonical same-group row: canon's π/ρ search and its string
		// building dominate; the DFS stack stays shallow, so frontier, disk
		// and GC do almost nothing.
		name:     "sg3-full-dfs",
		inputs:   []string{"g", "g", "g"},
		symmetry: canon.Full,
		engine:   explore.DFSEngine,
		wirings:  nontrivialGroup,
		perRound: len(nontrivialGroup),
		budget:   15_000,
		atBudget: map[int]counts{
			0: {15_001, 40_188}, 1: {15_001, 37_256}, 2: {15_001, 36_864}, 3: {15_001, 36_662},
			4: {15_001, 36_867}, 5: {15_001, 37_002}, 9: {15_001, 34_862},
		},
		complete: sameGroupFullComplete,
	},
	{
		// Distinct inputs: the β relabeling path of canon and the solo-run
		// wait-freedom invariant, which no other workload calls.
		name:     "abc3-full-dfs-waitfree",
		inputs:   []string{"a", "b", "c"},
		nondet:   true,
		symmetry: canon.Full,
		engine:   explore.DFSEngine,
		waitFree: true,
		wirings:  nontrivialGroup,
		perRound: len(nontrivialGroup),
		budget:   9_000,
		atBudget: map[int]counts{
			0: {9_001, 18_627}, 1: {9_001, 18_572}, 2: {9_001, 18_466}, 3: {9_001, 18_543},
			4: {9_001, 18_106}, 5: {9_001, 18_267}, 9: {9_001, 18_543},
		},
	},
	{
		// Out of core: a RAM ceiling small enough that both the visited set
		// and the BFS frontier spill, with periodic checkpoints; canon runs
		// only the identity encoding. A smaller ceiling would also reach a
		// compaction within the budget, but its per-state file churn made
		// the file system dominate the round and its timings drift.
		name:      "sg3-none-bfs-disk",
		inputs:    []string{"g", "g", "g"},
		symmetry:  canon.None,
		engine:    explore.BFSEngine,
		disk:      true,
		memLimit:  1 << 20,
		ckptEvery: 5_000,
		wirings:   []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		perRound:  3,
		budget:    20_000,
		atBudget: map[int]counts{
			0: {20_001, 46_497}, 1: {20_001, 47_007}, 2: {20_001, 47_448}, 3: {20_001, 46_926},
			4: {20_001, 47_076}, 5: {20_001, 47_004}, 6: {20_001, 47_133}, 7: {20_001, 47_163},
			8: {20_001, 46_878}, 9: {20_002, 46_752},
		},
		complete: sameGroupNoneComplete,
	},
}

// workloadNames lists the workloads for usage and error messages.
func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// lookupWorkload returns the workload with the given name.
func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, workloadNames())
}

// roundOrder is the seed's draw for round r: which of the workload's
// wirings the round visits, and in what order.
func (w *workload) roundOrder(seed uint64, r int) []int {
	rng := rand.New(rand.NewPCG(seed, uint64(r)))
	order := slices.Clone(w.wirings)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order[:w.perRound]
}

// system builds the workload's system under one wiring, plus the input
// IDs the snapshot invariant needs.
func (w *workload) system(wiring [][]int) (*machine.System, []view.ID, error) {
	sys, in, err := core.NewSnapshotSystem(core.Config{Inputs: w.inputs, Wirings: wiring, Nondet: w.nondet})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]view.ID, len(w.inputs))
	for i, label := range w.inputs {
		id, ok := in.Lookup(label)
		if !ok {
			return nil, nil, fmt.Errorf("input %q not interned", label)
		}
		ids[i] = id
	}
	return sys, ids, nil
}

// invariant is the check every discovered state must pass.
func (w *workload) invariant(ids []view.ID) func(explore.Node) error {
	if w.waitFree {
		return explore.WaitFree(explore.DefaultSoloBound(len(w.inputs), len(w.inputs)))
	}
	return explore.SnapshotInvariant(ids)
}

// storeConfig is the store the explorer opens for one wiring run whose
// scratch files live under dir.
func (w *workload) storeConfig(root *machine.System, dir string) store.Config {
	if !w.disk {
		return store.Config{Kind: store.Mem, Root: root}
	}
	return store.Config{Kind: store.Disk, Dir: dir + "/store", MemLimit: w.memLimit, Root: root}
}

// options are the explore.Run options of one wiring run whose scratch
// files live under dir.
func (w *workload) options(ids []view.ID, dir string) explore.Options {
	opts := explore.Options{
		Engine:        w.engine,
		MaxStates:     w.budget,
		Canonicalizer: w.symmetry.Canonicalizer(),
		Invariant:     w.invariant(ids),
	}
	if w.disk {
		opts.Store = store.Disk
		opts.StoreDir = dir + "/store"
		opts.MemLimit = w.memLimit
		opts.Checkpoint = dir + "/ckpt"
		opts.CheckpointEvery = w.ckptEvery
	}
	return opts
}

// wiringOutcome is what one wiring run produced.
type wiringOutcome struct {
	Wiring    int    `json:"wiring"`
	States    int    `json:"states"`
	Edges     int    `json:"edges"`
	Truncated bool   `json:"truncated"`
	Cycle     bool   `json:"cycle"`
	Err       string `json:"err,omitempty"`
}

// check reports why a wiring run is a failed operation, or nil: an
// error (invariant violations included), a DFS cycle, a truncation the
// budget does not explain, or counts that differ from the recorded ones.
func (w *workload) check(o wiringOutcome) error {
	if o.Err != "" {
		return fmt.Errorf("wiring %d: %s", o.Wiring, o.Err)
	}
	if o.Cycle {
		return fmt.Errorf("wiring %d: DFS found a cycle", o.Wiring)
	}
	full, known := w.complete[o.Wiring]
	wantTruncated := !known || full.States > w.budget
	if o.Truncated != wantTruncated {
		return fmt.Errorf("wiring %d: truncated=%v, want %v at budget %d", o.Wiring, o.Truncated, wantTruncated, w.budget)
	}
	want, ok := w.atBudget[o.Wiring]
	if !ok {
		return fmt.Errorf("wiring %d: no recorded counts (got %d states, %d edges)", o.Wiring, o.States, o.Edges)
	}
	if o.States != want.States || o.Edges != want.Edges {
		return fmt.Errorf("wiring %d: got %d states, %d edges; recorded %d states, %d edges",
			o.Wiring, o.States, o.Edges, want.States, want.Edges)
	}
	return nil
}
