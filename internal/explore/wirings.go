package explore

import (
	"fmt"
	"iter"
)

// This file enumerates wiring assignments — one permutation of the M
// registers per processor — for the sweep helpers and cmd binaries.
// Wirings is the entry point; WiringFilter selects how much of the
// assignment space symmetry is allowed to cut.

// WiringFilter selects which wiring assignments a sweep visits. The zero
// value visits all of them. *WiringFilter implements flag.Value
// ("all", "proc0", "orbits").
type WiringFilter uint8

const (
	// FilterAll enumerates every assignment: (M!)^N systems.
	FilterAll WiringFilter = iota
	// FilterProc0 pins processor 0's wiring to the identity: a global
	// relabeling of the registers maps any system to one of this form
	// without changing behaviour, so the cut is sound for properties
	// invariant under register renaming (all of ours). (M!)^(N-1)
	// systems.
	FilterProc0
	// FilterOrbits emits one representative per wiring orbit: two
	// assignments σ, σ' are equivalent when σ'_q = ρ∘σ_{π(q)} for some
	// register permutation ρ and some WiringOptions.Groups-preserving
	// processor permutation π. On top of the register relabeling of
	// FilterProc0 this also exploits processor anonymity, and is sound
	// when the checked property is additionally invariant under renaming
	// the input values of same-group processors — true of the snapshot
	// task and wait-freedom (Figure 3 and its invariants are
	// value-oblivious), but not of label-ordering algorithms like
	// consensus, which must pass Groups to pin unequal inputs apart.
	FilterOrbits
)

// String implements flag.Value.
func (f WiringFilter) String() string {
	switch f {
	case FilterAll:
		return "all"
	case FilterProc0:
		return "proc0"
	case FilterOrbits:
		return "orbits"
	default:
		return fmt.Sprintf("WiringFilter(%d)", uint8(f))
	}
}

// Set implements flag.Value.
func (f *WiringFilter) Set(v string) error {
	switch v {
	case "", "all":
		*f = FilterAll
	case "proc0":
		*f = FilterProc0
	case "orbits":
		*f = FilterOrbits
	default:
		return fmt.Errorf("explore: unknown wiring filter %q (want all, proc0 or orbits)", v)
	}
	return nil
}

// WiringOptions configures Wirings.
type WiringOptions struct {
	// Filter selects the symmetry cut (zero value: FilterAll).
	Filter WiringFilter
	// Groups partitions the processors for FilterOrbits: the orbit
	// equivalence only permutes processors with equal group labels. Nil
	// means all processors are interchangeable. Ignored by the other
	// filters.
	Groups []string
}

// Wirings enumerates the wiring assignments the filter keeps, for n
// processors over m registers. The yielded slice is freshly allocated
// per assignment (callers may retain it). Assignments appear in a fixed
// deterministic order with the all-identity assignment first.
func Wirings(n, m int, o WiringOptions) iter.Seq[[][]int] {
	return func(yield func([][]int) bool) {
		perms := Permutations(m)
		var compose, pis [][]int
		if o.Filter == FilterOrbits {
			compose = composeTable(perms)
			pis = groupPerms(n, o.Groups)
		}
		choice := make([]int, n)
		var rec func(p int) bool
		rec = func(p int) bool {
			if p == n {
				if o.Filter == FilterOrbits && !orbitRepresentative(choice, compose, pis) {
					return true
				}
				cp := make([][]int, n)
				for i, c := range choice {
					cp[i] = append([]int(nil), perms[c]...)
				}
				return yield(cp)
			}
			// An orbit's representative starts with the identity too: ρ =
			// σ_0⁻¹ maps any member to one whose first wiring is the
			// identity, perms[0].
			if p == 0 && o.Filter != FilterAll {
				choice[0] = 0
				return rec(1)
			}
			for i := range perms {
				choice[p] = i
				if !rec(p + 1) {
					return false
				}
			}
			return true
		}
		rec(0)
	}
}

// composeTable returns the composition table of perms: t[r][s] is the
// index in perms of perms[r]∘perms[s], the permutation i ↦
// perms[r][perms[s][i]].
func composeTable(perms [][]int) [][]int {
	code := func(p []int) int {
		c := 0
		for _, v := range p {
			c = c*len(p) + v
		}
		return c
	}
	index := make(map[int]int, len(perms))
	for i, p := range perms {
		index[code(p)] = i
	}
	composed := make([]int, len(perms[0]))
	t := make([][]int, len(perms))
	for r, rho := range perms {
		t[r] = make([]int, len(perms))
		for s, sigma := range perms {
			for i, v := range sigma {
				composed[i] = rho[v]
			}
			t[r][s] = index[code(composed)]
		}
	}
	return t
}

// groupPerms returns the processor permutations π, identity first, that
// keep every processor within its group: groups[π(p)] = groups[p] for
// every p. Nil groups admit every permutation.
func groupPerms(n int, groups []string) [][]int {
	var out [][]int
	for _, pi := range Permutations(n) {
		ok := true
		for p, q := range pi {
			ok = ok && (groups == nil || groups[q] == groups[p])
		}
		if ok {
			out = append(out, pi)
		}
	}
	return out
}

// orbitRepresentative reports whether the assignment (as permutation
// indices) is the lexicographically smallest member of its orbit under
// σ_q ↦ ρ∘σ_{π(q)}, over every register permutation ρ (a row of
// compose, from composeTable) and every processor permutation π in pis
// (from groupPerms).
// Enumeration order makes the representative the first orbit member
// Wirings reaches.
func orbitRepresentative(choice []int, compose, pis [][]int) bool {
	for _, pi := range pis {
		for _, row := range compose {
			for q, c := range choice {
				if img := row[choice[pi[q]]]; img != c {
					if img < c {
						return false
					}
					break
				}
			}
		}
	}
	return true
}

// permute calls f with every permutation of 0..n-1, identity first.
func permute(n int, f func(pi []int)) {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(cur)
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
}

// Permutations returns all permutations of 0..m-1 in lexicographic order
// of generation (identity first).
func Permutations(m int) [][]int {
	var out [][]int
	permute(m, func(p []int) {
		out = append(out, append([]int(nil), p...))
	})
	return out
}

// forEachWiring runs f over the filtered assignments, stopping at the
// first error.
func forEachWiring(n, m int, o WiringOptions, f func(perms [][]int) error) error {
	var err error
	for perms := range Wirings(n, m, o) {
		if err = f(perms); err != nil {
			break
		}
	}
	return err
}

// WiringCount returns how many assignments Wirings yields for the
// filter. FilterOrbits has no closed form and is counted by enumeration
// (the orbit filter is only meant for exhaustively checkable sizes).
func WiringCount(n, m int, f WiringFilter) int {
	if f == FilterOrbits {
		count := 0
		for range Wirings(n, m, WiringOptions{Filter: f}) {
			count++
		}
		return count
	}
	fact := 1
	for i := 2; i <= m; i++ {
		fact *= i
	}
	total := 1
	start := 0
	if f == FilterProc0 {
		start = 1
	}
	for p := start; p < n; p++ {
		total *= fact
	}
	return total
}
