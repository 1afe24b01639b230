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
		idx := make(map[string]int, len(perms))
		if o.Filter == FilterOrbits {
			for i, p := range perms {
				idx[permKey(p)] = i
			}
		}
		choice := make([]int, n)
		var rec func(p int) bool
		rec = func(p int) bool {
			if p == n {
				if o.Filter == FilterOrbits && !orbitRepresentative(choice, perms, idx, o.Groups) {
					return true
				}
				cp := make([][]int, n)
				for i, c := range choice {
					cp[i] = append([]int(nil), perms[c]...)
				}
				return yield(cp)
			}
			if p == 0 && o.Filter == FilterProc0 {
				choice[0] = 0 // identity is first
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

// permKey encodes a permutation for the index lookup.
func permKey(p []int) string {
	b := make([]byte, len(p))
	for i, v := range p {
		b[i] = byte(v)
	}
	return string(b)
}

// orbitRepresentative reports whether the assignment (as permutation
// indices into perms) is the lexicographically smallest member of its
// orbit under σ_q ↦ ρ∘σ_{π(q)}, over every register permutation ρ and
// every groups-preserving processor permutation π. Enumeration order
// makes the representative the first orbit member Wirings reaches.
func orbitRepresentative(choice []int, perms [][]int, idx map[string]int, groups []string) bool {
	n := len(choice)
	m := len(perms[0])
	composed := make([]int, m)
	mapped := make([]int, n)
	smallest := true
	permute(n, func(pi []int) {
		if !smallest {
			return
		}
		for p := 0; p < n; p++ {
			if groups != nil && groups[pi[p]] != groups[p] {
				return
			}
		}
		for _, rho := range perms {
			for q := 0; q < n; q++ {
				sigma := perms[choice[pi[q]]]
				for i := 0; i < m; i++ {
					composed[i] = rho[sigma[i]]
				}
				mapped[q] = idx[permKey(composed)]
			}
			for q := 0; q < n; q++ {
				if mapped[q] != choice[q] {
					if mapped[q] < choice[q] {
						smallest = false
					}
					break
				}
			}
			if !smallest {
				return
			}
		}
	})
	return smallest
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
