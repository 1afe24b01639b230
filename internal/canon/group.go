package canon

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// element is one admissible symmetry triple (π, ρ, β), stored as the
// inverse maps the hasher needs: slot q of the mirrored state holds the
// local state of processor procInv[q] = π⁻¹(q), and global register g of
// the mirrored state holds the word of register regInv[g] = ρ⁻¹(g).
type element struct {
	procInv []int
	// regInv is nil when ρ is the identity.
	regInv []int
	// beta maps input IDs to their relabeling, identity-extended past
	// its length; nil when β is the identity.
	beta []view.ID
}

// hasher fingerprints states as the hash of their least mirror under the
// admissible group elements. Elements are fixed at Bind time and the
// scratch buffers come from a pool, so one hasher serves all parallel
// workers.
type hasher struct {
	elems []element
	m     int // register count
}

var _ Hasher = (*hasher)(nil)

// scratchPool holds Fingerprint's working memory. It is shared by every
// hasher, so the buffers a run has grown stay warm for the next Bind,
// and fingerprinting does not allocate once they have grown.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratch is one Fingerprint call's working memory.
type scratch struct {
	// enc holds the state's segments, each its length followed by an
	// encoding — the registers' in global order, then the machines' in
	// processor order — and then the crash mask: the identity's mirror.
	// Segment i is enc[starts[i]:starts[i+1]]. rel and relStarts hold
	// the segments under one element's β.
	enc, rel          []uint64
	starts, relStarts []int
	// best is the least mirror so far, once one beats the identity's.
	best []uint64
}

// bind computes the admissible group of init under sym and returns its
// hasher (see the package comment for the admission rules). None binds
// the group that holds only the identity element; Full lets ρ be a
// non-identity register permutation.
func bind(init *machine.System, sym Symmetry) (*hasher, error) {
	n := init.N()
	m := init.Mem.M()
	// Crash masks are mirrored one bit per processor in a uint64
	// (machine.NewSystem enforces the same ceiling).
	if n > 64 {
		return nil, fmt.Errorf("canon: %d processors exceed the 64 supported by crash-mask fingerprints", n)
	}
	for g := 0; g < m; g++ {
		w := init.Mem.CellAt(g)
		if _, ok := w.(Encoder); !ok {
			return nil, errNoEncoder("register word", w)
		}
	}
	for _, mach := range init.Procs {
		if _, ok := mach.(Encoder); !ok {
			return nil, errNoEncoder("machine", mach)
		}
	}
	h := &hasher{m: m}
	if sym == None {
		h.elems = []element{{procInv: identityPerm(n)}}
		return h, nil
	}

	classes := make([]string, n)
	symmetric := true
	for p, mach := range init.Procs {
		if s, ok := mach.(Symmetric); ok {
			classes[p] = s.SymmetryClass()
		} else {
			symmetric = false
		}
	}
	inputs := make([]view.ID, n)
	relabelable := true
	for p, mach := range init.Procs {
		if r, ok := mach.(Relabelable); ok {
			inputs[p] = r.InputID()
		} else {
			relabelable = false
		}
	}
	wirings := make([][]int, n)
	for p := 0; p < n; p++ {
		wirings[p] = init.Mem.Wiring(p)
	}

	permute(n, func(pi []int) {
		e, ok := admit(pi, classes, symmetric, inputs, relabelable, wirings, sym == Full)
		if ok {
			h.elems = append(h.elems, e)
		}
	})
	return h, nil
}

// errNoEncoder names a value the explorer cannot fingerprint.
func errNoEncoder(kind string, v any) error {
	return fmt.Errorf("canon: %s %T has no AppendState method, so the explorer cannot fingerprint it", kind, v)
}

// identityPerm returns the identity permutation of 0..n-1.
func identityPerm(n int) []int {
	pi := make([]int, n)
	for i := range pi {
		pi[i] = i
	}
	return pi
}

// admit checks the admission rules for one processor permutation and, on
// success, builds the element.
func admit(pi []int, classes []string, symmetric bool, inputs []view.ID, relabelable bool, wirings [][]int, full bool) (element, bool) {
	n := len(pi)
	identity := true
	for p, q := range pi {
		if p != q {
			identity = false
			break
		}
	}
	e := element{procInv: make([]int, n)}
	for p, q := range pi {
		e.procInv[q] = p
	}
	if identity {
		return e, true
	}
	if !symmetric {
		return element{}, false
	}
	for p := range pi {
		if classes[pi[p]] != classes[p] {
			return element{}, false
		}
	}

	// Wiring rule: σ_{π(p)} = ρ∘σ_p for every p, with ρ pinned by p = 0.
	m := len(wirings[0])
	rho := identityPerm(m)
	if full {
		for i := 0; i < m; i++ {
			rho[wirings[0][i]] = wirings[pi[0]][i]
		}
	}
	for p := range pi {
		for i := 0; i < m; i++ {
			if rho[wirings[p][i]] != wirings[pi[p]][i] {
				return element{}, false
			}
		}
	}
	rhoIdentity := true
	for g, gp := range rho {
		if g != gp {
			rhoIdentity = false
			break
		}
	}
	if !rhoIdentity {
		e.regInv = make([]int, m)
		for g, gp := range rho {
			e.regInv[gp] = g
		}
	}

	// Input rule: β(input_p) = input_{π(p)} must be a well-defined
	// bijection. Machines without Relabelable vouch (via their
	// SymmetryClass, which must then include the input) that π only
	// exchanges equal-input processors, so β stays the identity.
	if !relabelable {
		return e, true
	}
	maxID := view.ID(0)
	for _, id := range inputs {
		if id > maxID {
			maxID = id
		}
	}
	const unset = view.ID(-1)
	beta := make([]view.ID, maxID+1)
	for i := range beta {
		beta[i] = unset
	}
	betaIdentity := true
	for p := range pi {
		a, b := inputs[p], inputs[pi[p]]
		if beta[a] == unset {
			beta[a] = b
		} else if beta[a] != b {
			return element{}, false // ill-defined: π splits an input class
		}
		if a != b {
			betaIdentity = false
		}
	}
	if betaIdentity {
		return e, true
	}
	hit := make([]bool, maxID+1)
	for i, b := range beta {
		if b == unset {
			beta[i] = view.ID(i)
			continue
		}
		if hit[b] {
			return element{}, false // not injective
		}
		hit[b] = true
	}
	e.beta = beta
	return e, true
}

// permute calls f with every permutation of 0..n-1. The identity comes
// first, so elems[0] is always the identity element.
func permute(n int, f func(pi []int)) {
	cur := identityPerm(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(append([]int(nil), cur...))
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

// Fingerprint implements Hasher: the hash of sys's least mirror under
// the admissible elements, with aux folded in afterwards.
func (h *hasher) Fingerprint(sys *machine.System, aux uint64) uint64 {
	s := scratchPool.Get().(*scratch)
	fp := hashWords(h.leastMirror(s, sys))
	scratchPool.Put(s)
	return mixAux(fp, aux)
}

// leastMirror builds sys's canonical form in s and returns it: the
// lexicographically least of its mirrors under the admissible elements.
func (h *hasher) leastMirror(s *scratch, sys *machine.System) []uint64 {
	s.enc, s.starts, _ = appendSegments(s.enc[:0], s.starts[:0], sys, nil)
	mask := sys.CrashMask()
	// elems[0] is the identity, whose mirror is the segments as they
	// stand, then the mask: it is the least mirror until one beats it.
	s.enc = append(s.enc, mask)
	least := s.enc
	// sameRegs records that least holds the state's own registers in
	// global order, as every element with ρ = id and β = id mirrors
	// them: comparing such an element with least can skip the registers.
	sameRegs := true
	for i := 1; i < len(h.elems); i++ {
		e := &h.elems[i]
		enc, starts := s.enc, s.starts
		if e.beta != nil {
			var ok bool
			s.rel, s.relStarts, ok = appendSegments(s.rel[:0], s.relStarts[:0], sys, e.beta)
			if !ok {
				continue
			}
			enc, starts = s.rel, s.relStarts
		}
		plain := e.regInv == nil && e.beta == nil
		if e.compareMirror(least, enc, starts, h.m, mask, sameRegs && plain) >= 0 {
			continue
		}
		s.best = e.appendMirror(s.best[:0], enc, starts, h.m, mask)
		least, sameRegs = s.best, plain
	}
	return least
}

// GroupSize implements Hasher.
func (h *hasher) GroupSize() int { return len(h.elems) }

// appendSegments appends the segments of sys — each an encoding
// prefixed by its length, the registers' in global order, then the
// machines' in processor order — relabeled by beta unless it is nil, and
// records where each starts, plus where the last one ends. It reports
// false when beta is set and some register word cannot be relabeled:
// skipping that element costs reduction, never soundness. Bind admits a
// non-identity β only when every machine is Relabelable, and checks the
// initial register words for AppendState; a word of another type
// written later panics here.
func appendSegments(enc []uint64, starts []int, sys *machine.System, beta []view.ID) ([]uint64, []int, bool) {
	for g := 0; g < sys.Mem.M(); g++ {
		w := sys.Mem.CellAt(g)
		at := len(enc)
		enc = append(enc, 0)
		if beta == nil {
			enc = w.(Encoder).AppendState(enc)
		} else if r, ok := w.(Relabeler); ok {
			enc = r.AppendRelabeled(enc, beta)
		} else {
			return enc, starts, false
		}
		enc[at] = uint64(len(enc) - at - 1)
		starts = append(starts, at)
	}
	for _, mach := range sys.Procs {
		at := len(enc)
		enc = append(enc, 0)
		if beta == nil {
			enc = mach.(Encoder).AppendState(enc)
		} else {
			enc = mach.(Relabelable).AppendRelabeled(enc, beta)
		}
		enc[at] = uint64(len(enc) - at - 1)
		starts = append(starts, at)
	}
	return enc, append(starts, len(enc)), true
}

// compareMirror compares the mirror appendMirror would build with form,
// lexicographically, without building it: it returns a negative number
// when the mirror is less, zero when equal, positive when greater. Most
// mirrors differ from the least one early, so most comparisons stop
// within the first segments. skipRegs starts past the registers, for an
// element and a form that both hold them as enc does.
func (e *element) compareMirror(form, enc []uint64, starts []int, m int, mask uint64, skipRegs bool) int {
	k, i := 0, 0
	if skipRegs {
		k, i = m, starts[m]
	}
	for ; k < m+len(e.procInv); k++ {
		src := k
		switch {
		case k >= m:
			src = m + e.procInv[k-m]
		case e.regInv != nil:
			src = e.regInv[k]
		}
		seg := enc[starts[src]:starts[src+1]]
		// Segments lead with their length, so a form segment of another
		// length differs at its first word, before the slice ends.
		end := min(i+len(seg), len(form))
		if c := slices.Compare(seg, form[i:end]); c != 0 {
			return c
		}
		i = end
	}
	return cmp.Compare(e.mirrorMask(mask), form[i])
}

// appendMirror appends the mirror of a state under e to dst: register
// segments in ρ order, then machine segments in π order, then the crash
// mask permuted by π. The segments are enc split at starts: registers
// first, m of them, then machines.
func (e *element) appendMirror(dst, enc []uint64, starts []int, m int, mask uint64) []uint64 {
	for g := 0; g < m; g++ {
		src := g
		if e.regInv != nil {
			src = e.regInv[g]
		}
		dst = append(dst, enc[starts[src]:starts[src+1]]...)
	}
	for _, p := range e.procInv {
		dst = append(dst, enc[starts[m+p]:starts[m+p+1]]...)
	}
	return append(dst, e.mirrorMask(mask))
}

// mirrorMask permutes a crash mask by π: bit π(p) of the result is bit p
// of mask.
func (e *element) mirrorMask(mask uint64) uint64 {
	var mirrored uint64
	for q, p := range e.procInv {
		mirrored |= (mask >> uint(p) & 1) << uint(q)
	}
	return mirrored
}

// The xxHash64 primes.
const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
	prime4 = 0x85EBCA77C2B2AE63
	prime5 = 0x27D4EB2F165667C5
)

// hashWords hashes a canonical form to its fingerprint: xxHash64 (seed
// 0) of the words' little-endian bytes. Four lanes consume the words in
// stripes, the rest take single-word rounds, and the final avalanche
// makes every output bit depend on every input bit. That matters: the
// parallel visited table shards on a fingerprint's low bits and probes
// on fp>>7.
func hashWords(ws []uint64) uint64 {
	n := uint64(len(ws))
	h := uint64(prime5)
	if len(ws) >= 4 {
		v1, v2, v3, v4 := uint64(prime1), uint64(prime2), uint64(0), uint64(0)
		v1 += prime2
		v4 -= prime1
		for ; len(ws) >= 4; ws = ws[4:] {
			v1 = round(v1, ws[0])
			v2 = round(v2, ws[1])
			v3 = round(v3, ws[2])
			v4 = round(v4, ws[3])
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h = (h^round(0, v))*prime1 + prime4
		}
	}
	h += 8 * n
	for _, w := range ws {
		h = bits.RotateLeft64(h^round(0, w), 27)*prime1 + prime4
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// round is xxHash64's accumulator step.
func round(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

// mixAux folds the auxiliary value into a finished fingerprint.
func mixAux(fp, aux uint64) uint64 {
	if aux == 0 {
		return fp
	}
	return fp ^ (aux+0x9e3779b97f4a7c15)*0xff51afd7ed558ccd
}
