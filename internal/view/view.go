// Package view provides the set-of-inputs abstraction used throughout the
// fully-anonymous shared-memory algorithms of Losa and Gafni (PODC 2024).
//
// A processor's "view" is the set of input values it has learned about by
// reading registers. Input values are arbitrary strings interned to dense
// integer IDs by an Interner, and a View is an immutable bitset over those
// IDs. Immutability keeps the state machines trivially cloneable, and the
// bitset is the word encoding the exhaustive explorer canonicalizes
// states with (AppendWords, AppendRelabeled).
package view

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// ID identifies an interned input value. IDs are dense and start at 0.
type ID int

const wordBits = 64

// View is an immutable set of IDs. The zero value is the empty view.
//
// All methods treat the receiver as read-only and return fresh Views when
// the result differs. Internally the bit slice is normalized: it never has
// trailing zero words, so two equal sets always have identical
// representations and Key is canonical.
type View struct {
	bits []uint64
}

// Empty returns the empty view.
func Empty() View { return View{} }

// Of returns the view containing exactly the given IDs.
func Of(ids ...ID) View {
	v := View{}
	for _, id := range ids {
		v = v.With(id)
	}
	return v
}

// normalize drops trailing zero words. It mutates bs and returns the
// normalized slice; callers must own bs.
func normalize(bs []uint64) []uint64 {
	for len(bs) > 0 && bs[len(bs)-1] == 0 {
		bs = bs[:len(bs)-1]
	}
	return bs
}

// Contains reports whether id is a member of v.
func (v View) Contains(id ID) bool {
	if id < 0 {
		return false
	}
	w := int(id) / wordBits
	if w >= len(v.bits) {
		return false
	}
	return v.bits[w]&(1<<(uint(id)%wordBits)) != 0
}

// With returns v ∪ {id}.
func (v View) With(id ID) View {
	if id < 0 {
		panic(fmt.Sprintf("view: negative ID %d", id))
	}
	if v.Contains(id) {
		return v
	}
	w := int(id) / wordBits
	n := len(v.bits)
	if w+1 > n {
		n = w + 1
	}
	bs := make([]uint64, n)
	copy(bs, v.bits)
	bs[w] |= 1 << (uint(id) % wordBits)
	return View{bits: bs}
}

// Union returns v ∪ w.
func (v View) Union(w View) View {
	if w.SubsetOf(v) {
		return v
	}
	if v.SubsetOf(w) {
		return w
	}
	n := len(v.bits)
	if len(w.bits) > n {
		n = len(w.bits)
	}
	bs := make([]uint64, n)
	copy(bs, v.bits)
	for i, x := range w.bits {
		bs[i] |= x
	}
	return View{bits: normalize(bs)}
}

// Intersect returns v ∩ w.
func (v View) Intersect(w View) View {
	n := len(v.bits)
	if len(w.bits) < n {
		n = len(w.bits)
	}
	bs := make([]uint64, n)
	for i := 0; i < n; i++ {
		bs[i] = v.bits[i] & w.bits[i]
	}
	return View{bits: normalize(bs)}
}

// Diff returns v \ w.
func (v View) Diff(w View) View {
	bs := make([]uint64, len(v.bits))
	copy(bs, v.bits)
	for i := range bs {
		if i < len(w.bits) {
			bs[i] &^= w.bits[i]
		}
	}
	return View{bits: normalize(bs)}
}

// SubsetOf reports whether v ⊆ w.
func (v View) SubsetOf(w View) bool {
	if len(v.bits) > len(w.bits) {
		return false
	}
	for i, x := range v.bits {
		if x&^w.bits[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether v ⊂ w.
func (v View) ProperSubsetOf(w View) bool {
	return v.SubsetOf(w) && !w.SubsetOf(v)
}

// Equal reports whether v and w contain the same IDs.
func (v View) Equal(w View) bool {
	if len(v.bits) != len(w.bits) {
		return false
	}
	for i, x := range v.bits {
		if x != w.bits[i] {
			return false
		}
	}
	return true
}

// ComparableWith reports whether v and w are related by containment,
// i.e. v ⊆ w or w ⊆ v. This is the snapshot-task output condition.
func (v View) ComparableWith(w View) bool {
	return v.SubsetOf(w) || w.SubsetOf(v)
}

// Len returns |v|.
func (v View) Len() int {
	n := 0
	for _, x := range v.bits {
		n += bits.OnesCount64(x)
	}
	return n
}

// IsEmpty reports whether v is the empty set.
func (v View) IsEmpty() bool { return len(v.bits) == 0 }

// IDs returns the members of v in increasing order.
func (v View) IDs() []ID {
	ids := make([]ID, 0, v.Len())
	for w, x := range v.bits {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			ids = append(ids, ID(w*wordBits+b))
			x &= x - 1
		}
	}
	return ids
}

// AppendWords appends v's self-delimiting word encoding to dst: the
// number of bit words, then the words, least significant first. Two
// views are equal iff their encodings are equal. It does not allocate
// when dst has room.
func (v View) AppendWords(dst []uint64) []uint64 {
	dst = append(dst, uint64(len(v.bits)))
	return append(dst, v.bits...)
}

// AppendRelabeled appends the AppendWords encoding of v's image under
// the relabeling beta, which maps ID i to beta[i] for i < len(beta) and
// fixes every other ID; beta must be a bijection, and nil is the
// identity. The symmetry-reduction layer uses it to encode views under a
// renaming of input IDs without building the renamed view.
func (v View) AppendRelabeled(dst []uint64, beta []ID) []uint64 {
	if beta == nil {
		return v.AppendWords(dst)
	}
	// The image fits in as many words as v or beta's range, whichever
	// is wider; trailing zero words are trimmed before the length lands.
	n := max(len(v.bits), (len(beta)+wordBits-1)/wordBits)
	lenAt := len(dst)
	dst = append(dst, 0)
	start := len(dst)
	for range n {
		dst = append(dst, 0)
	}
	for w, x := range v.bits {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			x &= x - 1
			id := w*wordBits + b
			if id < len(beta) {
				id = int(beta[id])
			}
			dst[start+id/wordBits] |= 1 << (uint(id) % wordBits)
		}
	}
	img := normalize(dst[start:])
	dst[lenAt] = uint64(len(img))
	return dst[:start+len(img)]
}

// Rank returns the 1-based position of id among the sorted members of v,
// and whether id is a member at all. Rank is what the Bar-Noy–Dolev
// renaming algorithm uses to pick a name inside a snapshot.
func (v View) Rank(id ID) (int, bool) {
	if !v.Contains(id) {
		return 0, false
	}
	r := 1
	for _, m := range v.IDs() {
		if m == id {
			return r, true
		}
		r++
	}
	return 0, false // unreachable
}

// Key returns a canonical, compact string encoding of v. Two views are
// equal iff their keys are equal. The encoding is hex words separated by
// dots, most-significant word first, with no leading zero words.
func (v View) Key() string {
	if len(v.bits) == 0 {
		return "-"
	}
	var sb strings.Builder
	for i := len(v.bits) - 1; i >= 0; i-- {
		if sb.Len() > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.FormatUint(v.bits[i], 16))
	}
	return sb.String()
}

// String renders the raw IDs, e.g. "{0,2}". Use Format with an Interner to
// render the original input labels instead.
func (v View) String() string {
	ids := v.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Format renders the member labels through in, e.g. "{1,3}" for inputs
// "1" and "3". Members not known to in render as "#<id>".
func (v View) Format(in *Interner) string {
	ids := v.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		if l, ok := in.TryLabel(id); ok {
			parts[i] = l
		} else {
			parts[i] = "#" + strconv.Itoa(int(id))
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}
