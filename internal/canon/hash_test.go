package canon

import (
	"math/rand/v2"
	"testing"
)

// TestHashWordsIsXXHash64 pins hashWords to xxHash64 (seed 0) of the
// words' little-endian bytes, below and above the four-word stripe. The
// empty input's value is xxHash64's published one.
func TestHashWordsIsXXHash64(t *testing.T) {
	max := ^uint64(0)
	for _, c := range []struct {
		words []uint64
		want  uint64
	}{
		{nil, 0xef46db3751d8e999},
		{[]uint64{1}, 0x9f29cb17a2a49995},
		{[]uint64{1, 2, 3}, 0x8799e152e5c0cdfa},
		{[]uint64{1, 2, 3, 4}, 0x73f859a04f669e6d},
		{[]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0x17409231a7be51ab},
		{[]uint64{max, max, max, max, max, max, max, max, max}, 0x54da385251eed7cf},
	} {
		if got := hashWords(c.words); got != c.want {
			t.Errorf("hashWords(%v) = %#x, want %#x", c.words, got, c.want)
		}
	}
}

// TestHashWordsAvalanche: flipping any one input bit flips every output
// bit with probability close to 1/2. The parallel visited table shards
// on the low bits and probes on fp>>7, so no output bit may be weak.
func TestHashWordsAvalanche(t *testing.T) {
	const samples = 400
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{3, 37} { // a tail-only form and a striped one
		var flips [64]int
		ws := make([]uint64, n)
		for range samples {
			for i := range ws {
				ws[i] = rng.Uint64()
			}
			base := hashWords(ws)
			i, b := rng.IntN(n), rng.IntN(64)
			ws[i] ^= 1 << b
			diff := base ^ hashWords(ws)
			for bit := range 64 {
				flips[bit] += int(diff >> bit & 1)
			}
		}
		for bit, f := range flips {
			// 400 fair coins: 1/2 ± 0.125 is over 5 standard deviations.
			if p := float64(f) / samples; p < 0.375 || p > 0.625 {
				t.Errorf("%d words: output bit %d flipped with probability %.3f", n, bit, p)
			}
		}
	}
}
