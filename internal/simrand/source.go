package simrand

import "math/rand"

// The constants of math/rand's source: an additive lagged-Fibonacci
// generator x[n] = x[n−273] + x[n−607] over 607 int64 words, seeded by the
// Park–Miller LCG x ← 48271·x mod (2³¹−1).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lcgMod   = 1<<31 - 1
	lcgMul   = 48271
	lcgSkip  = 20       // LCG steps math/rand discards before word 0
	zeroSeed = 89482311 // what math/rand seeds with in place of 0
)

var (
	// lcgPow[n] is 48271ⁿ mod (2³¹−1): the LCG's n-th step from any x₀ is
	// one multiply. Word 606 reads step lcgSkip + 3·606 + 3 = 1841.
	lcgPow [lcgSkip + 3*rngLen + 1]uint64
	// cooked is the table math/rand XORs into the LCG bits of each word.
	cooked [rngLen]uint64
)

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2], by two
// branch-free Mersenne folds: the first leaves at most 2³²−2, the second
// at most 2³¹−1, which only a multiple of the prime modulus reaches.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	return p&lcgMod + p>>31
}

// seedBits returns the LCG half of state word i for seed x₀:
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ.
func seedBits(x0 uint64, i int) uint64 {
	n := lcgSkip + 1 + 3*i
	return mulMod(lcgPow[n], x0)<<40 ^ mulMod(lcgPow[n+1], x0)<<20 ^ mulMod(lcgPow[n+2], x0)
}

func init() {
	lcgPow[0] = 1
	for n := 1; n < len(lcgPow); n++ {
		lcgPow[n] = mulMod(lcgPow[n-1], lcgMul)
	}
	// Recover cooked from math/rand's seed-1 stream. Draw k adds word
	// (334−k) mod 607 to word 607−k and stores the sum in the former; for
	// k > 273 the second word is draw k−273's sum, so the first word is
	// oₖ − oₖ₋₂₇₃. That leaves words 334…606 and 0…60; draws k ≤ 273 read
	// only initial words, which gives words 61…333 as oₖ − w[607−k].
	ref := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]uint64 // o[k] is the k-th draw, 1-based
	for k := 1; k <= rngLen; k++ {
		o[k] = ref.Uint64()
	}
	var w [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		w[(2*rngLen-rngTap-k)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		w[rngLen-rngTap-k] = o[k] - w[rngLen-k]
	}
	for i := range w {
		cooked[i] = w[i] ^ seedBits(1, i)
	}
}

// source is math/rand's rand.NewSource, draw for draw, without its 4.9 KB
// state until a draw needs it. Draw k ≤ 273 adds words 334−k and 607−k,
// which no earlier draw has written, so it is computed from the seed in
// closed form; the 274th draw builds the 607 words, replays the first 273
// sums into them and continues as math/rand does.
type source struct {
	x0        uint64 // the normalised seed: the LCG's x₀
	tap, feed int
	vec       *[rngLen]int64 // nil until the 274th draw
}

// Seed resets s to math/rand's state for seed: the seed is taken mod
// 2³¹−1, lifted when negative, and 0 becomes zeroSeed.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	*s = source{x0: uint64(seed), feed: rngLen - rngTap}
}

// word returns state word i as math/rand's Seed leaves it.
func (s *source) word(i int) int64 {
	return int64(cooked[i] ^ seedBits(s.x0, i))
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next 64 bits of math/rand's stream.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.vec == nil {
		if s.tap >= rngLen-rngTap {
			return uint64(s.word(s.feed) + s.word(s.tap))
		}
		s.materialise()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// materialise builds the state as it stands after the first rngTap draws.
func (s *source) materialise() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
	}
}
