// Package seedrand provides math/rand generators that seed in constant
// time and produce, for every seed and every number of draws, exactly the
// stream rand.New(rand.NewSource(seed)) produces.
//
// math/rand's source is an additive lagged Fibonacci generator over 607
// words. Seeding it fills all 607 words up front: word i is a
// seed-independent constant XOR three consecutive values of the Lehmer
// generator x[n+1] = 48271·x[n] mod (2³¹−1) started at the normalized
// seed, 1,841 Lehmer steps in all. A simulator that reseeds per trial
// (one ASLR layout or one canary draw) pays all of that to read one or
// two words. Here word i is computed the first time a draw reads it, as
// the constant XOR three values 48271ⁿ·x₀ mod (2³¹−1), each one multiply
// by a precomputed power. Draw k adds words 334−k and 607−k, and for
// k ≤ 273 no earlier draw wrote either, so the first 273 draws need no
// state at all: a generator that serves one ASLR layout or one canary
// allocates 72 bytes, not math/rand's 5,376-byte source. Draw 274 reads
// a word draw 1 wrote, so the source then allocates the 607 words once,
// replays the first 273 draws into them and computes each word on its
// first read; after 334 draws it runs exactly as math/rand's.
//
// The 607 constants are not copied from math/rand. init recovers them
// from math/rand's own first 607 outputs for one seed, so math/rand stays
// the reference the stream is defined by and tested against.
package seedrand

import "math/rand"

const (
	rngLen   = 607 // state words
	rngTap   = 273 // lag of the feedback tap
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, prime
	lehmerA  = 48271
	// lazyDraws is the number of draws after which every state word has
	// been read once: the feed index starts at rngLen−rngTap and walks
	// down to zero, while the tap index covers the other rngTap words.
	lazyDraws = rngLen - rngTap
)

var (
	// cooked[i] is the seed-independent part of state word i.
	cooked [rngLen]int64
	// pow[i][j] is 48271^(21+3i+j) mod (2³¹−1): math/rand's seeding
	// discards 20 Lehmer values, then spends three on each word.
	pow [rngLen][3]uint64
)

// New returns a generator whose stream equals that of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source serves a stream's first rngTap draws from seed-time words and
// the rest from a state allocated on draw rngTap+1.
type source struct {
	x0    uint64 // the normalized seed, the Lehmer generator's start
	drawn int    // draws served, counted up to rngTap+1
	st    *state // kept across Seed, so a reseeded stream allocates once
}

// Seed resets the source to the start of seed's stream.
func (s *source) Seed(seed int64) {
	s.x0 = uint64(normalize(seed))
	s.drawn = 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	if s.drawn <= rngTap {
		return s.short()
	}
	st := s.st
	st.tap--
	if st.tap < 0 {
		st.tap += rngLen
	}
	st.feed--
	if st.feed < 0 {
		st.feed += rngLen
	}
	if st.lazy > 0 {
		st.firstReads()
	}
	x := st.vec[st.feed] + st.vec[st.tap]
	st.vec[st.feed] = x
	return uint64(x)
}

// short serves draws 1 to rngTap from seed-time words. Draw rngTap+1
// switches the source to its state: allocated once, then brought up to
// date by replaying the first rngTap draws.
func (s *source) short() uint64 {
	s.drawn++
	if s.drawn <= rngTap {
		return uint64(word(lazyDraws-s.drawn, s.x0) + word(rngLen-s.drawn, s.x0))
	}
	if s.st == nil {
		s.st = new(state)
	}
	s.st.seed(s.x0)
	for range rngTap {
		s.Uint64()
	}
	return s.Uint64()
}

// state is math/rand's rngSource with state words computed on first
// use.
type state struct {
	tap, feed int
	// lazy counts the draws left that read a word for the first time.
	lazy int
	x0   uint64
	vec  [rngLen]int64
}

// seed resets the state to the start of x0's stream. Words of the
// previous stream are never read again: each is recomputed before its
// first read.
func (s *state) seed(x0 uint64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.lazy = lazyDraws
	s.x0 = x0
}

// firstReads computes the words the current draw reads for the first
// time. On draw k (1-based) the feed word 334−k is always fresh; the tap
// word 607−k is fresh for k ≤ 273 and was written as a feed word 273
// draws earlier after that.
func (s *state) firstReads() {
	if s.lazy > lazyDraws-rngTap {
		s.vec[s.tap] = word(s.tap, s.x0)
	}
	s.vec[s.feed] = word(s.feed, s.x0)
	s.lazy--
}

// word is state word i as seeding leaves it.
func word(i int, x0 uint64) int64 {
	return cooked[i] ^ lehmerPart(i, x0)
}

// lehmerPart is the seed-dependent part of state word i: the three
// Lehmer values math/rand's seeding packs into it, shifted by 40, 20
// and 0 bits.
func lehmerPart(i int, x0 uint64) int64 {
	p := &pow[i]
	u := int64(p[0]*x0%int32max) << 40
	u ^= int64(p[1]*x0%int32max) << 20
	return u ^ int64(p[2]*x0%int32max)
}

// normalize maps a seed to the Lehmer generator's start value the way
// math/rand does: reduced into [1, 2³¹−2], with 0 replaced.
func normalize(seed int64) int64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return seed
}

// recoverySeed is the seed whose math/rand stream init reads.
const recoverySeed = 1

func init() {
	a := uint64(1)
	for n := 0; n < 20; n++ {
		a = a * lehmerA % int32max
	}
	for i := range pow {
		for j := range pow[i] {
			a = a * lehmerA % int32max
			pow[i][j] = a
		}
	}

	// out[k] is the k-th output (1-based). Draw k writes vec[feed] =
	// vec[feed] + vec[tap]; reading the draws backwards gives the seeded
	// state words.
	ref := rand.NewSource(recoverySeed).(rand.Source64)
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap + 1; k <= lazyDraws; k++ {
		// Fresh feed word, tap word written at draw k−273.
		vec[lazyDraws-k] = out[k] - out[k-rngTap]
	}
	for k := lazyDraws + 1; k <= rngLen; k++ {
		// The feed index has wrapped; the tap word was again written at
		// draw k−273.
		vec[rngLen+lazyDraws-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		// Both words fresh; the tap word is one recovered above.
		vec[lazyDraws-k] = out[k] - vec[rngLen-k]
	}
	x0 := uint64(normalize(recoverySeed))
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmerPart(i, x0)
	}
}
