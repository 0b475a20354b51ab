package seedrand

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// testSeeds returns the seeds the equivalence test covers: the
// normalization edge cases (zero, which math/rand replaces by 89482311,
// multiples of the modulus, the int64 extremes), a run of small seeds,
// and pseudo-random 64-bit seeds — more than 10,000 in all.
func testSeeds() []int64 {
	seeds := []int64{
		0, -1, 1, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max - 1, int32max + 1, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		math.MinInt32, math.MaxInt32 + 1, 1 << 31, 1 << 32, 1<<62 + 12345,
	}
	for s := int64(-64); s <= 64; s++ {
		seeds = append(seeds, s)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for len(seeds) < 10_100 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		seeds = append(seeds, int64(z^z>>31))
	}
	return seeds
}

// drawsPerSeed passes both the 273-draw point where the tap starts
// reading words the feed wrote and the 607-draw wrap of the state.
const drawsPerSeed = 1500

// compareStreams draws n values from got and want, rotating through the
// rand.Rand methods the simulator uses and those they are built on, and
// reports the first disagreement.
func compareStreams(t testing.TB, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	var gb, wb [13]byte
	for d := 0; d < n; d++ {
		var g, w int64
		switch d % 6 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			gu, wu := got.Uint64(), want.Uint64()
			g, w = int64(gu), int64(wu)
		case 2:
			// Large bounds that are not powers of two make Int31n
			// reject and redraw.
			bound := int32(d*7919%1000+1) << (d % 21)
			g, w = int64(got.Int31n(bound)), int64(want.Int31n(bound))
		case 3:
			bound := int64(d*104729%100000+1) << (d % 41)
			g, w = got.Int63n(bound), want.Int63n(bound)
		case 4:
			k := d % len(gb)
			got.Read(gb[:k])
			want.Read(wb[:k])
			if !bytes.Equal(gb[:k], wb[:k]) {
				t.Fatalf("seed %d draw %d: Read %x, math/rand %x", seed, d, gb[:k], wb[:k])
			}
			continue
		case 5:
			bound := d*7%500 + 1<<(d%50)
			g, w = int64(got.Intn(bound)), int64(want.Intn(bound))
		}
		if g != w {
			t.Fatalf("seed %d draw %d (method %d): %d, math/rand %d", seed, d, d%6, g, w)
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	seeds := testSeeds()
	if len(seeds) < 10_000 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	for _, seed := range seeds {
		compareStreams(t, seed, New(seed), rand.New(rand.NewSource(seed)), drawsPerSeed)
	}
}

func TestReseedMidStream(t *testing.T) {
	got, want := New(7), rand.New(rand.NewSource(7))
	compareStreams(t, 7, got, want, 400)
	for _, seed := range []int64{0, -3, math.MaxInt64, 7} {
		got.Seed(seed)
		want.Seed(seed)
		compareStreams(t, seed, got, want, 700)
	}
}

// bytesPerCall returns the bytes f allocates on average over 1,000 calls.
func bytesPerCall(f func()) uint64 {
	const n = 1000
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return (b.TotalAlloc - a.TotalAlloc) / n
}

// TestSourceNoLargerThanMathRand checks that a generator allocates no
// more than the math/rand one it replaces.
func TestSourceNoLargerThanMathRand(t *testing.T) {
	ours := bytesPerCall(func() { sinkRand = New(42) })
	theirs := bytesPerCall(func() { sinkRand = rand.New(rand.NewSource(42)) })
	if theirs == 0 {
		t.Fatal("measured no allocation")
	}
	if ours > theirs {
		t.Errorf("New allocates %d B, math/rand %d B", ours, theirs)
	}
}

// TestShortStreamAllocatesNoState checks that a generator drawn at most
// rngTap times, as an ASLR layout or a canary is, never allocates the
// 607-word state: only the generator itself, which the sink makes
// escape.
func TestShortStreamAllocatesNoState(t *testing.T) {
	seed := int64(0)
	got := bytesPerCall(func() {
		seed++
		sinkRand = New(seed)
		for range rngTap {
			sinkInt63 = sinkRand.Int63()
		}
	})
	if got > 128 {
		t.Errorf("New plus %d draws allocates %d B, want at most 128", rngTap, got)
	}
}

func FuzzSeededRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws % 2048)
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for d := 0; d < n; d++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, d, g, w)
			}
		}
	})
}

var (
	sinkRand  *rand.Rand
	sinkInt63 int64
)

// BenchmarkNewInt63 and BenchmarkMathRandNewInt63 time what a canary
// draw costs: seed a generator, draw once.
func BenchmarkNewInt63(b *testing.B) {
	seed := int64(0)
	for b.Loop() {
		seed++
		sinkInt63 = New(seed).Int63()
	}
}

func BenchmarkMathRandNewInt63(b *testing.B) {
	seed := int64(0)
	for b.Loop() {
		seed++
		sinkInt63 = rand.New(rand.NewSource(seed)).Int63()
	}
}
