package cpu

import "math/bits"

// Edge-coverage instrumentation for the fuzzing subsystem.
//
// A Coverage is a fixed-size bitmap of branch edges, in the AFL style:
// every control-flow transfer (CALL, CALLR, RET, JMP, JMPR, taken *and*
// not-taken conditional jumps) hashes its (from, to) address pair into a
// bit. Sequential fall-through of straight-line code is not recorded —
// it carries no information a fuzzer can use, and keeping it off the
// bitmap leaves the map's collision budget to the edges that matter.
//
// The hook follows the Policy pattern: the CPU tests a single field for
// nil on the branch path, so a machine without coverage installed pays
// one predictable untaken branch per control transfer and nothing on the
// straight-line path. Install with `c.Coverage = cov`; like Policy, the
// change takes effect on the next instruction.
//
// Alongside the bitmap, a Coverage keeps the list of 64-bit words that
// hold any set bit. A typical execution touches a few dozen words of the
// 1024-word map, so Reset, NewBits and MergeInto walk the dirty words
// instead of scanning 8 KiB — these three run once per fuzz execution
// and used to be a measurable slice of campaign wall-clock.

// Coverage map geometry. 2^16 bits (8 KiB) keeps collisions rare for the
// program sizes the simulator runs while bounding the worst-case scan.
const (
	CovMapBits = 16
	CovMapSize = 1 << CovMapBits
)

// Coverage is a fixed-size branch-edge hit bitmap. The zero value is an
// empty map ready to use. Not safe for concurrent use; give each CPU its
// own map (fuzz campaigns are share-nothing per trial).
type Coverage struct {
	bits [CovMapSize / 64]uint64
	// words lists the indices of non-zero bitmap words, in first-set
	// order; the sparse iteration domain for Reset/NewBits/MergeInto.
	words []uint32
	n     int
}

// edgeIndex hashes a branch edge into the map. Both endpoints are mixed
// with distinct odd multipliers so the frequent (f, t) / (t, f)
// call-return pairs land on different bits.
func edgeIndex(from, to uint32) uint32 {
	h := from*0x9E3779B1 ^ to*0x85EBCA77
	h ^= h >> 15
	return h & (CovMapSize - 1)
}

// Edge records one branch-edge hit.
func (cv *Coverage) Edge(from, to uint32) {
	i := edgeIndex(from, to)
	w, b := i>>6, uint64(1)<<(i&63)
	if cv.bits[w]&b == 0 {
		if cv.bits[w] == 0 {
			cv.words = append(cv.words, w)
		}
		cv.bits[w] |= b
		cv.n++
	}
}

// Count returns the number of distinct edge bits set.
func (cv *Coverage) Count() int { return cv.n }

// Reset clears the map.
func (cv *Coverage) Reset() {
	if cv.n == 0 {
		return
	}
	for _, w := range cv.words {
		cv.bits[w] = 0
	}
	cv.words = cv.words[:0]
	cv.n = 0
}

// NewBits counts the bits set in cv that are not set in ref — the
// coverage-novelty signal corpus admission keys on.
func (cv *Coverage) NewBits(ref *Coverage) int {
	n := 0
	for _, w := range cv.words {
		n += bits.OnesCount64(cv.bits[w] &^ ref.bits[w])
	}
	return n
}

// MergeInto ORs cv into acc and returns how many bits were newly set in
// acc.
func (cv *Coverage) MergeInto(acc *Coverage) int {
	n := 0
	for _, w := range cv.words {
		nv := cv.bits[w] &^ acc.bits[w]
		if nv != 0 {
			if acc.bits[w] == 0 {
				acc.words = append(acc.words, w)
			}
			acc.bits[w] |= nv
			n += bits.OnesCount64(nv)
		}
	}
	acc.n += n
	return n
}
