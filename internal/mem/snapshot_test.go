package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// dumpSpace renders the complete logical content of an address space:
// every mapped region with its permissions and bytes. Two spaces with
// equal dumps are indistinguishable to any program.
func dumpSpace(t *testing.T, m *Memory) string {
	t.Helper()
	var b bytes.Buffer
	for _, r := range m.Regions() {
		data, ok := m.PeekRaw(r.Addr, int(r.Size))
		if !ok {
			t.Fatalf("region [%#x,+%#x) not fully readable", r.Addr, r.Size)
		}
		fmt.Fprintf(&b, "%08x+%x %s\n", r.Addr, r.Size, r.Perm)
		b.Write(data)
	}
	return b.String()
}

// opStream feeds checkpointOps from a byte string; past its end every
// read yields zero.
type opStream []byte

func (s *opStream) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return c
}

func (s *opStream) u32() uint32 {
	return uint32(s.byte()) | uint32(s.byte())<<8 | uint32(s.byte())<<16 | uint32(s.byte())<<24
}

// addr picks an address in the 16-page window at base, sometimes within
// the last bytes of a page so word and bulk stores cross into the next.
func (s *opStream) addr(base uint32) uint32 {
	pg := s.byte()
	off := uint32(s.byte()) | uint32(s.byte())<<8
	if pg&0x80 != 0 {
		off = PageSize - 1 - off%8
	}
	return base + uint32(pg%16)*PageSize + off&PageMask
}

// pattern returns n bytes of non-constant content derived from seed.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// checkZeroPage fails the test if anything wrote the shared zero array
// that backs unwritten pages.
func checkZeroPage(t *testing.T, what string) {
	t.Helper()
	if zeroPage != [PageSize]byte{} {
		t.Fatalf("%s wrote the shared zero page", what)
	}
}

// checkExtents fails the test unless m's page table is well formed: the
// extents are sorted, no two touch or overlap, their non-nil slots
// number exactly the mapped pages, and a valid translation-cache entry
// holds the page the table maps there.
func checkExtents(t *testing.T, m *Memory, what string) {
	t.Helper()
	if m.lastPage != nil && m.pageAt(m.lastPN) != m.lastPage {
		t.Fatalf("%s: translation cache holds a stale page at %#x", what, m.lastPN<<pageShift)
	}
	n := 0
	for i, e := range m.ext {
		if i > 0 {
			if prev := m.ext[i-1]; prev.base+uint32(len(prev.pages)) >= e.base {
				t.Fatalf("%s: extent at page %#x touches or overlaps the one at %#x", what, e.base, prev.base)
			}
		}
		for _, p := range e.pages {
			if p != nil {
				n++
			}
		}
	}
	if n != m.npages {
		t.Fatalf("%s: %d pages in the extents, npages %d", what, n, m.npages)
	}
}

// checkpointOps decodes data into a starting layout and a stream of
// operations drawn from every mutation path the Memory has — checked
// writes, raw pokes and loads, single- and multi-page Map — interleaved
// with restores and re-checkpoints. After every restore the space must be
// byte-identical to the checkpoint, and after every operation the shared
// zero page must still be all zero and the extents well formed.
//
// The layout maps some of 16 pages with random content, leaves some as
// holes, and maps some without writing them, so operations and
// checkpoints also meet pages that still read through the zero page.
func checkpointOps(t *testing.T, data []byte) {
	const (
		base   = uint32(0x00400000)
		maxOps = 256
	)
	s := opStream(data)
	m := New()
	for pn := uint32(0); pn < 16; pn++ {
		b := s.byte()
		if b&3 == 0 {
			continue // a hole
		}
		pg := base + pn*PageSize
		if err := m.Map(pg, PageSize, Perm(1+(b>>2)%7)); err != nil {
			t.Fatal(err)
		}
		if b&3 == 1 {
			continue // mapped, never written
		}
		if err := m.LoadRaw(pg, pattern(b, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	checkZeroPage(t, "layout")
	cp := m.Checkpoint()
	want, wantRegions := dumpSpace(t, m), m.Regions()
	restore := func(when string) {
		t.Helper()
		if err := m.Restore(cp); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		checkZeroPage(t, when)
		checkExtents(t, m, when)
		if got := dumpSpace(t, m); got != want {
			t.Fatalf("%s: space differs after restore", when)
		}
		if got := m.Regions(); !reflect.DeepEqual(got, wantRegions) {
			t.Fatalf("%s: regions differ: %v vs %v", when, got, wantRegions)
		}
	}

	for op := 0; op < maxOps && len(s) > 0; op++ {
		code := s.byte() % 9
		// Faults and overlapping maps are expected outcomes here: only
		// the restored content is checked.
		switch code {
		case 0:
			m.Write8(s.addr(base), s.byte())
		case 1:
			m.Write32(s.addr(base), s.u32())
		case 2:
			m.PokeWord(s.addr(base), s.u32())
		case 3:
			a, n := s.addr(base), 1+int(uint32(s.byte())|uint32(s.byte())<<8)%(2*PageSize)
			m.WriteBytes(a, pattern(s.byte(), n))
		case 4:
			a, n := s.addr(base), 1+int(s.byte())
			m.LoadRaw(a, pattern(s.byte(), n))
		case 5:
			// A fresh page reads zero, recycled from the page pool or not.
			a := s.addr(base) &^ PageMask
			if m.Map(a, PageSize, Perm(1+s.byte()%7)) == nil {
				if b, _ := m.PeekRaw(a, PageSize); [PageSize]byte(b) != [PageSize]byte{} {
					t.Fatalf("op %d: freshly mapped page at %#x is not zero", op, a)
				}
			}
		case 6:
			// A 1–4 page Map adjoins, bridges or overlaps mapped pages
			// and holes, so extents grow and merge (or the Map fails).
			a, n := s.addr(base)&^PageMask, 1+int(s.byte()%4)
			if m.Map(a, uint32(n)*PageSize, Perm(1+s.byte()%7)) == nil {
				if b, _ := m.PeekRaw(a, n*PageSize); !bytes.Equal(b, make([]byte, n*PageSize)) {
					t.Fatalf("op %d: freshly mapped pages at %#x are not zero", op, a)
				}
			}
		case 7:
			restore(fmt.Sprintf("op %d", op))
		case 8:
			cp = m.Checkpoint()
			want, wantRegions = dumpSpace(t, m), m.Regions()
		}
		what := fmt.Sprintf("op %d (code %d)", op, code)
		checkZeroPage(t, what)
		checkExtents(t, m, what)
	}
	restore("final restore")
}

// TestCheckpointRestoreProperty is the snapshot/restore property test:
// checkpoint, run an arbitrary mutation storm (including new mappings),
// restore — the space must be byte-identical to the checkpoint, over many
// independent seeds and repeated mutate/restore rounds against the same
// checkpoint.
func TestCheckpointRestoreProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkpointOps(t, data) })
	}
}

// FuzzCheckpointRestore runs checkpointOps on fuzzer-chosen operation
// streams. Seed corpus: testdata/fuzz/FuzzCheckpointRestore.
func FuzzCheckpointRestore(f *testing.F) {
	f.Fuzz(checkpointOps)
}

// TestHeapChurnAllocatesNothing pins what keeps a fuzz campaign's
// per-exec sbrk churn free of allocation: Restore returns the pages a run
// mapped to the page pool and leaves their slots in the heap's extent,
// so the next run's Map refills both without allocating.
func TestHeapChurnAllocatesNothing(t *testing.T) {
	const text, heap, stack = 0x00400000, 0x00800000, 0xBFFF0000
	m := New()
	mustMap(t, m, text, PageSize, RX)
	mustMap(t, m, stack, 16*PageSize, RW)
	cp := m.Checkpoint()
	cycle := func() {
		for i := uint32(0); i < 6; i++ {
			a := heap + i*PageSize
			if err := m.Map(a, PageSize, RW); err != nil {
				t.Fatal(err)
			}
			if err := m.Write32(a+8, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Write32(stack+16*PageSize-16, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(cp); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun makes one warm-up cycle before it counts.
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a map-write-restore cycle allocates %v times, want 0", n)
	}
}

// TestRestoreGenBehaviour pins the decode-cache contract across
// divergent runs: a write and the restore that undoes it invalidate
// through the touched page's write stamp only — one divergent run must
// not condemn the rest of the campaign to cold caches, and pages the
// divergence never touched keep their stamps through the whole cycle.
func TestRestoreGenBehaviour(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, 2*PageSize, RWX); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()

	// A data-only round first, so the divergent round below runs against
	// a checkpoint that has already been through one restore.
	if err := m.Write32(0x1004, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}

	// A divergent round: a store rewrites code on one page mid-run. The
	// page's stamp must move at the write AND at the restore that rolls
	// it back (decodes minted under either content must not survive into
	// the other), while the untouched neighbour page keeps its stamp
	// through the whole cycle.
	_, w0 := m.CodeStamp(0x1000)
	_, n0 := m.CodeStamp(0x2000)
	if err := m.Write8(0x1000, 0x90); err != nil {
		t.Fatal(err)
	}
	_, wMut := m.CodeStamp(0x1000)
	if wMut == w0 {
		t.Fatal("the write did not move the page's write stamp")
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if _, w := m.CodeStamp(0x1000); w == wMut || w == w0 {
		t.Fatalf("restore after a write must move the touched page's stamp past every value seen: got %d (had %d, %d)", w, w0, wMut)
	}
	if b, err := m.Read8(0x1000); err != nil || b != 0 {
		t.Fatalf("content not restored: %#x, %v", b, err)
	}
	if _, n := m.CodeStamp(0x2000); n != n0 {
		t.Fatal("untouched page lost its stamp across a divergent round (cache needlessly cold)")
	}
}

func TestRestoreRequiresActiveCheckpoint(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	cp2 := m.Checkpoint()
	if err := m.Restore(cp); err == nil {
		t.Fatal("restore of a superseded checkpoint succeeded")
	}
	if err := m.Restore(cp2); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreBumpsWriteStamps pins the per-page half of the restore
// invalidation contract: a page whose content the rollback rewrites gets
// a fresh write stamp (decodes cached against the mutated bytes must not
// survive), while a page never written since the checkpoint keeps its
// stamp — the warm-cache fast path, per page. A stats sink counts the
// bumps and changes none of them.
func TestRestoreBumpsWriteStamps(t *testing.T) {
	// moved reports, for the page written after the checkpoint and the
	// page left alone, whether the restore moved its write stamp.
	moved := func(st *Stats) [2]bool {
		m := New()
		m.SetStats(st)
		if err := m.Map(0x1000, 2*PageSize, RWX); err != nil {
			t.Fatal(err)
		}
		cp := m.Checkpoint()
		_, w1 := m.CodeStamp(0x1000)
		_, w2 := m.CodeStamp(0x2000)
		if err := m.Write8(0x1000, 0x90); err != nil { // dirties page 1 only
			t.Fatal(err)
		}
		if err := m.Restore(cp); err != nil {
			t.Fatal(err)
		}
		_, v1 := m.CodeStamp(0x1000)
		_, v2 := m.CodeStamp(0x2000)
		return [2]bool{v1 != w1, v2 != w2}
	}
	got := moved(nil)
	if !got[0] {
		t.Fatal("restored page kept its write stamp (stale decode could survive)")
	}
	if got[1] {
		t.Fatal("untouched page lost its write stamp (cache needlessly cold)")
	}
	st := &Stats{}
	if withSink := moved(st); withSink != got {
		t.Fatalf("with a stats sink the stamps moved as %v, without one as %v", withSink, got)
	}
	if st.StampBumps == 0 {
		t.Fatal("the stats sink counted no stamp bump")
	}
}
