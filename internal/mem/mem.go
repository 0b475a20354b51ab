// Package mem implements the flat 32-bit virtual address space of the SM32
// simulated machine: sparse 4 KiB pages, each carrying read/write/execute
// permissions fixed when it is mapped.
//
// The package enforces only page permissions. Higher-level access-control
// policies (the Protected Module Architecture rules of the paper's Section
// IV) are enforced by the CPU, which knows the current instruction pointer;
// see internal/cpu.
//
// The page table is a short sorted list of extents, each a base page
// number and one slot per page: a process maps a handful of contiguous
// segments, not a sparse 2^20-page space. A one-entry translation cache
// remembering the last page hit sits in front, so the sequential and
// loop-heavy access patterns of the interpreter skip the extent scan.
//
// Page bytes are demand-zero. A freshly mapped page reads through one
// package-level zero array that nothing ever writes, and its first store
// gives it a private 4 KiB array; every path that stores page bytes goes
// through page.writable to get it. A process that maps a 64 KiB stack and
// writes one page of it allocates one page. Each page keeps its own
// header (permissions, checkpoint epoch, write stamp, dirty span), so the
// code caches and the undo log see no difference between a page that
// still shares the zero array and one that owns its bytes.
//
// Private arrays come from a process-wide pool. Release, called by the
// one owner of an address space nothing reads any more, zeroes every
// array the space owns and puts it there, so the next process's first
// stores reuse it instead of allocating. Every array the pool hands out
// is all zero, as new's are: no address space can read bytes another
// one left behind.
//
// Code-cache invalidation is per page. Each page has a write generation,
// exposed through CodeStamp: it bumps on every event that could change
// what executing code on that page means — content writes that could
// change code (checked writes landing on an executable page, LoadRaw,
// PokeWord), checkpoint rollbacks, and a restore removing the page and
// recycling its backing object. The CPU's decode, block and trace caches
// record (stamp pointer, value) pairs at fill time and treat any change
// as invalidation of exactly the spans over that page, so the caches stay
// warm across the heap churn of a fuzzing campaign and across the
// snapshot restores that undo it.
package mem

import (
	"fmt"
	"slices"
	"sync"
)

// PageSize is the granularity of mapping and permissions, 4 KiB as on the
// platforms the paper discusses.
const PageSize = 4096

// PageMask extracts the page-offset bits of an address.
const PageMask = PageSize - 1

const pageShift = 12 // log2(PageSize)

// Perm is a page-permission bit set.
type Perm uint8

// Permission bits. A page may combine them; the DEP countermeasure
// (Section III-C1) is the loader policy of never combining W and X.
const (
	R Perm = 1 << iota // readable
	W                  // writable
	X                  // executable
)

// RW and RX are the two permission combinations a DEP-respecting loader
// uses for data and code segments respectively; RWX is the historical
// everything-goes layout that code injection exploits.
const (
	RW  = R | W
	RX  = R | X
	RWX = R | W | X
)

func (p Perm) String() string {
	b := []byte("---")
	if p&R != 0 {
		b[0] = 'r'
	}
	if p&W != 0 {
		b[1] = 'w'
	}
	if p&X != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// FaultKind classifies memory faults.
type FaultKind int

const (
	// FaultUnmapped is an access to an address with no mapped page.
	FaultUnmapped FaultKind = iota
	// FaultProtection is an access violating page permissions, e.g.
	// writing a read-only page or executing a non-executable one (the
	// fault DEP produces on a direct code-injection attempt).
	FaultProtection
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is a memory access fault. It satisfies error.
type Fault struct {
	Kind   FaultKind
	Addr   uint32
	Access Perm // which access was attempted: R, W or X
	Have   Perm // permissions actually present (zero when unmapped)
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: %s %s at 0x%08x (page perms %s)",
		f.Access, f.Kind, f.Addr, f.Have)
}

// zeroPage backs every page that has not been stored to yet, and every
// page Release retired. Nothing writes it: page.writable swaps in a
// private array first.
var zeroPage [PageSize]byte

// pageArrays holds the zeroed private arrays of released address spaces
// (see Release) for the next first store. Every array in it is all
// zero, so taking one is indistinguishable from new([PageSize]byte).
var pageArrays = sync.Pool{New: func() any { return new([PageSize]byte) }}

type page struct {
	// data is &zeroPage until the page's first store; see writable.
	data *[PageSize]byte
	perm Perm
	// seq stamps the checkpoint epoch this page was last saved under
	// (see snapshot.go); zero means never saved.
	seq uint64
	// wgen is the page's write generation: it increments on every event
	// that could change what executing from this page means — content
	// writes while the page is executable, raw pokes and loads, checkpoint
	// rollbacks, and a restore retiring the page into the page pool. Code
	// caches record (&wgen, wgen) at fill time via CodeStamp and treat any
	// change as invalidation of decodes over this page only.
	wgen uint64
	// dlo/dhi bound the byte span written in the current mutate-restore
	// cycle ([dlo, dhi), empty when dlo >= dhi). Checkpoint save resets
	// the span, every content write extends it, and Restore copies back
	// only this span instead of the whole page — a fuzzing reset then
	// costs bytes-actually-dirtied, not pages-touched. Valid only while
	// the page is saved under the active checkpoint epoch.
	dlo, dhi uint32
}

// extent holds the slots of the pages numbered from base on. Merging or
// regrowing slots never moves a page header, which CodeStamp points into.
type extent struct {
	base  uint32
	pages []*page // nil is an unmapped page
}

// Memory is a sparse paged 32-bit address space. The zero value is an
// empty address space ready to use.
type Memory struct {
	// ext is sorted by base, and no two extents touch. Extents never
	// shrink: Restore nils slots, which heap churn refills.
	ext    []extent
	npages int

	// One-entry translation cache: the page of the last successful
	// lookup. lastPage == nil means the entry is invalid.
	lastPN   uint32
	lastPage *page

	// snap is the active checkpoint, if any; snapSeq numbers checkpoint
	// epochs monotonically so stale page.seq stamps never alias a new
	// checkpoint. See snapshot.go.
	snap    *Checkpoint
	snapSeq uint64

	// free is the page pool: page objects Restore releases when it
	// removes run-created pages are recycled by the next Map instead of
	// churning the garbage collector — the sbrk-per-execution
	// pattern of a fuzzing campaign allocates its heap pages exactly once.
	// Recycling is safe for the code caches because releasing a page bumps
	// its write generation, so any cached stamp into its previous life can
	// never validate again. Pages here keep their arrays for this Memory;
	// Release drains them with the mapped pages.
	free []*page

	// stats, when non-nil, counts stamp bumps and restore traffic; see
	// telemetry.go.
	stats *Stats
}

// New returns an empty address space.
func New() *Memory { return &Memory{} }

// page translates addr to its page, or nil for an unmapped address. It
// inlines: a translation-cache miss calls pageSlow, kept out of line.
func (m *Memory) page(addr uint32) *page {
	if addr>>pageShift == m.lastPN && m.lastPage != nil {
		return m.lastPage
	}
	return m.pageSlow(addr >> pageShift)
}

//go:noinline
func (m *Memory) pageSlow(pn uint32) *page {
	p := m.pageAt(pn)
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// pageAt looks up page number pn without touching the translation cache.
func (m *Memory) pageAt(pn uint32) *page {
	if s := m.slot(pn); s != nil {
		return *s
	}
	return nil
}

// slot returns the table slot of page number pn, or nil when no extent
// covers it.
func (m *Memory) slot(pn uint32) **page {
	for i := range m.ext {
		e := &m.ext[i]
		if off := pn - e.base; off < uint32(len(e.pages)) {
			return &e.pages[off]
		}
	}
	return nil
}

// cover makes one extent span page numbers [first, end) and returns their
// slots. An extent that starts at or before first grows in place; else
// the range and every extent it overlaps or touches merge into one.
func (m *Memory) cover(first, end uint32) []*page {
	lo, hi, i, j := first, end, 0, 0 // m.ext[i:j] overlap or touch the range
	for k, e := range m.ext {
		if top := e.base + uint32(len(e.pages)); top < first {
			i, j = k+1, k+1
		} else if e.base <= end {
			lo, hi, j = min(lo, e.base), max(hi, top), k+1
		}
	}
	if e := m.ext[i:j]; len(e) == 1 && e[0].base == lo {
		e[0].pages = append(e[0].pages, make([]*page, hi-lo-uint32(len(e[0].pages)))...)
		return e[0].pages[first-lo : end-lo]
	}
	slots := make([]*page, hi-lo)
	for _, e := range m.ext[i:j] {
		copy(slots[e.base-lo:], e.pages)
	}
	m.ext = slices.Replace(m.ext, i, j, extent{lo, slots})
	return slots[first-lo : end-lo]
}

// CodeStamp returns the write-generation stamp for code at addr: a
// pointer to the owning page's write-generation counter plus its current
// value. A cached decode spanning addr is valid while the pointed-to
// counter still equals the returned value: content writes, rollbacks and
// page-object recycling all move the counter.
// Returns (nil, 0) when addr is unmapped.
//
// The pointer stays valid for the lifetime of the page object, and a
// page leaving the address space (or entering the page pool) bumps its
// counter first — a stale stamp can be dereferenced safely but can never
// compare equal again.
func (m *Memory) CodeStamp(addr uint32) (*uint64, uint64) {
	p := m.page(addr)
	if p == nil {
		return nil, 0
	}
	return &p.wgen, p.wgen
}

// maxFreePages bounds the page pool: 512 pages (2 MiB) comfortably covers
// the per-execution heap churn of a fuzzing campaign without letting a
// one-off giant mapping pin memory forever.
const maxFreePages = 512

// allocPage returns a zeroed page with the given permissions, from the
// page pool (keeping its private array, zeroed here) or else from the
// header batch fresh, whose rest it returns; a new page reads zeroPage.
// Map sizes fresh to the pages the pool cannot supply.
func (m *Memory) allocPage(perm Perm, fresh []page) (*page, []page) {
	if n := len(m.free); n > 0 {
		p := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		if p.data != &zeroPage {
			*p.data = [PageSize]byte{}
		}
		p.perm = perm
		p.seq = 0
		return p, fresh
	}
	p := &fresh[0]
	p.data, p.perm = &zeroPage, perm
	return p, fresh[1:]
}

// writable returns p's bytes for a store, first giving the page a private
// array, all zero, from pageArrays if it still reads through zeroPage.
func (p *page) writable() *[PageSize]byte {
	if p.data == &zeroPage {
		p.data = pageArrays.Get().(*[PageSize]byte)
	}
	return p.data
}

// releasePage retires a page leaving the address space: its write
// generation is bumped so no cached code stamp into it can validate
// again, and it enters the page pool for the next Map, if there is room.
func (m *Memory) releasePage(p *page) {
	m.bumpStamp(p)
	if len(m.free) < maxFreePages {
		m.free = append(m.free, p)
	} else {
		p.data = &zeroPage // its header batch may outlive it
	}
}

// Release empties m and returns the private array of every page it
// holds, mapped or in the page pool, to pageArrays for the next first
// store anywhere in the process. Each page leaving bumps its write stamp,
// as releasePage does, so no code stamp taken before can validate again;
// each array is zeroed before it goes. m is then an empty address space,
// as New returns it: any access faults unmapped, its old checkpoint no
// longer restores, and Map works.
//
// Only the sole owner of m may call Release, once nothing will read the
// process again: a cold trial after it has classified its run and
// snapped its telemetry. Callers that hand the process on (Result.Proc),
// keep it for restores (warm instances, fuzz campaigns) or reuse it
// (recon) never release.
func (m *Memory) Release() {
	for _, e := range m.ext {
		for _, p := range e.pages {
			if p != nil {
				m.releaseArray(p)
			}
		}
	}
	for _, p := range m.free {
		m.releaseArray(p)
	}
	*m = Memory{}
}

// releaseArray retires p for Release: it bumps the write stamp and moves
// a private array, zeroed, to pageArrays, leaving p on zeroPage.
func (m *Memory) releaseArray(p *page) {
	m.bumpStamp(p)
	if p.data != &zeroPage {
		*p.data = [PageSize]byte{}
		pageArrays.Put(p.data)
		p.data = &zeroPage
	}
}

// Map maps [addr, addr+size) with the given permissions. addr and size must
// be page-aligned and the range must not overlap an existing mapping.
func (m *Memory) Map(addr, size uint32, perm Perm) error {
	if addr%PageSize != 0 || size%PageSize != 0 {
		return fmt.Errorf("mem: Map(0x%08x, 0x%x): not page aligned", addr, size)
	}
	if size == 0 {
		return fmt.Errorf("mem: Map(0x%08x, 0): empty mapping", addr)
	}
	if addr+size < addr && addr+size != 0 {
		return fmt.Errorf("mem: Map(0x%08x, 0x%x): wraps address space", addr, size)
	}
	first := addr / PageSize
	n := size / PageSize
	for i := uint32(0); i < n; i++ {
		if m.pageAt(first+i) != nil {
			return fmt.Errorf("mem: Map(0x%08x, 0x%x): overlaps existing page at 0x%08x",
				addr, size, (first+i)*PageSize)
		}
	}
	slots := m.cover(first, first+n)
	// The headers the page pool cannot supply come from one allocation.
	fresh := make([]page, max(0, int(n)-len(m.free)))
	for i := range slots {
		var p *page
		p, fresh = m.allocPage(perm, fresh)
		if m.snap != nil {
			m.snap.saveAbsent(first + uint32(i))
			p.seq = m.snap.seq
		}
		slots[i] = p
	}
	m.npages += int(n)
	return nil
}

func (m *Memory) check(addr uint32, access Perm) (*page, error) {
	p := m.page(addr)
	if p == nil {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr, Access: access}
	}
	if p.perm&access != access {
		return nil, &Fault{Kind: FaultProtection, Addr: addr, Access: access, Have: p.perm}
	}
	return p, nil
}

// Read8 reads one byte, checking R permission.
func (m *Memory) Read8(addr uint32) (byte, error) {
	p, err := m.check(addr, R)
	if err != nil {
		return 0, err
	}
	return p.data[addr&PageMask], nil
}

// Write8 writes one byte, checking W permission.
func (m *Memory) Write8(addr uint32, v byte) error {
	p, err := m.check(addr, W)
	if err != nil {
		return err
	}
	m.touch(addr, 1, p)
	p.writable()[addr&PageMask] = v
	if p.perm&X != 0 {
		m.bumpStamp(p) // self-modifying code on a writable+executable page
	}
	return nil
}

// Fetch8 reads one byte of instruction stream, checking X permission.
// A FaultProtection from Fetch8 on a writable data page is exactly the
// fault Data Execution Prevention produces under a direct code-injection
// attack.
func (m *Memory) Fetch8(addr uint32) (byte, error) {
	p, err := m.check(addr, X)
	if err != nil {
		return 0, err
	}
	return p.data[addr&PageMask], nil
}

// Read32 reads a little-endian 32-bit word. The access may cross a page
// boundary; each byte is permission-checked.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if addr&PageMask <= PageSize-4 {
		p, err := m.check(addr, R)
		if err != nil {
			return 0, err
		}
		o := addr & PageMask
		return uint32(p.data[o]) | uint32(p.data[o+1])<<8 |
			uint32(p.data[o+2])<<16 | uint32(p.data[o+3])<<24, nil
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		b, err := m.Read8(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}

// Write32 writes a little-endian 32-bit word.
func (m *Memory) Write32(addr uint32, v uint32) error {
	if addr&PageMask <= PageSize-4 {
		p, err := m.check(addr, W)
		if err != nil {
			return err
		}
		m.touch(addr, 4, p)
		o := addr & PageMask
		d := p.writable()
		d[o] = byte(v)
		d[o+1] = byte(v >> 8)
		d[o+2] = byte(v >> 16)
		d[o+3] = byte(v >> 24)
		if p.perm&X != 0 {
			m.bumpStamp(p)
		}
		return nil
	}
	for i := uint32(0); i < 4; i++ {
		if err := m.Write8(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// CheckRange reports whether every byte of [addr, addr+n) is mapped with
// the given access. It walks page-at-a-time, so validating an absurd
// attacker-supplied length costs one lookup per mapped page and fails on
// the first hole — the kernel uses it to reject junk syscall ranges
// before allocating copy buffers (a fuzzed register can ask write() for
// gigabytes).
func (m *Memory) CheckRange(addr, n uint32, access Perm) bool {
	if n == 0 {
		return true
	}
	if addr+n < addr && addr+n != 0 {
		return false // wraps the address space
	}
	last := (addr + n - 1) >> pageShift
	for pn := addr >> pageShift; ; pn++ {
		p := m.pageAt(pn)
		if p == nil || p.perm&access != access {
			return false
		}
		if pn == last {
			break
		}
	}
	return true
}

// ReadBytes reads n bytes starting at addr with R checks, copying page-at-
// a-time through the same translation path as every other access.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for off := 0; off < n; {
		a := addr + uint32(off)
		p, err := m.check(a, R)
		if err != nil {
			return nil, err
		}
		off += copy(out[off:], p.data[a&PageMask:])
	}
	return out, nil
}

// WriteBytes writes b starting at addr with W checks. It returns the number
// of bytes successfully written before any fault, mirroring the partial
// writes a kernel performs when copying into user buffers — this is what
// lets a read() syscall overflow a buffer up to the edge of the mapped
// stack, as in the paper's Section III-A example.
func (m *Memory) WriteBytes(addr uint32, b []byte) (int, error) {
	written := 0
	for written < len(b) {
		a := addr + uint32(written)
		p, err := m.check(a, W)
		if err != nil {
			return written, err
		}
		nc := int(PageSize - a&PageMask)
		if rem := len(b) - written; nc > rem {
			nc = rem
		}
		m.touch(a, uint32(nc), p)
		copy(p.writable()[a&PageMask:], b[written:written+nc])
		if p.perm&X != 0 {
			m.bumpStamp(p)
		}
		written += nc
	}
	return written, nil
}

// LoadRaw copies b into memory ignoring permissions (loader/kernel use,
// and the machine-code attacker running in kernel mode). Any raw load
// bumps the write generation of every page it touches: the bytes written
// may be (or become) code.
func (m *Memory) LoadRaw(addr uint32, b []byte) error {
	for off := 0; off < len(b); {
		a := addr + uint32(off)
		p := m.page(a)
		if p == nil {
			return &Fault{Kind: FaultUnmapped, Addr: a, Access: W}
		}
		nc := int(PageSize - a&PageMask)
		if rem := len(b) - off; nc > rem {
			nc = rem
		}
		m.touch(a, uint32(nc), p)
		copy(p.writable()[a&PageMask:], b[off:off+nc])
		off += nc
		m.bumpStamp(p)
	}
	return nil
}

// PeekRaw copies memory ignoring permissions (debugger/figure rendering and
// kernel-mode memory scraping). Unmapped bytes read as zero and ok=false is
// reported if any byte in the range was unmapped.
func (m *Memory) PeekRaw(addr uint32, n int) (b []byte, ok bool) {
	out := make([]byte, n)
	ok = true
	for off := 0; off < n; {
		a := addr + uint32(off)
		span := PageSize - int(a&PageMask)
		if span > n-off {
			span = n - off
		}
		if p := m.page(a); p != nil {
			copy(out[off:off+span], p.data[a&PageMask:])
		} else {
			ok = false
		}
		off += span
	}
	return out, ok
}

// PeekWord reads a word ignoring permissions.
func (m *Memory) PeekWord(addr uint32) uint32 {
	if addr&PageMask <= PageSize-4 {
		p := m.page(addr)
		if p == nil {
			return 0
		}
		o := addr & PageMask
		return uint32(p.data[o]) | uint32(p.data[o+1])<<8 |
			uint32(p.data[o+2])<<16 | uint32(p.data[o+3])<<24
	}
	b, _ := m.PeekRaw(addr, 4)
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// PokeWord writes a word ignoring permissions. It is a no-op on unmapped
// addresses. Like LoadRaw, a successful poke bumps the write generation
// of the touched page(s).
func (m *Memory) PokeWord(addr uint32, v uint32) {
	if addr&PageMask <= PageSize-4 {
		p := m.page(addr)
		if p == nil {
			return
		}
		m.touch(addr, 4, p)
		o := addr & PageMask
		d := p.writable()
		d[o] = byte(v)
		d[o+1] = byte(v >> 8)
		d[o+2] = byte(v >> 16)
		d[o+3] = byte(v >> 24)
		m.bumpStamp(p)
		return
	}
	for i := uint32(0); i < 4; i++ {
		if p := m.page(addr + i); p != nil {
			m.touch(addr+i, 1, p)
			p.writable()[(addr+i)&PageMask] = byte(v >> (8 * i))
			m.bumpStamp(p)
		}
	}
}

// Region describes one contiguous run of pages with equal permissions.
type Region struct {
	Addr uint32
	Size uint32
	Perm Perm
}

// Regions returns the mapped regions sorted by address, coalescing adjacent
// pages with identical permissions. Used by the figure renderer and by the
// memory-scraping attacker, which walks exactly this view of the address
// space; the sorted extents' slots are in address order, so no sort pass.
func (m *Memory) Regions() []Region {
	if m.npages == 0 {
		return nil
	}
	var out []Region
	for _, e := range m.ext {
		for i, p := range e.pages {
			if p == nil {
				continue
			}
			addr := (e.base + uint32(i)) << pageShift
			if len(out) > 0 {
				last := &out[len(out)-1]
				if last.Addr+last.Size == addr && last.Perm == p.perm {
					last.Size += PageSize
					continue
				}
			}
			out = append(out, Region{Addr: addr, Size: PageSize, Perm: p.perm})
		}
	}
	return out
}
