package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, m *Memory, addr, size uint32, p Perm) {
	t.Helper()
	if err := m.Map(addr, size, p); err != nil {
		t.Fatalf("Map(0x%x, 0x%x, %v): %v", addr, size, p, err)
	}
}

func TestMapAlignment(t *testing.T) {
	m := New()
	if err := m.Map(0x1001, PageSize, RW); err == nil {
		t.Error("unaligned addr accepted")
	}
	if err := m.Map(0x1000, 100, RW); err == nil {
		t.Error("unaligned size accepted")
	}
	if err := m.Map(0x1000, 0, RW); err == nil {
		t.Error("empty mapping accepted")
	}
	if err := m.Map(0xFFFFF000, 2*PageSize, RW); err == nil {
		t.Error("wrapping mapping accepted")
	}
}

func TestMapOverlapRejected(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	if err := m.Map(0x2000, PageSize, RW); err == nil {
		t.Fatal("overlapping Map accepted")
	}
	// The failed Map must not have destroyed the original mapping.
	if _, err := m.Read8(0x2000); err != nil {
		t.Fatal("original mapping lost after rejected overlap")
	}
}

func TestReadWriteByte(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RW)
	if err := m.Write8(0x1234, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, err := m.Read8(0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0xAB {
		t.Fatalf("got 0x%x want 0xAB", b)
	}
}

func TestUnmappedFault(t *testing.T) {
	m := New()
	_, err := m.Read8(0x5000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %T (%v)", err, err)
	}
	if f.Kind != FaultUnmapped || f.Addr != 0x5000 || f.Access != R {
		t.Fatalf("bad fault: %+v", f)
	}
}

func TestProtectionFaults(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, R) // read-only
	if err := m.Write8(0x1000, 1); err == nil {
		t.Error("write to read-only page succeeded")
	} else {
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultProtection || f.Access != W {
			t.Errorf("bad write fault: %v", err)
		}
	}
	if _, err := m.Fetch8(0x1000); err == nil {
		t.Error("fetch from non-executable page succeeded (DEP broken)")
	}
}

// TestDEPSemantics verifies the exact fault direct code injection hits:
// bytes can be *written* to a RW stack page but not *fetched* from it.
func TestDEPSemantics(t *testing.T) {
	m := New()
	mustMap(t, m, 0xBFFF0000, PageSize, RW)
	if err := m.Write8(0xBFFF0010, 0x90); err != nil {
		t.Fatalf("write to stack: %v", err)
	}
	_, err := m.Fetch8(0xBFFF0010)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	if f.Kind != FaultProtection || f.Access != X || f.Have != RW {
		t.Fatalf("bad DEP fault: %+v", f)
	}
}

func TestWordLittleEndian(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RW)
	if err := m.Write32(0x1000, 0x080483f2); err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 1 stores machine code little-endian: the first
	// byte must be the least significant byte.
	b, err := m.ReadBytes(0x1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xf2, 0x83, 0x04, 0x08}
	if !bytes.Equal(b, want) {
		t.Fatalf("byte order: got % x want % x", b, want)
	}
}

func TestWordCrossesPageBoundary(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	if err := m.Write32(0x1FFE, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read32(0x1FFE)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("got 0x%x", v)
	}
}

// TestPartialWriteAtBoundary checks WriteBytes reports how many bytes landed
// before the fault — the semantics a buffer overflow relies on when it runs
// off the end of the mapped stack.
func TestPartialWriteAtBoundary(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RW)
	n, err := m.WriteBytes(0x1FFC, []byte{1, 2, 3, 4, 5, 6})
	if err == nil {
		t.Fatal("expected fault")
	}
	if n != 4 {
		t.Fatalf("wrote %d bytes before fault, want 4", n)
	}
	b, _ := m.Read8(0x1FFF)
	if b != 4 {
		t.Fatalf("last byte: got %d want 4", b)
	}
}

func TestRegionsCoalesce(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RX)
	mustMap(t, m, 0x3000, PageSize, RW)
	mustMap(t, m, 0x8000, PageSize, RW)
	rs := m.Regions()
	want := []Region{
		{0x1000, 2 * PageSize, RX},
		{0x3000, PageSize, RW},
		{0x8000, PageSize, RW},
	}
	if len(rs) != len(want) {
		t.Fatalf("regions: got %v want %v", rs, want)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("region %d: got %+v want %+v", i, rs[i], want[i])
		}
	}
}

func TestPeekPokeBypassPerms(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, R) // read-only
	m.PokeWord(0x1000, 0x11223344)
	if got := m.PeekWord(0x1000); got != 0x11223344 {
		t.Fatalf("got 0x%x", got)
	}
	if _, ok := m.PeekRaw(0x9000, 4); ok {
		t.Error("PeekRaw of unmapped range reported ok")
	}
}

func TestLoadRawUnmapped(t *testing.T) {
	m := New()
	if err := m.LoadRaw(0x1000, []byte{1}); err == nil {
		t.Fatal("LoadRaw into unmapped memory succeeded")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if m.Regions() != nil {
		t.Fatal("zero value claims mapped page")
	}
	if err := m.Map(0x1000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write8(0x1000, 7); err != nil {
		t.Fatal(err)
	}
}

// Property: a word written at any mapped, in-page address reads back
// identically, and the four bytes appear in little-endian order.
func TestWordRoundTripProperty(t *testing.T) {
	m := New()
	mustMap(t, m, 0x10000, 16*PageSize, RW)
	f := func(off uint16, v uint32) bool {
		addr := 0x10000 + uint32(off)%(16*PageSize-4)
		if err := m.Write32(addr, v); err != nil {
			return false
		}
		got, err := m.Read32(addr)
		if err != nil || got != v {
			return false
		}
		b0, _ := m.Read8(addr)
		return b0 == byte(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: permissions partition accesses — an access succeeds iff the
// page grants the bit.
func TestPermGateProperty(t *testing.T) {
	perms := []Perm{0, R, W, X, R | W, R | X, W | X, R | W | X}
	base := uint32(0x20000)
	m := New()
	for i, p := range perms {
		mustMap(t, m, base+uint32(i)*PageSize, PageSize, p)
	}
	for i, p := range perms {
		addr := base + uint32(i)*PageSize
		if _, err := m.Read8(addr); (err == nil) != (p&R != 0) {
			t.Errorf("perm %v: read gate wrong", p)
		}
		if err := m.Write8(addr, 0); (err == nil) != (p&W != 0) {
			t.Errorf("perm %v: write gate wrong", p)
		}
		if _, err := m.Fetch8(addr); (err == nil) != (p&X != 0) {
			t.Errorf("perm %v: fetch gate wrong", p)
		}
	}
}

func TestPermString(t *testing.T) {
	if s := (R | W).String(); s != "rw-" {
		t.Errorf("got %q", s)
	}
	if s := (R | X).String(); s != "r-x" {
		t.Errorf("got %q", s)
	}
	if s := Perm(0).String(); s != "---" {
		t.Errorf("got %q", s)
	}
}

// TestCodeGenEvents pins down exactly which events move the write stamps
// the CPU's decode, block and trace caches subscribe to: content writes
// that could change code and a restore retiring a page move the touched
// page's CodeStamp (per-page invalidation, and only the touched page's),
// while reads and plain data writes move nothing — which is what keeps
// the caches warm across the heap churn of a fuzzing campaign.
func TestCodeGenEvents(t *testing.T) {
	m := New()
	pageWrite := func(name string, addr uint32, f func()) {
		t.Helper()
		_, w0 := m.CodeStamp(addr)
		f()
		if _, w := m.CodeStamp(addr); w == w0 {
			t.Fatalf("%s did not bump the page write stamp", name)
		}
	}
	unchanged := func(name string, addr uint32, f func()) {
		t.Helper()
		_, w0 := m.CodeStamp(addr)
		f()
		if _, w := m.CodeStamp(addr); w != w0 {
			t.Fatalf("%s bumped the page write stamp", name)
		}
	}

	mustMap(t, m, 0x1000, PageSize, RWX)
	mustMap(t, m, 0x2000, PageSize, RW)
	pageWrite("Write8 to X page", 0x1000, func() {
		if err := m.Write8(0x1000, 0x90); err != nil {
			t.Fatal(err)
		}
	})
	pageWrite("Write32 to X page", 0x1000, func() {
		if err := m.Write32(0x1004, 0x90909090); err != nil {
			t.Fatal(err)
		}
	})
	pageWrite("WriteBytes to X page", 0x1000, func() {
		if _, err := m.WriteBytes(0x1008, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
	})
	pageWrite("LoadRaw", 0x2000, func() {
		if err := m.LoadRaw(0x2000, []byte{1}); err != nil {
			t.Fatal(err)
		}
	})
	pageWrite("PokeWord", 0x2000, func() { m.PokeWord(0x2000, 7) })
	// A write to one page must not disturb another page's stamp.
	unchanged("Write8 to X page (other page's stamp)", 0x2000, func() {
		if err := m.Write8(0x1000, 0x91); err != nil {
			t.Fatal(err)
		}
	})
	unchanged("Map elsewhere (existing page's stamp)", 0x2000, func() {
		mustMap(t, m, 0x6000, PageSize, RWX)
	})

	// Restore retires a run-created page through a final stamp bump: a
	// cached (pointer, value) pair from before the restore can never
	// compare equal again — not even if the page object is recycled by a
	// later Map.
	cp := m.Checkpoint()
	mustMap(t, m, 0x3000, PageSize, RWX)
	ref, w0 := m.CodeStamp(0x3000)
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if *ref == w0 {
		t.Fatal("Restore did not retire the removed page's write stamp")
	}
	mustMap(t, m, 0x4000, PageSize, RWX) // may recycle the retired page object
	if *ref == w0 {
		t.Fatal("recycled page object resurrected a pre-restore stamp value")
	}

	unchanged("Write8 to data page", 0x2000, func() {
		if err := m.Write8(0x2000, 1); err != nil {
			t.Fatal(err)
		}
	})
	unchanged("Write32 to data page", 0x2000, func() {
		if err := m.Write32(0x2004, 1); err != nil {
			t.Fatal(err)
		}
	})
	unchanged("Read8", 0x2000, func() {
		if _, err := m.Read8(0x2000); err != nil {
			t.Fatal(err)
		}
	})
	unchanged("PeekWord", 0x2000, func() { m.PeekWord(0x2000) })
	unchanged("PokeWord unmapped", 0x2000, func() { m.PokeWord(0x9000, 7) })

	if ref, _ := m.CodeStamp(0x9000); ref != nil {
		t.Fatal("CodeStamp of unmapped address must return nil")
	}
}

// TestBulkOpsCrossPages covers the chunked page-at-a-time copy paths.
func TestBulkOpsCrossPages(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 4*PageSize, RW)
	src := make([]byte, 2*PageSize+100)
	for i := range src {
		src[i] = byte(i * 7)
	}
	start := uint32(0x1000 + PageSize - 50) // straddles two boundaries
	if n, err := m.WriteBytes(start, src); err != nil || n != len(src) {
		t.Fatalf("WriteBytes: n=%d err=%v", n, err)
	}
	got, err := m.ReadBytes(start, len(src))
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], src[i])
		}
	}
	// PeekRaw across a mapped/unmapped boundary zero-fills the unmapped
	// bytes and reports partial.
	if err := m.Write8(0x1000+4*PageSize-1, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, ok := m.PeekRaw(0x1000+4*PageSize-1, 4)
	if ok {
		t.Fatal("PeekRaw over unmapped tail reported ok")
	}
	if b[0] != 0xAB || b[1] != 0 || b[2] != 0 || b[3] != 0 {
		t.Fatalf("PeekRaw boundary bytes wrong: % x", b)
	}
	// WriteBytes stops exactly at the unmapped boundary and reports the
	// bytes written before the fault (the kernel's partial-copy
	// semantics).
	n, err2 := m.WriteBytes(0x1000+4*PageSize-8, make([]byte, 16))
	if err2 == nil || n != 8 {
		t.Fatalf("partial WriteBytes: n=%d err=%v, want 8 bytes then fault", n, err2)
	}
}
