package mem

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// freshPagesZero maps n pages at base in m and stores one byte into each.
// It reports an error unless every other byte of each page reads zero: a
// first store takes its array from pageArrays, and an array Release put
// there must come out as new's would.
func freshPagesZero(m *Memory, base uint32, n int) error {
	if err := m.Map(base, uint32(n)*PageSize, RW); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		a := base + uint32(i)*PageSize
		off := uint32(i*97) % PageSize
		if err := m.Write8(a+off, 0xA5); err != nil {
			return err
		}
		b, err := m.ReadBytes(a, PageSize)
		if err != nil {
			return err
		}
		for j, v := range b {
			if uint32(j) != off && v != 0 {
				return fmt.Errorf("page %#x of a fresh space reads %#02x at offset %#x after one store at %#x", a, v, j, off)
			}
		}
	}
	return nil
}

// TestReleaseRecyclesZeroedArrays fills every byte of several pages, one
// of them retired into the page pool by a checkpoint restore, and
// releases the space: every array it owned must be zero when it reaches
// pageArrays, and a fresh space that stores into as many pages must read
// zero wherever it did not store.
func TestReleaseRecyclesZeroedArrays(t *testing.T) {
	const data, code, heap = 0x10000, 0x40000, 0x80000
	m := New()
	mustMap(t, m, data, 4*PageSize, RW)
	mustMap(t, m, code, 2*PageSize, RWX)
	if err := m.LoadRaw(data, pattern(1, 4*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadRaw(code, pattern(2, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	mustMap(t, m, heap, PageSize, RW)
	if err := m.LoadRaw(heap, pattern(3, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if len(m.free) != 1 || m.free[0].data == &zeroPage {
		t.Fatal("the restore left no filled page in the page pool")
	}
	var arrays []*[PageSize]byte
	for _, e := range m.ext {
		for _, p := range e.pages {
			if p != nil {
				arrays = append(arrays, p.data)
			}
		}
	}
	arrays = append(arrays, m.free[0].data)

	m.Release()
	for i, a := range arrays {
		if *a != ([PageSize]byte{}) {
			t.Fatalf("array %d of %d reached the array pool with bytes left in it", i, len(arrays))
		}
	}
	checkZeroPage(t, "Release")
	if err := freshPagesZero(New(), 0x200000, len(arrays)); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseEmptiesMemory pins what a released space is: every access
// faults unmapped, it has no regions, its old checkpoint does not
// restore, a code stamp taken before does not validate, a second Release
// changes nothing, and Map works again.
func TestReleaseEmptiesMemory(t *testing.T) {
	const text, stack = 0x00400000, 0xBFFF0000
	m := New()
	mustMap(t, m, text, 2*PageSize, RWX)
	mustMap(t, m, stack, 4*PageSize, RW)
	if err := m.LoadRaw(text, pattern(1, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.Write32(stack+8, 7); err != nil {
		t.Fatal(err)
	}
	stamp, gen := m.CodeStamp(text + 3)
	cp := m.Checkpoint()
	if err := m.Write32(stack+16, 9); err != nil {
		t.Fatal(err)
	}
	m.Release()

	unmapped := func(err error) bool {
		var f *Fault
		return errors.As(err, &f) && f.Kind == FaultUnmapped
	}
	check := func(what string) {
		t.Helper()
		for _, a := range []uint32{text, text + PageSize + 5, stack + 8, stack + 4*PageSize - 4} {
			_, r8 := m.Read8(a)
			_, f8 := m.Fetch8(a)
			_, r32 := m.Read32(a)
			_, rb := m.ReadBytes(a, 4)
			_, wb := m.WriteBytes(a, []byte{1})
			for name, err := range map[string]error{
				"Read8": r8, "Write8": m.Write8(a, 1), "Fetch8": f8, "Read32": r32,
				"Write32": m.Write32(a, 1), "ReadBytes": rb, "WriteBytes": wb, "LoadRaw": m.LoadRaw(a, []byte{1}),
			} {
				if !unmapped(err) {
					t.Fatalf("%s: %s(%#x) returned %v, want an unmapped fault", what, name, a, err)
				}
			}
			if _, ok := m.PeekRaw(a, 1); ok || m.CheckRange(a, 1, R) {
				t.Fatalf("%s: %#x still reads as mapped", what, a)
			}
		}
		if r := m.Regions(); r != nil {
			t.Fatalf("%s: regions %v, want none", what, r)
		}
		if err := m.Restore(cp); err == nil {
			t.Fatalf("%s: the old checkpoint restored", what)
		}
		if *stamp == gen {
			t.Fatalf("%s: a code stamp taken before Release still validates", what)
		}
	}
	check("after Release")
	m.Release()
	check("after a second Release")
	if err := freshPagesZero(m, text, 3); err != nil {
		t.Fatalf("Map after Release: %v", err)
	}
}

// TestReleaseConcurrent runs several address spaces through
// map-fill-release cycles at once, each checking that its first stores
// land on all-zero arrays whichever space released them. Under the race
// detector it also shows that no array is still in use once it reaches
// pageArrays.
func TestReleaseConcurrent(t *testing.T) {
	const workers, cycles, pages, base = 4, 50, 4, 0x10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			m := New()
			for c := 0; c < cycles; c++ {
				if err := freshPagesZero(m, base, pages); err != nil {
					t.Errorf("space %d, cycle %d: %v", seed, c, err)
					return
				}
				if err := m.LoadRaw(base, pattern(seed, pages*PageSize)); err != nil {
					t.Errorf("space %d, cycle %d: %v", seed, c, err)
					return
				}
				m.Release()
			}
		}(byte(w + 1))
	}
	wg.Wait()
}
