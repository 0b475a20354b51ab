package cpu

import (
	"reflect"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/isa"
	"softsec/internal/mem"
)

// Observed returns the total instructions the profiler has observed.
func (p *Profiler) Observed() uint64 { return p.count }

// Samples returns the total samples taken.
func (p *Profiler) Samples() uint64 {
	var n uint64
	for _, v := range p.counts {
		n += v
	}
	return n
}

func TestProfilerSamplingAndChains(t *testing.T) {
	p := NewProfiler(0) // clamps to 1: every observation samples
	if p.Interval != 1 {
		t.Fatalf("interval = %d, want 1", p.Interval)
	}
	p.observe(0x10)
	p.track(isa.CALL, 0x100)
	p.observe(0x104)
	p.observe(0x104)
	p.track(isa.RET, 0)
	p.observe(0x14)
	if p.Observed() != 4 || p.Samples() != 4 {
		t.Fatalf("observed %d samples %d, want 4 4", p.Observed(), p.Samples())
	}

	var got [][]uint32
	var counts []uint64
	p.Visit(func(chain []uint32, n uint64) {
		got = append(got, append([]uint32(nil), chain...))
		counts = append(counts, n)
	})
	// Visit order is byte-sorted packed keys (little-endian), so the
	// 0x100-rooted chain's leading 0x00 byte sorts it first.
	want := [][]uint32{{0x100, 0x104}, {0x10}, {0x14}}
	wantN := []uint64{2, 1, 1}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(counts, wantN) {
		t.Fatalf("chains %v counts %v, want %v %v", got, counts, want, wantN)
	}
}

func TestProfilerRetUnderflowAndRestore(t *testing.T) {
	p := NewProfiler(1)
	p.track(isa.RET, 0) // hijacked RET with no matching CALL: ignored
	p.track(isa.CALL, 0x100)
	p.track(isa.CALLR, 0x200)
	p.OnRestore() // snapshot restore: chain back to depth zero
	p.observe(0x30)
	p.Visit(func(chain []uint32, n uint64) {
		if len(chain) != 1 || chain[0] != 0x30 {
			t.Fatalf("post-restore chain %v, want [0x30]", chain)
		}
	})
}

// TestProfilerForcesStepEngine pins the structural engine-independence
// guarantee: a profiled machine never enters the block/trace dispatch,
// and the sampling clock keeps running across the whole run.
func TestProfilerForcesStepEngine(t *testing.T) {
	img := asm.MustAssemble("loop", `
	.text
loop:
	add esi, 1
	jmp loop
`)
	run := func(prof *Profiler) *CPU {
		m := mem.New()
		if err := m.Map(0x1000, mem.PageSize, mem.RX); err != nil {
			t.Fatal(err)
		}
		if err := m.LoadRaw(0x1000, img.Text); err != nil {
			t.Fatal(err)
		}
		c := New(m)
		c.IP = 0x1000
		c.Prof = prof
		var bst BlockStats
		c.BlockStats = &bst
		if st := c.Run(1000); st != StepLimit {
			t.Fatalf("state %v fault %v", st, c.Fault())
		}
		if bst.Dispatches != 0 {
			t.Fatalf("block engine dispatched %d times under a profiler", bst.Dispatches)
		}
		return c
	}

	prof := NewProfiler(64)
	run(prof)
	if prof.Observed() != 1000 {
		t.Fatalf("observed %d, want 1000", prof.Observed())
	}
	if prof.Samples() != 1000/64 {
		t.Fatalf("samples %d, want %d", prof.Samples(), 1000/64)
	}
}
