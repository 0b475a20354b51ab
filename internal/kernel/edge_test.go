package kernel

import (
	"strings"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/cpu"
	"softsec/internal/isa"
	"softsec/internal/mem"
)

// edge_test.go covers kernel failure paths and less-travelled syscall
// behaviour: EFAULT semantics, sbrk growth, input truncation, and loader
// validation.

func TestReadIntoUnmappedIsEFAULT(t *testing.T) {
	src := `
	.text
	.global main
main:
	mov ebx, 0
	mov ecx, 0x00000100 ; unmapped (null guard)
	mov edx, 4
	mov eax, 3
	int 0x80
	mov ebx, eax        ; exit(read result)
	mov eax, 1
	int 0x80
`
	in := ScriptInput{[]byte("zzzz")}
	p := mustLoad(t, mustLink(t, src), Config{DEP: true, Input: &in})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if got := p.CPU.ExitCode(); got != -14 {
		t.Fatalf("read into unmapped returned %d, want -EFAULT", got)
	}
}

func TestWriteFromUnmappedIsEFAULT(t *testing.T) {
	src := `
	.text
	.global main
main:
	mov ebx, 1
	mov ecx, 0x00000100
	mov edx, 4
	mov eax, 4
	int 0x80
	mov ebx, eax
	mov eax, 1
	int 0x80
`
	p := mustLoad(t, mustLink(t, src), Config{DEP: true})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if got := p.CPU.ExitCode(); got != -14 {
		t.Fatalf("write from unmapped returned %d, want -EFAULT", got)
	}
	if p.Output.Len() != 0 {
		t.Fatal("partial output leaked on EFAULT")
	}
}

func TestReadIntoReadOnlyPageIsEFAULT(t *testing.T) {
	// The kernel's copy respects page permissions: a read() into the
	// text segment (r-x under DEP) must fail, not corrupt code.
	src := `
	.text
	.global main
main:
	mov ebx, 0
	mov ecx, main       ; the text segment itself
	mov edx, 4
	mov eax, 3
	int 0x80
	mov ebx, eax
	mov eax, 1
	int 0x80
`
	in := ScriptInput{[]byte("XXXX")}
	p := mustLoad(t, mustLink(t, src), Config{DEP: true, Input: &in})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if got := p.CPU.ExitCode(); got != -14 {
		t.Fatalf("read into text returned %d, want -EFAULT", got)
	}
}

func TestSbrkGrowsAcrossPages(t *testing.T) {
	src := `
	.text
	.global main
main:
	mov ebx, 8192       ; two pages
	mov eax, 5
	int 0x80
	mov esi, eax        ; old break
	mov ecx, 0x11223344
	storew [esi+8188], ecx   ; near the end of the grant
	loadw eax, [esi+8188]
	mov ebx, eax
	mov eax, 1
	int 0x80
`
	p := mustLoad(t, mustLink(t, src), Config{DEP: true})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if uint32(p.CPU.ExitCode()) != 0x11223344 {
		t.Fatalf("heap readback 0x%x", uint32(p.CPU.ExitCode()))
	}
}

func TestScriptInputTruncation(t *testing.T) {
	in := ScriptInput{[]byte("0123456789")}
	got := in.NextInput(4, nil)
	if string(got) != "0123" {
		t.Fatalf("truncated chunk %q", got)
	}
	// The rest of the chunk is discarded (one chunk per read), like a
	// datagram: next read sees EOF.
	if next := in.NextInput(4, nil); next != nil {
		t.Fatalf("second read got %q", next)
	}
}

func TestLoaderRequiresStart(t *testing.T) {
	// A program linked without libc has no _start and must be refused.
	ld, err := Link(asm.MustAssemble("m", `
	.text
	.global main
main:
	ret
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(ld, Config{}); err == nil || !strings.Contains(err.Error(), "_start") {
		t.Fatalf("want _start error, got %v", err)
	}
}

func TestUnknownSyscallFaults(t *testing.T) {
	src := `
	.text
	.global main
main:
	mov eax, 999
	int 0x80
	ret
`
	p := mustLoad(t, mustLink(t, src), Config{DEP: true})
	if st := p.Run(); st != cpu.Faulted {
		t.Fatalf("state %v", st)
	}
	if !strings.Contains(p.CPU.Fault().Err.Error(), "unknown syscall") {
		t.Fatalf("fault %v", p.CPU.Fault())
	}
}

func TestUnknownInterruptVectorFaults(t *testing.T) {
	src := `
	.text
	.global main
main:
	int 0x21           ; DOS nostalgia is not supported
	ret
`
	p := mustLoad(t, mustLink(t, src), Config{DEP: true})
	if st := p.Run(); st != cpu.Faulted {
		t.Fatalf("state %v", st)
	}
}

func TestStackOverflowFaults(t *testing.T) {
	// Unbounded recursion runs off the low end of the stack mapping.
	src := `
	.text
	.global main
main:
	call main
	ret
`
	p := mustLoad(t, mustLink(t, src), Config{DEP: true})
	st := p.Run()
	if st != cpu.Faulted {
		t.Fatalf("state %v", st)
	}
	if f := p.CPU.Fault(); f.Kind != cpu.FaultMemory {
		t.Fatalf("fault %v", f)
	}
}

func TestAllocRegistryLifecycle(t *testing.T) {
	p := mustLoad(t, mustLink(t, helloMain), Config{DEP: true})
	p.RegisterAlloc(0x1000, 64)
	p.RegisterAlloc(0x2000, 16)
	if len(p.allocs) != 2 {
		t.Fatalf("count %d", len(p.allocs))
	}
	if !p.CheckAlloc(0x1010, 16) {
		t.Error("contained range rejected")
	}
	if p.CheckAlloc(0x1030, 32) {
		t.Error("overflowing range accepted")
	}
	if p.CheckAlloc(0x0FFF, 2) {
		t.Error("straddling-start range accepted")
	}
	p.UnregisterAlloc(0x1000)
	if p.CheckAlloc(0x1010, 4) {
		t.Error("unregistered allocation still valid")
	}
	if len(p.allocs) != 1 {
		t.Fatalf("count %d", len(p.allocs))
	}
}

func TestRandomizedLayoutStaysPageAligned(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		cfg := Config{DEP: true, ASLR: true, ASLRSeed: seed}
		p := mustLoad(t, mustLink(t, helloMain), cfg)
		l := p.Layout
		for _, a := range []uint32{l.Text, l.Data, l.Heap, l.StackLow, l.StackTop} {
			if a%mem.PageSize != 0 {
				t.Fatalf("seed %d: unaligned base 0x%x", seed, a)
			}
		}
		if l.StackTop <= l.StackLow || l.StackTop > l.StackLow+StackSize {
			t.Fatalf("seed %d: stack top 0x%x outside mapping", seed, l.StackTop)
		}
		if st := p.Run(); st != cpu.Exited {
			t.Fatalf("seed %d: state %v", seed, st)
		}
	}
}

// TestWriteStopsAtOutputCap: write() buffers at most maxOutput bytes of
// output in all; past the cap it stores what fits and returns that
// count, then 0.
func TestWriteStopsAtOutputCap(t *testing.T) {
	p := mustLoad(t, mustLink(t, helloMain), Config{DEP: true})
	const size = maxOutput + maxOutput/2
	if _, err := p.Sbrk(size); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ n, want uint32 }{
		{maxOutput / 4, maxOutput / 4},
		{size, maxOutput - maxOutput/4},
		{size, 0},
	} {
		p.CPU.Reg[isa.EAX], p.CPU.Reg[isa.EBX], p.CPU.Reg[isa.ECX], p.CPU.Reg[isa.EDX] = SysWrite, 1, p.Layout.Heap, w.n
		if err := p.CPU.Handler.Trap(p.CPU, 0x80); err != nil {
			t.Fatal(err)
		}
		if got := p.CPU.Reg[isa.EAX]; got != w.want {
			t.Fatalf("write(%d) returned %d, want %d", w.n, got, w.want)
		}
	}
	if p.Output.Len() != maxOutput {
		t.Fatalf("output holds %d bytes, want %d", p.Output.Len(), maxOutput)
	}
}
