package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/cpu"
	"softsec/internal/mem"
	"softsec/internal/minc"
)

// dumpProc renders the complete observable state of a process: every
// mapped region (permissions and bytes), the CPU architectural state,
// and the kernel-side bookkeeping.
func dumpProc(t *testing.T, p *Process) string {
	t.Helper()
	var b bytes.Buffer
	for _, r := range p.Mem.Regions() {
		data, ok := p.Mem.PeekRaw(r.Addr, int(r.Size))
		if !ok {
			t.Fatalf("region [%#x,+%#x) not fully readable", r.Addr, r.Size)
		}
		fmt.Fprintf(&b, "%08x+%x %s %x\n", r.Addr, r.Size, r.Perm, data)
	}
	fmt.Fprintf(&b, "reg=%v ip=%#x f=%+v steps=%d state=%v exit=%d\n",
		p.CPU.Reg, p.CPU.IP, p.CPU.F, p.CPU.Steps, p.CPU.StateOf(), p.CPU.ExitCode())
	fmt.Fprintf(&b, "brk=%#x canary=%#x allocs=%d out=%q log=%d\n",
		p.brk, p.Canary, len(p.allocs), p.Output.String(), len(p.SyscallLog))
	return b.String()
}

// mutatorSrc is the "arbitrary mutating program" of the snapshot
// property test: it self-modifies its own text (patching the immediate
// of a later MOVI from 7 to 9 — legal because the test loads it without
// DEP), churns the heap with sbrk, scribbles on the new page, writes
// output, and exits with the patched value.
const mutatorSrc = `
	.text
	.global main
main:
	mov eax, patch
	add eax, 1          ; address of the MOVI immediate below
	mov ecx, 9
	storew [eax], ecx   ; self-modifying store: 7 becomes 9
patch:
	mov ebx, 7
	push ebx
	mov eax, 5          ; sbrk(4096)
	mov ebx, 4096
	int 0x80
	mov ecx, 0x12345678
	storew [eax], ecx   ; dirty the fresh heap page
	mov eax, 4          ; write(1, msg, 5)
	mov ebx, 1
	mov ecx, msg
	mov edx, 5
	int 0x80
	pop ebx
	mov eax, 1          ; exit(9) if the patch took effect
	int 0x80
	.data
	.global msg
msg:
	.byte 'h','e','l','l','o'
`

// TestSnapshotRestoreMutatingProgram is the kernel half of the
// snapshot/restore property test: Snapshot right after Load, run a
// program that self-modifies code, grows the heap and produces output,
// Restore — the process must be byte-identical to the checkpoint
// (including decode-cache invalidation: the re-run must execute the
// *original* text, not stale cached decodes of the patched text), and
// every re-run must reproduce the first run exactly.
func TestSnapshotRestoreMutatingProgram(t *testing.T) {
	img, err := asm.Assemble("mut", mutatorSrc)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Link(Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Load(ld, Config{}) // DEP off: text is writable
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	want := dumpProc(t, p)

	var firstSteps uint64
	for round := 0; round < 3; round++ {
		st := p.Run()
		if st != cpu.Exited || p.CPU.ExitCode() != 9 {
			t.Fatalf("round %d: state=%v exit=%d fault=%v (self-modification not observed?)",
				round, st, p.CPU.ExitCode(), p.CPU.Fault())
		}
		if got := p.Output.String(); got != "hello" {
			t.Fatalf("round %d: output %q", round, got)
		}
		if round == 0 {
			firstSteps = p.CPU.Steps
		} else if p.CPU.Steps != firstSteps {
			t.Fatalf("round %d: steps %d != first run %d", round, p.CPU.Steps, firstSteps)
		}
		if dumpProc(t, p) == want {
			t.Fatalf("round %d: run did not change observable state", round)
		}
		if err := p.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := dumpProc(t, p); got != want {
			t.Fatalf("round %d: restore not byte-identical to checkpoint", round)
		}
	}
}

// TestSnapshotRestoreKernelMutations rolls back mutations performed from
// kernel level between runs — a PokeWord into data and a fresh Map — the
// other classes of the property.
func TestSnapshotRestoreKernelMutations(t *testing.T) {
	img, err := asm.Assemble("mut", mutatorSrc)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Link(Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Load(ld, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	want := dumpProc(t, p)

	if err := p.Mem.Map(p.Layout.Heap, mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	p.Mem.PokeWord(p.Layout.Heap, 0xfeedface)
	p.Mem.PokeWord(p.Layout.Data, 0xdeadbeef)
	if err := p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := dumpProc(t, p); got != want {
		t.Fatalf("restore not byte-identical after kernel-level mutations")
	}
	if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != 9 {
		t.Fatalf("post-restore run: state=%v exit=%d", st, p.CPU.ExitCode())
	}
}

// heapChurnSrc exercises the checked-libc allocation registry: malloc,
// free, malloc again, read input into the live chunk.
const heapChurnSrc = `
void main() {
	char *a = malloc(24);
	char *b = malloc(16);
	free(a);
	char *c = malloc(8);
	read(0, b, 16);
	write(1, b, 4);
}`

// TestSnapshotRestoreHeapAndInput covers kernel bookkeeping beyond raw
// memory: the allocation registry, the heap break, the output buffer,
// and the input cursor (a restored process replays its script from the
// top, so identical runs repeat byte-for-byte).
func TestSnapshotRestoreHeapAndInput(t *testing.T) {
	img, err := minc.Compile("victim", heapChurnSrc, minc.Options{BoundsCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := Link(Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	in := ScriptInput{[]byte("ping pong wizard")}
	p, err := Load(ld, Config{DEP: true, CheckedLibc: true, Input: &in})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	want := dumpProc(t, p)

	for round := 0; round < 3; round++ {
		st := p.Run()
		if st != cpu.Exited {
			t.Fatalf("round %d: state=%v fault=%v", round, st, p.CPU.Fault())
		}
		if got := p.Output.String(); got != "ping" {
			t.Fatalf("round %d: output %q (input cursor not re-armed?)", round, got)
		}
		if err := p.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := dumpProc(t, p); got != want {
			t.Fatalf("round %d: restore not byte-identical", round)
		}
	}
}
