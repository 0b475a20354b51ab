package kernel

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"softsec/internal/isa"
	"softsec/internal/mem"
	"softsec/internal/minc"
)

// syscallFuzzSrc is the guest FuzzSyscall loads: a global buffer for the
// calls to aim at, and code that never runs — the fuzzer drives the
// system calls itself.
const syscallFuzzSrc = `
char buf[64];
void main() {
	int n = read(0, buf, 64);
	write(1, buf, n);
}`

// syscallCallSize is the encoding of one call in FuzzSyscall's input: a
// selector byte, then EBX, ECX and EDX little-endian.
const syscallCallSize = 13

// maxSyscallCalls bounds the calls one input makes.
const maxSyscallCalls = 8

// encodeSyscall encodes one call: selector sel picks one of the seven
// system calls below 0xE0 (FuzzSyscall's numbers[sel%7]), and is itself
// the (unknown) system call number above.
func encodeSyscall(sel byte, ebx, ecx, edx uint32) []byte {
	b := []byte{sel}
	b = binary.LittleEndian.AppendUint32(b, ebx)
	b = binary.LittleEndian.AppendUint32(b, ecx)
	return binary.LittleEndian.AppendUint32(b, edx)
}

// syscallAllocBound is what one input's calls may allocate on the host,
// stated from the guest's own address space. The guest can grow its heap
// to MaxHeapBytes, and each of those pages costs a header and a table
// slot (128 B covers a 40 B header and the slot slice's regrowth), while
// its bytes stay demand-zero until written. Only read() writes guest
// pages here, so the pages the script's chunks land on — a chunk of n
// bytes touches at most n/PageSize+2 pages — each get a 4 KiB array. A
// write() copies at most what still fits under the output cap into a
// buffer that doubles as it grows: three times the cap. 64 KiB covers
// the rest (the allocation registry's map, boxed trace arguments).
func syscallAllocBound(script ScriptInput) uint64 {
	bound := uint64(MaxHeapBytes/mem.PageSize) * 128
	for _, chunk := range script {
		bound += (uint64(len(chunk))/mem.PageSize + 2) * mem.PageSize
	}
	return bound + 3*maxOutput + 64<<10
}

// FuzzSyscall drives the kernel's system-call entry, the guest's only
// way into host code, with arbitrary registers: up to eight INT 0x80
// traps on a freshly loaded process, with CheckedLibc on or off, and the
// script's newline-separated chunks as input. No call may panic, and the
// calls together must stay under syscallAllocBound. Seed corpus:
// testdata/fuzz/FuzzSyscall and the f.Add calls below.
func FuzzSyscall(f *testing.F) {
	numbers := [...]uint32{SysExit, SysRead, SysWrite, SysSbrk, SysAllocReg, SysAllocUnreg, SysAllocCheck}
	img, err := minc.Compile("victim", syscallFuzzSrc, minc.Options{})
	if err != nil {
		f.Fatal(err)
	}
	ld, err := Link(Libc(), img)
	if err != nil {
		f.Fatal(err)
	}
	p, err := Load(ld, Config{DEP: true})
	if err != nil {
		f.Fatal(err)
	}
	buf, ok := p.SymbolAddr("buf")
	if !ok {
		f.Fatal("no buf symbol")
	}
	l := p.Layout
	seq := func(calls ...[]byte) []byte {
		var b []byte
		for _, c := range calls {
			b = append(b, c...)
		}
		return b
	}
	// Selectors: 0 exit, 1 read, 2 write, 3 sbrk, 4 register, 5
	// unregister, 6 check.
	f.Add(false, []byte("hello\nworld"), seq(
		encodeSyscall(1, 0, buf, 64),
		encodeSyscall(2, 1, buf, 5),
		encodeSyscall(1, 0, l.StackTop-64, 32),
		encodeSyscall(0, 3, 0, 0),
	))
	f.Add(true, []byte("0123456789abcdef0123456789abcdef"), seq(
		encodeSyscall(4, buf, 16, 0),
		encodeSyscall(6, buf, 32, 0),
		encodeSyscall(1, 0, buf, 64),
		encodeSyscall(5, buf, 0, 0),
		encodeSyscall(1, 0, l.StackTop-16, 16),
	))
	f.Add(false, []byte{}, seq(
		encodeSyscall(3, 2*mem.PageSize, 0, 0),
		encodeSyscall(2, 1, l.Heap, 2*mem.PageSize),
		encodeSyscall(3, 0xFFFFFFFF, 0, 0),
		encodeSyscall(2, 1, l.Text, 0xFFFFFFFF),
		encodeSyscall(0xE7, 1, 2, 3),
	))
	f.Fuzz(func(t *testing.T, checked bool, script, calls []byte) {
		var in ScriptInput
		if len(script) > 0 {
			in = bytes.Split(script, []byte{'\n'})
		}
		bound := syscallAllocBound(in)
		p, err := Load(ld, Config{DEP: true, CheckedLibc: checked, Input: &in})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < maxSyscallCalls && len(calls) > 0; n++ {
			var c [syscallCallSize]byte
			calls = calls[copy(c[:], calls):]
			no := uint32(c[0])
			if c[0] < 0xE0 {
				no = numbers[int(c[0])%len(numbers)]
			}
			p.CPU.Reg[isa.EAX] = no
			p.CPU.Reg[isa.EBX] = binary.LittleEndian.Uint32(c[1:])
			p.CPU.Reg[isa.ECX] = binary.LittleEndian.Uint32(c[5:])
			p.CPU.Reg[isa.EDX] = binary.LittleEndian.Uint32(c[9:])
			p.CPU.Handler.Trap(p.CPU, 0x80) // an error is the guest's fault, not the host's
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("the calls allocated %d bytes, over the bound of %d", got, bound)
		}
	})
}
