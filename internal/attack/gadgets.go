// Package attack implements the I/O-attacker and machine-code-attacker
// toolkits of the paper's Sections III-B and IV: exploit payload
// construction (stack smashing with direct code injection, return-to-libc,
// Return-Oriented Programming), a gadget finder that mines unintended
// instruction sequences out of variable-length code, data-only and
// information-leak payload helpers, and memory-scraping attacker modules.
//
// Everything here produces *bytes* — inputs fed to a victim's read() or
// machine code linked into its address space. Whether an attack succeeds
// is decided by actually running the victim under internal/core scenarios.
package attack

import (
	"fmt"

	"softsec/internal/isa"
)

// Gadget is a short instruction sequence ending in RET, addressable inside
// a victim's executable code. Because SM32 instructions have variable
// length, gadgets commonly start in the *middle* of intended instructions
// — Shacham's "geometry of innocent flesh on the bone".
type Gadget struct {
	Addr   uint32
	Instrs []isa.Instr
}

// String renders the gadget like "0x08048123: pop eax; pop ebx; ret".
func (g Gadget) String() string {
	s := fmt.Sprintf("0x%08x:", g.Addr)
	for i, in := range g.Instrs {
		if i > 0 {
			s += ";"
		}
		s += " " + in.String()
	}
	return s
}

// PopRegs reports the registers popped when the gadget is a pure
// pop-chain (zero or more POPs followed by RET).
func (g Gadget) PopRegs() ([]isa.Reg, bool) {
	var regs []isa.Reg
	for i, in := range g.Instrs {
		switch {
		case in.Op == isa.POP:
			regs = append(regs, in.Rd)
		case in.Op == isa.RET && i == len(g.Instrs)-1:
			return regs, true
		default:
			return nil, false
		}
	}
	return nil, false
}

// maxGadgetLookback bounds how many bytes before a RET the finder decodes.
const maxGadgetLookback = 24

// FindGadgets scans executable bytes (loaded at base) for RET-terminated
// instruction sequences of at most maxInstrs instructions. It tries every
// byte offset before each 0xC3 byte, so unintended sequences hidden inside
// immediates and displacements are found, exactly as a real ROP compiler
// does.
func FindGadgets(text []byte, base uint32, maxInstrs int) []Gadget {
	var out []Gadget
	seen := make(map[uint32]bool)
	for r := 0; r < len(text); r++ {
		if text[r] != 0xC3 {
			continue
		}
		for start := r - 1; start >= 0 && r-start <= maxGadgetLookback; start-- {
			instrs, ok := decodeExact(text[start:r+1], base+uint32(start))
			if !ok || len(instrs) > maxInstrs {
				continue
			}
			addr := base + uint32(start)
			if seen[addr] {
				continue
			}
			seen[addr] = true
			out = append(out, Gadget{Addr: addr, Instrs: instrs})
		}
	}
	return out
}

// decodeExact decodes b fully into instructions whose last one is RET;
// any decode error, spillover, or interior control flow (which would not
// fall through the gadget) rejects the candidate.
func decodeExact(b []byte, base uint32) ([]isa.Instr, bool) {
	var out []isa.Instr
	off := 0
	for off < len(b) {
		in, err := isa.Decode(b[off:], base+uint32(off))
		if err != nil {
			return nil, false
		}
		last := off+in.Size == len(b)
		if isa.IsControlFlow(in.Op) && !(last && in.Op == isa.RET) {
			return nil, false
		}
		out = append(out, in)
		off += in.Size
	}
	if len(out) == 0 || out[len(out)-1].Op != isa.RET {
		return nil, false
	}
	return out, true
}

// FindPopChain returns the address of a gadget popping exactly n registers
// then returning — the argument-skipping primitive chained ROP calls need.
func FindPopChain(gadgets []Gadget, n int) (Gadget, bool) {
	for _, g := range gadgets {
		if regs, ok := g.PopRegs(); ok && len(regs) == n {
			return g, true
		}
	}
	return Gadget{}, false
}
