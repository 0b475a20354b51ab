// Package cfi implements forward-edge Control-Flow Integrity for loaded
// SM32 processes: static control-flow-graph recovery over the victim's
// text, per-address label tables, and a cpu.Policy that confines indirect
// control transfers to the recovered labels.
//
// The paper's countermeasure catalog pairs stack canaries, DEP and ASLR
// with CFI as the principled answer to code-reuse attacks: if every
// indirect branch can only reach targets the program's own control-flow
// graph sanctions, hijacked code pointers stop being arbitrary-execution
// primitives. This package reproduces both ends of the precision spectrum
// the CFI literature spans:
//
//   - Coarse (classic binary CFI, à la the original Abadi et al.
//     label-table schemes and their bin-CFI/CCFIR descendants): any
//     indirect call or jump may target any *function entry*, and any RET
//     may target any *return site* (the instruction after a call). Cheap,
//     needs only the recovered labels — and bypassable by function-reuse
//     chains that hijack a code pointer to a *legitimate* entry such as a
//     system()-like libc routine (the "Out of Control" observation).
//   - Fine: each indirect callsite gets a target set derived from the
//     dictionary of *address-taken* functions — entries whose address the
//     program actually materializes, scraped from initialized globals and
//     from immediates in text. Backward edges are delegated to the CPU's
//     shadow stack (cpu.CPU.ShadowStack) in the fine+shadowstack
//     deployment; fine alone still polices RETs against return sites.
//
// Recovery is static and runs once per loaded process: a linear-sweep
// decode of the mapped executable text (reusing the isa decoder)
// harvests valid instruction starts, function entries (kernel link
// symbols plus CALL rel32 targets), return sites, and indirect-branch
// sites; a scrape of loaded globals and text immediates yields the
// address-taken dictionary. Everything is indexed into one per-address
// byte of label bits, so the compiled exec checker is two table loads
// and a mask.
package cfi

import (
	"encoding/binary"
	"fmt"

	"softsec/internal/isa"
	"softsec/internal/kernel"
	"softsec/internal/mem"
)

// Label bits, one byte per text address. A zero byte means "nothing known
// about this address" — the policy then treats transfers *from* it as
// uninstrumented (allowed) and transfers *to* it as unlabeled (denied for
// checked edge kinds).
const (
	// LabelInstr marks a recovered instruction start.
	LabelInstr uint8 = 1 << iota
	// LabelEntry marks a function entry: a global text symbol or a CALL
	// rel32 target.
	LabelEntry
	// LabelRetSite marks the fall-through address of a CALL/CALLR — the
	// only addresses a RET may legitimately reach.
	LabelRetSite
	// LabelIndirect marks an indirect forward branch (CALLR/JMPR) at this
	// address — a checked callsite.
	LabelIndirect
	// LabelRet marks a RET instruction at this address — a checked
	// backward-edge site.
	LabelRet
	// LabelAddrTaken marks a function entry whose address the program
	// materializes (in an initialized global or a text immediate) — the
	// fine-precision target dictionary.
	LabelAddrTaken
	// LabelIndirectJmp refines LabelIndirect: the indirect branch at
	// this address is a JMPR (set alongside LabelIndirect, never alone).
	// Violations name the edge kind from it.
	LabelIndirectJmp
)

// CFG is the recovered control-flow metadata of one loaded process: the
// per-address label table over [TextBase, TextEnd) plus the per-callsite
// target sets of the fine policy.
type CFG struct {
	TextBase uint32
	TextEnd  uint32

	// labels holds one label byte per text address, indexed addr-TextBase.
	labels []uint8

	// addrTaken is the fine-precision target dictionary: function entries
	// whose address was scraped from globals or text immediates.
	addrTaken map[uint32]bool

	// siteTargets maps each indirect callsite to its allowed target set.
	// Every set is currently derived from the address-taken dictionary
	// (the best a binary-level recovery can prove); the per-callsite
	// indirection is the seam a type- or points-to-refined derivation
	// would slot into.
	siteTargets map[uint32]map[uint32]bool
}

// LabelAt returns the label byte for addr (zero outside the text span).
func (g *CFG) LabelAt(addr uint32) uint8 {
	if addr < g.TextBase || addr >= g.TextEnd {
		return 0
	}
	return g.labels[addr-g.TextBase]
}

// Recover builds the CFG of a loaded process. It must run after
// kernel.Load (relocations applied — the immediate scrape reads *loaded*
// bytes, so function-pointer constants are already absolute) and sweeps
// only executable pages inside the text segment: with DEP that is every
// text page; without DEP (where data pages are executable too) the
// segment bound keeps initialized data from being misread as code.
func Recover(p *kernel.Process) (*CFG, error) {
	base, end := p.TextBounds()
	if end <= base {
		return nil, fmt.Errorf("cfi: empty text segment")
	}
	g := &CFG{
		TextBase:    base,
		TextEnd:     end,
		labels:      make([]uint8, end-base),
		addrTaken:   make(map[uint32]bool),
		siteTargets: make(map[uint32]map[uint32]bool),
	}

	// Entry seed set: the linker's global text symbols.
	for addr := range p.TextEntryPoints() {
		if addr >= base && addr < end {
			g.labels[addr-base] |= LabelEntry
		}
	}

	// Linear sweep of the mapped executable spans of the text segment.
	// Immediates that may hold code addresses are collected and resolved
	// against the entry set after the sweep (a CALL later in the sweep
	// can still add entries).
	var immCandidates []uint32
	swept := false
	for _, r := range p.Mem.Regions() {
		if r.Perm&mem.X == 0 {
			continue
		}
		lo, hi := r.Addr, r.Addr+r.Size
		if lo < base {
			lo = base
		}
		if hi > end {
			hi = end
		}
		if lo >= hi {
			continue
		}
		code, ok := p.Mem.PeekRaw(lo, int(hi-lo))
		if !ok {
			return nil, fmt.Errorf("cfi: cannot read text [%#x,%#x)", lo, hi)
		}
		swept = true
		g.sweep(code, lo, &immCandidates)
	}
	if !swept {
		return nil, fmt.Errorf("cfi: no executable pages in text segment [%#x,%#x)", base, end)
	}

	// Address-taken dictionary: text immediates ...
	for _, v := range immCandidates {
		if g.LabelAt(v)&LabelEntry != 0 {
			g.labels[v-base] |= LabelAddrTaken
			g.addrTaken[v] = true
		}
	}
	// ... plus words scraped from the loaded globals, at every byte
	// offset (function-pointer tables are word-aligned, but a misaligned
	// overlap costs nothing and the scrape stays assumption-free).
	dataLen := len(p.Linked.Data)
	if dataLen >= 4 {
		data, ok := p.Mem.PeekRaw(p.Layout.Data, dataLen)
		if ok {
			for off := 0; off+4 <= len(data); off++ {
				v := binary.LittleEndian.Uint32(data[off:])
				if g.LabelAt(v)&LabelEntry != 0 {
					g.labels[v-base] |= LabelAddrTaken
					g.addrTaken[v] = true
				}
			}
		}
	}

	// Per-callsite target sets: every indirect callsite currently shares
	// the address-taken dictionary.
	for off, l := range g.labels {
		if l&LabelIndirect != 0 {
			g.siteTargets[base+uint32(off)] = g.addrTaken
		}
	}
	return g, nil
}

// sweep linear-decodes code (loaded at base) and fills instruction-start,
// entry, return-site and indirect-site labels. Undecodable bytes are
// skipped one at a time, like the disassembler, so recovery always makes
// progress across data islands in text.
func (g *CFG) sweep(code []byte, base uint32, immCandidates *[]uint32) {
	for off := 0; off < len(code); {
		addr := base + uint32(off)
		in, err := isa.Decode(code[off:], addr)
		if err != nil {
			off++
			continue
		}
		g.labels[addr-g.TextBase] |= LabelInstr
		next := addr + uint32(in.Size)
		switch {
		case in.Op == isa.CALL:
			// Direct call: its target is a function entry, its
			// fall-through a return site.
			if t := next + in.Imm; t >= g.TextBase && t < g.TextEnd {
				g.labels[t-g.TextBase] |= LabelEntry
			}
			if next < g.TextEnd {
				g.labels[next-g.TextBase] |= LabelRetSite
			}
		case isa.IsIndirectBranch(in.Op):
			g.labels[addr-g.TextBase] |= LabelIndirect
			if in.Op == isa.JMPR {
				g.labels[addr-g.TextBase] |= LabelIndirectJmp
			}
			if in.Op == isa.CALLR && next < g.TextEnd {
				g.labels[next-g.TextBase] |= LabelRetSite
			}
		case in.Op == isa.RET:
			g.labels[addr-g.TextBase] |= LabelRet
		}
		if isa.ImmHoldsAddress(in.Op) {
			*immCandidates = append(*immCandidates, in.Imm)
		}
		off += in.Size
	}
}
