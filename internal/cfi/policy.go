package cfi

import (
	"fmt"

	"softsec/internal/cpu"
)

// Precision selects how tight the label-table check is.
type Precision int

const (
	// Coarse is classic coarse-grained CFI: any indirect call/jump may
	// target any function entry; any RET may target any return site.
	Coarse Precision = iota
	// Fine restricts each indirect callsite to its recovered target set
	// (the address-taken dictionary). RETs are still policed against
	// return sites; the fine+shadowstack deployment additionally turns on
	// the CPU shadow stack for exact backward-edge enforcement.
	Fine
)

func (p Precision) String() string {
	switch p {
	case Coarse:
		return "coarse"
	case Fine:
		return "fine"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Violation is a control transfer the label table refuses. It satisfies
// error; the CPU wraps it in a FaultPolicy, which the scenario engine
// classifies as Detected.
type Violation struct {
	Precision Precision
	Edge      string // "call", "jmp" or "ret"
	From, To  uint32
}

func (v *Violation) Error() string {
	return fmt.Sprintf("cfi(%s): %s at 0x%08x to unlabeled target 0x%08x",
		v.Precision, v.Edge, v.From, v.To)
}

// Policy is the label-table CFI policy: a cpu.Policy that checks only
// indirect control transfers out of recovered sites, leaving data
// accesses and sequential/direct flow untouched. Install on cpu.CPU via
// the Policy field (pointer type, as the CPU's bind-once contract
// requires); installing or swapping it bumps the CPU's policy epoch, so
// cached block summaries from a previous policy (or from no policy) are
// invalidated and re-summarized.
type Policy struct {
	cfg  *CFG
	prec Precision
}

var (
	_ cpu.Policy             = (*Policy)(nil)
	_ cpu.CheckCompiler      = (*Policy)(nil)
	_ cpu.BlockCheckCompiler = (*Policy)(nil)
)

// NewPolicy returns a CFI policy enforcing cfg at the given precision.
func NewPolicy(cfg *CFG, prec Precision) *Policy {
	return &Policy{cfg: cfg, prec: prec}
}

// CheckRead implements cpu.Policy: CFI never restricts data reads.
func (pl *Policy) CheckRead(ip, addr uint32, size int) error { return nil }

// CheckWrite implements cpu.Policy: CFI never restricts data writes.
func (pl *Policy) CheckWrite(ip, addr uint32, size int) error { return nil }

// CheckExec implements cpu.Policy. Transfers are checked only when `from`
// is a recovered indirect-branch or RET site; everything else —
// sequential fall-through, direct branches, and execution outside the
// instrumented text (shellcode pages, unintended mid-instruction
// decodes) — passes. That asymmetry is the CFI threat model: the defense
// guards the program's own indirect transfers, and an attacker can only
// *reach* uninstrumented code through one of those guarded transfers.
func (pl *Policy) CheckExec(from, to uint32) error {
	l := pl.cfg.LabelAt(from)
	if l&(LabelIndirect|LabelRet) == 0 {
		return nil
	}
	if l&LabelRet != 0 {
		if pl.cfg.LabelAt(to)&LabelRetSite != 0 {
			return nil
		}
		return &Violation{Precision: pl.prec, Edge: "ret", From: from, To: to}
	}
	if pl.prec == Coarse {
		if pl.cfg.LabelAt(to)&LabelEntry != 0 {
			return nil
		}
	} else if set := pl.cfg.siteTargets[from]; set != nil && set[to] {
		return nil
	}
	return &Violation{Precision: pl.prec, Edge: edgeKind(l), From: from, To: to}
}

// edgeKind names the forward-edge flavour of an indirect site's label.
func edgeKind(l uint8) string {
	if l&LabelIndirectJmp != 0 {
		return "jmp"
	}
	return "call"
}

// CompileChecks implements cpu.CheckCompiler. The data checkers are nil —
// the CPU then skips data checks entirely, exactly as with no policy —
// and the exec checker specializes the label lookups over the captured
// table, so the per-retirement cost is two bounds-checked loads and a
// mask.
func (pl *Policy) CompileChecks() (read, write func(ip, addr uint32, size int) error,
	exec func(from, to uint32) error) {
	labels := pl.cfg.labels
	base, end := pl.cfg.TextBase, pl.cfg.TextEnd
	prec := pl.prec
	cfg := pl.cfg
	exec = func(from, to uint32) error {
		if from < base || from >= end {
			return nil
		}
		l := labels[from-base]
		if l&(LabelIndirect|LabelRet) == 0 {
			return nil
		}
		var want uint8
		var edge string
		switch {
		case l&LabelRet != 0:
			want, edge = LabelRetSite, "ret"
		case prec == Coarse:
			want, edge = LabelEntry, edgeKind(l)
		default:
			if set := cfg.siteTargets[from]; set != nil && set[to] {
				return nil
			}
			return &Violation{Precision: prec, Edge: edgeKind(l), From: from, To: to}
		}
		if to >= base && to < end && labels[to-base]&want != 0 {
			return nil
		}
		return &Violation{Precision: prec, Edge: edge, From: from, To: to}
	}
	return nil, nil, exec
}

// CompileBlockCheck implements cpu.BlockCheckCompiler over the
// straight-line span [start, end) (end = fall-through target). CFI never
// checks data accesses, and sequential retirements never leave an
// indirect site (indirect branches and RETs are block terminators), so
// in-text spans are summarized dataFree and ok — unless the span
// *contains* a recovered indirect-branch or RET instruction, which, being
// a terminator, can only be the span's last instruction: those blocks are
// refused, so the label-table check runs (and any Violation is raised)
// on the single-step reference path. Spans that leave the instrumented
// text are refused for the same conservative reason.
func (pl *Policy) CompileBlockCheck(start, end uint32) (dataFree, ok bool) {
	base := pl.cfg.TextBase
	if start < base || end > pl.cfg.TextEnd || end < start {
		return false, false
	}
	labels := pl.cfg.labels
	for a := start; a < end; a++ {
		l := labels[a-base]
		if l&LabelInstr != 0 && l&(LabelIndirect|LabelRet) != 0 {
			return false, false
		}
	}
	return true, true
}
