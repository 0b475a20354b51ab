package minc

import (
	"fmt"
	"strings"

	"softsec/internal/asm"
	"softsec/internal/layout"
)

// Options selects the countermeasures compiled into the module.
type Options struct {
	// Canary emits StackGuard-style stack canaries (Section III-C1):
	// prologues copy the process canary into the profile's canary slot;
	// epilogues verify it and fail fast on mismatch. Where that slot sits
	// relative to the locals — and therefore what it protects — is the
	// Layout profile's call.
	Canary bool
	// Layout selects the machine layout profile that decides frame
	// geometry: canary slot placement and local ordering. Nil means the
	// classic Figure-1 profile (canary above the locals at [ebp-4],
	// first-declared local nearest the saved base pointer).
	Layout *layout.Profile
	// BoundsCheck compiles the "checked dialect" (Section III-C2):
	// statically-sized array indexing gets inline bounds checks, and
	// local arrays are registered with the kernel's allocation registry
	// so the fortified libc can validate read()/write() destinations and
	// catch temporal errors (accesses to dead stack frames).
	BoundsCheck bool
	// FnPtrGuard emits the secure-compilation defensive check of Section
	// IV-B: every indirect call verifies the target lies *outside* the
	// protected module's code range before jumping.
	FnPtrGuard bool
	// GuardLow/GuardHigh name the symbols bounding the module's code for
	// FnPtrGuard. They default to __module_text_start/__module_text_end,
	// which internal/securecomp defines when it wraps a module.
	GuardLow, GuardHigh string
	// ImplSuffix, when non-empty, renames every non-static function to
	// name+ImplSuffix and keeps it module-local. internal/securecomp uses
	// it to interpose entry veneers under the original names.
	ImplSuffix string
	// OutcallThunk, when non-empty, routes indirect calls through the
	// named thunk (target still in EAX) instead of `call eax`. The
	// secure-compilation wrapper provides a thunk that performs the
	// stack hop and re-entry gating a Protected Module Architecture
	// requires for out-calls.
	OutcallThunk string
}

func (o *Options) guardSyms() (string, string) {
	lo, hi := o.GuardLow, o.GuardHigh
	if lo == "" {
		lo = "__module_text_start"
	}
	if hi == "" {
		hi = "__module_text_end"
	}
	return lo, hi
}

// Compile parses, checks and compiles a MinC module to a relocatable image.
func Compile(name, src string, opt Options) (*asm.Image, error) {
	text, err := CompileToAsm(name, src, opt)
	if err != nil {
		return nil, err
	}
	img, err := asm.Assemble(name, text)
	if err != nil {
		return nil, fmt.Errorf("minc: internal error assembling generated code: %w", err)
	}
	return img, nil
}

// CompileToAsm compiles MinC source to SM32 assembly text.
func CompileToAsm(name, src string, opt Options) (string, error) {
	f, err := Parse(name, src)
	if err != nil {
		return "", err
	}
	if err := Check(f); err != nil {
		return "", err
	}
	g := &gen{file: f, opt: opt, strs: map[string]string{}, moduleFuncs: map[string]string{}}
	for _, fn := range f.Funcs {
		label := fn.Name
		if !fn.Static && opt.ImplSuffix != "" {
			label = fn.Name + opt.ImplSuffix
		}
		g.moduleFuncs[fn.Name] = label
	}
	return g.run()
}

type localArray struct {
	off  int32
	size int
}

type gen struct {
	file *File
	opt  Options
	out  strings.Builder

	// moduleFuncs maps non-static module functions to their emitted
	// labels (renamed when ImplSuffix is set).
	moduleFuncs map[string]string

	labelN int
	strs   map[string]string // literal -> label
	strOrd []string

	// per-function state
	fn        *FuncDecl
	offsets   map[*Symbol]int32
	frameSize int32
	canaryOff int32 // the profile's canary slot for this frame
	retLabel  string
	arrays    []localArray // registered allocations in checked mode
	breakLbl  []string
	contLbl   []string
	// temps counts live expression temporaries pushed on the CPU stack.
	// While it is non-zero, ESP is below the reserved outgoing-argument
	// area, so calls must use push-style argument passing.
	temps int
}

func (g *gen) pushTemp() {
	g.emit("\tpush eax")
	g.temps++
}

func (g *gen) popTemp(reg string) {
	g.emit("\tpop %s", reg)
	g.temps--
}

func (g *gen) emit(format string, args ...any) {
	fmt.Fprintf(&g.out, format+"\n", args...)
}

func (g *gen) label(prefix string) string {
	g.labelN++
	return fmt.Sprintf(".L%s_%d", prefix, g.labelN)
}

func (g *gen) strLabel(s string) string {
	if l, ok := g.strs[s]; ok {
		return l
	}
	l := fmt.Sprintf(".LSTR_%d", len(g.strs))
	g.strs[s] = l
	g.strOrd = append(g.strOrd, s)
	return l
}

func (g *gen) run() (string, error) {
	g.emit("; generated by minc from %s", g.file.Name)
	g.emit("\t.text")
	for _, fn := range g.file.Funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}
	g.emit("\t.data")
	for _, v := range g.file.Globals {
		g.genGlobal(v)
	}
	for _, s := range g.strOrd {
		g.emit("%s:", g.strs[s])
		g.emit("\t.asciz %q", s)
	}
	return g.out.String(), nil
}

func (g *gen) genGlobal(v *VarDecl) {
	g.emit("\t.align 4")
	if !v.Static {
		g.emit("\t.global %s", v.Name)
	}
	g.emit("%s:", v.Name)
	switch t := v.Type.(type) {
	case ArrayType:
		if s, ok := v.Init.(*StrLit); ok {
			// char msg[N] = "..." — emit the string then pad.
			g.emit("\t.asciz %q", s.Val)
			if pad := t.Size() - len(s.Val) - 1; pad > 0 {
				g.emit("\t.space %d", pad)
			}
			return
		}
		g.emit("\t.space %d", t.Size())
	case CharType:
		val := int64(0)
		if n, ok := v.Init.(*NumLit); ok {
			val = n.Val
		}
		g.emit("\t.byte %d", byte(val))
	default: // int, pointers, function pointers
		switch init := v.Init.(type) {
		case *NumLit:
			g.emit("\t.word %d", uint32(init.Val))
		case *StrLit:
			g.emit("\t.word %s", g.strLabel(init.Val))
		default:
			g.emit("\t.word 0")
		}
	}
}

func align4(n int32) int32 { return (n + 3) &^ 3 }

// collectLocals walks the body collecting declarations in source order,
// then lets the layout profile assign frame offsets: classic Figure-1
// puts the first declared local closest to the saved base pointer (below
// the canary slot when canaries are on); other profiles reorder locals
// or move the canary below them. The profile's Frame is the same
// arithmetic reconnaissance uses, so compiler and attacker agree by
// construction.
func (g *gen) collectLocals(fn *FuncDecl) {
	var decls []*DeclStmt
	var walk func(s Stmt)
	walk = func(s Stmt) {
		switch st := s.(type) {
		case *DeclStmt:
			decls = append(decls, st)
		case *Block:
			for _, x := range st.Stmts {
				walk(x)
			}
		case *IfStmt:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *WhileStmt:
			walk(st.Body)
		case *ForStmt:
			if st.Init != nil {
				walk(st.Init)
			}
			walk(st.Body)
		}
	}
	walk(fn.Body)

	sizes := make([]int, len(decls))
	for i, st := range decls {
		sizes[i] = st.Decl.Type.Size()
	}
	f := layout.OrClassic(g.opt.Layout).Frame(g.opt.Canary, sizes...)
	for i, st := range decls {
		st.Decl.Sym.FrameOff = f.Offs[i]
		g.offsets[st.Decl.Sym] = f.Offs[i]
		// The checked dialect registers every local with the kernel
		// allocation registry (ASan-style): arrays for spatial checks,
		// scalars so that &x may be passed to read(). Registration order
		// stays declaration order whatever the slot assignment order.
		g.arrays = append(g.arrays, localArray{off: f.Offs[i], size: sizes[i]})
	}
	g.canaryOff = f.CanaryOff
	g.frameSize = f.Size
}

// maxCallArgs returns the widest argument list of any call in the body;
// the frame reserves that many outgoing argument slots at the bottom, so
// the generated code can use the paper's mov-to-[esp+k] argument passing.
func maxCallArgs(s Stmt) int {
	max := 0
	var walkE func(e Expr)
	walkE = func(e Expr) {
		switch x := e.(type) {
		case *Call:
			if len(x.Args) > max {
				max = len(x.Args)
			}
			walkE(x.Fun)
			for _, a := range x.Args {
				walkE(a)
			}
		case *Unary:
			walkE(x.X)
		case *Binary:
			walkE(x.X)
			walkE(x.Y)
		case *Assign:
			walkE(x.LHS)
			walkE(x.RHS)
		case *Index:
			walkE(x.X)
			walkE(x.I)
		}
	}
	var walkS func(Stmt)
	walkS = func(s Stmt) {
		switch st := s.(type) {
		case *ExprStmt:
			walkE(st.X)
		case *DeclStmt:
			if st.Decl.Init != nil {
				walkE(st.Decl.Init)
			}
		case *Block:
			for _, x := range st.Stmts {
				walkS(x)
			}
		case *IfStmt:
			walkE(st.Cond)
			walkS(st.Then)
			if st.Else != nil {
				walkS(st.Else)
			}
		case *WhileStmt:
			walkE(st.Cond)
			walkS(st.Body)
		case *ForStmt:
			if st.Init != nil {
				walkS(st.Init)
			}
			if st.Cond != nil {
				walkE(st.Cond)
			}
			if st.Post != nil {
				walkE(st.Post)
			}
			walkS(st.Body)
		case *ReturnStmt:
			if st.X != nil {
				walkE(st.X)
			}
		}
	}
	walkS(s)
	return max
}

func containsCall(e Expr) bool {
	switch x := e.(type) {
	case *Call:
		return true
	case *Unary:
		return containsCall(x.X)
	case *Binary:
		return containsCall(x.X) || containsCall(x.Y)
	case *Assign:
		return containsCall(x.LHS) || containsCall(x.RHS)
	case *Index:
		return containsCall(x.X) || containsCall(x.I)
	}
	return false
}

func (g *gen) genFunc(fn *FuncDecl) error {
	g.fn = fn
	g.offsets = map[*Symbol]int32{}
	g.arrays = nil
	g.retLabel = g.label("ret_" + fn.Name)
	g.collectLocals(fn)
	outgoing := align4(int32(maxCallArgs(fn.Body)) * 4)
	total := g.frameSize + outgoing

	label := g.moduleFuncs[fn.Name]
	if !fn.Static && g.opt.ImplSuffix == "" {
		g.emit("\t.global %s", label)
	}
	g.emit("%s:", label)
	// Figure 1(b) prologue.
	g.emit("\tpush ebp")
	g.emit("\tmov ebp, esp")
	if total > 0 {
		g.emit("\tsub esp, %d", total)
	}
	if g.opt.Canary {
		g.emit("\tmov ecx, __canary")
		g.emit("\tloadw ecx, [ecx]")
		g.emit("\tstorew [ebp%+d], ecx", g.canaryOff)
	}
	if g.opt.BoundsCheck {
		for _, a := range g.arrays {
			g.emit("\tlea ebx, [ebp%+d]", a.off)
			g.emit("\tmov ecx, %d", a.size)
			g.emit("\tmov eax, 0x20")
			g.emit("\tint 0x80")
		}
		if fn.Name == "main" {
			for _, v := range g.file.Globals {
				if _, isArr := v.Type.(ArrayType); isArr {
					g.emit("\tmov ebx, %s", v.Name)
					g.emit("\tmov ecx, %d", v.Type.Size())
					g.emit("\tmov eax, 0x20")
					g.emit("\tint 0x80")
				}
			}
		}
	}

	if err := g.genStmt(fn.Body); err != nil {
		return err
	}

	g.emit("%s:", g.retLabel)
	if g.opt.BoundsCheck {
		for _, a := range g.arrays {
			g.emit("\tmov edx, eax") // preserve return value
			g.emit("\tlea ebx, [ebp%+d]", a.off)
			g.emit("\tmov eax, 0x21")
			g.emit("\tint 0x80")
			g.emit("\tmov eax, edx")
		}
	}
	if g.opt.Canary {
		ok := g.label("canary_ok")
		g.emit("\tmov ecx, __canary")
		g.emit("\tloadw ecx, [ecx]")
		g.emit("\tloadw edx, [ebp%+d]", g.canaryOff)
		g.emit("\tcmp ecx, edx")
		g.emit("\tjz %s", ok)
		g.emit("\tint 0x29") // fail fast: smashing detected
		g.emit("%s:", ok)
	}
	g.emit("\tleave")
	g.emit("\tret")
	return nil
}

func (g *gen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		for _, x := range st.Stmts {
			if err := g.genStmt(x); err != nil {
				return err
			}
		}
	case *ExprStmt:
		return g.genExpr(st.X)
	case *DeclStmt:
		if st.Decl.Init != nil {
			if _, isArr := st.Decl.Type.(ArrayType); isArr {
				// char buf[N] = "literal": copy bytes (and the NUL)
				// into the frame slot at declaration time.
				lit := st.Decl.Init.(*StrLit)
				for i := 0; i <= len(lit.Val); i++ {
					b := byte(0)
					if i < len(lit.Val) {
						b = lit.Val[i]
					}
					g.emit("\tmov ecx, %d", b)
					g.emit("\tstoreb [ebp%+d], ecx", st.Decl.Sym.FrameOff+int32(i))
				}
				return nil
			}
			if err := g.genExpr(st.Decl.Init); err != nil {
				return err
			}
			g.storeTo(st.Decl.Sym.FrameOff, st.Decl.Type)
		}
	case *IfStmt:
		els := g.label("else")
		end := g.label("endif")
		if err := g.genExpr(st.Cond); err != nil {
			return err
		}
		g.emit("\tcmp eax, 0")
		g.emit("\tjz %s", els)
		if err := g.genStmt(st.Then); err != nil {
			return err
		}
		g.emit("\tjmp %s", end)
		g.emit("%s:", els)
		if st.Else != nil {
			if err := g.genStmt(st.Else); err != nil {
				return err
			}
		}
		g.emit("%s:", end)
	case *WhileStmt:
		top := g.label("while")
		end := g.label("wend")
		g.breakLbl = append(g.breakLbl, end)
		g.contLbl = append(g.contLbl, top)
		g.emit("%s:", top)
		if err := g.genExpr(st.Cond); err != nil {
			return err
		}
		g.emit("\tcmp eax, 0")
		g.emit("\tjz %s", end)
		if err := g.genStmt(st.Body); err != nil {
			return err
		}
		g.emit("\tjmp %s", top)
		g.emit("%s:", end)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
	case *ForStmt:
		top := g.label("for")
		post := g.label("fpost")
		end := g.label("fend")
		if st.Init != nil {
			if err := g.genStmt(st.Init); err != nil {
				return err
			}
		}
		g.breakLbl = append(g.breakLbl, end)
		g.contLbl = append(g.contLbl, post)
		g.emit("%s:", top)
		if st.Cond != nil {
			if err := g.genExpr(st.Cond); err != nil {
				return err
			}
			g.emit("\tcmp eax, 0")
			g.emit("\tjz %s", end)
		}
		if err := g.genStmt(st.Body); err != nil {
			return err
		}
		g.emit("%s:", post)
		if st.Post != nil {
			if err := g.genExpr(st.Post); err != nil {
				return err
			}
		}
		g.emit("\tjmp %s", top)
		g.emit("%s:", end)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
	case *ReturnStmt:
		if st.X != nil {
			if err := g.genExpr(st.X); err != nil {
				return err
			}
		}
		g.emit("\tjmp %s", g.retLabel)
	case *BreakStmt:
		g.emit("\tjmp %s", g.breakLbl[len(g.breakLbl)-1])
	case *ContinueStmt:
		g.emit("\tjmp %s", g.contLbl[len(g.contLbl)-1])
	}
	return nil
}

// storeTo stores EAX into a frame slot.
func (g *gen) storeTo(off int32, t Type) {
	if t.Size() == 1 {
		g.emit("\tstoreb [ebp%+d], eax", off)
	} else {
		g.emit("\tstorew [ebp%+d], eax", off)
	}
}

// loadBySize loads from the address in EAX into EAX.
func (g *gen) loadBySize(t Type) {
	if t.Size() == 1 {
		g.emit("\tloadb eax, [eax]")
	} else {
		g.emit("\tloadw eax, [eax]")
	}
}

// genExpr evaluates e into EAX. ECX and EDX are scratch; partial results
// live on the CPU stack (pushes and pops are balanced within each
// expression).
func (g *gen) genExpr(e Expr) error {
	switch x := e.(type) {
	case *NumLit:
		g.emit("\tmov eax, %d", uint32(x.Val))
	case *StrLit:
		g.emit("\tmov eax, %s", g.strLabel(x.Val))
	case *Ident:
		sym := x.Sym
		switch sym.Kind {
		case SymFunc:
			g.emit("\tmov eax, %s", g.funcLabel(sym.Name))
		case SymGlobal:
			g.emit("\tmov eax, %s", sym.Name)
			switch sym.Type.(type) {
			case ArrayType:
				// arrays decay: the address is the value
			default:
				g.loadBySize(sym.Type)
			}
		default: // local or param
			switch sym.Type.(type) {
			case ArrayType:
				g.emit("\tlea eax, [ebp%+d]", sym.FrameOff)
			default:
				if sym.Type.Size() == 1 {
					g.emit("\tloadb eax, [ebp%+d]", sym.FrameOff)
				} else {
					g.emit("\tloadw eax, [ebp%+d]", sym.FrameOff)
				}
			}
		}
	case *Unary:
		return g.genUnary(x)
	case *Binary:
		return g.genBinary(x)
	case *Assign:
		if err := g.genAddr(x.LHS); err != nil {
			return err
		}
		g.pushTemp()
		if err := g.genExpr(x.RHS); err != nil {
			return err
		}
		g.popTemp("ecx")
		t := typeOf(x.LHS)
		if t != nil && t.Size() == 1 {
			g.emit("\tstoreb [ecx], eax")
		} else {
			g.emit("\tstorew [ecx], eax")
		}
	case *Call:
		return g.genCall(x)
	case *Index:
		if err := g.genAddr(x); err != nil {
			return err
		}
		g.loadBySize(typeOf(x))
	default:
		return fmt.Errorf("minc: genExpr: unknown node %T", e)
	}
	return nil
}

func typeOf(e Expr) Type {
	switch x := e.(type) {
	case *NumLit:
		return x.T
	case *StrLit:
		return x.T
	case *Ident:
		return x.T
	case *Unary:
		return x.T
	case *Binary:
		return x.T
	case *Assign:
		return x.T
	case *Call:
		return x.T
	case *Index:
		return x.T
	}
	return nil
}

func (g *gen) genUnary(x *Unary) error {
	switch x.Op {
	case "&":
		return g.genAddr(x.X)
	case "*":
		if err := g.genExpr(x.X); err != nil {
			return err
		}
		g.loadBySize(x.T)
		return nil
	}
	if err := g.genExpr(x.X); err != nil {
		return err
	}
	switch x.Op {
	case "-":
		g.emit("\tneg eax")
	case "~":
		g.emit("\tnot eax")
	case "!":
		one := g.label("not1")
		end := g.label("notend")
		g.emit("\tcmp eax, 0")
		g.emit("\tjz %s", one)
		g.emit("\tmov eax, 0")
		g.emit("\tjmp %s", end)
		g.emit("%s:", one)
		g.emit("\tmov eax, 1")
		g.emit("%s:", end)
	}
	return nil
}

var cmpJump = map[string]string{
	"==": "jz", "!=": "jnz", "<": "jl", ">": "jg", "<=": "jle", ">=": "jge",
}

func (g *gen) genBinary(x *Binary) error {
	// Short-circuit logical operators first.
	if x.Op == "&&" || x.Op == "||" {
		shortcut := g.label("sc")
		end := g.label("scend")
		if err := g.genExpr(x.X); err != nil {
			return err
		}
		g.emit("\tcmp eax, 0")
		if x.Op == "&&" {
			g.emit("\tjz %s", shortcut)
		} else {
			g.emit("\tjnz %s", shortcut)
		}
		if err := g.genExpr(x.Y); err != nil {
			return err
		}
		g.emit("\tcmp eax, 0")
		if x.Op == "&&" {
			g.emit("\tjz %s", shortcut)
			g.emit("\tmov eax, 1")
		} else {
			g.emit("\tjnz %s", shortcut)
			g.emit("\tmov eax, 0")
		}
		g.emit("\tjmp %s", end)
		g.emit("%s:", shortcut)
		if x.Op == "&&" {
			g.emit("\tmov eax, 0")
		} else {
			g.emit("\tmov eax, 1")
		}
		g.emit("%s:", end)
		return nil
	}

	if err := g.genExpr(x.X); err != nil {
		return err
	}
	g.pushTemp()
	if err := g.genExpr(x.Y); err != nil {
		return err
	}
	g.emit("\tmov ecx, eax")
	g.popTemp("eax")
	// eax = X, ecx = Y.

	// Pointer arithmetic scaling.
	scale := func(reg string, elem Type) {
		if n := elem.Size(); n > 1 {
			g.emit("\tmov edx, %d", n)
			g.emit("\timul %s, edx", reg)
		}
	}
	tx, ty := decay(typeOf(x.X)), decay(typeOf(x.Y))

	switch x.Op {
	case "+":
		if p, ok := tx.(PtrType); ok && isInt(ty) {
			scale("ecx", p.Elem)
		} else if p, ok := ty.(PtrType); ok && isInt(tx) {
			scale("eax", p.Elem)
		}
		g.emit("\tadd eax, ecx")
	case "-":
		if p, ok := tx.(PtrType); ok && isInt(ty) {
			scale("ecx", p.Elem)
		}
		g.emit("\tsub eax, ecx")
	case "*":
		g.emit("\timul eax, ecx")
	case "/":
		g.emit("\tidiv eax, ecx")
	case "%":
		g.emit("\timod eax, ecx")
	case "<<":
		g.emit("\tshl eax, ecx")
	case ">>":
		g.emit("\tsar eax, ecx")
	case "&":
		g.emit("\tand eax, ecx")
	case "|":
		g.emit("\tor eax, ecx")
	case "^":
		g.emit("\txor eax, ecx")
	case "==", "!=", "<", ">", "<=", ">=":
		tru := g.label("cmpt")
		end := g.label("cmpe")
		g.emit("\tcmp eax, ecx")
		g.emit("\t%s %s", cmpJump[x.Op], tru)
		g.emit("\tmov eax, 0")
		g.emit("\tjmp %s", end)
		g.emit("%s:", tru)
		g.emit("\tmov eax, 1")
		g.emit("%s:", end)
	default:
		return fmt.Errorf("minc: genBinary: op %q", x.Op)
	}
	return nil
}

// genAddr evaluates the address of an lvalue into EAX.
func (g *gen) genAddr(e Expr) error {
	switch x := e.(type) {
	case *Ident:
		sym := x.Sym
		switch sym.Kind {
		case SymGlobal:
			g.emit("\tmov eax, %s", sym.Name)
		case SymFunc:
			g.emit("\tmov eax, %s", g.funcLabel(sym.Name))
		default:
			g.emit("\tlea eax, [ebp%+d]", sym.FrameOff)
		}
	case *Unary:
		if x.Op != "*" {
			return fmt.Errorf("minc: genAddr of unary %q", x.Op)
		}
		return g.genExpr(x.X)
	case *Index:
		if err := g.genExpr(x.X); err != nil {
			return err
		}
		g.pushTemp()
		if err := g.genExpr(x.I); err != nil {
			return err
		}
		elem := typeOf(x)
		if n := elem.Size(); n > 1 {
			g.emit("\tmov ecx, %d", n)
			g.emit("\timul eax, ecx")
		}
		// Inline bounds check against the statically-known array size
		// (checked dialect): scaled offset must be below the array's
		// byte size; unsigned compare also rejects negative indices.
		if g.opt.BoundsCheck {
			if arr, ok := staticArrayType(x.X); ok {
				ok := g.label("bok")
				g.emit("\tcmp eax, %d", arr.Size())
				g.emit("\tjb %s", ok)
				g.emit("\tint 0x29") // bounds failure: fail fast
				g.emit("%s:", ok)
			}
		}
		g.popTemp("ecx")
		g.emit("\tadd eax, ecx")
	default:
		return fmt.Errorf("minc: genAddr: not an lvalue: %T", e)
	}
	return nil
}

// staticArrayType reports the declared array type of e when the compiler
// can see it (a named array variable).
func staticArrayType(e Expr) (ArrayType, bool) {
	if id, ok := e.(*Ident); ok && id.Sym != nil {
		if a, isArr := id.Sym.Type.(ArrayType); isArr {
			return a, true
		}
	}
	return ArrayType{}, false
}

func (g *gen) genCall(x *Call) error {
	directName := ""
	if id, ok := x.Fun.(*Ident); ok && id.Sym != nil && id.Sym.Kind == SymFunc {
		directName = g.funcLabel(id.Sym.Name)
	}
	anyCallInArgs := false
	for _, a := range x.Args {
		if containsCall(a) {
			anyCallInArgs = true
		}
	}
	if containsCall(x.Fun) {
		anyCallInArgs = true
	}

	if !anyCallInArgs && g.temps == 0 {
		// Figure 1(b) style: store arguments into the reserved area at
		// the bottom of the frame, then call.
		for i, a := range x.Args {
			if err := g.genExpr(a); err != nil {
				return err
			}
			g.emit("\tstorew [esp+%d], eax", 4*i)
		}
		if directName != "" {
			g.emit("\tcall %s", directName)
			return nil
		}
		if err := g.genExpr(x.Fun); err != nil {
			return err
		}
		g.genIndirectCall()
		return nil
	}

	// Push style for calls whose arguments themselves contain calls:
	// evaluate right to left, leaving the arguments contiguous at the
	// stack top, then clean up after the call.
	n := len(x.Args)
	if directName == "" {
		if err := g.genExpr(x.Fun); err != nil {
			return err
		}
		g.pushTemp()
	}
	for i := n - 1; i >= 0; i-- {
		if err := g.genExpr(x.Args[i]); err != nil {
			return err
		}
		g.pushTemp()
	}
	if directName != "" {
		g.emit("\tcall %s", directName)
		if n > 0 {
			g.emit("\tadd esp, %d", 4*n)
		}
		g.temps -= n
		return nil
	}
	g.emit("\tloadw ecx, [esp+%d]", 4*n) // the function pointer
	g.emit("\tmov eax, ecx")
	g.genIndirectCall()
	g.emit("\tadd esp, %d", 4*(n+1))
	g.temps -= n + 1
	return nil
}

// genIndirectCall calls through EAX, emitting the secure-compilation
// defensive check when enabled: a function pointer received from outside
// must not point *into* the protected module (Section IV-B).
func (g *gen) genIndirectCall() {
	if g.opt.FnPtrGuard {
		lo, hi := g.opt.guardSyms()
		ok := g.label("fpok")
		g.emit("\tmov ecx, %s", lo)
		g.emit("\tcmp eax, ecx")
		g.emit("\tjb %s", ok)
		g.emit("\tmov ecx, %s", hi)
		g.emit("\tcmp eax, ecx")
		g.emit("\tjae %s", ok)
		g.emit("\tint 0x29") // pointer into the module: abort
		g.emit("%s:", ok)
	}
	if g.opt.OutcallThunk != "" {
		g.emit("\tcall %s", g.opt.OutcallThunk)
		return
	}
	g.emit("\tcall eax")
}

// funcLabel maps a function name to its emitted label (renamed for
// module-defined non-static functions when ImplSuffix is in effect).
func (g *gen) funcLabel(name string) string {
	if l, ok := g.moduleFuncs[name]; ok {
		return l
	}
	return name
}
