// Package bytecode models the virtual-machine isolation mechanism of the
// paper's Section IV-A (the JVM [18] bullet): compiled modules are bytecode
// rather than machine code, and the VM preserves source-level abstractions
// — here, module-private fields — at run time.
//
// Two properties are demonstrated (and measured by the benchmarks):
//
//   - Within the VM, an attacker module cannot read another module's
//     private fields: every field access is checked against the executing
//     module's identity. The memory-scraping attack of Figure 2 is simply
//     inexpressible in the bytecode.
//   - The protection evaporates one layer down, exactly as the paper
//     warns: "there is no protection against machine code attackers that
//     can control machine code at lower layers of abstraction". The VM's
//     field store is ordinary memory; Scrape (the kernel-malware view)
//     reads every secret without tripping a single check.
//
// The second disadvantage the paper lists — the interpretation performance
// penalty — is measured in bench_test.go against native SM32 execution.
package bytecode

import "fmt"

// Op is a bytecode operation.
type Op uint8

// Bytecode operations (stack machine).
const (
	// Push pushes an immediate.
	Push Op = iota
	// Pop discards the top of stack.
	Pop
	// LoadLocal pushes local slot A.
	LoadLocal
	// StoreLocal pops into local slot A.
	StoreLocal
	// GetField pushes field Name of the *executing* module.
	GetField
	// PutField pops into field Name of the *executing* module.
	PutField
	// GetForeign attempts to read field Name of module Mod — the
	// bytecode the attacker would need; the verifier/VM refuses it
	// unless Mod is the executing module.
	GetForeign
	// Add, Sub, Mul pop two, push one.
	Add
	Sub
	Mul
	// CmpEq, CmpLt pop two, push 0/1.
	CmpEq
	CmpLt
	// Jz pops; jumps to A when zero.
	Jz
	// Jmp jumps to A.
	Jmp
	// Call invokes Mod.Name (public methods only across modules),
	// popping the callee's arguments off the caller's stack.
	Call
	// Ret pops the return value and returns it to the caller's stack.
	Ret
	// RetVoid returns without a value.
	RetVoid
	// Emit pops and appends to the VM output (observable behaviour).
	Emit
)

// Instr is one bytecode instruction.
type Instr struct {
	Op   Op
	A    int64  // immediate / branch target / local slot
	Mod  string // module name for Call/GetForeign
	Name string // field or method name
}

// Method is one bytecode method.
type Method struct {
	Name   string
	Public bool // callable from other modules
	NArgs  int
	NLoc   int // local slots beyond the arguments
	Code   []Instr
}

// Module is a bytecode module: private fields plus methods.
type Module struct {
	Name    string
	Fields  map[string]uint32 // initial field values; all fields private
	Methods map[string]*Method
}

// VMError is a checked abstraction violation — the VM's equivalent of the
// PMA's access-control fault.
type VMError struct {
	Module string
	Msg    string
}

func (e *VMError) Error() string {
	return fmt.Sprintf("vm: module %s: %s", e.Module, e.Msg)
}

// VM executes bytecode modules. The field store is deliberately a flat
// Go-visible slice: that is the "machine level" a kernel attacker scrapes.
type VM struct {
	modules map[string]*Module
	// FieldStore backs every module's fields, in registration order —
	// the lower-layer memory the VM's checks do not protect.
	FieldStore []uint32
	fieldIdx   map[string]map[string]int
	Output     []uint32
	Steps      uint64
}

// NewVM registers the given modules.
func NewVM(mods ...*Module) *VM {
	vm := &VM{
		modules:  make(map[string]*Module),
		fieldIdx: make(map[string]map[string]int),
	}
	for _, m := range mods {
		vm.modules[m.Name] = m
		idx := make(map[string]int)
		for name, init := range m.Fields {
			idx[name] = len(vm.FieldStore)
			vm.FieldStore = append(vm.FieldStore, init)
		}
		vm.fieldIdx[m.Name] = idx
	}
	return vm
}

// Scrape is the machine-code attacker one layer below the VM: it scans the
// raw field store for a value, bypassing every VM check.
func (vm *VM) Scrape(value uint32) int {
	count := 0
	for _, v := range vm.FieldStore {
		if v == value {
			count++
		}
	}
	return count
}

const maxStack = 256

type frame struct {
	mod    *Module
	meth   *Method
	locals []uint32
	stack  []uint32
	pc     int
}

func (f *frame) push(v uint32) error {
	if len(f.stack) >= maxStack {
		return &VMError{Module: f.mod.Name, Msg: "operand stack overflow"}
	}
	f.stack = append(f.stack, v)
	return nil
}

func (f *frame) pop() (uint32, error) {
	if len(f.stack) == 0 {
		return 0, &VMError{Module: f.mod.Name, Msg: "operand stack underflow"}
	}
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v, nil
}

// Invoke calls a public method from outside the VM (the embedder's entry
// point) and returns its result.
func (vm *VM) Invoke(mod, method string, args ...uint32) (uint32, error) {
	m, ok := vm.modules[mod]
	if !ok {
		return 0, &VMError{Module: mod, Msg: "no such module"}
	}
	meth, ok := m.Methods[method]
	if !ok || !meth.Public {
		return 0, &VMError{Module: mod, Msg: "no such public method " + method}
	}
	return vm.run(m, meth, args, 0)
}

const maxDepth = 64

func (vm *VM) run(m *Module, meth *Method, args []uint32, depth int) (uint32, error) {
	if depth > maxDepth {
		return 0, &VMError{Module: m.Name, Msg: "call depth exceeded"}
	}
	if len(args) != meth.NArgs {
		return 0, &VMError{Module: m.Name,
			Msg: fmt.Sprintf("%s wants %d args, got %d", meth.Name, meth.NArgs, len(args))}
	}
	f := &frame{
		mod:    m,
		meth:   meth,
		locals: make([]uint32, meth.NArgs+meth.NLoc),
	}
	copy(f.locals, args)

	for f.pc >= 0 && f.pc < len(meth.Code) {
		in := meth.Code[f.pc]
		vm.Steps++
		f.pc++
		switch in.Op {
		case Push:
			if err := f.push(uint32(in.A)); err != nil {
				return 0, err
			}
		case Pop:
			if _, err := f.pop(); err != nil {
				return 0, err
			}
		case LoadLocal, StoreLocal:
			if in.A < 0 || int(in.A) >= len(f.locals) {
				return 0, &VMError{Module: m.Name, Msg: "local slot out of range"}
			}
			if in.Op == LoadLocal {
				if err := f.push(f.locals[in.A]); err != nil {
					return 0, err
				}
			} else {
				v, err := f.pop()
				if err != nil {
					return 0, err
				}
				f.locals[in.A] = v
			}
		case GetField, PutField:
			i, ok := vm.fieldIdx[m.Name][in.Name]
			if !ok {
				return 0, &VMError{Module: m.Name, Msg: "no field " + in.Name}
			}
			if in.Op == GetField {
				if err := f.push(vm.FieldStore[i]); err != nil {
					return 0, err
				}
			} else {
				v, err := f.pop()
				if err != nil {
					return 0, err
				}
				vm.FieldStore[i] = v
			}
		case GetForeign:
			// The abstraction-preserving check: field access is legal
			// only for the executing module's own fields.
			if in.Mod != m.Name {
				return 0, &VMError{Module: m.Name,
					Msg: fmt.Sprintf("illegal access to private field %s.%s", in.Mod, in.Name)}
			}
			i, ok := vm.fieldIdx[in.Mod][in.Name]
			if !ok {
				return 0, &VMError{Module: m.Name, Msg: "no field " + in.Name}
			}
			if err := f.push(vm.FieldStore[i]); err != nil {
				return 0, err
			}
		case Add, Sub, Mul, CmpEq, CmpLt:
			b, err := f.pop()
			if err != nil {
				return 0, err
			}
			a, err := f.pop()
			if err != nil {
				return 0, err
			}
			var v uint32
			switch in.Op {
			case Add:
				v = a + b
			case Sub:
				v = a - b
			case Mul:
				v = a * b
			case CmpEq:
				if a == b {
					v = 1
				}
			case CmpLt:
				if int32(a) < int32(b) {
					v = 1
				}
			}
			if err := f.push(v); err != nil {
				return 0, err
			}
		case Jz:
			v, err := f.pop()
			if err != nil {
				return 0, err
			}
			if v == 0 {
				f.pc = int(in.A)
			}
		case Jmp:
			f.pc = int(in.A)
		case Call:
			target, ok := vm.modules[in.Mod]
			if !ok {
				return 0, &VMError{Module: m.Name, Msg: "no module " + in.Mod}
			}
			callee, ok := target.Methods[in.Name]
			if !ok {
				return 0, &VMError{Module: m.Name, Msg: "no method " + in.Name}
			}
			if !callee.Public && target != m {
				return 0, &VMError{Module: m.Name,
					Msg: fmt.Sprintf("illegal call to private method %s.%s", in.Mod, in.Name)}
			}
			args := make([]uint32, callee.NArgs)
			for i := callee.NArgs - 1; i >= 0; i-- {
				v, err := f.pop()
				if err != nil {
					return 0, err
				}
				args[i] = v
			}
			ret, err := vm.run(target, callee, args, depth+1)
			if err != nil {
				return 0, err
			}
			if err := f.push(ret); err != nil {
				return 0, err
			}
		case Ret:
			return f.pop()
		case RetVoid:
			return 0, nil
		case Emit:
			v, err := f.pop()
			if err != nil {
				return 0, err
			}
			vm.Output = append(vm.Output, v)
		default:
			return 0, &VMError{Module: m.Name, Msg: "bad opcode"}
		}
	}
	return 0, nil
}
