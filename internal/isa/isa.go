// Package isa defines SM32, the instruction-set architecture of the
// simulated machine used throughout this reproduction.
//
// SM32 deliberately shares the properties the paper's Section II identifies
// as the root causes of low-level attack surface:
//
//   - a single flat virtual address space holding both code and data;
//   - unstructured control flow (CALL pushes the return address onto the
//     stack; RET pops whatever word is on top into the instruction pointer);
//   - variable-length instructions (1–6 bytes), so code can be re-entered
//     at unintended offsets — the property Return-Oriented Programming
//     gadget mining relies on;
//   - little-endian 32-bit words, matching the paper's Figure 1.
//
// Opcode values follow x86 where that is cheap (PUSH r = 0x50+r, CALL rel32
// = 0xE8, RET = 0xC3, LEAVE = 0xC9, INT n = 0xCD), but operand encoding is
// simplified: two-register instructions carry a single "rr" byte with the
// destination register in the high nibble and the source in the low nibble,
// and memory operands are always [reg+disp32]. SM32 is therefore NOT binary
// compatible with x86; it only preserves the structural properties the
// paper's arguments depend on.
package isa

import "fmt"

// Reg is a general-purpose register index. The numbering follows x86 so
// that the packed PUSH/POP/MOVI opcodes match their x86 counterparts.
type Reg uint8

// The eight general-purpose registers. ESP is the stack pointer and EBP the
// base (frame) pointer, exactly as in the paper's Figure 1.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	NumRegs = 8
)

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// RegByName maps an assembly register name ("eax"...) to its index.
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	return 0, false
}

// Op is an SM32 operation mnemonic.
type Op uint8

// All SM32 operations.
const (
	NOP Op = iota
	HLT
	RET
	LEAVE
	TRAP // one-byte 0xCC breakpoint/abort, x86 INT3
	PUSH
	POP
	PUSHI
	MOVI // mov r, imm32
	MOV  // mov rd, rs
	ADD
	SUB
	AND
	OR
	XOR
	CMP
	TEST
	IMUL
	IDIV
	IMOD
	SHL
	SHR
	SAR
	NEG
	NOT
	CALLR // call through register — the function-pointer call of Fig. 4
	JMPR
	LOADW  // mov rd, [rs+disp]
	STOREW // mov [rd+disp], rs
	LOADB
	STOREB
	LEA
	ADDI
	SUBI
	ANDI
	ORI
	XORI
	CMPI
	CALL // call rel32
	JMP
	JZ
	JNZ
	JL // signed <
	JG
	JLE
	JGE
	JB // unsigned <
	JA
	JAE // unsigned >=
	JBE // unsigned <=
	INT
	numOps
)

var opNames = [numOps]string{
	NOP: "nop", HLT: "hlt", RET: "ret", LEAVE: "leave", TRAP: "trap",
	PUSH: "push", POP: "pop", PUSHI: "push", MOVI: "mov", MOV: "mov",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	CMP: "cmp", TEST: "test", IMUL: "imul", IDIV: "idiv", IMOD: "imod",
	SHL: "shl", SHR: "shr", SAR: "sar", NEG: "neg", NOT: "not",
	CALLR: "call", JMPR: "jmp", LOADW: "loadw", STOREW: "storew",
	LOADB: "loadb", STOREB: "storeb", LEA: "lea",
	ADDI: "add", SUBI: "sub", ANDI: "and", ORI: "or", XORI: "xor", CMPI: "cmp",
	CALL: "call", JMP: "jmp", JZ: "jz", JNZ: "jnz", JL: "jl", JG: "jg",
	JLE: "jle", JGE: "jge", JB: "jb", JA: "ja", JAE: "jae", JBE: "jbe",
	INT: "int",
}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Format describes the byte layout of an instruction.
type Format uint8

const (
	FNone   Format = iota // opcode only (1 byte)
	FPacked               // opcode embeds the register (1 byte; 5 for MOVI)
	FRR                   // opcode + rr byte (2 bytes)
	FR                    // opcode + rr byte, source nibble unused (2 bytes)
	FMem                  // opcode + rr byte + disp32 (6 bytes)
	FRI                   // opcode + rr byte + imm32 (6 bytes)
	FI32                  // opcode + imm32 (5 bytes)
	FRel32                // opcode + rel32 (5 bytes)
	FI8                   // opcode + imm8 (2 bytes)
)

// Instr is one decoded SM32 instruction.
type Instr struct {
	Op   Op
	Rd   Reg    // destination register (or the single register operand)
	Rs   Reg    // source register
	Imm  uint32 // immediate, displacement, or relative offset
	Size int    // encoded length in bytes
}

type opInfo struct {
	op     Op
	format Format
}

// Opcode byte assignments. Packed ranges 0x50-0x57 (PUSH), 0x58-0x5F (POP)
// and 0xB8-0xBF (MOVI) are handled outside this table.
var opcodeTable = map[byte]opInfo{
	0x90: {NOP, FNone},
	0xF4: {HLT, FNone},
	0xC3: {RET, FNone},
	0xC9: {LEAVE, FNone},
	0xCC: {TRAP, FNone},
	0x68: {PUSHI, FI32},
	0x89: {MOV, FRR},
	0x01: {ADD, FRR},
	0x29: {SUB, FRR},
	0x21: {AND, FRR},
	0x09: {OR, FRR},
	0x31: {XOR, FRR},
	0x39: {CMP, FRR},
	0x85: {TEST, FRR},
	0x0F: {IMUL, FRR},
	0x06: {IDIV, FRR},
	0x07: {IMOD, FRR},
	0xD1: {SHL, FRR},
	0xD3: {SHR, FRR},
	0xD5: {SAR, FRR},
	0xF7: {NEG, FR},
	0xF6: {NOT, FR},
	0xFF: {CALLR, FR},
	0xFE: {JMPR, FR},
	0x8B: {LOADW, FMem},
	0x87: {STOREW, FMem},
	0x8A: {LOADB, FMem},
	0x88: {STOREB, FMem},
	0x8D: {LEA, FMem},
	0x05: {ADDI, FRI},
	0x2D: {SUBI, FRI},
	0x25: {ANDI, FRI},
	0x0D: {ORI, FRI},
	0x35: {XORI, FRI},
	0x3D: {CMPI, FRI},
	0xE8: {CALL, FRel32},
	0xE9: {JMP, FRel32},
	0x74: {JZ, FRel32},
	0x75: {JNZ, FRel32},
	0x7C: {JL, FRel32},
	0x7F: {JG, FRel32},
	0x7E: {JLE, FRel32},
	0x7D: {JGE, FRel32},
	0x72: {JB, FRel32},
	0x77: {JA, FRel32},
	0x73: {JAE, FRel32},
	0x76: {JBE, FRel32},
	0xCD: {INT, FI8},
}

// opToByte is the inverse of opcodeTable, built at init time.
var opToByte [numOps]byte
var opToFormat [numOps]Format

// Decode-side lookup tables, indexed directly by the first instruction
// byte. They replace per-instruction map lookups on the CPU's
// fetch-decode hot path: opcodeLUT carries the operation and format for
// table-encoded opcodes, lenLUT the total encoded length of every byte
// including the packed-register ranges (0 marks an invalid opcode — no
// real instruction encodes to zero bytes).
var opcodeLUT [256]opInfo
var lenLUT [256]uint8

func init() {
	for b, info := range opcodeTable {
		opToByte[info.op] = b
		opToFormat[info.op] = info.format
	}
	opToFormat[PUSH] = FPacked
	opToFormat[POP] = FPacked
	opToFormat[MOVI] = FPacked

	for b, info := range opcodeTable {
		opcodeLUT[b] = info
		lenLUT[b] = uint8(EncodedSize(info.op))
	}
	// Packed ranges carry the register in the opcode byte; Decode
	// resolves them before consulting opcodeLUT, so only their lengths
	// are tabled here.
	for b := 0x50; b <= 0x5F; b++ {
		lenLUT[b] = 1 // PUSH r / POP r
	}
	for b := 0xB8; b <= 0xBF; b++ {
		lenLUT[b] = 5 // MOVI r, imm32
	}
}

// FormatOf returns the encoding format of op.
func FormatOf(op Op) Format { return opToFormat[op] }

// EncodedSize returns the encoded length in bytes of an instruction with
// the given operation.
func EncodedSize(op Op) int {
	switch FormatOf(op) {
	case FNone:
		return 1
	case FPacked:
		if op == MOVI {
			return 5
		}
		return 1
	case FRR, FR, FI8:
		return 2
	case FMem, FRI:
		return 6
	case FI32, FRel32:
		return 5
	}
	return 0
}

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Encode appends the encoding of in to dst and returns the extended slice.
func Encode(dst []byte, in Instr) ([]byte, error) {
	if in.Rd >= NumRegs || in.Rs >= NumRegs {
		return dst, fmt.Errorf("isa: encode %v: bad register", in.Op)
	}
	var buf [6]byte
	switch FormatOf(in.Op) {
	case FNone:
		buf[0] = opToByte[in.Op]
		return append(dst, buf[0]), nil
	case FPacked:
		switch in.Op {
		case PUSH:
			return append(dst, 0x50+byte(in.Rd)), nil
		case POP:
			return append(dst, 0x58+byte(in.Rd)), nil
		case MOVI:
			buf[0] = 0xB8 + byte(in.Rd)
			put32(buf[1:5], in.Imm)
			return append(dst, buf[:5]...), nil
		}
	case FRR:
		buf[0] = opToByte[in.Op]
		buf[1] = byte(in.Rd)<<4 | byte(in.Rs)
		return append(dst, buf[:2]...), nil
	case FR:
		buf[0] = opToByte[in.Op]
		buf[1] = byte(in.Rd) << 4
		return append(dst, buf[:2]...), nil
	case FMem:
		buf[0] = opToByte[in.Op]
		buf[1] = byte(in.Rd)<<4 | byte(in.Rs)
		put32(buf[2:6], in.Imm)
		return append(dst, buf[:6]...), nil
	case FRI:
		// The source nibble is unused; keep it zero so encodings are
		// canonical (disassemble-reassemble reproduces the bytes).
		buf[0] = opToByte[in.Op]
		buf[1] = byte(in.Rd) << 4
		put32(buf[2:6], in.Imm)
		return append(dst, buf[:6]...), nil
	case FI32, FRel32:
		buf[0] = opToByte[in.Op]
		put32(buf[1:5], in.Imm)
		return append(dst, buf[:5]...), nil
	case FI8:
		buf[0] = opToByte[in.Op]
		buf[1] = byte(in.Imm)
		return append(dst, buf[:2]...), nil
	}
	return dst, fmt.Errorf("isa: encode: unknown op %v", in.Op)
}

// MustEncode is Encode for known-good instructions; it panics on error.
// Code generators use it with operands they constructed themselves.
func MustEncode(dst []byte, in Instr) []byte {
	out, err := Encode(dst, in)
	if err != nil {
		panic(err)
	}
	return out
}

// DecodeErr describes why a byte sequence failed to decode.
type DecodeErr struct {
	Addr   uint32 // informational; zero when unknown
	Opcode byte
	Short  bool // ran out of bytes mid-instruction
}

func (e *DecodeErr) Error() string {
	if e.Short {
		return fmt.Sprintf("isa: truncated instruction (opcode 0x%02x) at 0x%08x", e.Opcode, e.Addr)
	}
	return fmt.Sprintf("isa: invalid opcode 0x%02x at 0x%08x", e.Opcode, e.Addr)
}

// Decode decodes the instruction at the start of b. The addr parameter is
// only used to annotate errors.
func Decode(b []byte, addr uint32) (Instr, error) {
	if len(b) == 0 {
		return Instr{}, &DecodeErr{Addr: addr, Short: true}
	}
	op0 := b[0]
	// Packed-register ranges first.
	switch {
	case op0 >= 0x50 && op0 <= 0x57:
		return Instr{Op: PUSH, Rd: Reg(op0 - 0x50), Size: 1}, nil
	case op0 >= 0x58 && op0 <= 0x5F:
		return Instr{Op: POP, Rd: Reg(op0 - 0x58), Size: 1}, nil
	case op0 >= 0xB8 && op0 <= 0xBF:
		if len(b) < 5 {
			return Instr{}, &DecodeErr{Addr: addr, Opcode: op0, Short: true}
		}
		return Instr{Op: MOVI, Rd: Reg(op0 - 0xB8), Imm: get32(b[1:]), Size: 5}, nil
	}
	if lenLUT[op0] == 0 {
		return Instr{}, &DecodeErr{Addr: addr, Opcode: op0}
	}
	info := opcodeLUT[op0]
	in := Instr{Op: info.op}
	switch info.format {
	case FNone:
		in.Size = 1
	case FRR, FR:
		if len(b) < 2 {
			return Instr{}, &DecodeErr{Addr: addr, Opcode: op0, Short: true}
		}
		in.Rd = Reg(b[1] >> 4)
		in.Rs = Reg(b[1] & 0x0F)
		if in.Rd >= NumRegs || in.Rs >= NumRegs {
			return Instr{}, &DecodeErr{Addr: addr, Opcode: op0}
		}
		if info.format == FR {
			in.Rs = 0 // unused nibble; canonicalize
		}
		in.Size = 2
	case FMem, FRI:
		if len(b) < 6 {
			return Instr{}, &DecodeErr{Addr: addr, Opcode: op0, Short: true}
		}
		in.Rd = Reg(b[1] >> 4)
		in.Rs = Reg(b[1] & 0x0F)
		if in.Rd >= NumRegs || in.Rs >= NumRegs {
			return Instr{}, &DecodeErr{Addr: addr, Opcode: op0}
		}
		if info.format == FRI {
			in.Rs = 0 // unused nibble; canonicalize
		}
		in.Imm = get32(b[2:])
		in.Size = 6
	case FI32, FRel32:
		if len(b) < 5 {
			return Instr{}, &DecodeErr{Addr: addr, Opcode: op0, Short: true}
		}
		in.Imm = get32(b[1:])
		in.Size = 5
	case FI8:
		if len(b) < 2 {
			return Instr{}, &DecodeErr{Addr: addr, Opcode: op0, Short: true}
		}
		in.Imm = uint32(b[1])
		in.Size = 2
	}
	return in, nil
}

// LenFromOpcode returns the total encoded length of an instruction whose
// first byte is b, and whether b is a valid opcode. The CPU uses it to know
// how many bytes to fetch before decoding.
func LenFromOpcode(b byte) (int, bool) {
	n := lenLUT[b]
	return int(n), n != 0
}

// IsControlFlow reports whether op redirects the instruction pointer.
func IsControlFlow(op Op) bool {
	switch op {
	case CALL, CALLR, RET, JMP, JMPR, JZ, JNZ, JL, JG, JLE, JGE, JB, JA, JAE, JBE:
		return true
	}
	return false
}

// Basic-block metadata, consumed by the CPU's block execution engine.
// Tabled (rather than switched) because the block builder consults it for
// every decoded instruction.
var endsBlock [numOps]bool
var writesMem [numOps]bool

func init() {
	// Terminators: every instruction after which straight-line decoding
	// cannot continue — control transfers (conditional jumps end a block
	// for both outcomes), machine stops, and INT, whose trap handler may
	// change machine state, policy, or memory under the block.
	for _, op := range []Op{
		CALL, CALLR, RET, JMP, JMPR,
		JZ, JNZ, JL, JG, JLE, JGE, JB, JA, JAE, JBE,
		HLT, TRAP, INT,
	} {
		endsBlock[op] = true
	}
	// Ops that write data memory on the sequential path. CALL/CALLR/INT
	// also push, but they are terminators, so the block engine's mid-block
	// self-modification revalidation never needs to consider them.
	for _, op := range []Op{PUSH, PUSHI, STOREW, STOREB} {
		writesMem[op] = true
	}
}

// EndsBlock reports whether op terminates a basic block: after it, the
// next instruction pointer is not (statically) the next sequential
// address, or the machine may stop or be reconfigured (HLT, TRAP, INT).
func EndsBlock(op Op) bool { return endsBlock[op] }

// WritesMem reports whether op stores to data memory on the sequential
// path (PUSH/PUSHI/STOREW/STOREB). The block engine revalidates its
// cached decode after any such store, so code that rewrites the block
// currently executing is picked up exactly as the stepping engine would.
func WritesMem(op Op) bool { return writesMem[op] }

// IsIndirectBranch reports whether op is a forward-edge indirect transfer
// (CALLR/JMPR): the control edges a label-table CFI restricts to function
// entries (coarse) or per-callsite target sets (fine). RET is deliberately
// excluded — it is the backward edge, policed against return sites or a
// shadow stack.
func IsIndirectBranch(op Op) bool {
	return op == CALLR || op == JMPR
}

// ImmHoldsAddress reports whether op's encoding carries a 32-bit immediate
// that can denote an absolute code address (MOVI/PUSHI and the reg-imm ALU
// forms — the encodings minc and the assembler emit for "address of
// function" material). Rel32 branch displacements are excluded: they are
// offsets, not addresses. The CFI address-taken scrape consults this to
// harvest function-pointer constants out of loaded text.
func ImmHoldsAddress(op Op) bool {
	switch FormatOf(op) {
	case FI32, FRI:
		return true
	case FPacked:
		return op == MOVI
	}
	return false
}

func signed(v uint32) int32 { return int32(v) }

// String renders the instruction in assembly syntax understood by
// internal/asm, with PC-relative targets shown as signed offsets.
func (in Instr) String() string {
	switch FormatOf(in.Op) {
	case FNone:
		return in.Op.String()
	case FPacked:
		if in.Op == MOVI {
			return fmt.Sprintf("mov %s, 0x%x", in.Rd, in.Imm)
		}
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	case FRR:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
	case FR:
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	case FMem:
		d := signed(in.Imm)
		switch in.Op {
		case STOREW, STOREB:
			return fmt.Sprintf("%s [%s%+#x], %s", in.Op, in.Rd, d, in.Rs)
		default:
			return fmt.Sprintf("%s %s, [%s%+#x]", in.Op, in.Rd, in.Rs, d)
		}
	case FRI:
		return fmt.Sprintf("%s %s, 0x%x", in.Op, in.Rd, in.Imm)
	case FI32:
		return fmt.Sprintf("%s 0x%x", in.Op, in.Imm)
	case FRel32:
		return fmt.Sprintf("%s %+d", in.Op, signed(in.Imm))
	case FI8:
		return fmt.Sprintf("%s 0x%x", in.Op, in.Imm)
	}
	return "???"
}

// StringAt renders the instruction as it would appear disassembled at
// address pc, resolving PC-relative targets to absolute addresses.
func (in Instr) StringAt(pc uint32) string {
	if FormatOf(in.Op) == FRel32 {
		target := pc + uint32(in.Size) + in.Imm
		return fmt.Sprintf("%s 0x%08x", in.Op, target)
	}
	return in.String()
}
