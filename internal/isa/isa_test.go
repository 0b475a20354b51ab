package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestX86CompatibleOpcodes(t *testing.T) {
	// The opcode values the paper's Figure 1 shows must match: push ebp =
	// 0x55, ret = 0xc3, leave = 0xc9, call rel32 = 0xe8.
	b := MustEncode(nil, Instr{Op: PUSH, Rd: EBP})
	if b[0] != 0x55 {
		t.Errorf("push ebp = 0x%02x, want 0x55", b[0])
	}
	if b := MustEncode(nil, Instr{Op: RET}); b[0] != 0xC3 {
		t.Errorf("ret = 0x%02x, want 0xc3", b[0])
	}
	if b := MustEncode(nil, Instr{Op: LEAVE}); b[0] != 0xC9 {
		t.Errorf("leave = 0x%02x, want 0xc9", b[0])
	}
	if b := MustEncode(nil, Instr{Op: CALL, Imm: 0}); b[0] != 0xE8 {
		t.Errorf("call = 0x%02x, want 0xe8", b[0])
	}
}

func TestEncodeDecodeAllOps(t *testing.T) {
	cases := []Instr{
		{Op: NOP}, {Op: HLT}, {Op: RET}, {Op: LEAVE}, {Op: TRAP},
		{Op: PUSH, Rd: EDI}, {Op: POP, Rd: EAX},
		{Op: PUSHI, Imm: 0xDEADBEEF},
		{Op: MOVI, Rd: ECX, Imm: 0x12345678},
		{Op: MOV, Rd: EAX, Rs: EBX},
		{Op: ADD, Rd: ESI, Rs: EDI},
		{Op: SUB, Rd: ESP, Rs: EAX},
		{Op: AND, Rd: EAX, Rs: ECX}, {Op: OR, Rd: EAX, Rs: ECX},
		{Op: XOR, Rd: EAX, Rs: EAX}, {Op: CMP, Rd: EAX, Rs: EDX},
		{Op: TEST, Rd: EBX, Rs: EBX},
		{Op: IMUL, Rd: EAX, Rs: ECX}, {Op: IDIV, Rd: EAX, Rs: ECX},
		{Op: IMOD, Rd: EAX, Rs: ECX},
		{Op: SHL, Rd: EAX, Rs: ECX}, {Op: SHR, Rd: EAX, Rs: ECX},
		{Op: SAR, Rd: EAX, Rs: ECX},
		{Op: NEG, Rd: EDX}, {Op: NOT, Rd: EDX},
		{Op: CALLR, Rd: EAX}, {Op: JMPR, Rd: ESP},
		{Op: LOADW, Rd: EAX, Rs: EBP, Imm: 0xFFFFFFF0}, // [ebp-0x10]
		{Op: STOREW, Rd: ESP, Rs: EAX, Imm: 4},
		{Op: LOADB, Rd: ECX, Rs: ESI, Imm: 0},
		{Op: STOREB, Rd: EDI, Rs: EDX, Imm: 1},
		{Op: LEA, Rd: EAX, Rs: EBP, Imm: 0xFFFFFFF0},
		{Op: ADDI, Rd: EAX, Imm: 100}, {Op: SUBI, Rd: ESP, Imm: 0x18},
		{Op: ANDI, Rd: EAX, Imm: 0xFF}, {Op: ORI, Rd: EAX, Imm: 1},
		{Op: XORI, Rd: EAX, Imm: ^uint32(0)}, {Op: CMPI, Rd: EAX, Imm: 0},
		{Op: CALL, Imm: 0xFFFFFFE3}, {Op: JMP, Imm: 8},
		{Op: JZ, Imm: 4}, {Op: JNZ, Imm: 4}, {Op: JL, Imm: 4},
		{Op: JG, Imm: 4}, {Op: JLE, Imm: 4}, {Op: JGE, Imm: 4},
		{Op: JB, Imm: 4}, {Op: JA, Imm: 4},
		{Op: INT, Imm: 0x80},
	}
	for _, want := range cases {
		b, err := Encode(nil, want)
		if err != nil {
			t.Fatalf("encode %v: %v", want, err)
		}
		got, err := Decode(b, 0)
		if err != nil {
			t.Fatalf("decode %v (% x): %v", want.Op, b, err)
		}
		want.Size = len(b)
		if want.Op == INT {
			want.Imm &= 0xFF
		}
		if got != want {
			t.Errorf("round trip %v: got %+v want %+v (bytes % x)", want.Op, got, want, b)
		}
		if got.Size != EncodedSize(got.Op) {
			t.Errorf("%v: Size %d != EncodedSize %d", got.Op, got.Size, EncodedSize(got.Op))
		}
	}
}

func TestDecodeInvalid(t *testing.T) {
	if _, err := Decode([]byte{0x00}, 0x1000); err == nil {
		t.Error("opcode 0x00 decoded")
	}
	if _, err := Decode(nil, 0); err == nil {
		t.Error("empty decode succeeded")
	}
	// Truncated MOVI.
	if _, err := Decode([]byte{0xB8, 1, 2}, 0); err == nil {
		t.Error("truncated movi decoded")
	}
	// rr byte with out-of-range register nibble.
	if _, err := Decode([]byte{0x89, 0x9A}, 0); err == nil {
		t.Error("bad register nibble decoded")
	}
}

func TestEncodeRejectsBadRegister(t *testing.T) {
	if _, err := Encode(nil, Instr{Op: MOV, Rd: 12}); err == nil {
		t.Error("bad register accepted")
	}
}

// Property: any random register/imm choice for every op round-trips.
func TestRoundTripProperty(t *testing.T) {
	ops := []Op{
		PUSH, POP, PUSHI, MOVI, MOV, ADD, SUB, AND, OR, XOR, CMP, TEST,
		IMUL, IDIV, IMOD, SHL, SHR, SAR, NEG, NOT, CALLR, JMPR,
		LOADW, STOREW, LOADB, STOREB, LEA,
		ADDI, SUBI, ANDI, ORI, XORI, CMPI,
		CALL, JMP, JZ, JNZ, JL, JG, JLE, JGE, JB, JA, INT,
	}
	rng := rand.New(rand.NewSource(1))
	f := func(opIdx uint8, rd, rs uint8, imm uint32) bool {
		in := Instr{
			Op:  ops[int(opIdx)%len(ops)],
			Rd:  Reg(rd % NumRegs),
			Rs:  Reg(rs % NumRegs),
			Imm: imm,
		}
		// Normalize fields the format does not carry.
		switch FormatOf(in.Op) {
		case FNone:
			in.Rd, in.Rs, in.Imm = 0, 0, 0
		case FPacked:
			in.Rs = 0
			if in.Op != MOVI {
				in.Imm = 0
			}
		case FRR:
			in.Imm = 0
		case FR:
			in.Rs, in.Imm = 0, 0
		case FRI:
			in.Rs = 0
		case FI32, FRel32:
			in.Rd, in.Rs = 0, 0
		case FI8:
			in.Rd, in.Rs = 0, 0
			in.Imm &= 0xFF
		}
		b, err := Encode(nil, in)
		if err != nil {
			return false
		}
		got, err := Decode(b, 0)
		if err != nil {
			return false
		}
		in.Size = len(b)
		return got == in
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembleProgress(t *testing.T) {
	// A mix of valid instructions and junk must always make progress.
	code := MustEncode(nil, Instr{Op: PUSH, Rd: EBP})
	code = MustEncode(code, Instr{Op: MOV, Rd: EBP, Rs: ESP})
	code = append(code, 0x00, 0x02) // junk
	code = MustEncode(code, Instr{Op: RET})
	lines := Disassemble(code, 0x08048000)
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5: %v", len(lines), lines)
	}
	if !lines[2].Bad || !lines[3].Bad {
		t.Error("junk bytes not flagged")
	}
	if lines[4].Instr.Op != RET {
		t.Error("resync after junk failed")
	}
	total := 0
	for _, l := range lines {
		total += len(l.Bytes)
	}
	if total != len(code) {
		t.Errorf("disassembly covered %d of %d bytes", total, len(code))
	}
}

func TestListingFormat(t *testing.T) {
	code := MustEncode(nil, Instr{Op: PUSH, Rd: EBP})
	code = MustEncode(code, Instr{Op: SUBI, Rd: ESP, Imm: 0x18})
	s := Listing(Disassemble(code, 0x080483f2))
	if !strings.Contains(s, "080483f2") {
		t.Errorf("listing missing address:\n%s", s)
	}
	if !strings.Contains(s, "push ebp") {
		t.Errorf("listing missing mnemonic:\n%s", s)
	}
	if !strings.Contains(s, "sub esp, 0x18") {
		t.Errorf("listing missing sub esp:\n%s", s)
	}
}

func TestStringAtResolvesRelative(t *testing.T) {
	// call encoded at 0x080483fe with rel -0x1d lands on 0x080483e6
	// (0x080483fe + 5 - 0x1d).
	neg := int32(-0x1d)
	in := Instr{Op: CALL, Imm: uint32(neg), Size: 5}
	s := in.StringAt(0x080483fe)
	if s != "call 0x080483e6" {
		t.Errorf("got %q", s)
	}
}

func TestVariableLengthProperty(t *testing.T) {
	// SM32 must have instructions of at least 3 distinct lengths — the
	// paper's Fig. 1 notes lengths between 1 and 5 bytes; unaligned
	// re-entry (ROP) depends on this.
	seen := map[int]bool{}
	for op := Op(0); op < numOps; op++ {
		if n := EncodedSize(op); n > 0 {
			seen[n] = true
		}
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct instruction lengths", len(seen))
	}
}

func TestRegByName(t *testing.T) {
	r, ok := RegByName("ebp")
	if !ok || r != EBP {
		t.Fatalf("RegByName(ebp) = %v, %v", r, ok)
	}
	if _, ok := RegByName("rax"); ok {
		t.Fatal("RegByName accepted rax")
	}
}

func TestControlFlowPredicates(t *testing.T) {
	for _, op := range []Op{CALL, CALLR, RET, JMP, JMPR, JZ, JA} {
		if !IsControlFlow(op) {
			t.Errorf("%v not control flow", op)
		}
	}
	for _, op := range []Op{MOV, ADD, LOADW, INT} {
		if IsControlFlow(op) {
			t.Errorf("%v claims control flow", op)
		}
	}
}
