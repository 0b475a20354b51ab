package isa

import "testing"

// opMeta is one row of the exhaustive per-opcode metadata table: the
// expected value of every classification predicate the execution tiers
// consume. TestOpMetadataExhaustive checks each row against the live
// tables AND that the table covers every opcode — adding an instruction
// without deciding its block metadata fails the test by construction.
type opMeta struct {
	endsBlock      bool // terminates straight-line decoding
	writesMem      bool // sequential-path data store (SMC revalidation)
	indirectBranch bool // forward-edge indirect transfer (CFI)
}

var opMetaTable = map[Op]opMeta{
	NOP:    {},
	HLT:    {endsBlock: true},
	RET:    {endsBlock: true},
	LEAVE:  {},
	TRAP:   {endsBlock: true},
	PUSH:   {writesMem: true},
	POP:    {},
	PUSHI:  {writesMem: true},
	MOVI:   {},
	MOV:    {},
	ADD:    {},
	SUB:    {},
	AND:    {},
	OR:     {},
	XOR:    {},
	CMP:    {},
	TEST:   {},
	IMUL:   {},
	IDIV:   {},
	IMOD:   {},
	SHL:    {},
	SHR:    {},
	SAR:    {},
	NEG:    {},
	NOT:    {},
	CALLR:  {endsBlock: true, indirectBranch: true},
	JMPR:   {endsBlock: true, indirectBranch: true},
	LOADW:  {},
	STOREW: {writesMem: true},
	LOADB:  {},
	STOREB: {writesMem: true},
	LEA:    {},
	ADDI:   {},
	SUBI:   {},
	ANDI:   {},
	ORI:    {},
	XORI:   {},
	CMPI:   {},
	CALL:   {endsBlock: true},
	JMP:    {endsBlock: true},
	JZ:     {endsBlock: true},
	JNZ:    {endsBlock: true},
	JL:     {endsBlock: true},
	JG:     {endsBlock: true},
	JLE:    {endsBlock: true},
	JGE:    {endsBlock: true},
	JB:     {endsBlock: true},
	JA:     {endsBlock: true},
	JAE:    {endsBlock: true},
	JBE:    {endsBlock: true},
	INT:    {endsBlock: true},
}

// TestOpMetadataExhaustive cross-checks every opcode's expected
// classification against the live metadata tables, and fails if any
// opcode is missing a row (or a row names a dead opcode).
func TestOpMetadataExhaustive(t *testing.T) {
	if got, want := len(opMetaTable), int(numOps); got != want {
		t.Errorf("metadata table has %d rows, ISA has %d opcodes", got, want)
	}
	for op := Op(0); op < numOps; op++ {
		want, ok := opMetaTable[op]
		if !ok {
			t.Errorf("%v (op %d): no metadata row — classify the new opcode", op, uint8(op))
			continue
		}
		if got := EndsBlock(op); got != want.endsBlock {
			t.Errorf("EndsBlock(%v) = %v, want %v", op, got, want.endsBlock)
		}
		if got := WritesMem(op); got != want.writesMem {
			t.Errorf("WritesMem(%v) = %v, want %v", op, got, want.writesMem)
		}
		if got := IsIndirectBranch(op); got != want.indirectBranch {
			t.Errorf("IsIndirectBranch(%v) = %v, want %v", op, got, want.indirectBranch)
		}
	}
}

// TestOpMetadataInvariants pins the cross-predicate implications the
// execution tiers rely on, independent of the per-op table above.
func TestOpMetadataInvariants(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		// Control transfers and machine stops all terminate blocks.
		if IsControlFlow(op) && !EndsBlock(op) {
			t.Errorf("%v is control flow but does not end a block", op)
		}
		if IsIndirectBranch(op) && !EndsBlock(op) {
			t.Errorf("%v is an indirect branch but does not end a block", op)
		}
	}
}
