package isa

import "testing"

// TestEndsBlockMatchesControlFlow pins the relationship between the two
// classifications: every control-flow op ends a block, and the only
// non-control-flow terminators are the machine-stopping/trap ops.
func TestEndsBlockMatchesControlFlow(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		cf := IsControlFlow(op)
		eb := EndsBlock(op)
		switch op {
		case HLT, TRAP, INT:
			if !eb {
				t.Errorf("%v must end a block", op)
			}
		default:
			if cf != eb {
				t.Errorf("%v: IsControlFlow=%v but EndsBlock=%v", op, cf, eb)
			}
		}
	}
}

// TestWritesMem pins exactly which ops the block engine treats as
// sequential-path stores (the set that triggers mid-block
// self-modification revalidation).
func TestWritesMem(t *testing.T) {
	want := map[Op]bool{PUSH: true, PUSHI: true, STOREW: true, STOREB: true}
	for op := Op(0); op < numOps; op++ {
		if WritesMem(op) != want[op] {
			t.Errorf("WritesMem(%v) = %v, want %v", op, WritesMem(op), want[op])
		}
	}
}
