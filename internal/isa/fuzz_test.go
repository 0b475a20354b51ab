package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodeNeverPanics feeds the decoder random byte windows; it must
// either decode or return an error, never panic, and any decoded size must
// cover actual bytes. (Attackers point the instruction pointer at
// arbitrary data; the simulator must stay well-defined.)
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(raw []byte) bool {
		in, err := Decode(raw, 0)
		if err != nil {
			return true
		}
		return in.Size >= 1 && in.Size <= len(raw) && in.Size <= 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestDisassembleTotal: disassembly of arbitrary bytes covers every byte
// exactly once (progress + partition) — the property the gadget finder and
// the SFI verifier rely on.
func TestDisassembleTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(raw []byte) bool {
		lines := Disassemble(raw, 0x1000)
		covered := 0
		expect := uint32(0x1000)
		for _, l := range lines {
			if l.Addr != expect {
				return false
			}
			covered += len(l.Bytes)
			expect += uint32(len(l.Bytes))
		}
		return covered == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestLenFromOpcodeConsistent: LenFromOpcode must agree with Decode for
// every first byte (the CPU fetch path depends on this agreement).
func TestLenFromOpcodeConsistent(t *testing.T) {
	buf := make([]byte, 6)
	for b := 0; b < 256; b++ {
		buf[0] = byte(b)
		n, ok := LenFromOpcode(byte(b))
		in, err := Decode(buf, 0)
		switch {
		case !ok && err == nil:
			t.Errorf("opcode 0x%02x: LenFromOpcode rejects, Decode accepts", b)
		case ok && err != nil:
			// Decode may still reject for bad register nibbles; retry
			// with a benign operand byte.
			buf[1] = 0x10
			if _, err2 := Decode(buf, 0); err2 != nil {
				t.Errorf("opcode 0x%02x: LenFromOpcode accepts (%d), Decode rejects (%v)", b, n, err2)
			}
			buf[1] = 0
		case ok && err == nil && in.Size != n:
			t.Errorf("opcode 0x%02x: LenFromOpcode says %d, Decode says %d", b, n, in.Size)
		}
	}
}

// FuzzDecodeRoundTrip disassembles arbitrary bytes and requires every
// decoded instruction to encode back to its own length and decode to an
// equal Instr, so one instruction has exactly one Instr value. Neither
// Disassemble nor Listing may panic.
func FuzzDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{0xFF, 0x31}) // call ebx with a nonzero unused nibble
	f.Fuzz(func(t *testing.T, code []byte) {
		lines := Disassemble(code, 0x1000)
		_ = Listing(lines)
		for _, l := range lines {
			if l.Bad {
				continue
			}
			enc, err := Encode(nil, l.Instr)
			if err != nil {
				t.Fatalf("% x decodes to %#v, which does not encode: %v", l.Bytes, l.Instr, err)
			}
			if len(enc) != len(l.Bytes) {
				t.Fatalf("% x decodes to %#v, which encodes to % x", l.Bytes, l.Instr, enc)
			}
			if again, err := Decode(enc, 0); err != nil || again != l.Instr {
				t.Fatalf("% x decodes to %#v; its encoding % x decodes to %#v (err %v)", l.Bytes, l.Instr, enc, again, err)
			}
		}
	})
}
