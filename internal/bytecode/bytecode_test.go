package bytecode

import (
	"errors"
	"strings"
	"testing"
)

// vaultModule is the paper's Figure 2 secret module as bytecode: private
// fields, one public method.
func vaultModule() *Module {
	return &Module{
		Name: "vault",
		Fields: map[string]uint32{
			"tries_left": 3,
			"PIN":        1234,
			"secret":     666,
		},
		Methods: map[string]*Method{
			"get_secret": {
				Name: "get_secret", Public: true, NArgs: 1,
				Code: []Instr{
					// if tries_left <= 0 return 0
					{Op: GetField, Name: "tries_left"}, // [tries]
					{Op: Push, A: 0},                   // [tries, 0]
					{Op: CmpLt, A: 0},                  // [tries<0]... use !=
					{Op: Jz, A: 5},                     // not negative: continue
					{Op: Jmp, A: 22},                   // locked
					// 5: if tries_left == 0 -> locked
					{Op: GetField, Name: "tries_left"},
					{Op: Push, A: 0},
					{Op: CmpEq},
					{Op: Jz, A: 10},
					{Op: Jmp, A: 22}, // locked
					// 10: if PIN == arg
					{Op: GetField, Name: "PIN"},
					{Op: LoadLocal, A: 0},
					{Op: CmpEq},
					{Op: Jz, A: 18},
					// correct: reset tries, return secret
					{Op: Push, A: 3},
					{Op: PutField, Name: "tries_left"},
					{Op: GetField, Name: "secret"},
					{Op: Ret},
					// 18: wrong: tries_left--; return 0
					{Op: GetField, Name: "tries_left"},
					{Op: Push, A: 1},
					{Op: Sub},
					{Op: PutField, Name: "tries_left"},
					// 22: locked / fallthrough
					{Op: Push, A: 0},
					{Op: Ret},
				},
			},
			"internal_reset": {
				Name: "internal_reset", Public: false, NArgs: 0,
				Code: []Instr{
					{Op: Push, A: 3},
					{Op: PutField, Name: "tries_left"},
					{Op: RetVoid},
				},
			},
		},
	}
}

func TestVaultBehaviour(t *testing.T) {
	vm := NewVM(vaultModule())
	got, err := vm.Invoke("vault", "get_secret", 1234)
	if err != nil {
		t.Fatal(err)
	}
	if got != 666 {
		t.Fatalf("correct PIN returned %d", got)
	}
	for i := 0; i < 3; i++ {
		if v, err := vm.Invoke("vault", "get_secret", 1111); err != nil || v != 0 {
			t.Fatalf("wrong PIN: %d %v", v, err)
		}
	}
	// Locked out now, even with the right PIN.
	if v, _ := vm.Invoke("vault", "get_secret", 1234); v != 0 {
		t.Fatalf("lockout broken: %d", v)
	}
	if tries := vm.FieldStore[vm.fieldIdx["vault"]["tries_left"]]; tries != 0 {
		t.Fatalf("tries_left %d", tries)
	}
}

// attackerModule tries the in-VM equivalents of memory scraping.
func attackerModule() *Module {
	return &Module{
		Name:   "attacker",
		Fields: map[string]uint32{"loot": 0},
		Methods: map[string]*Method{
			"steal_field": {
				Name: "steal_field", Public: true, NArgs: 0,
				Code: []Instr{
					{Op: GetForeign, Mod: "vault", Name: "secret"},
					{Op: Ret},
				},
			},
			"call_private": {
				Name: "call_private", Public: true, NArgs: 0,
				Code: []Instr{
					{Op: Call, Mod: "vault", Name: "internal_reset"},
					{Op: Ret},
				},
			},
			"brute": {
				Name: "brute", Public: true, NArgs: 1,
				Code: []Instr{
					{Op: LoadLocal, A: 0},
					{Op: Call, Mod: "vault", Name: "get_secret"},
					{Op: Ret},
				},
			},
		},
	}
}

func TestVMBlocksForeignFieldAccess(t *testing.T) {
	vm := NewVM(vaultModule(), attackerModule())
	_, err := vm.Invoke("attacker", "steal_field")
	var ve *VMError
	if !errors.As(err, &ve) {
		t.Fatalf("err %v", err)
	}
	if !strings.Contains(ve.Msg, "private field") {
		t.Fatalf("msg %q", ve.Msg)
	}
}

func TestVMBlocksPrivateMethodCall(t *testing.T) {
	vm := NewVM(vaultModule(), attackerModule())
	_, err := vm.Invoke("attacker", "call_private")
	var ve *VMError
	if !errors.As(err, &ve) || !strings.Contains(ve.Msg, "private method") {
		t.Fatalf("err %v", err)
	}
	// And the lockout counter is intact.
	if tries := vm.FieldStore[vm.fieldIdx["vault"]["tries_left"]]; tries != 3 {
		t.Fatalf("tries %d", tries)
	}
}

func TestVMAllowsPublicInterface(t *testing.T) {
	// The attacker may use the public interface like anyone else — and
	// the source-level defence (lockout) holds.
	vm := NewVM(vaultModule(), attackerModule())
	for pin := uint32(1); pin <= 5; pin++ {
		v, err := vm.Invoke("attacker", "brute", pin)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Fatalf("brute force got %d", v)
		}
	}
	if tries := vm.FieldStore[vm.fieldIdx["vault"]["tries_left"]]; tries != 0 {
		t.Fatalf("tries %d", tries)
	}
}

// TestKernelAttackerBypassesVM is the paper's caveat: malware one layer
// below the VM reads the secret out of the field store directly.
func TestKernelAttackerBypassesVM(t *testing.T) {
	vm := NewVM(vaultModule(), attackerModule())
	if n := vm.Scrape(666); n == 0 {
		t.Fatal("kernel-level scrape should find the secret below the VM")
	}
	if n := vm.Scrape(1234); n == 0 {
		t.Fatal("kernel-level scrape should find the PIN below the VM")
	}
}

func TestVMErrors(t *testing.T) {
	vm := NewVM(vaultModule())
	if _, err := vm.Invoke("nope", "x"); err == nil {
		t.Error("missing module accepted")
	}
	if _, err := vm.Invoke("vault", "nope"); err == nil {
		t.Error("missing method accepted")
	}
	if _, err := vm.Invoke("vault", "internal_reset"); err == nil {
		t.Error("external call of private method accepted")
	}
	if _, err := vm.Invoke("vault", "get_secret"); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestStackDisciplineErrors(t *testing.T) {
	bad := &Module{
		Name:   "bad",
		Fields: map[string]uint32{},
		Methods: map[string]*Method{
			"underflow": {Name: "underflow", Public: true,
				Code: []Instr{{Op: Add}}},
			"badlocal": {Name: "badlocal", Public: true,
				Code: []Instr{{Op: LoadLocal, A: 5}, {Op: Ret}}},
			"recurse": {Name: "recurse", Public: true,
				Code: []Instr{{Op: Call, Mod: "bad", Name: "recurse"}, {Op: Ret}}},
		},
	}
	vm := NewVM(bad)
	if _, err := vm.Invoke("bad", "underflow"); err == nil {
		t.Error("stack underflow accepted")
	}
	if _, err := vm.Invoke("bad", "badlocal"); err == nil {
		t.Error("bad local accepted")
	}
	if _, err := vm.Invoke("bad", "recurse"); err == nil {
		t.Error("unbounded recursion accepted")
	}
}

// sumLoop builds the arithmetic kernel used by the overhead benchmarks:
// sum of 0..n-1 computed in bytecode.
func sumLoop() *Module {
	return &Module{
		Name:   "kernels",
		Fields: map[string]uint32{},
		Methods: map[string]*Method{
			"sum": {
				Name: "sum", Public: true, NArgs: 1, NLoc: 2,
				// locals: 0=n, 1=i, 2=acc
				Code: []Instr{
					// 0: while i < n
					{Op: LoadLocal, A: 1},
					{Op: LoadLocal, A: 0},
					{Op: CmpLt},
					{Op: Jz, A: 13},
					// acc += i
					{Op: LoadLocal, A: 2},
					{Op: LoadLocal, A: 1},
					{Op: Add},
					{Op: StoreLocal, A: 2},
					// i++
					{Op: LoadLocal, A: 1},
					{Op: Push, A: 1},
					{Op: Add},
					{Op: StoreLocal, A: 1},
					{Op: Jmp, A: 0},
					// 13:
					{Op: LoadLocal, A: 2},
					{Op: Ret},
				},
			},
		},
	}
}

func TestSumKernel(t *testing.T) {
	vm := NewVM(sumLoop())
	got, err := vm.Invoke("kernels", "sum", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4950 {
		t.Fatalf("sum(100) = %d", got)
	}
}
