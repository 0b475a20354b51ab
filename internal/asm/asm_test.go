package asm

import (
	"strings"
	"testing"

	"softsec/internal/isa"
)

func TestAssembleBasicText(t *testing.T) {
	img, err := Assemble("t.s", `
		.text
		.global start
	start:
		push ebp
		mov ebp, esp
		sub esp, 0x18
		mov eax, 42
		leave
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	lines := isa.Disassemble(img.Text, 0)
	var ops []isa.Op
	for _, l := range lines {
		if l.Bad {
			t.Fatalf("bad bytes at +0x%x", l.Addr)
		}
		ops = append(ops, l.Instr.Op)
	}
	want := []isa.Op{isa.PUSH, isa.MOV, isa.SUBI, isa.MOVI, isa.LEAVE, isa.RET}
	if len(ops) != len(want) {
		t.Fatalf("ops %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d: got %v want %v", i, ops[i], want[i])
		}
	}
	s := img.Symbols["start"]
	if s == nil || !s.Global || s.Section != SecText || s.Off != 0 {
		t.Fatalf("symbol start: %+v", s)
	}
}

func TestLocalBranchResolution(t *testing.T) {
	img, err := Assemble("t.s", `
	loop:
		sub eax, 1
		cmp eax, 0
		jnz loop
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	lines := isa.Disassemble(img.Text, 0)
	jnz := lines[2].Instr
	if jnz.Op != isa.JNZ {
		t.Fatalf("line 2 is %v", jnz.Op)
	}
	// jnz is at offset 12, size 5; target 0 → rel = -17.
	if int32(jnz.Imm) != -17 {
		t.Fatalf("rel = %d, want -17", int32(jnz.Imm))
	}
	if len(img.Relocs) != 0 {
		t.Fatalf("local branch produced relocs: %v", img.Relocs)
	}
}

func TestForwardBranch(t *testing.T) {
	img, err := Assemble("t.s", `
		jmp done
		nop
		nop
	done:
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(img.Text, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int32(in.Imm) != 2 { // skip two nops
		t.Fatalf("rel = %d, want 2", int32(in.Imm))
	}
}

func TestExternalCallReloc(t *testing.T) {
	img, err := Assemble("t.s", `
		call read
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Relocs) != 1 {
		t.Fatalf("relocs: %v", img.Relocs)
	}
	r := img.Relocs[0]
	if r.Kind != RelPC32 || r.Symbol != "read" || r.Off != 1 || r.InstrEnd != 5 {
		t.Fatalf("reloc: %+v", r)
	}
}

func TestDataDirectivesAndSymbolImm(t *testing.T) {
	img, err := Assemble("t.s", `
		.data
		.global secret
	secret:
		.word 666
	msg:
		.asciz "hi"
		.align 4
	arr:
		.space 8
		.byte 1, 2, 'A'

		.text
	get:
		mov eax, secret
		loadw eax, [eax+0]
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(img.Data); got != 4+3+1+8+3 {
		t.Fatalf("data len %d", got)
	}
	if img.Data[0] != 0x9a || img.Data[1] != 0x02 {
		t.Fatalf("word value: % x", img.Data[:4])
	}
	if string(img.Data[4:6]) != "hi" || img.Data[6] != 0 {
		t.Fatalf("asciz: % x", img.Data[4:8])
	}
	if img.Data[16] != 1 || img.Data[18] != 'A' {
		t.Fatalf("bytes: % x", img.Data[16:19])
	}
	if s := img.Symbols["arr"]; s == nil || s.Off != 8 {
		t.Fatalf("align/arr symbol: %+v", img.Symbols["arr"])
	}
	// mov eax, secret must carry an absolute reloc at text offset 1.
	found := false
	for _, r := range img.Relocs {
		if r.Symbol == "secret" && r.Kind == RelAbs32 && r.Section == SecText && r.Off == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing abs reloc: %v", img.Relocs)
	}
}

func TestWordWithSymbol(t *testing.T) {
	img, err := Assemble("t.s", `
		.data
	table:
		.word fn, 0
		.text
	fn:
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Relocs) != 1 {
		t.Fatalf("relocs: %v", img.Relocs)
	}
	r := img.Relocs[0]
	if r.Section != SecData || r.Off != 0 || r.Symbol != "fn" || r.Kind != RelAbs32 {
		t.Fatalf("reloc: %+v", r)
	}
}

func TestMemoryOperands(t *testing.T) {
	img, err := Assemble("t.s", `
		loadw eax, [ebp-0x10]
		storew [esp+4], eax
		loadb ecx, [esi]
		lea edx, [ebp-8]
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	lines := isa.Disassemble(img.Text, 0)
	l0 := lines[0].Instr
	if l0.Op != isa.LOADW || l0.Rd != isa.EAX || l0.Rs != isa.EBP || int32(l0.Imm) != -0x10 {
		t.Fatalf("loadw: %+v", l0)
	}
	l1 := lines[1].Instr
	if l1.Op != isa.STOREW || l1.Rd != isa.ESP || l1.Rs != isa.EAX || l1.Imm != 4 {
		t.Fatalf("storew: %+v", l1)
	}
	if lines[2].Instr.Imm != 0 {
		t.Fatalf("bare [esi] disp: %+v", lines[2].Instr)
	}
}

func TestIndirectCallAndJump(t *testing.T) {
	img, err := Assemble("t.s", `
		call eax
		jmp ebx
	`)
	if err != nil {
		t.Fatal(err)
	}
	lines := isa.Disassemble(img.Text, 0)
	if lines[0].Instr.Op != isa.CALLR || lines[1].Instr.Op != isa.JMPR {
		t.Fatalf("%v %v", lines[0].Instr, lines[1].Instr)
	}
}

func TestEntryDirective(t *testing.T) {
	img, err := Assemble("t.s", `
		.entry get_secret
	get_secret:
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Entries) != 1 || img.Entries[0] != "get_secret" {
		t.Fatalf("entries: %v", img.Entries)
	}
	if !img.Symbols["get_secret"].Global {
		t.Fatal("entry not exported")
	}
}

func TestNegativeAndCharImmediates(t *testing.T) {
	img, err := Assemble("t.s", `
		mov eax, -24
		mov ebx, 'Z'
		add esp, -4
	`)
	if err != nil {
		t.Fatal(err)
	}
	lines := isa.Disassemble(img.Text, 0)
	if int32(lines[0].Instr.Imm) != -24 {
		t.Fatalf("neg imm: %+v", lines[0].Instr)
	}
	if lines[1].Instr.Imm != 'Z' {
		t.Fatalf("char imm: %+v", lines[1].Instr)
	}
	if int32(lines[2].Instr.Imm) != -4 {
		t.Fatalf("add neg: %+v", lines[2].Instr)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"dup label", "x:\nx:\n", "duplicate label"},
		{"bad directive", ".frob 1", "unknown directive"},
		{"bad mnemonic", "fnord eax", "no instruction"},
		{"bad shape", "mov 1, eax", "no instruction"},
		{"bad reg", "mov rax, 1", "no instruction"},
		{"missing global", ".global nope\nret", "no such label"},
		{"bad mem", "loadw eax, [xyz+4]", "bad memory base"},
		{"sym int", "int foo", "cannot be a symbol"},
		{"bad align", ".align 3", "power of two"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble("t.s", tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
}

func TestCommentsAndLabelsOnSameLine(t *testing.T) {
	img, err := Assemble("t.s", `
	start: mov eax, 1   ; set result
		ret             # done
		nop             // trailing
	`)
	if err != nil {
		t.Fatal(err)
	}
	if img.Symbols["start"] == nil || img.Symbols["start"].Off != 0 {
		t.Fatal("label on instruction line not registered")
	}
	if len(isa.Disassemble(img.Text, 0)) != 3 {
		t.Fatalf("text: % x", img.Text)
	}
}

func TestPushSymbol(t *testing.T) {
	img, err := Assemble("t.s", `
		.data
	greet:
		.asciz "yo"
		.text
		push greet
		ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range img.Relocs {
		if r.Symbol == "greet" && r.Kind == RelAbs32 && r.Section == SecText && r.Off == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("push symbol reloc missing: %v", img.Relocs)
	}
}

func TestLabelAtSectionEnd(t *testing.T) {
	img, err := Assemble("t.s", `
		.text
		nop
	end:
	`)
	if err != nil {
		t.Fatal(err)
	}
	if s := img.Symbols["end"]; s == nil || s.Off != 1 {
		t.Fatalf("end symbol: %+v", img.Symbols["end"])
	}
}
