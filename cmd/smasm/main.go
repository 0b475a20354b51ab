// Command smasm is the SM32 assembler and disassembler driver.
//
// Usage:
//
//	smasm file.s              # assemble; print section sizes and symbols
//	smasm -d file.s           # assemble then disassemble the text section
//	smasm -gadgets file.s     # mine ROP gadgets from the text section
//
// Exit status: 2 on bad input (usage, an unreadable file, a source that
// does not assemble), 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"softsec/internal/asm"
	"softsec/internal/attack"
	"softsec/internal/harness/cli"
	"softsec/internal/isa"
)

func main() {
	var (
		disasm  = flag.Bool("d", false, "disassemble the assembled text")
		gadgets = flag.Bool("gadgets", false, "mine RET-terminated gadgets")
	)
	cli.Parse(flag.CommandLine, os.Args[1:])
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: smasm [-d] [-gadgets] file.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := asm.Assemble(flag.Arg(0), string(src))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("text: %d bytes, data: %d bytes, %d symbols, %d relocations\n",
		len(img.Text), len(img.Data), len(img.Symbols), len(img.Relocs))
	var names []string
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := img.Symbols[n]
		vis := "local "
		if s.Global {
			vis = "global"
		}
		fmt.Printf("  %s %s+0x%04x  %s\n", vis, s.Section, s.Off, n)
	}
	if *disasm {
		fmt.Println()
		fmt.Print(isa.Listing(isa.Disassemble(img.Text, 0)))
	}
	if *gadgets {
		fmt.Println()
		for _, g := range attack.FindGadgets(img.Text, 0, 5) {
			fmt.Println(g)
		}
	}
}

// fatal reports bad input in one line and exits 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smasm:", err)
	os.Exit(2)
}
