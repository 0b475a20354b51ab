// Command minc is the MinC compiler driver: it compiles a MinC source file
// to SM32 assembly, or compiles+links+runs it on the simulated platform
// with selectable countermeasures.
//
// Usage:
//
//	minc -S file.c                 # emit assembly
//	minc -run [-canary] [-bounds] [-dep] [-aslr -seed N] [-in "text"] file.c
//	minc -analyze [-paranoid] file.c
//
// Exit status: 2 on bad input (usage, an unreadable file, a source that
// does not compile, link or load), 1 when -analyze reports findings, 128
// when a -run guest stops without exiting, 0 otherwise. A -run guest's
// own exit code is not the status, so it cannot pose as bad input; the
// "[exit N, M instructions]" line on stderr reports it.
package main

import (
	"flag"
	"fmt"
	"os"

	"softsec/internal/cpu"
	"softsec/internal/harness/cli"
	"softsec/internal/kernel"
	"softsec/internal/minc"
	"softsec/internal/minc/analysis"
)

func main() {
	var (
		emitAsm  = flag.Bool("S", false, "emit SM32 assembly and exit")
		run      = flag.Bool("run", false, "compile, link against libc, load and run")
		doAna    = flag.Bool("analyze", false, "run the static analyzer")
		paranoid = flag.Bool("paranoid", false, "paranoid analysis mode")
		canary   = flag.Bool("canary", false, "compile with stack canaries")
		bounds   = flag.Bool("bounds", false, "compile the checked dialect (+ fortified libc)")
		dep      = flag.Bool("dep", true, "load with Data Execution Prevention")
		aslr     = flag.Bool("aslr", false, "load with ASLR")
		seed     = flag.Int64("seed", 1, "ASLR seed")
		input    = flag.String("in", "", "bytes fed to the program's first read()")
		trace    = flag.Bool("trace", false, "trace syscalls")
	)
	cli.Parse(flag.CommandLine, os.Args[1:])
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minc [flags] file.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *doAna {
		findings, err := analysis.Analyze(flag.Arg(0), string(src), analysis.Options{Paranoid: *paranoid})
		if err != nil {
			fatal(err)
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}

	opt := minc.Options{Canary: *canary, BoundsCheck: *bounds}
	if *emitAsm {
		text, err := minc.CompileToAsm(flag.Arg(0), string(src), opt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		return
	}
	if !*run {
		if _, err := minc.Compile(flag.Arg(0), string(src), opt); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
		return
	}

	img, err := minc.Compile("prog", string(src), opt)
	if err != nil {
		fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		fatal(err)
	}
	cfg := kernel.Config{
		DEP: *dep, ASLR: *aslr, ASLRSeed: *seed,
		CheckedLibc: *bounds, TraceSyscalls: *trace,
	}
	if *input != "" {
		in := kernel.ScriptInput{[]byte(*input)}
		cfg.Input = &in
	}
	p, err := kernel.Load(ld, cfg)
	if err != nil {
		fatal(err)
	}
	st := p.Run()
	os.Stdout.Write(p.Output.Bytes())
	if *trace {
		for _, l := range p.SyscallLog {
			fmt.Fprintln(os.Stderr, "syscall:", l)
		}
	}
	switch st {
	case cpu.Exited:
		fmt.Fprintf(os.Stderr, "\n[exit %d, %d instructions]\n", p.CPU.ExitCode(), p.CPU.Steps)
	default:
		fmt.Fprintf(os.Stderr, "\n[%v: %v]\n", st, p.CPU.Fault())
		os.Exit(128)
	}
}

// fatal reports bad input in one line and exits 2, so that a script can
// tell it from -analyze's findings (exit 1).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minc:", err)
	os.Exit(2)
}
