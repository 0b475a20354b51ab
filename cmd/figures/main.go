// Command figures regenerates the paper's Figures 1-4 from the running
// simulator.
//
// Usage:
//
//	figures            # all four figures
//	figures -fig 3     # one figure
package main

import (
	"flag"
	"fmt"
	"os"

	"softsec/internal/figures"
	"softsec/internal/harness/cli"
)

func main() {
	fig := flag.Int("fig", 0, "figure number (1-4); 0 = all")
	cli.Parse(flag.CommandLine, os.Args[1:])

	render := map[int]func() (string, error){
		1: figures.Fig1,
		2: figures.Fig2,
		3: figures.Fig3,
		4: figures.Fig4,
	}
	order := []int{1, 2, 3, 4}
	if *fig != 0 {
		order = []int{*fig}
	}
	for _, n := range order {
		f, ok := render[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: no figure %d\n", n)
			os.Exit(2)
		}
		out, err := f()
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		fmt.Printf("==== Figure %d ====\n\n%s\n", n, out)
	}
}
