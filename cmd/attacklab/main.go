// Command attacklab regenerates the reproduction's headline tables:
//
//	attacklab                       # T1: attack x countermeasure matrix
//	attacklab -machine              # T3: isolation x machine-code attacker
//	attacklab -list                 # list the attack catalog
//	attacklab -scenarios            # list every registered harness scenario
//
// With -trials > 1 the matrices become Monte-Carlo sweeps: every cell
// runs that many independent trials across a -jobs wide worker pool,
// re-randomizing ASLR layouts and canary values per trial, and the
// output is a success-rate table (or a JSON report with -json). Results
// are independent of -jobs. The sweep flags — including the telemetry
// flags -metrics/-guestprof/-evtrace/-enginestats — are shared with
// cmd/secsim through internal/harness/cli; giving any telemetry flag
// runs the default group as a sweep so there is something to collect.
//
//	attacklab -trials 256 -jobs 8
//	attacklab -group mc-aslr -trials 1000 -json
//	attacklab -group cfi -trials 8 -metrics cfi.json -enginestats
//
// The fuzz group runs coverage-guided fuzzing campaigns (internal/fuzz)
// instead of replaying hand-written exploits: each trial is a complete
// deterministic campaign, and the cells measure discovery cost per
// mitigation stack.
//
//	attacklab -group fuzz -scenarios     # list the campaign cells
//	attacklab -group fuzz -trials 4 -jobs 2
//
// The cfi group is the control-flow-integrity precision grid
// (internal/cfi): every hijack attack against no CFI, coarse label
// tables, fine address-taken target sets, and fine plus the hardware
// shadow stack — the coarse-vs-fine bypass story as measured cells.
//
//	attacklab -group cfi -trials 8 -jobs 2
package main

import (
	"flag"
	"fmt"
	"os"

	"softsec/internal/core"
	"softsec/internal/harness"
	"softsec/internal/harness/cli"
)

func main() {
	var (
		machine = flag.Bool("machine", false, "run the machine-code attacker (T3) matrix")
		list    = flag.Bool("list", false, "list the attack catalog")
		sweep   cli.Sweep
	)
	sweep.Register(flag.CommandLine, 0)
	flag.Parse()
	if err := sweep.ApplyEngine(); err != nil {
		fmt.Fprintln(os.Stderr, "attacklab:", err)
		os.Exit(2)
	}
	if _, err := sweep.LayoutProfile(); err != nil {
		fmt.Fprintln(os.Stderr, "attacklab:", err)
		os.Exit(2)
	}
	if err := sweep.CheckRunLog(); err != nil {
		fmt.Fprintln(os.Stderr, "attacklab:", err)
		os.Exit(2)
	}

	if *list {
		for _, a := range core.Attacks() {
			fmt.Printf("%-24s %s\n", a.Name, a.Technique)
		}
		return
	}

	reg := harness.NewRegistry()
	if err := core.RegisterScenariosFor(reg, sweep.Profile); err != nil {
		fmt.Fprintln(os.Stderr, "attacklab:", err)
		os.Exit(1)
	}
	if sweep.List {
		if err := sweep.PrintScenarios(os.Stdout, reg); err != nil {
			fmt.Fprintln(os.Stderr, "attacklab:", err)
			os.Exit(2)
		}
		return
	}

	// Sweep mode: run registered scenarios through the trial engine.
	// Telemetry flags imply it — collection is per-trial, so the legacy
	// whole-matrix mode below has nothing to attach instruments to.
	if sweep.Trials > 1 || sweep.JSON || sweep.Group != "" || sweep.TelemetrySpec() != nil {
		if sweep.Group == "" {
			sweep.Group = "t1"
			if *machine {
				sweep.Group = "t3"
			}
		}
		scs, err := cli.Select(reg, sweep.Group)
		if err != nil {
			fmt.Fprintln(os.Stderr, "attacklab:", err)
			os.Exit(2)
		}
		if !sweep.JSON {
			fmt.Printf("%s — %d trials/cell (base seed %d)\n\n", sweep.Group, sweep.Trials, sweep.Seed)
		}
		if _, err := sweep.Run(os.Stdout, scs); err != nil {
			fmt.Fprintln(os.Stderr, "attacklab:", err)
			os.Exit(1)
		}
		return
	}

	if *machine {
		rows, err := core.RunIsolationMatrixJobs(sweep.Jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "attacklab:", err)
			os.Exit(1)
		}
		fmt.Println("T3 — isolation mechanisms vs the machine-code attacker (Section IV-A)")
		fmt.Println()
		fmt.Print(core.RenderIsolation(rows))
		return
	}
	fmt.Println("T1 — attack techniques vs deployed countermeasures (Sections III-B, III-C)")
	fmt.Println()
	cfgs := core.StandardConfigs()
	for i := range cfgs {
		cfgs[i].Profile = sweep.Profile
	}
	m := core.RunMatrixJobs(core.Attacks(), cfgs, sweep.Jobs)
	fmt.Print(m.Render())
}
