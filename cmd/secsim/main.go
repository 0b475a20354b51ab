// Command secsim runs attack scenarios from the catalog under a chosen
// countermeasure configuration and reports classified outcomes.
//
// One trial (the classic mode):
//
//	secsim -attack stack-smash-inject -canary -dep
//	secsim -attack leak-assisted-ret2libc -canary -dep -aslr -seed 7 -v
//	secsim -attack jop-entry-reuse -cfi coarse          # the coarse-CFI bypass
//	secsim -attack jop-entry-reuse -cfi fine -shadowstack
//
// Many trials across a worker pool (the harness mode): each trial derives
// its own deterministic seed from -seed, re-randomizing the ASLR layout
// and canary value when those mitigations are enabled, and the aggregate
// success rate is reported. Results are independent of -jobs. The sweep
// flags (-trials/-jobs/-seed/-json/-scenarios/-group/-profile) are
// shared with cmd/attacklab through internal/harness/cli; -profile
// selects the machine layout profile (internal/layout) the victim
// platform runs — classic, canary-below-vla, or inverted-locals.
// The shared telemetry flags collect per-trial metrics: -stats prints
// every counter and histogram of the merged registry, one line each and
// sorted by name, -metrics writes the same registry as JSON, -guestprof
// writes a deterministic folded-stacks guest profile (and prints the
// hot-cost table; it runs the stepping engine), and -evtrace writes
// engine events as Chrome trace_event JSON. All four work on single
// trials and sweeps:
//
//	secsim -attack rop-chain -dep -guestprof p.txt   # the stepping engine
//	secsim -attack rop-chain -dep -stats             # the trial's counters
//	secsim -attack stack-smash-inject -dep -trials 8 -jobs 2 \
//	    -metrics m.json -guestprof p.txt -evtrace t.json
//
//	secsim -attack stack-smash-inject -aslr -trials 256 -jobs 8
//	secsim -attack rop-chain -canary -dep -trials 1000 -json
//
// Any registered harness scenario — including the fuzz/ campaign cells
// — can be swept directly by name, a whole group at a time, or listed:
//
//	secsim -scenario fuzz/echo/none -trials 4 -jobs 2
//	secsim -scenario mc/aslr/rop-chain -trials 256 -json
//	secsim -group fuzz -trials 2
//	secsim -scenarios
//
// A registered cell bakes in its attack and mitigations, so these modes
// refuse -attack, -v and the mitigation flags with exit 2; -v, which
// prints one trial's victim and output, is refused on sweeps too, and
// -jobs and -progress on a single trial. -scenarios refuses every sweep
// flag but -group, and a group or cell whose cells fix their own layout
// profile (t3, cfi, t1p, fuzzp) refuses a -profile other than classic.
package main

import (
	"flag"
	"fmt"
	"os"

	"softsec/internal/core"
	"softsec/internal/harness"
	"softsec/internal/harness/cli"
	"softsec/internal/telemetry"
)

func main() {
	var (
		name    = flag.String("attack", "stack-smash-inject", "attack name (see -list on attacklab)")
		scen    = flag.String("scenario", "", "sweep a registered harness scenario by name (see -scenarios); the cell's config is baked in, so -attack, -v and the mitigation flags are refused")
		canary  = flag.Bool("canary", false, "stack canaries")
		dep     = flag.Bool("dep", false, "Data Execution Prevention")
		aslr    = flag.Bool("aslr", false, "ASLR")
		checked = flag.Bool("checked", false, "checked dialect + fortified libc")
		shadow  = flag.Bool("shadowstack", false, "hardware shadow stack (exact backward-edge CFI)")
		cfiLvl  = flag.String("cfi", "", "control-flow integrity precision: coarse or fine (label-table CFI over the recovered CFG)")
		verbose = flag.Bool("v", false, "print victim source and output (a single trial only)")
		sweep   cli.Sweep
	)
	sweep.Register(flag.CommandLine, 42)
	cli.Parse(flag.CommandLine, os.Args[1:])
	refuse := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "secsim:", err)
			os.Exit(2)
		}
	}
	refuse(sweep.Check())

	if *scen != "" && (sweep.Group != "" || sweep.List) {
		fmt.Fprintln(os.Stderr, "secsim: -scenario is mutually exclusive with -group/-scenarios (one cell, one group, or a listing — not several)")
		os.Exit(2)
	}
	if *scen != "" || sweep.List || sweep.Group != "" {
		// Registered scenarios bake in their own attack, victim and
		// mitigation config; refuse silently-ignored flags rather than
		// sweep a configuration the user did not ask for.
		refuse(sweep.Refuse("with -scenario/-scenarios/-group (the cell's attack and mitigation config are baked in)",
			func(name string, _ bool) bool {
				switch name {
				case "attack", "v", "canary", "dep", "aslr", "checked", "shadowstack", "cfi":
					return true
				}
				return false
			}))
		if core.ProfileFixed(sweep.Group) {
			refuse(sweep.RefuseProfile("-group " + sweep.Group))
		}
		runScenarios(*scen, &sweep)
		return
	}

	var spec *core.AttackSpec
	for _, a := range core.Attacks() {
		if a.Name == *name {
			a := a
			spec = &a
			break
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "secsim: unknown attack %q (try attacklab -list)\n", *name)
		os.Exit(2)
	}
	if *cfiLvl != "" {
		if _, ok := core.CFIPrecisionByName(*cfiLvl); !ok {
			fmt.Fprintf(os.Stderr, "secsim: unknown -cfi precision %q (want coarse or fine)\n", *cfiLvl)
			os.Exit(2)
		}
	}
	m := core.Mitigations{
		Canary: *canary, CanarySeed: 7,
		DEP:  *dep,
		ASLR: *aslr, ASLRSeed: sweep.Seed,
		Checked:     *checked,
		ShadowStack: *shadow,
		CFI:         *cfiLvl,
		Profile:     sweep.Profile,
	}

	// -runlog implies sweep mode: run records are per-sweep artifacts
	// (report + merged metrics), so a single trial runs as a 1-trial
	// sweep rather than growing a second record shape.
	if sweep.Trials > 1 || sweep.JSON || sweep.RunLog != "" {
		refuse(sweep.Refuse("on a sweep (-trials above 1, -json or -runlog); it prints one trial's victim and output",
			func(name string, _ bool) bool { return name == "v" }))
		runSweep(*spec, m, &sweep)
		return
	}
	refuse(sweep.Refuse("on a single trial (-trials above 1, -json or -runlog make a sweep)",
		func(name string, _ bool) bool { return name == "jobs" || name == "progress" }))

	s, err := spec.Scenario(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secsim:", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Println("victim program:")
		fmt.Println(spec.Victim)
	}
	tspec := sweep.TelemetrySpec()
	res, snap, err := core.RunCollected(s, m, tspec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secsim:", err)
		os.Exit(1)
	}
	fmt.Printf("attack:     %s (%s)\n", spec.Name, spec.Technique)
	fmt.Printf("mitigation: %s\n", m)
	fmt.Printf("outcome:    %s\n", res.Outcome)
	fmt.Printf("final:      %v (exit %d)\n", res.State, res.Exit)
	if f := res.Proc.CPU.Fault(); f != nil {
		fmt.Printf("fault:      %v\n", f)
	}
	if *verbose {
		fmt.Printf("output:     %q\n", res.Output)
	}
	if tspec != nil {
		// One-trial registry: same artifacts as a sweep, one shard.
		reg := telemetry.NewRegistry()
		snap.Scenario = "secsim/" + spec.Name
		reg.AddSnap(snap)
		if err := sweep.WriteOutputs(reg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "secsim:", err)
			os.Exit(1)
		}
	}
	if res.Outcome == core.Compromised {
		os.Exit(1)
	}
}

// runScenarios drives the registered-scenario modes: -scenarios listing,
// -group sweeps, and the single-scenario -scenario sweep — the generic
// driver for cells that are not plain (attack, mitigation) pairs, like
// the fuzz/ campaign cells.
func runScenarios(name string, sweep *cli.Sweep) {
	reg := harness.NewRegistry()
	if err := core.RegisterScenariosFor(reg, sweep.Profile); err != nil {
		fmt.Fprintln(os.Stderr, "secsim:", err)
		os.Exit(1)
	}
	if sweep.List {
		if err := sweep.PrintScenarios(os.Stdout, reg); err != nil {
			fmt.Fprintln(os.Stderr, "secsim:", err)
			os.Exit(2)
		}
		return
	}
	var scs []harness.Scenario
	if name != "" {
		sc, ok := reg.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "secsim: unknown scenario %q (try -scenarios)\n", name)
			os.Exit(2)
		}
		if core.ProfileFixed(sc.Group) {
			if err := sweep.RefuseProfile("-scenario " + name); err != nil {
				fmt.Fprintln(os.Stderr, "secsim:", err)
				os.Exit(2)
			}
		}
		scs = []harness.Scenario{sc}
	} else {
		var err error
		scs, err = cli.Select(reg, sweep.Group)
		if err != nil {
			fmt.Fprintln(os.Stderr, "secsim:", err)
			os.Exit(2)
		}
	}
	rep, err := sweep.Run(os.Stdout, scs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secsim:", err)
		os.Exit(1)
	}
	if !sweep.JSON && len(rep.Cells) == 1 {
		if c := rep.Cells[0]; c.Note != "" {
			fmt.Printf("note: %s\n", c.Note)
		}
	}
}

// runSweep executes the (attack, mitigation) cell as a parallel trial
// sweep and exits 1 when any trial was compromised (mirroring the
// single-trial exit convention).
func runSweep(spec core.AttackSpec, m core.Mitigations, sweep *cli.Sweep) {
	sc := core.TrialScenario(spec, m, true)
	if !sweep.JSON {
		fmt.Printf("attack:     %s (%s)\n", spec.Name, spec.Technique)
		fmt.Printf("mitigation: %s\n", m)
	}
	rep, err := sweep.Run(os.Stdout, []harness.Scenario{sc})
	if err != nil {
		fmt.Fprintln(os.Stderr, "secsim:", err)
		os.Exit(1)
	}
	c := rep.Cells[0]
	if c.Errors > 0 {
		fmt.Fprintf(os.Stderr, "secsim: %d/%d trials errored: %s\n", c.Errors, c.Trials, c.FirstError)
		os.Exit(1)
	}
	if c.Successes > 0 {
		os.Exit(1)
	}
}
