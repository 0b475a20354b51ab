// Command rundiff compares two runs from a run ledger (or two record
// files) and reports outcome flips per cell, metric-counter deltas and
// wall-clock throughput ratios, optionally gated by regression floors.
//
//	rundiff -dir runs                      # last two runs
//	rundiff -dir runs last~1 last          # explicit refs
//	rundiff -dir runs 3 7                  # ledger sequence numbers
//	rundiff a.json b.json                  # record files, no ledger
//	rundiff -dir runs -floor trials_per_sec=0.8 last~1 last
//	rundiff -dir runs -list                # show the ledger
//
// Exit status: 0 when no regression (flips are reported but only fail
// with -failflips), 1 when a floor/ceiling is violated or -failflips
// saw flips, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"softsec/internal/harness/cli"
	"softsec/internal/runlog"
)

// ratioFlag collects repeatable name=ratio pairs.
type ratioFlag map[string]float64

func (f ratioFlag) String() string {
	parts := make([]string, 0, len(f))
	for k, v := range f {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	return strings.Join(parts, ",")
}

func (f ratioFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=ratio, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil || v <= 0 {
		return fmt.Errorf("bad ratio in %q", s)
	}
	f[name] = v
	return nil
}

func main() {
	var (
		dir       = flag.String("dir", "", "run ledger directory (as written by -runlog)")
		list      = flag.Bool("list", false, "list the ledger and exit")
		asJSON    = flag.Bool("json", false, "emit the diff as JSON instead of text")
		failFlips = flag.Bool("failflips", false, "exit 1 when any outcome flipped (default: flips are reported, not fatal)")
		floors    = ratioFlag{}
		ceils     = ratioFlag{}
	)
	flag.Var(floors, "floor", "wall metric regression floor, name=minratio (B/A); repeatable. Example: trials_per_sec=0.8")
	flag.Var(ceils, "ceil", "wall metric regression ceiling, name=maxratio (B/A); repeatable. Example: elapsed_sec=1.25")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rundiff [-dir ledger] [flags] [refA refB | fileA fileB]\n\n"+
			"Refs: 'last', 'last~N', a ledger seq, or a content-ID prefix.\n"+
			"With no refs, compares the ledger's last two runs.\n\n")
		flag.PrintDefaults()
	}
	cli.Parse(flag.CommandLine, os.Args[1:])

	if *list {
		if *dir == "" {
			fatal(2, "rundiff: -list needs -dir")
		}
		if err := printLedger(*dir); err != nil {
			fatal(2, "rundiff: %v", err)
		}
		return
	}

	a, b, err := loadPair(*dir, flag.Args())
	if err != nil {
		fatal(2, "rundiff: %v", err)
	}
	d, err := runlog.Compare(a, b, runlog.Options{Floors: floors, Ceils: ceils})
	if err != nil {
		fatal(2, "rundiff: %v", err)
	}
	if *asJSON {
		out, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			fatal(2, "rundiff: %v", err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(d.Render())
	}
	if len(d.Regressions) > 0 || (*failFlips && d.Flips > 0) {
		os.Exit(1)
	}
}

// loadPair resolves the two runs to compare: two ledger refs, two
// record file paths, or (with -dir and no args) the last two runs.
func loadPair(dir string, args []string) (a, b *runlog.Record, err error) {
	if dir == "" {
		if len(args) != 2 {
			return nil, nil, fmt.Errorf("need two record files (or -dir with ledger refs)")
		}
		if a, err = loadFile(args[0]); err != nil {
			return nil, nil, err
		}
		if b, err = loadFile(args[1]); err != nil {
			return nil, nil, err
		}
		return a, b, nil
	}
	st, err := openLedger(dir)
	if err != nil {
		return nil, nil, err
	}
	refA, refB := "last~1", "last"
	switch len(args) {
	case 0:
	case 2:
		refA, refB = args[0], args[1]
	default:
		return nil, nil, fmt.Errorf("need zero or two run refs, got %d", len(args))
	}
	load := func(ref string) (*runlog.Record, error) {
		// A ref that names an existing file wins, so ledger refs and
		// record files mix: rundiff -dir runs baseline.json last
		if _, statErr := os.Stat(ref); statErr == nil {
			return loadFile(ref)
		}
		e, err := st.Resolve(ref)
		if err != nil {
			return nil, err
		}
		return st.Load(e)
	}
	if a, err = load(refA); err != nil {
		return nil, nil, err
	}
	if b, err = load(refB); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

func loadFile(path string) (*runlog.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := runlog.Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// openLedger opens an existing ledger directory. rundiff only reads, so
// a missing directory is bad input, not a new empty ledger.
func openLedger(dir string) (*runlog.Store, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	return runlog.Open(dir), nil
}

func printLedger(dir string) error {
	st, err := openLedger(dir)
	if err != nil {
		return err
	}
	entries, err := st.Entries()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("(empty ledger)")
		return nil
	}
	fmt.Printf("%4s  %-25s  %-9s  %-24s  %6s  %s\n",
		"seq", "id", "tool", "label", "trials", "seed")
	for _, e := range entries {
		fmt.Printf("%4d  %-25s  %-9s  %-24s  %6d  %d\n",
			e.Seq, e.ID, e.Tool, e.Label, e.Trials, e.Seed)
	}
	return nil
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}
