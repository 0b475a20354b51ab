// Package cli is the shared command-line plumbing of the binaries. Every
// tool parses its flags through Parse. cmd/secsim and cmd/attacklab both
// sweep registered scenarios across the trial engine; before this
// package each re-declared the
// -trials/-jobs/-seed/-json/-scenarios/-group flags and re-implemented
// group selection, listing, and report output, and the two had already
// drifted (different unknown-group handling, different listings). Both
// now register one Sweep and cannot drift: flag names, defaults, help
// strings, the unknown-group error, the scenario listing format, and
// JSON-vs-table rendering live here.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"softsec/internal/harness"
	"softsec/internal/layout"
	"softsec/internal/runlog"
)

// Parse parses args into fs, which the tools pass as flag.CommandLine,
// and keeps the rule for bad input: a flag fs does not define, a value
// that does not parse or a missing value exits 2 with one line naming
// the flag ("TOOL: flag provided but not defined: -bogus"), not the
// usage. -h and -help print the usage and exit 0.
func Parse(fs *flag.FlagSet, args []string) {
	out, usage := fs.Output(), fs.Usage
	fs.Init(fs.Name(), flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Usage = func() {}
	err := fs.Parse(args)
	fs.SetOutput(out)
	fs.Usage = usage
	switch {
	case err == flag.ErrHelp:
		fs.Usage()
		os.Exit(0)
	case err != nil:
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(fs.Name()), err)
		os.Exit(2)
	}
}

// Sweep holds the flag values shared by every harness-driven binary.
type Sweep struct {
	Trials int
	Jobs   int
	Seed   int64
	JSON   bool
	// List is the -scenarios flag: print the catalog instead of running.
	List bool
	// Group restricts selection (and the -scenarios listing) to one
	// scenario group.
	Group string
	// Profile selects the machine layout profile (internal/layout) the
	// profile-sensitive scenario groups are registered with: frame
	// geometry and segment placement. Empty means "classic".
	Profile string

	// Telemetry outputs (see telemetry.go). Metrics, GuestProf and
	// EvTrace name output files; Stats prints every counter and
	// histogram of the run's merged registry after the run. Any of them
	// set turns per-trial collection on.
	Metrics   string
	GuestProf string
	EvTrace   string
	Stats     bool

	// Progress selects the live sweep renderer on stderr: "auto" (on
	// only when stderr is a terminal — CI logs and JSON pipelines stay
	// clean), "on", or "off". Strictly observational: report and
	// metrics bytes are identical whatever the setting.
	Progress string
	// RunLog names a run-ledger directory (internal/runlog). When set,
	// the sweep appends a content-addressed record — report, merged
	// metrics, environment fingerprint, throughput — after the run, and
	// telemetry collection is implied so there are counters to record.
	RunLog string

	// tool is the binary name stamped into run records, and fs the flag
	// set Refuse reads, both captured at Register time.
	tool string
	fs   *flag.FlagSet
}

// Register installs the shared sweep flags on fs with uniform names and
// help strings. seedDefault preserves each binary's historical default
// base seed.
func (s *Sweep) Register(fs *flag.FlagSet, seedDefault int64) {
	fs.IntVar(&s.Trials, "trials", 1, "independent trials per cell")
	fs.IntVar(&s.Jobs, "jobs", runtime.NumCPU(), "worker-pool width for sweeps")
	fs.Int64Var(&s.Seed, "seed", seedDefault, "base seed for per-trial seed derivation")
	fs.BoolVar(&s.JSON, "json", false, "emit the aggregate report as JSON")
	fs.BoolVar(&s.List, "scenarios", false, "list every registered harness scenario")
	fs.StringVar(&s.Group, "group", "", "restrict to one scenario group (see -scenarios)")
	fs.StringVar(&s.Profile, "profile", "", "machine layout profile: "+strings.Join(layout.Names(), ", ")+" (default classic)")
	fs.StringVar(&s.Metrics, "metrics", "", "write the merged telemetry registry as JSON to this file")
	fs.StringVar(&s.GuestProf, "guestprof", "", "deterministic guest profile: write folded stacks to this file (forces the step engine)")
	fs.StringVar(&s.EvTrace, "evtrace", "", "write engine events as Chrome trace_event JSON to this file")
	fs.BoolVar(&s.Stats, "stats", false, "print every counter and histogram of the run's merged telemetry registry after the run, sorted by name")
	fs.StringVar(&s.Progress, "progress", "auto", "live sweep progress on stderr: auto, on, or off (auto = only when stderr is a terminal)")
	fs.StringVar(&s.RunLog, "runlog", "", "append this run's record (report, metrics, env, throughput) to this run-ledger directory (compare runs with rundiff)")
	s.tool = filepath.Base(fs.Name())
	s.fs = fs
}

// Check validates the parsed flag values, so that bad input fails with
// one line before anything is printed or run: -trials below 1, an
// unknown -progress mode or layout profile, a -metrics, -guestprof or
// -evtrace file whose directory does not exist, or a -runlog ledger the
// run's record could not be appended to (runlog.Store.Appendable: one
// whose index does not parse or that lists a record of an older schema).
// Then, the values being good, it refuses every shared flag the
// -scenarios listing would ignore: all but -group. Both sweep binaries
// call it right after flag parsing and exit 2 on error.
func (s *Sweep) Check() error {
	if s.Trials < 1 {
		return fmt.Errorf("-trials %d: want at least 1", s.Trials)
	}
	for _, out := range []struct{ flag, path string }{
		{"-metrics", s.Metrics}, {"-guestprof", s.GuestProf}, {"-evtrace", s.EvTrace},
	} {
		if out.path == "" {
			continue
		}
		if fi, err := os.Stat(filepath.Dir(out.path)); err != nil || !fi.IsDir() {
			return fmt.Errorf("%s %s: no directory %s", out.flag, out.path, filepath.Dir(out.path))
		}
	}
	if _, err := s.progressConfig(); err != nil {
		return err
	}
	if _, err := layout.ByName(s.Profile); err != nil {
		return err
	}
	if s.RunLog != "" {
		if err := runlog.Open(s.RunLog).Appendable(); err != nil {
			return err
		}
	}
	if !s.List {
		return nil
	}
	return s.Refuse("with -scenarios (it lists the catalog, narrowed only by -group)", func(name string, shared bool) bool {
		return shared && name != "scenarios" && name != "group"
	})
}

// Refuse returns the one-line error "-NAME has no effect WHY" for the
// first flag, in name order, that was set on the command line and that
// ignored reports true for; nil when there is none. ignored also learns
// whether the flag is one of the shared sweep flags, so a mode can
// refuse them all. The sweep binaries call it after Check, so bad
// values keep their own messages, and exit 2 on the error.
func (s *Sweep) Refuse(why string, ignored func(name string, shared bool) bool) error {
	if s.fs == nil {
		return nil // not registered: no command line set anything
	}
	var own Sweep
	own.Register(flag.NewFlagSet("", flag.ContinueOnError), 0)
	var err error
	s.fs.Visit(func(f *flag.Flag) {
		if err == nil && ignored(f.Name, own.fs.Lookup(f.Name) != nil) {
			err = fmt.Errorf("-%s has no effect %s", f.Name, why)
		}
	})
	return err
}

// RefuseProfile returns Refuse's one-line error for a -profile other
// than classic given next to selection, a selection whose cells fix
// their own layout profile; nil for a classic or absent -profile.
func (s *Sweep) RefuseProfile(selection string) error {
	if s.Profile == "" || s.Profile == layout.Classic().Name {
		return nil
	}
	return s.Refuse("with "+selection+" (its cells fix their own layout profile)",
		func(name string, _ bool) bool { return name == "profile" })
}

// Options converts the flag values into engine options.
func (s *Sweep) Options() harness.Options {
	return harness.Options{
		Trials: s.Trials, Jobs: s.Jobs, BaseSeed: s.Seed,
		Telemetry: s.TelemetrySpec(),
	}
}

// progressConfig resolves the -progress selection into an engine
// renderer config (nil means off).
func (s *Sweep) progressConfig() (*harness.Progress, error) {
	tty := stderrIsTTY()
	switch s.Progress {
	case "off", "":
		return nil, nil
	case "auto":
		if !tty {
			return nil, nil
		}
	case "on":
	default:
		return nil, fmt.Errorf("unknown -progress %q (want auto, on, or off)", s.Progress)
	}
	label := s.Group
	if label == "" {
		label = "sweep"
	}
	return &harness.Progress{W: os.Stderr, TTY: tty, Label: label}, nil
}

// stderrIsTTY reports whether stderr is an interactive terminal — the
// -progress auto probe.
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// Select resolves the group selection against reg: the named group when
// group is non-empty, every scenario otherwise. An unknown or empty
// group is an error (the shared unknown-group behavior both binaries now
// inherit).
func Select(reg *harness.Registry, group string) ([]harness.Scenario, error) {
	if group == "" {
		return reg.All(), nil
	}
	scs := reg.Group(group)
	if len(scs) == 0 {
		return nil, fmt.Errorf("no scenarios in group %q (try -scenarios)", group)
	}
	return scs, nil
}

// PrintScenarios writes the catalog listing — every scenario, or one
// group when s.Group is set.
func (s *Sweep) PrintScenarios(w io.Writer, reg *harness.Registry) error {
	scs, err := Select(reg, s.Group)
	if err != nil {
		return err
	}
	for _, sc := range scs {
		fmt.Fprintf(w, "%-44s group=%s\n", sc.Name, sc.Group)
	}
	return nil
}

// Run executes the scenarios under s's sweep options and writes the
// report to w — JSON when -json was given, the rendered success-rate
// table otherwise. The report is returned for exit-code decisions.
func (s *Sweep) Run(w io.Writer, scs []harness.Scenario) (*harness.Report, error) {
	opt := s.Options()
	prog, err := s.progressConfig()
	if err != nil {
		return nil, err
	}
	opt.Progress = prog
	start := time.Now()
	rep := harness.Run(scs, opt)
	elapsed := time.Since(start).Seconds()
	if rep.Telemetry != nil {
		// Self-describing metrics: the machine fingerprint rides in the
		// quarantined wall section. Machine-invariant entries only, so
		// metrics bytes stay identical at any -jobs width.
		runlog.CaptureEnv(0).PublishWall(rep.Telemetry)
	}
	if err := s.appendRunLog(rep, scs, elapsed); err != nil {
		return nil, err
	}
	if s.JSON {
		b, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return nil, err
		}
		// Telemetry renderings go to stderr in JSON mode: stdout must
		// stay pure report JSON for byte-comparison and piping.
		if err := s.WriteOutputs(rep.Telemetry, os.Stderr); err != nil {
			return nil, err
		}
		return rep, nil
	}
	if _, err := io.WriteString(w, rep.Render()); err != nil {
		return nil, err
	}
	if err := s.WriteOutputs(rep.Telemetry, w); err != nil {
		return nil, err
	}
	return rep, nil
}

// appendRunLog appends the sweep's record to the -runlog ledger: the
// report bytes (the same bytes -json emits), the merged metrics, the
// environment fingerprint, and the wall-clock throughput. The ledger
// notice goes to stderr so stdout stays pure report output.
func (s *Sweep) appendRunLog(rep *harness.Report, scs []harness.Scenario, elapsedSec float64) error {
	if s.RunLog == "" {
		return nil
	}
	reportJSON, err := rep.JSON()
	if err != nil {
		return err
	}
	jobs := s.Jobs
	if jobs < 1 {
		jobs = runtime.NumCPU()
	}
	cfg := runlog.Config{
		Tool: s.tool, Group: s.Group, Trials: rep.Trials, Seed: s.Seed, Profile: s.Profile,
	}
	if cfg.Group == "" && len(scs) == 1 {
		cfg.Scenario = scs[0].Name
	}
	rec := &runlog.Record{
		Config: cfg,
		Env:    runlog.CaptureEnv(jobs),
		Report: reportJSON,
		Wall:   map[string]float64{"elapsed_sec": elapsedSec},
	}
	if rep.Telemetry != nil {
		rec.Metrics = rep.Telemetry.File()
	}
	if elapsedSec > 0 {
		rec.Wall["trials_per_sec"] = float64(rep.Trials*len(rep.Cells)) / elapsedSec
	}
	e, err := runlog.Open(s.RunLog).Append(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "runlog: appended run %d (%s) to %s\n", e.Seq, e.ID, s.RunLog)
	return nil
}
