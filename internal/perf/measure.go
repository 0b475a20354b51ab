package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"softsec/internal/harness"
)

// MetricSpec declares one metric the benchmark reports.
type MetricSpec struct {
	Name, Unit string
	Better     string // "higher" or "lower"
}

// EndToEnd lists what an untraced run reports, in print order.
var EndToEnd = []MetricSpec{
	{"trials_per_sec", "trials/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_trial", "KiB/trial", "lower"},
}

// Options configures one benchmark run.
type Options struct {
	// Seed is harness.Options.BaseSeed: every trial's inputs derive from
	// it, and nothing else reaches the program.
	Seed int64
	// Budget is how long the timed reps run. A run always times at least
	// minReps reps, so a zero budget gives the shortest complete run.
	Budget time.Duration
}

// Metric is one reported number.
type Metric struct {
	Name, Unit string
	Value      float64
	// Note describes the sample behind Value (quartiles and count) for
	// the human-readable table.
	Note string
}

// Result is what one run reports.
type Result struct {
	Workload  string
	Digest    string // sha256 of Report.JSON() every full rep produced
	Attempted int    // trials run or compared
	Failed    int    // trials that errored, mismatched, or sat in a mismatching report
	Problems  []string
	// Metrics are the declared metrics of the run's kind (EndToEnd or
	// PerLayer); Extra are numbers that only apply to some workloads,
	// printed but not part of the declared set.
	Metrics []Metric
	Extra   []Metric
	// Notes are preformatted lines that follow the tables.
	Notes []string
}

// Correct reports whether every output of the run checked out.
func (r *Result) Correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *Result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *Result) metric(name, unit string, v float64, note string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: v, Note: note})
}

func (r *Result) extra(name, unit string, v float64, note string) {
	r.Extra = append(r.Extra, Metric{Name: name, Unit: unit, Value: v, Note: note})
}

const (
	// setupPasses is the fewest cold set-up passes a run times; a pass
	// takes only milliseconds to tens of milliseconds.
	setupPasses = 15
	// setupShare is the share of each rep's wall time spent on set-up
	// passes right after it, so the passes sample the whole run.
	setupShare = 0.05
	// minReps is the fewest timed reps a run makes, so rep-to-rep digest
	// equality is always checked.
	minReps = 2
	// replicaChecks is how many trials per cell an untraced run re-runs
	// through the replica to check outcomes.
	replicaChecks = 2
)

// Measure makes an untraced run: timed reps of the whole workload until
// the budget is spent, each checked against the expected report digest
// and followed by set-up passes. It returns the end-to-end metrics.
func Measure(w Workload, opt Options) (*Result, error) {
	cs, err := w.cells()
	if err != nil {
		return nil, err
	}
	scs := scenarios(cs)
	res := &Result{Workload: w.Name}

	// Set-up time: a one-trial pass over every cell from cold build
	// caches (harness.Run resets them), the wait for a first result.
	one := w
	one.Trials = 1
	setup := &checker{res: res}
	var setupS []float64
	setupPass := func() float64 {
		s := timedRep(one, scs, opt.Seed, setup, "set-up pass", nil).wall
		setupS = append(setupS, s)
		return s
	}

	chk := newChecker(w, opt.Seed, scs, res)
	var reps repSample
	for start := time.Now(); len(reps.tps) < minReps || time.Since(start) < opt.Budget; {
		r := timedRep(w, scs, opt.Seed, chk, "rep", nil)
		reps.add(r)
		for spent := 0.0; spent < setupShare*r.wall; {
			spent += setupPass()
		}
	}
	for len(setupS) < setupPasses {
		setupPass()
	}
	checkReplica(w, cs, opt.Seed, reps.last, res)
	res.Digest = chk.want

	res.metric("trials_per_sec", "trials/s", median(reps.tps), note(reps.tps))
	res.metric("setup_s", "s", median(setupS), note(setupS))
	res.metric("alloc_kb_per_trial", "KiB/trial", median(reps.allocKB), note(reps.allocKB))
	return res, nil
}

func note(xs []float64) string {
	s := summarize(xs)
	return fmt.Sprintf("p25 %.6g  p75 %.6g  n=%d", s.P25, s.P75, s.N)
}

// digest is the sha256 of the report's JSON rendering, the form the
// determinism tests compare byte for byte.
func digest(rep *harness.Report) string {
	b, err := rep.JSON()
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check tallies one report: every trial is attempted; a report whose
// digest is not the expected one fails all its trials, otherwise only
// its errored trials fail.
func (r *Result) check(rep *harness.Report, got, want, what string) {
	trials := 0
	errs := 0
	for _, row := range rep.Results {
		trials += len(row)
		for _, t := range row {
			if t.Err != nil {
				errs++
				if errs == 1 {
					r.problem("%s: trial error: %v", what, t.Err)
				}
			}
		}
	}
	r.Attempted += trials
	if got != want {
		r.Failed += trials
		r.problem("%s: report digest %.12s, want %.12s", what, got, want)
		return
	}
	r.Failed += errs
}

// checker holds the digest every rep of a run must have.
type checker struct {
	res  *Result
	want string // "" until the first rep fixes it
}

// newChecker fixes the expected digest where it is known in advance: the
// golden digest for the golden seed at full size, and for a multi-worker
// workload the digest of an untimed one-worker rep, since a report must
// not depend on the worker count.
func newChecker(w Workload, seed int64, scs []harness.Scenario, res *Result) *checker {
	k := &checker{res: res}
	full, _ := Lookup(w.Name)
	if seed == goldenSeed && w.Trials == full.Trials {
		k.want = golden[w.Name]
	}
	if w.Jobs > 1 {
		k.rep(harness.Run(scs, harness.Options{Trials: w.Trials, Jobs: 1, BaseSeed: seed}), "one-worker reference rep")
	}
	return k
}

func (k *checker) rep(rep *harness.Report, what string) {
	d := digest(rep)
	if k.want == "" {
		k.want = d
	}
	k.res.check(rep, d, k.want, what)
}

// repOut is what one timed rep measured.
type repOut struct {
	tps, allocKB, wall float64
	rep                *harness.Report
}

// repSample collects the timed reps of a run.
type repSample struct {
	tps     []float64 // trials per second, one per rep
	allocKB []float64 // KiB allocated per trial, one per rep
	last    *harness.Report
}

func (s *repSample) add(o repOut) {
	s.tps = append(s.tps, o.tps)
	s.allocKB = append(s.allocKB, o.allocKB)
	s.last = o.rep
}

// timedRep runs the whole workload once through harness.Run and checks
// its report. The rep starts from a collected heap, so garbage left by
// the previous one does not land on it. With a recorder, the rep is a
// span that parents the spans its trials record.
func timedRep(w Workload, scs []harness.Scenario, seed int64, k *checker, what string, rec *recorder) repOut {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var mark int
	var t0ns int64
	if rec != nil {
		mark, t0ns = rec.mark(), rec.now()
	}
	t0 := time.Now()
	rep := harness.Run(scs, harness.Options{Trials: w.Trials, Jobs: w.Jobs, BaseSeed: seed})
	wall := time.Since(t0).Seconds()
	if rec != nil {
		rec.adopt(mark, rec.add("harness.rep", phaseHarness, 0, t0ns, rec.now()))
	}
	runtime.ReadMemStats(&after)
	k.rep(rep, what)
	trials := float64(len(scs) * w.Trials)
	return repOut{tps: trials / wall, wall: wall, rep: rep,
		allocKB: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / trials}
}
