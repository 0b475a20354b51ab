package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"softsec/internal/buildcache"
	"softsec/internal/telemetry"
)

// Options configures one engine run.
type Options struct {
	// Trials is the number of independent trials per scenario (min 1).
	Trials int
	// Jobs is the worker-pool width; <=0 means runtime.NumCPU(). Jobs
	// affects wall-clock only, never results: aggregates are identical
	// for any job count.
	Jobs int
	// BaseSeed feeds TrialSeed for every trial.
	BaseSeed int64
	// Telemetry, when non-nil, asks every trial to collect metrics and
	// makes Run merge them into Report.Telemetry.
	Telemetry *telemetry.Spec
	// Progress, when non-nil, streams live completion/throughput/ETA
	// lines to Progress.W while the pool drains. Strictly
	// observational: the report and metrics are byte-identical with it
	// on or off.
	Progress *Progress
}

// CellStats aggregates the trials of one scenario.
type CellStats struct {
	Scenario    string            `json:"scenario"`
	Group       string            `json:"group,omitempty"`
	Meta        map[string]string `json:"meta,omitempty"`
	Trials      int               `json:"trials"`
	Successes   int               `json:"successes"`
	SuccessRate float64           `json:"success_rate"`
	// Outcomes counts trials per outcome label.
	Outcomes map[string]int `json:"outcomes"`
	Errors   int            `json:"errors,omitempty"`
	// FirstError preserves one diagnostic when trials failed to run.
	FirstError string `json:"first_error,omitempty"`
	// Note carries the first trial's detail line, for mechanisms whose
	// explanation matters as much as the verdict (the T3 table).
	Note string `json:"note,omitempty"`
}

// Report is the aggregated result of an engine run. Jobs is deliberately
// not recorded: the report must be byte-identical across job counts.
type Report struct {
	BaseSeed int64       `json:"base_seed"`
	Trials   int         `json:"trials"`
	Cells    []CellStats `json:"cells"`
	// Results holds the raw per-trial results, indexed [scenario][trial]
	// in the same order as Cells. Excluded from JSON.
	Results [][]TrialResult `json:"-"`
	// Telemetry is the merged metrics registry when Options.Telemetry was
	// set; nil otherwise. Excluded from JSON (the report must stay
	// byte-identical whether or not telemetry was collected).
	Telemetry *telemetry.Registry `json:"-"`
	// WarmRestores and ColdLoads count how trials were served: by a
	// snapshot Restore on a per-worker warm instance, or by a fresh
	// cold load. Diagnostics only — excluded from JSON because the mix
	// is an execution detail, never an observable result.
	WarmRestores int `json:"-"`
	ColdLoads    int `json:"-"`
}

// Run executes opt.Trials trials of every scenario across a pool of
// opt.Jobs workers. Every (scenario, trial) pair is an independent unit
// of work writing into its own result slot, so the aggregate is
// deterministic regardless of scheduling.
func Run(scenarios []Scenario, opt Options) *Report {
	trials := opt.Trials
	if trials < 1 {
		trials = 1
	}
	jobs := opt.Jobs
	if jobs < 1 {
		jobs = runtime.NumCPU()
	}
	results := make([][]TrialResult, len(scenarios))
	for i := range results {
		results[i] = make([]TrialResult, trials)
	}

	// Each Run observes a cold build cache: the hit/miss counters it
	// publishes then describe this sweep alone, and two runs in one
	// process (the jobs-1-vs-N determinism tests) see identical ones.
	buildcache.ResetAll()

	prog := startProgress(opt.Progress, len(scenarios), trials)

	// Workers claim units by advancing one shared counter, so claiming a
	// trial costs one atomic add and wakes no other goroutine. Unit u is
	// trial u%trials of scenario u/trials: scenario-major order.
	var next atomic.Int64
	units := int64(len(scenarios) * trials)
	var wg sync.WaitGroup
	workers := make([]warmState, jobs)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(ws *warmState) {
			defer wg.Done()
			ws.inst = make(map[int]WarmInstance)
			for u := next.Add(1) - 1; u < units; u = next.Add(1) - 1 {
				si, ti := int(u)/trials, int(u)%trials
				s := scenarios[si]
				t := Trial{
					Scenario:  s.Name,
					Index:     ti,
					Seed:      TrialSeed(opt.BaseSeed, s.Name, ti),
					Telemetry: opt.Telemetry,
				}
				results[si][ti] = ws.runUnit(s, si, t)
				prog.trialDone(si)
			}
		}(&workers[w])
	}
	wg.Wait()
	prog.finish()

	rep := &Report{BaseSeed: opt.BaseSeed, Trials: trials, Results: results}
	for i := range workers {
		rep.WarmRestores += workers[i].warmed
		rep.ColdLoads += workers[i].cold
	}
	for si, s := range scenarios {
		c := CellStats{
			Scenario: s.Name,
			Group:    s.Group,
			Meta:     s.Meta,
			Trials:   trials,
			Outcomes: make(map[string]int),
		}
		for _, r := range results[si] {
			if r.Err != nil {
				c.Errors++
				if c.FirstError == "" {
					c.FirstError = r.Err.Error()
				}
				continue
			}
			c.Outcomes[r.Outcome]++
			if r.Success {
				c.Successes++
			}
			if c.Note == "" {
				c.Note = r.Detail
			}
		}
		if ran := trials - c.Errors; ran > 0 {
			c.SuccessRate = float64(c.Successes) / float64(ran)
		}
		rep.Cells = append(rep.Cells, c)
	}
	if opt.Telemetry != nil {
		// Merge per-trial shards in (scenario, trial) slot order — never
		// completion order — so the registry totals are byte-identical at
		// any -jobs width, the same contract as the report itself.
		reg := telemetry.NewRegistry()
		for si, s := range scenarios {
			for ti := range results[si] {
				r := &results[si][ti]
				reg.Count("harness.trials", 1)
				switch {
				case r.Err != nil:
					reg.Count("harness.outcome.error", 1)
				case r.Outcome != "":
					reg.Count("harness.outcome."+r.Outcome, 1)
				}
				if r.Telemetry != nil {
					r.Telemetry.Scenario = s.Name
					r.Telemetry.Trial = ti
					reg.AddSnap(r.Telemetry)
				}
			}
		}
		// Cache observability: how the run's builds and loads were
		// served, as the aggregate plus per-cache breakdowns. Warm
		// eligibility is static per cell and cache lookups happen only
		// on per-trial paths under singleflight, so all of these are
		// invariant across -jobs widths; with the cache layer disabled
		// the buildcache counters are zero and (Count skips zeros) the
		// keys are simply absent.
		buildcache.PublishCounters(reg.Count)
		reg.Count("harness.warm_restores", uint64(rep.WarmRestores))
		reg.Count("harness.cold_loads", uint64(rep.ColdLoads))
		rep.Telemetry = reg
	}
	return rep
}

// runTrial invokes the scenario, converting a panic into an error result
// so one bad cell cannot take down a 10k-trial sweep.
func runTrial(s Scenario, t Trial) (res TrialResult) {
	defer func() {
		if p := recover(); p != nil {
			res = TrialResult{Err: fmt.Errorf("harness: scenario %s trial %d panicked: %v", t.Scenario, t.Index, p)}
		}
	}()
	return s.Run(t)
}

// JSON renders the report with stable formatting (map keys are sorted by
// encoding/json), suitable for byte-for-byte comparison across job
// counts.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render formats the report as an aligned success-rate table.
func (r *Report) Render() string {
	w := len("scenario")
	for _, c := range r.Cells {
		if len(c.Scenario) > w {
			w = len(c.Scenario)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %7s  %9s  %s\n", w, "scenario", "trials", "success", "outcomes")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-*s  %7d  %8.1f%%  %s\n",
			w, c.Scenario, c.Trials, 100*c.SuccessRate, renderOutcomes(c))
	}
	return b.String()
}

func renderOutcomes(c CellStats) string {
	keys := make([]string, 0, len(c.Outcomes))
	for k := range c.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, c.Outcomes[k]))
	}
	if c.Errors > 0 {
		parts = append(parts, fmt.Sprintf("ERROR:%d (%s)", c.Errors, c.FirstError))
	}
	return strings.Join(parts, " ")
}
