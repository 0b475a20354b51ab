package perf

import (
	"fmt"

	"softsec/internal/core"
	"softsec/internal/cpu"
	"softsec/internal/fuzz"
	"softsec/internal/harness"
	"softsec/internal/kernel"
)

// The replica re-runs a workload's first trials through the layers'
// public functions one stage at a time, in the order the harness path
// calls them, and times each call from outside:
//
//	cold attack trial: a.Scenario(m) → core.BuildVictim → core.InstallCFI → p.Run → core.Classify
//	warm attack trial: p.Restore → p.Run → core.Classify
//	fuzz campaign:     fuzz.New → Campaign.Fuzz(1) per exec
//
// Where it can derive a trial's exact config it also checks the outcome
// against the harness report, so the stage times are known to come from
// the same work the end-to-end numbers measure.

// Trial paths, indexing the replica's per-path tallies.
const (
	cold = iota
	warm
)

// laneOf numbers trial ti of cell si so that every phase puts the
// trial's spans on the same lane.
func laneOf(si, ti, trials int) int32 { return int32(si*trials + ti + 1) }

type replica struct {
	rec    *recorder
	res    *Result
	seed   int64
	trials int // trials per cell of the workload
	cs     []cell
	cells  []cellState // by cell index
	want   [][]harness.TrialResult

	compared int // trials checked against the report
	// Victim execution of attack trials, by path.
	runNs, instrs, ran [2]int64
	// Fuzz campaigns.
	execUs                                     []float64
	campaigns, execs, steps, admitted, crashes int64
}

// cellState is the replica's state for one cell and what its replicated
// trials cost.
type cellState struct {
	ready   bool
	warm    *warmProc // the replica's own warm process, when the harness serves the cell warm
	newNs   int64     // warm construction through the cell's harness hook
	trialNs []int64   // stage-time sum of each replicated trial
}

// newReplica prepares to replicate the first n trials of every cell of
// a workload with the given trials per cell, allocating up front the
// samples those trials fill.
func newReplica(rec *recorder, res *Result, seed int64, trials int, cs []cell, n int) *replica {
	r := &replica{rec: rec, res: res, seed: seed, trials: trials, cs: cs, cells: make([]cellState, len(cs))}
	execs := 0
	for i, c := range cs {
		r.cells[i].trialNs = make([]int64, 0, n)
		if c.campaign != nil {
			execs += n * c.campaign.MaxExecs
		}
	}
	r.execUs = make([]float64, 0, execs)
	return r
}

// run replicates trials [lo, hi) of every cell, comparing outcomes with
// want, the harness report's results.
func (r *replica) run(lo, hi int, want [][]harness.TrialResult) {
	r.want = want
	hi = min(hi, r.trials)
	for si := range r.cs {
		if r.cs[si].campaign != nil {
			r.fuzzCell(si, lo, hi)
		} else {
			r.attackCell(si, lo, hi)
		}
	}
}

// checkReplica re-runs the first trials of every cell through the
// replica and counts outcomes that differ from the report's.
func checkReplica(w Workload, cs []cell, seed int64, rep *harness.Report, res *Result) {
	newReplica(newRecorder(0), res, seed, w.Trials, cs, replicaChecks).run(0, replicaChecks, rep.Results)
}

// stage times fn as a replica span on lane and returns its duration.
func (r *replica) stage(name string, lane int32, fn func()) int64 {
	t0 := r.rec.now()
	fn()
	t1 := r.rec.now()
	r.rec.add(name, phaseReplica, lane, t0, t1)
	return t1 - t0
}

// trialSpan records the span enclosing a trial's stages.
func (r *replica) trialSpan(name string, lane int32, mark int, t0 int64) {
	r.rec.adopt(mark, r.rec.add(name, phaseReplica, lane, t0, r.rec.now()))
}

func (r *replica) attackCell(si, lo, hi int) {
	c, st := &r.cs[si], &r.cells[si]
	if !st.ready && c.sc.Warm != nil {
		// The harness serves the cell warm exactly when its hook builds
		// an instance; the hook's own cost is the warm set-up.
		t0 := r.rec.now()
		_, err := c.sc.Warm.New()
		st.newNs = r.rec.since("harness.warm_new", phaseReplica, 0, t0)
		if err == nil {
			if st.warm, err = newWarmProc(c); err != nil {
				r.res.Failed++
				r.res.problem("replica: %s: warm build: %v", c.sc.Name, err)
			}
		}
	}
	st.ready = true
	for ti := lo; ti < hi; ti++ {
		lane := laneOf(si, ti, r.trials)
		var out core.Outcome
		var ns int64
		var err error
		exact := true
		if st.warm != nil {
			out, ns, err = r.warmTrial(st.warm, lane)
		} else {
			var m core.Mitigations
			m, exact = c.mitigations(harness.TrialSeed(r.seed, c.sc.Name, ti))
			out, ns, err = r.coldTrial(c, m, lane)
		}
		st.trialNs = append(st.trialNs, ns)
		r.compare(si, ti, exact, out.String(), "", err)
	}
}

func (r *replica) coldTrial(c *cell, m core.Mitigations, lane int32) (core.Outcome, int64, error) {
	mark, t0 := r.rec.mark(), r.rec.now()
	defer r.trialSpan("replica.trial_cold", lane, mark, t0)
	var s core.Scenario
	var p *kernel.Process
	var err error
	sum := r.stage("core.scenario", lane, func() { s, err = c.attack.Scenario(m) })
	if err != nil {
		return 0, sum, err
	}
	sum += r.stage("core.build_victim", lane, func() { p, err = core.BuildVictim(s, m) })
	if err != nil {
		return 0, sum, err
	}
	if m.CFI != "" {
		sum += r.stage("core.install_cfi", lane, func() { err = installCFI(p, m) })
		if err != nil {
			return 0, sum, err
		}
	}
	out, rest := r.runAndClassify(p, s.Goal, 0, cold, lane)
	return out, sum + rest, nil
}

// warmProc is the replica's own warm process for one cell: built and
// snapshotted once, restored per trial.
type warmProc struct {
	s    core.Scenario
	p    *kernel.Process
	snap *kernel.Snapshot
	base uint64 // retired-instruction count at snapshot time
}

// newWarmProc builds the victim a warm cell restores. Warm cells never
// reseed, so the cell's base mitigations are every trial's.
func newWarmProc(c *cell) (*warmProc, error) {
	m := c.base
	s, err := c.attack.Scenario(m)
	if err != nil {
		return nil, err
	}
	p, err := core.BuildVictim(s, m)
	if err != nil {
		return nil, err
	}
	if err := installCFI(p, m); err != nil {
		return nil, err
	}
	return &warmProc{s: s, p: p, snap: p.Snapshot(), base: p.CPU.Steps}, nil
}

// installCFI installs the CFI policy m deploys, if any, as the cold
// path does after loading.
func installCFI(p *kernel.Process, m core.Mitigations) error {
	if m.CFI == "" {
		return nil
	}
	prec, ok := core.CFIPrecisionByName(m.CFI)
	if !ok {
		return fmt.Errorf("unknown CFI precision %q", m.CFI)
	}
	return core.InstallCFI(p, prec)
}

func (r *replica) warmTrial(wp *warmProc, lane int32) (core.Outcome, int64, error) {
	mark, t0 := r.rec.mark(), r.rec.now()
	defer r.trialSpan("replica.trial_warm", lane, mark, t0)
	var err error
	sum := r.stage("kernel.warm_restore", lane, func() { err = wp.p.Restore(wp.snap) })
	if err != nil {
		return 0, sum, err
	}
	out, rest := r.runAndClassify(wp.p, wp.s.Goal, wp.base, warm, lane)
	return out, sum + rest, nil
}

// runAndClassify is the tail both attack paths share.
func (r *replica) runAndClassify(p *kernel.Process, goal core.Oracle, base uint64, path int, lane int32) (core.Outcome, int64) {
	var st cpu.State
	run := r.stage("cpu.run", lane, func() { st = p.Run() })
	var out core.Outcome
	classify := r.stage("core.classify", lane, func() { out = core.Classify(p, st, goal) })
	r.runNs[path] += run
	r.instrs[path] += int64(p.CPU.Steps - base)
	r.ran[path]++
	return out, run + classify
}

func (r *replica) fuzzCell(si, lo, hi int) {
	c, st := &r.cs[si], &r.cells[si]
	for ti := lo; ti < hi; ti++ {
		lane := laneOf(si, ti, r.trials)
		cfg := *c.campaign
		cfg.Seed = harness.TrialSeed(r.seed, c.sc.Name, ti)
		mark, t0 := r.rec.mark(), r.rec.now()
		var camp *fuzz.Campaign
		var err error
		sum := r.stage("fuzz.new", lane, func() { camp, err = fuzz.New(cfg) })
		if err == nil {
			e0 := r.rec.now()
			for range cfg.MaxExecs {
				x0 := r.rec.now()
				if err = camp.Fuzz(1); err != nil {
					break
				}
				r.execUs = append(r.execUs, float64(r.rec.now()-x0)/1e3)
			}
			e1 := r.rec.now()
			r.rec.add("fuzz.execs", phaseReplica, lane, e0, e1)
			sum += e1 - e0
		}
		r.trialSpan("replica.campaign", lane, mark, t0)
		st.trialNs = append(st.trialNs, sum)
		if err != nil {
			r.compare(si, ti, true, "", "", err)
			continue
		}
		fr := camp.Result()
		r.campaigns++
		r.execs += int64(fr.Execs)
		r.steps += int64(fr.TotalSteps)
		r.admitted += int64(fr.CorpusSize)
		r.crashes += int64(fr.Crashes)
		r.compare(si, ti, true, campaignOutcome(fr), fr.Summary(), nil)
	}
}

// campaignOutcome labels a campaign the way its harness cell does, by
// its most severe finding.
func campaignOutcome(fr fuzz.Result) string {
	switch {
	case fr.Exploits > 0:
		return "found-exploit"
	case fr.Crashes > 0:
		return "found-crash"
	case fr.Detections > 0:
		return "detected-only"
	}
	return "no-findings"
}

// compare counts one replicated trial: an error fails it, and so does an
// outcome (or, for campaigns, a detail line) that differs from the
// harness's for a trial whose config the replica derives exactly.
func (r *replica) compare(si, ti int, exact bool, outcome, detail string, err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.res.problem("replica: %s/%d: %v", r.cs[si].sc.Name, ti, err)
		return
	}
	if !exact || r.want == nil {
		return
	}
	r.compared++
	want := r.want[si][ti]
	if want.Err != nil || outcome != want.Outcome || (detail != "" && detail != want.Detail) {
		r.res.Failed++
		r.res.problem("replica: %s/%d: outcome %q, harness %q (err %v)", r.cs[si].sc.Name, ti, outcome, want.Outcome, want.Err)
	}
}

// predictedRepNs extrapolates the replica's stage times to one rep of
// the workload: every trial of a cell at the mean cost of its replicated
// trials, plus one warm construction per worker for a warm cell.
func (r *replica) predictedRepNs(jobs int) float64 {
	var total float64
	for _, st := range r.cells {
		if n := len(st.trialNs); n > 0 {
			var sum int64
			for _, ns := range st.trialNs {
				sum += ns
			}
			total += float64(sum) / float64(n) * float64(r.trials)
		}
		if st.warm != nil {
			total += float64(st.newNs) * float64(jobs)
		}
	}
	return total / float64(jobs)
}
