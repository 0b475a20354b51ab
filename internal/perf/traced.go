package perf

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"

	"softsec/internal/buildcache"
	"softsec/internal/harness"
)

// PerLayer lists what a traced run reports, in print order. Every entry
// applies to every workload; numbers that exist only on some (warm
// trials, fuzz executions, single trial stages) are Result.Extra.
var PerLayer = []MetricSpec{
	{"harness.trial_us.p50", "us", "lower"},
	{"harness.trial_us.p99", "us", "lower"},
	{"harness.pool_overhead_frac", "fraction", "lower"},
	{"buildcache.hits", "count", "higher"},
	{"buildcache.misses", "count", "lower"},
	{"buildcache.hit_ratio", "fraction", "higher"},
	{"minc.compile_us.p50", "us", "lower"},
	{"kernel.link_us.p50", "us", "lower"},
	{"kernel.load_us.p50", "us", "lower"},
	{"kernel.load_us.p99", "us", "lower"},
	{"kernel.load_alloc_kb", "KiB", "lower"},
	{"kernel.snapshot_us.p50", "us", "lower"},
	{"kernel.restore_us.p50", "us", "lower"},
	{"kernel.restore_us.p99", "us", "lower"},
	{"cfi.recover_us.p50", "us", "lower"},
	{"cpu.ns_per_instr.step_loop", "ns/instr", "lower"},
	{"cpu.ns_per_instr.block_chain8", "ns/instr", "lower"},
	{"cpu.ns_per_instr.trace_chain8", "ns/instr", "lower"},
	{"cpu.instrs_per_trial", "instrs", "lower"},
	{"core.unattributed_frac", "fraction", "lower"},
	{"trace_overhead_frac", "fraction", "lower"},
}

// replicaTrials is how many trials per cell the replica re-runs, and how
// many per cell the exported trace keeps.
const replicaTrials = 300

// minTrialSpans is the fewest harness trial spans a traced run collects,
// enough for their p99; minPairs the fewest untraced/traced rep pairs.
const (
	minTrialSpans = 1000
	minPairs      = 3
)

// Trace makes a traced run and returns the per-layer metrics. After an
// untimed warm-up rep it alternates untraced reps (the baseline for the
// tracing overhead) with reps whose harness hooks are wrapped in spans,
// each pair followed by a slice of the replica, so all three see the
// same host conditions; the ladder follows. When out is non-nil the spans of the first replicaTrials
// trials per cell are written to it as a Chrome trace.
//
// Every buffer the run fills is allocated before the first timed rep:
// the live heap sets how often the garbage collector runs, which moves
// trial throughput by several percent, so it must be the same for
// untraced reps, traced reps and the replica.
func Trace(w Workload, opt Options, out io.Writer) (*Result, error) {
	cs, err := w.cells()
	if err != nil {
		return nil, err
	}
	scs := scenarios(cs)
	res := &Result{Workload: w.Name}
	perRep := len(scs) * w.Trials

	chk := newChecker(w, opt.Seed, scs, res)
	warmUp := timedRep(w, scs, opt.Seed, chk, "warm-up rep", nil)
	pairs := max(minPairs, (minTrialSpans+perRep-1)/perRep, int(opt.Budget.Seconds()/(2*warmUp.wall)))
	n := min(replicaTrials, w.Trials)
	rec := newRecorder(spanCapacity(cs, w, pairs))
	rp := newReplica(rec, res, opt.Seed, w.Trials, cs, n)
	traced := wrapScenarios(scs, rec, w.Trials)
	var plain, spanned repSample
	var bc buildcache.Stats
	for i, chunk := 0, (n+pairs-1)/pairs; i < pairs; i++ {
		plain.add(timedRep(w, scs, opt.Seed, chk, fmt.Sprintf("untraced rep %d", i+1), nil))
		spanned.add(timedRep(w, traced, opt.Seed, chk, fmt.Sprintf("traced rep %d", i+1), rec))
		// harness.Run resets the build caches as it starts, so the
		// counters now describe the traced rep alone.
		bc = buildcache.TotalStats()
		// A slice of the replica follows every pair, so stage times and
		// rep walls are taken under the same host conditions.
		rp.run(min(i*chunk, n), min((i+1)*chunk, n), spanned.last.Results)
	}
	res.Digest = chk.want

	vs, err := victimBuilds(cs, opt.Seed)
	if err != nil {
		return nil, err
	}
	loadKB, err := runLadder(rec, vs)
	if err != nil {
		return nil, err
	}
	tiers, err := tierNsPerInstr(rec)
	if err != nil {
		return nil, err
	}

	h := func(name string) []float64 { return rec.durations(phaseHarness, name) }
	trialUs := append(h("harness.trial_cold"), h("harness.trial_warm")...)
	res.pct("harness.trial_us", trialUs)
	busy := sum(trialUs) + sum(h("harness.warm_new"))
	res.metric("harness.pool_overhead_frac", "fraction", 1-busy/(float64(w.Jobs)*sum(h("harness.rep"))), "")
	res.metric("buildcache.hits", "count", float64(bc.Hits), "")
	res.metric("buildcache.misses", "count", float64(bc.Misses), "")
	res.metric("buildcache.hit_ratio", "fraction", float64(bc.Hits)/float64(bc.Hits+bc.Misses), "")

	l := func(name string) []float64 { return rec.durations(phaseLadder, name) }
	res.p50("minc.compile_us", l("minc.compile"))
	res.p50("kernel.link_us", l("kernel.link"))
	res.pct("kernel.load_us", l("kernel.load"))
	res.metric("kernel.load_alloc_kb", "KiB", loadKB, "")
	res.p50("kernel.snapshot_us", l("kernel.snapshot"))
	res.pct("kernel.restore_us", l("kernel.restore"))
	res.p50("cfi.recover_us", l("cfi.recover"))
	for _, t := range chainTiers {
		res.metric("cpu.ns_per_instr."+t.name, "ns/instr", tiers[t.name], "")
	}
	ran := rp.ran[cold] + rp.ran[warm] + rp.campaigns
	res.metric("cpu.instrs_per_trial", "instrs", float64(rp.instrs[cold]+rp.instrs[warm]+rp.steps)/float64(ran), "")
	repNs := float64(perRep) / median(plain.tps) * 1e9
	res.metric("core.unattributed_frac", "fraction", 1-rp.predictedRepNs(w.Jobs)/repNs,
		fmt.Sprintf("replica predicts %.4g s of a %.4g s rep", rp.predictedRepNs(w.Jobs)/1e9, repNs/1e9))
	res.metric("trace_overhead_frac", "fraction", 1-median(spanned.tps)/median(plain.tps),
		fmt.Sprintf("%.6g traced vs %.6g untraced trials/s, %d pairs", median(spanned.tps), median(plain.tps), pairs))

	res.extras(rec, rp, spanned.last, perRep)
	if out != nil {
		keep := func(lane int32) bool { return lane == 0 || int(lane-1)%w.Trials < replicaTrials }
		name := func(lane int32) string {
			if lane == 0 {
				return w.Name
			}
			return fmt.Sprintf("%s/%d", scs[int(lane-1)/w.Trials].Name, int(lane-1)%w.Trials)
		}
		if err := rec.writeChrome(out, keep, name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// spanCapacity bounds the spans a traced run records: per pair, one
// span per trial, the rep and the warm builds; the replica's stages;
// the ladder's calls.
func spanCapacity(cs []cell, w Workload, pairs int) int {
	n := pairs * (len(cs)*w.Trials + 1 + len(cs)*w.Jobs)
	n += len(cs) * (1 + 6*min(replicaTrials, w.Trials))
	n += (2+ladderRestores)*(ladderLoads+len(cs)) + 3*max(ladderToolchain, len(cs)) + len(chainTiers)*chainSamples
	return n
}

// wrapScenarios returns copies of scs whose cold run, warm construction
// and warm trial each record a harness span. Scenario semantics are
// untouched: the wrappers only read the clock around the calls.
func wrapScenarios(scs []harness.Scenario, rec *recorder, trials int) []harness.Scenario {
	out := make([]harness.Scenario, len(scs))
	for si, s := range scs {
		run := s.Run
		s.Run = func(t harness.Trial) harness.TrialResult {
			t0 := rec.now()
			r := run(t)
			rec.since("harness.trial_cold", phaseHarness, laneOf(si, t.Index, trials), t0)
			return r
		}
		if s.Warm != nil {
			build := s.Warm.New
			s.Warm = &harness.WarmSpec{New: func() (harness.WarmInstance, error) {
				t0 := rec.now()
				inst, err := build()
				rec.since("harness.warm_new", phaseHarness, 0, t0)
				if err != nil {
					return nil, err
				}
				return tracedInstance{inst: inst, rec: rec, si: si, trials: trials}, nil
			}}
		}
		out[si] = s
	}
	return out
}

type tracedInstance struct {
	inst       harness.WarmInstance
	rec        *recorder
	si, trials int
}

func (t tracedInstance) RunTrial(tr harness.Trial) harness.TrialResult {
	t0 := t.rec.now()
	r := t.inst.RunTrial(tr)
	t.rec.since("harness.trial_warm", phaseHarness, laneOf(t.si, tr.Index, t.trials), t0)
	return r
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// p50 reports the median of a sample of microsecond timings and returns
// the sample's summary.
func (r *Result) p50(name string, us []float64) summary {
	s := summarize(us)
	if s.N == 0 {
		r.problem("%s: no samples", name)
	}
	r.metric(name+".p50", "us", s.P50, fmt.Sprintf("n=%d", s.N))
	return s
}

// pct reports the median and p99 of a sample of microsecond timings; a
// sample too small for a p99 is a fault of the benchmark's sizing.
func (r *Result) pct(name string, us []float64) {
	s := r.p50(name, us)
	if !tailOK(s.N, 990) {
		r.problem("%s: %d samples are too few for a p99", name, s.N)
	}
	r.metric(name+".p99", "us", s.P99, fmt.Sprintf("n=%d", s.N))
}

// extraDist reports a sample's median and tail as Extra metrics,
// skipping an empty sample.
func (r *Result) extraDist(name string, us []float64) {
	s := summarize(us)
	if s.N == 0 {
		return
	}
	r.extra(name+".p50", "us", s.P50, fmt.Sprintf("n=%d mean %.4g", s.N, s.Mean))
	if s.TailLabel != "" {
		r.extra(name+"."+s.TailLabel, "us", s.Tail, fmt.Sprintf("n=%d", s.N))
	}
}

// extras reports the numbers that apply to only some workloads, and the
// notes that break a trial down by stage.
func (r *Result) extras(rec *recorder, rp *replica, last *harness.Report, perRep int) {
	h := func(name string) []float64 { return rec.durations(phaseHarness, name) }
	q := func(name string) []float64 { return rec.durations(phaseReplica, name) }
	r.extraDist("harness.trial_cold_us", h("harness.trial_cold"))
	r.extraDist("harness.trial_warm_us", h("harness.trial_warm"))
	if n := h("harness.warm_new"); len(n) > 0 {
		r.extra("harness.warm_new_us.mean", "us", summarize(n).Mean, fmt.Sprintf("n=%d", len(n)))
	}
	r.extra("harness.warm_share", "fraction", float64(last.WarmRestores)/float64(perRep), "")
	for _, st := range []string{"core.scenario", "core.build_victim", "core.install_cfi", "kernel.warm_restore", "cpu.run", "core.classify", "fuzz.new"} {
		r.extraDist(st+"_us", q(st))
	}
	for path, label := range []string{cold: "victim_cold", warm: "victim_warm"} {
		if rp.instrs[path] > 0 {
			r.extra("cpu.ns_per_instr."+label, "ns/instr", float64(rp.runNs[path])/float64(rp.instrs[path]),
				fmt.Sprintf("%d trials", rp.ran[path]))
		}
	}
	if rp.execs > 0 {
		r.extraDist("fuzz.exec_us", rp.execUs)
		r.extra("fuzz.instrs_per_exec", "instrs", float64(rp.steps)/float64(rp.execs), "")
		r.extra("fuzz.admit_ratio", "fraction", float64(rp.admitted)/float64(rp.execs), "")
		r.extra("fuzz.crash_frac", "fraction", float64(rp.crashes)/float64(rp.execs), "")
	}
	r.Notes = append(r.Notes, breakdown(rec)...)
}

// breakdown renders where a replicated trial's time goes: for each trial
// kind, the mean time per trial of each stage and of the replica's own
// overhead (the trial span's self time).
func breakdown(rec *recorder) []string {
	self := selfTimes(rec.spans)
	type kind struct {
		ns, n  int64
		stages map[string]int64
	}
	kinds := map[string]*kind{}
	for i, s := range rec.spans {
		if s.phase != phaseReplica || s.parent >= 0 || s.lane == 0 {
			continue
		}
		name := rec.names[s.name]
		k := kinds[name]
		if k == nil {
			k = &kind{stages: map[string]int64{}}
			kinds[name] = k
		}
		k.ns += s.dur()
		k.n++
		k.stages["(replica overhead)"] += self[i]
	}
	for _, s := range rec.spans {
		if s.phase == phaseReplica && s.parent >= 0 {
			kinds[rec.names[rec.spans[s.parent].name]].stages[rec.names[s.name]] += s.dur()
		}
	}
	var out []string
	for _, name := range slices.Sorted(maps.Keys(kinds)) {
		k := kinds[name]
		mean := float64(k.ns) / float64(k.n) / 1e3
		out = append(out, fmt.Sprintf("%s: %d trials, %.4g us mean", name, k.n, mean))
		stages := slices.Collect(maps.Keys(k.stages))
		slices.SortFunc(stages, func(a, b string) int { return cmp.Compare(k.stages[b], k.stages[a]) })
		for _, st := range stages {
			us := float64(k.stages[st]) / float64(k.n) / 1e3
			out = append(out, fmt.Sprintf("  %-20s %10.4g us  %5.1f%%", st, us, 100*us/mean))
		}
	}
	return out
}
