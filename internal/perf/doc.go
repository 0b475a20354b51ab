// Package perf is the repository benchmark: five named workloads run
// through the public harness.Run path, checked against golden report
// digests, and measured end to end; and a traced run that times the
// calls into each layer from outside, so the per-layer numbers add up
// to the end-to-end cost of a trial.
//
// # Commands
//
//	bash cmd/perf/run.sh -workload t1_sweep -seed 1 -seconds 22            # end-to-end metrics
//	bash cmd/perf/run.sh -workload t1_sweep -seed 1 -seconds 22 -trace 1   # per-layer metrics and a Chrome trace
//
// run.sh builds cmd/perf from source and runs it; without -workload it
// runs every workload in turn. cmd/perf is a module of its own, so the
// benchmark builds from its own directory, but it only calls Main, so
// `go build ./...` and `go test ./...` of the repository compile and test
// everything the command does. Go keeps its build cache and telemetry
// counters under the user's home directory by default; run.sh points
// them at .bench_build. Each run prints its metrics by name with their
// units, then one JSON line {"correct", "attempted", "failed",
// "metrics"}, and exits 1 when any output failed its check. The traced
// run writes its spans to .bench_build/perf-trace-<workload>.json (or
// -traceout) as Chrome trace_event JSON, which Perfetto loads: one
// process per phase, one thread per trial named by its scenario/index
// id.
//
// # Load model
//
// Closed loop: one process, one harness.Run with Jobs workers (1, or 2
// on t1_sweep_j2), each worker starting its next trial when the last one
// returns. -seed is harness.Options.BaseSeed; the program sees only the
// trials derived from it. A rep is one harness.Run over the workload's
// cells, sized at 1 to 1.7 s on a 2-CPU host; harness.Run resets the
// build caches, so every rep pays the same compile, link and recon
// misses. A run times reps for -seconds (at least two) and reports
// medians; the human-readable table adds quartiles and the rep count.
//
// # Garbage collector
//
// Every run of the command sets GOGC to 400 (debug.SetGCPercent, which
// overrides a GOGC in the environment). The workloads allocate 60 to
// 650 KiB per trial against a live heap of a few MB to a few tens of MB,
// mostly the reports of the last and the current rep. At Go's default of
// 100 the collector ran hundreds of cycles a second (about 3,100 in a
// 4-second aslr_sweep run), and each cycle hands work to the second
// processor and waits for it, so a run's speed followed whatever else
// the host ran there. Ten-second runs alternating GOGC=100 and GOGC=400
// (six of each on cfi_warm, four on the others; medians and spreads), on
// the host below:
//
//	workload      trials/s at 100   spread   trials/s at 400   spread
//	cfi_warm      52,800            14%      57,400            11%
//	t1_sweep_j2   24,300            22%      28,300             5%
//	aslr_sweep     9,700            20%      15,800            16%
//
// Two sets of ten 18 s runs of cfi_warm at GOGC=100 had spread by 16%
// and 30%. GOGC=1000 was no steadier than 400. The price: a change that
// allocates less moves trials_per_sec less than it would at the default,
// while alloc_kb_per_trial shows it in full. Peak resident memory on
// cfi_warm, the largest, is about 210 MB untraced and 460 MB traced.
//
// # Workloads
//
//	name            cells · trials/cell · jobs        why
//	t1_sweep        t1 66 · 500 · 1                   the attacklab grid: ~45% warm-restored, ~55% cold-loaded trials, so every pipeline stage runs
//	t1_sweep_j2     t1 66 · 500 · 2                   the same inputs on two workers: pool scheduling, singleflight and per-worker warm builds cost only here
//	aslr_sweep      mc-aslr+mc-canary 15 · 1000 · 1   every trial reseeded: a recon cache hit, then kernel.Load of a fresh layout; warm restore does nothing
//	cfi_warm        cfi 32 · 3000 · 1                 ~88% warm restores under a CFI policy: restore and policy-checked execution dominate, Load is nearly absent
//	fuzz_campaigns  fuzz 24 · 16 · 1                  1,500-exec campaigns: trace-tier hot code, a restore per exec, mutation, coverage; core and buildcache idle
//
// The workloads differ in the properties the program's speed depends
// on: the warm/cold mix (45%, 0%, 88% warm; campaigns restore per
// exec), how much work trials share through the build caches, and code
// that runs once (~76 instructions per sweep trial) against hot loops.
//
// # End-to-end metrics
//
//	name                unit       better  bound  definition
//	trials_per_sec      trials/s   higher  25%    cells × trials per cell / rep wall time, median of the reps; a fuzz trial is a 1,500-exec campaign
//	setup_s             s          lower   25%    one harness.Run with Trials: 1 over every cell from cold caches (what attacklab -trials 1 waits for); median of ≥15 passes spread over the run
//	alloc_kb_per_trial  KiB/trial  lower   2%     runtime.MemStats.TotalAlloc over a rep / trials, median of the reps; exact at one worker
//
// The JSON line's "failed" counts trials with TrialResult.Err, every
// trial of a rep whose report digest is wrong, and replica trials whose
// outcome differs from the harness's; "attempted" counts all of them.
// A run is correct only when failed is 0. Failures are counted, not
// reported as a metric, because the metric would be 0 on every run.
//
// # Host speed and the timing bounds
//
// The timing bounds are 25% because the host is noisy; the goal of 10%
// is not met (see Baseline). The numbers here come from a shared 2-vCPU
// Xeon virtual machine. The noise is the host's, not the inputs': the
// guest instructions retired by a rep differ by at most 0.6% between
// seeds (fuzz_campaigns; 0.01% on t1_sweep, none on cfi_warm). On this
// host:
//
//   - A fixed loop of arithmetic took from 0.45 to 0.63 ms from one
//     millisecond to the next, and its median over a second drifted by
//     about 20% within half a minute.
//   - Little time was stolen by the hypervisor: 8 of 4,000 ticks in 20 s
//     with one processor busy, about 0.4% over two measurement sets, in
//     bursts. Process CPU time followed wall time rep by rep (their
//     ratio held at 1.46–1.52 while a rep's speed ranged from 69,000 to
//     100,000 trials/s), so timing by CPU time would be as noisy.
//   - The host's speed moves over minutes, and moves every workload
//     together: in ten rounds of the five workloads over 20 minutes,
//     every workload ran 8–23% slower in the last three rounds than in
//     the first three, and a run's set-up time rose when its throughput
//     fell.
//   - Ten runs at ten seeds spread (interquartile range / median) by
//     9–13% on trials_per_sec when each workload's runs came one after
//     another, and by up to 24% (fuzz_campaigns) when they were spread
//     over those 20 minutes; setup_s spread by 9–35%. The median of a
//     set moved by up to 11% between the two sets (see Baseline).
//   - Scaling timings by a probe run once a millisecond between trials
//     (the arithmetic loop plus a chain of dependent loads over a 64 MiB
//     buffer) cut most spreads within a set by a third to a half, but
//     between two sets the probe slowed by 23–46% while cfi_warm and
//     fuzz_campaigns ran 3–8% faster, so their scaled medians moved by
//     28% and 37%, more than the unscaled ones. The probe follows
//     memory contention that the cache-resident workloads barely feel,
//     and no single probe (arithmetic alone, independent loads, a
//     cache-sized buffer, or the fastest of each stretch of trials over
//     the reps) matched every workload, so the timings are plain wall
//     time. A cache-sized buffer also slowed with the workload's own
//     cache use, which would have hidden the program's own memory
//     savings.
//
// Longer runs do not remove the drift, which is slower than a run, and
// all runs of a full comparison must fit in under an hour; 22 s runs
// are as long as that allows with a margin. Allocation is deterministic
// to within 0.3% and keeps a 2% bound.
//
// # Correctness
//
// Every rep's Report.JSON() must hash to the same sha256: the golden
// digest for seed 1 at full size (golden, pinned by TestGoldenDigests),
// otherwise the run's first rep. t1_sweep_j2 first runs an untimed
// one-worker rep, and every two-worker rep must equal it, so the -jobs
// invariance contract is checked on every run. An untraced run also
// re-runs the first two trials of every cell through the replica
// (below) and compares outcomes.
//
// # Traced run
//
// A traced run warms up with one untimed rep, then alternates untraced
// reps with reps whose Scenario.Run, WarmSpec.New and
// WarmInstance.RunTrial are wrapped in spans; trace_overhead_frac
// compares the two. Interleaving puts everything the run compares under
// the same host conditions:
//
//   - after each pair, a slice of the replica: the first 300 trials of
//     every cell re-run stage by stage through public functions —
//     a.Scenario(m) → core.BuildVictim → core.InstallCFI → p.Run →
//     core.Classify for a cold trial, p.Restore → p.Run → core.Classify
//     for a warm one, fuzz.New then Campaign.Fuzz(1) per exec for a
//     campaign — each outcome it can derive checked against the report
//     (TestReplicaMatchesHarness);
//   - at the end, the ladder: it times minc.Compile, kernel.Link,
//     kernel.Load, Snapshot/Restore and cfi.Recover on the workload's own
//     victims, and each interpreter tier's ns/instr on step_loop,
//     block_chain8 and trace_chain8 (the tier globals are restored
//     afterwards).
//
// Spans are pointer-free and live in one buffer allocated before the
// first timed rep: the live heap sets how often the garbage collector
// runs, which moved t1_sweep by about 12% per 8 MB at GOGC=100, so it
// must be the same for untraced reps, traced reps and the replica. A
// span's self time is its duration minus the union of its children's
// intervals.
//
// # Per-layer metrics
//
// Reported by every traced run (they apply to every workload):
//
//	harness.trial_us.{p50,p99}             us        one trial (a campaign on fuzz_campaigns) as the harness runs it
//	harness.pool_overhead_frac             fraction  1 − Σ trial and warm-build spans / (jobs × rep wall)
//	buildcache.{hits,misses,hit_ratio}     count     build-cache lookups of one rep
//	minc.compile_us.p50, kernel.link_us.p50 us       toolchain, per victim
//	kernel.load_us.{p50,p99}               us        a fresh load (a fresh layout under ASLR)
//	kernel.load_alloc_kb                   KiB       allocated per load
//	kernel.snapshot_us.p50, kernel.restore_us.{p50,p99}  us  restore after a run of the victim
//	cfi.recover_us.p50                     us        CFG recovery of a loaded victim
//	cpu.ns_per_instr.{step_loop,block_chain8,trace_chain8}  ns/instr  each tier on its loop
//	cpu.instrs_per_trial                   instrs    exact count over the replicated trials
//	core.unattributed_frac                 fraction  1 − the replica's stage times extrapolated to a rep / the untraced rep wall
//	trace_overhead_frac                    fraction  1 − traced / untraced trials_per_sec
//
// Printed as well where the workload has them: harness.trial_cold_us and
// harness.trial_warm_us, harness.warm_new_us.mean, harness.warm_share,
// the replica's stages (core.scenario_us, core.build_victim_us,
// core.install_cfi_us, kernel.warm_restore_us, cpu.run_us,
// core.classify_us), cpu.ns_per_instr.victim_cold and victim_warm, and
// for campaigns fuzz.new_us, fuzz.exec_us, fuzz.instrs_per_exec,
// fuzz.admit_ratio and fuzz.crash_frac. Tails are the highest percentile
// with at least ten samples beyond it.
//
// Which end-to-end metric each layer metric should move, and where:
//
//	layer metric                                              moves                       most on                   ~no change on
//	kernel.load_us, kernel.load_alloc_kb                      trials_per_sec, alloc_kb    aslr_sweep, t1_sweep      cfi_warm, fuzz_campaigns
//	kernel.restore_us, kernel.snapshot_us, trial_warm_us      trials_per_sec              cfi_warm, fuzz_campaigns  aslr_sweep
//	core.scenario_us, core.build_victim_us, trial_cold_us     trials_per_sec              aslr_sweep, t1_sweep      fuzz_campaigns
//	buildcache.*, minc.compile_us, kernel.link_us, warm_new   setup_s                     all sweeps                steady-state trials_per_sec
//	cfi.recover_us, core.install_cfi_us                       setup_s, trials_per_sec     cfi_warm cold cells       aslr_sweep
//	cpu.ns_per_instr.*, cpu.instrs_per_trial                  trials_per_sec              fuzz_campaigns, cfi_warm  aslr_sweep (one-shot code)
//	fuzz.*                                                    trials_per_sec              fuzz_campaigns            every sweep
//	harness.warm_share, harness.pool_overhead_frac            trials_per_sec              t1_sweep_j2               aslr_sweep
//	core.unattributed_frac, trace_overhead_frac               accounting only             t1_sweep                  —
//
// # Where a t1 trial's time goes
//
// A traced run of t1_sweep (seed 1, 22 s, on the host above) accounts
// for a whole trial. The traced reps ran at 19,400 trials/s, 52 µs per
// trial. 55% of trials are cold (harness span: mean 84 µs, p50 69 µs)
// and 45% are warm (mean 4.7 µs, p50 1.8 µs). The replica splits them
// as follows:
//
//	cold trial, 83.8 µs mean over 10,800 trials
//	  core.build_victim   40.7 µs  49%   link-cache hit, then kernel.Load (ladder: p50 33 µs, 118 KiB allocated per load)
//	  cpu.run             32.7 µs  39%   ~76 instructions at ~430 ns each: cold decode, first-touch pages, a tail of long wild runs
//	  core.scenario        9.4 µs  11%   recon-cache hit plus payload build
//	  core.classify        0.2 µs
//	  replica overhead     0.8 µs
//	warm trial, 5.9 µs mean over 9,000 trials
//	  cpu.run              4.8 µs  81%   ~62 ns/instr with warm caches
//	  kernel.warm_restore  0.4 µs   7%
//	  core.classify        0.2 µs   3%
//	  replica overhead     0.5 µs   9%
//
// Extrapolated to a rep, the stage times cover 92% of the untraced rep
// wall (core.unattributed_frac 0.083; 0.035–0.088 over four earlier runs
// at GOGC=100). The rest is about what the harness spends between
// trials (harness.pool_overhead_frac: 6% at one worker, 20% at two). So
// a t1 trial costs a cold trial's Load plus its first execution. The
// warm path and the toolchain are a small share: 57 build-cache misses
// against 53,981 hits per rep. Tracing costs within the noise
// (trace_overhead_frac −0.013 here, −0.03 to +0.05 earlier). A t1 trial
// averages 42–57 µs here (median of reps at 500 trials per cell). The
// roadmap's ~81 µs comes from one timed sweep of 64 trials per cell in
// BENCH_sweep.json.
//
// # Baseline
//
// Two sets of ten untraced 22 s runs on the host above. The first
// (seeds 1–10) ran the five workloads in ten rounds over 20 minutes;
// the second (seeds 11–20) ran each workload's ten runs one after
// another. Each cell gives the median of the ten runs, with the spread
// (interquartile range / median) in brackets:
//
//	workload        trials_per_sec               setup_s                       alloc_kb_per_trial
//	t1_sweep        18,865 [12%] / 20,642 [13%]  20.6 [16%] / 18.5 [18%] ms    153.15 / 153.16
//	t1_sweep_j2     27,979 [9%]  / 29,161 [9%]   12.4 [13%] / 11.1 [11%] ms    153.80 / 153.81
//	aslr_sweep      16,203 [17%] / 17,624 [11%]  2.88 [21%] / 2.57 [15%] ms    245.61 / 245.65
//	cfi_warm        62,318 [10%] / 63,700 [9%]   11.0 [16%] / 10.5 [9%] ms     61.29 / 61.29
//	fuzz_campaigns   298.3 [24%] /  307.5 [14%]  76.9 [35%] / 76.3 [18%] ms    647.4 / 646.7
//
// Every trials_per_sec and alloc_kb_per_trial spread is within its
// bound, and every median moved by at most 11% (setup_s on aslr_sweep)
// between the sets. setup_s, a pass of a few milliseconds, spreads more
// across runs and is judged by its median alone. No timing spread is below a third of its 25% bound. Against
// 10% bounds, six of the ten trials_per_sec spreads would fail, and so
// would the setup_s medians of t1_sweep, t1_sweep_j2 and aslr_sweep,
// which moved by 10.0–10.8%, had the sets run in the other order. The
// runs of the second set took 22.2–24.9 s each; every run was correct.
package perf
