// Telemetry determinism suite: the contracts that make the metrics
// registry, guest profiler and event-trace export trustworthy — sweep
// metrics are byte-identical at any worker-pool width, guest profiles
// are byte-identical across execution tiers, collection never perturbs
// the report, engine counters reconcile exactly with retired
// instructions, and per-trial stats never bleed across trials.
package softsec

import (
	"bytes"
	"strings"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/core"
	"softsec/internal/cpu"
	"softsec/internal/fuzz"
	"softsec/internal/harness"
	"softsec/internal/kernel"
	"softsec/internal/mem"
	"softsec/internal/telemetry"
)

// telemetryScenarios returns a small deterministic slice of the real
// scenario catalog spanning both workload shapes: exploit-replay cells
// (t1) and fuzz-campaign cells.
func telemetryScenarios(t *testing.T) []harness.Scenario {
	t.Helper()
	reg := harness.NewRegistry()
	if err := core.RegisterScenariosFor(reg, ""); err != nil {
		t.Fatal(err)
	}
	t1 := reg.Group("t1")
	fz := reg.Group("fuzz")
	if len(t1) < 3 || len(fz) < 2 {
		t.Fatalf("catalog too small: %d t1, %d fuzz", len(t1), len(fz))
	}
	return []harness.Scenario{t1[0], t1[1], t1[2], fz[0], fz[1]}
}

// TestMetricsIdenticalAcrossJobs pins the headline registry contract:
// a -jobs 1 and a -jobs 4 sweep of the same cells serialize
// byte-identical metrics, folded profiles, and event-trace files.
func TestMetricsIdenticalAcrossJobs(t *testing.T) {
	scs := telemetryScenarios(t)
	spec := &telemetry.Spec{Profile: true, Events: true}
	artifacts := func(jobs int) (metrics, folded, trace []byte) {
		rep := harness.Run(scs, harness.Options{
			Trials: 2, Jobs: jobs, BaseSeed: 11, Telemetry: spec,
		})
		if rep.Telemetry == nil {
			t.Fatal("no registry on a telemetry run")
		}
		m, err := rep.Telemetry.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		var fb, tb bytes.Buffer
		if err := rep.Telemetry.WriteFolded(&fb); err != nil {
			t.Fatal(err)
		}
		if err := rep.Telemetry.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		return m, fb.Bytes(), tb.Bytes()
	}

	m1, f1, t1 := artifacts(1)
	m4, f4, t4 := artifacts(4)
	if !bytes.Equal(m1, m4) {
		t.Errorf("metrics differ between jobs 1 and 4:\n%s\nvs\n%s", m1, m4)
	}
	if !bytes.Equal(f1, f4) {
		t.Errorf("folded profiles differ between jobs 1 and 4")
	}
	if !bytes.Equal(t1, t4) {
		t.Errorf("event traces differ between jobs 1 and 4")
	}
	if err := telemetry.ValidateMetrics(m1); err != nil {
		t.Errorf("sweep metrics file invalid: %v", err)
	}
	if len(f1) == 0 {
		t.Error("profiled sweep produced an empty folded profile")
	}
}

// TestTelemetryDoesNotPerturbReport: the same sweep with and without
// collection yields a byte-identical report — telemetry observes, it
// never participates.
func TestTelemetryDoesNotPerturbReport(t *testing.T) {
	scs := telemetryScenarios(t)
	run := func(spec *telemetry.Spec) []byte {
		rep := harness.Run(scs, harness.Options{
			Trials: 2, Jobs: 2, BaseSeed: 7, Telemetry: spec,
		})
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	off := run(nil)
	on := run(&telemetry.Spec{Profile: true, Events: true})
	if !bytes.Equal(off, on) {
		t.Fatalf("collection changed the report:\n%s\nvs\n%s", off, on)
	}
}

// TestGuestProfileEngineIndependent: installing a profiler pins
// execution to the stepping engine, so -engine step/block/trace produce
// byte-identical folded profiles.
func TestGuestProfileEngineIndependent(t *testing.T) {
	savedB, savedT := cpu.UseBlockEngine, cpu.UseTraceEngine
	defer func() { cpu.UseBlockEngine, cpu.UseTraceEngine = savedB, savedT }()

	var spec core.AttackSpec
	for _, a := range core.Attacks() {
		if a.Name == "stack-smash-inject" {
			spec = a
		}
	}
	m := core.Mitigations{DEP: true}
	profiles := make(map[string][]byte)
	for _, tier := range []struct {
		name         string
		block, trace bool
	}{{"step", false, false}, {"block", true, false}, {"trace", true, true}} {
		cpu.UseBlockEngine, cpu.UseTraceEngine = tier.block, tier.trace
		s, err := spec.Scenario(m)
		if err != nil {
			t.Fatal(err)
		}
		// Interval 1: the replayed attack retires only a few dozen
		// instructions, so the default period would never sample.
		_, snap, err := core.RunCollected(s, m,
			&telemetry.Spec{Profile: true, ProfileInterval: 1})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		reg.AddSnap(snap)
		var b bytes.Buffer
		if err := reg.WriteFolded(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Fatalf("%s: empty profile", tier.name)
		}
		profiles[tier.name] = b.Bytes()
	}
	if !bytes.Equal(profiles["step"], profiles["block"]) ||
		!bytes.Equal(profiles["step"], profiles["trace"]) {
		t.Fatalf("profiles differ across engines:\nstep:\n%s\nblock:\n%s\ntrace:\n%s",
			profiles["step"], profiles["block"], profiles["trace"])
	}
}

// TestDecodeCountsReconcile pins the accounting identity of the
// stepping engine: every retired instruction is exactly one fetch, so
// decode hits + misses equals the retired-step counter.
func TestDecodeCountsReconcile(t *testing.T) {
	savedB, savedT := cpu.UseBlockEngine, cpu.UseTraceEngine
	cpu.UseBlockEngine, cpu.UseTraceEngine = false, false
	defer func() { cpu.UseBlockEngine, cpu.UseTraceEngine = savedB, savedT }()

	s := core.Scenario{
		Name: "benign-echo",
		Source: `
void main() {
	char buf[16];
	read(0, buf, 8);
	write(1, buf, 4);
}`,
		Attacker: &kernel.ScriptInput{[]byte("hi")},
	}
	res, snap, err := core.RunCollected(s, core.Mitigations{DEP: true},
		&telemetry.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Normal {
		t.Fatalf("outcome %v, want normal", res.Outcome)
	}
	hits := snap.Counters["cpu.decode.hits"]
	misses := snap.Counters["cpu.decode.misses"]
	retired := snap.Counters["cpu.steps.retired"]
	if retired == 0 {
		t.Fatal("no retired instructions counted")
	}
	if hits+misses != retired {
		t.Fatalf("decode hits %d + misses %d = %d, want retired %d",
			hits, misses, hits+misses, retired)
	}
}

// TestNoBleedAcrossTrials: a 2-trial sweep of a deterministic cell
// counts exactly twice the 1-trial sweep — the attach-fresh contract
// that stops BlockStats/TraceStats bleeding between harness trials.
// The run-level counters are exempt and pinned exactly instead: the
// trial count, and the build-cache lookups, where each (warm) trial
// makes one counted victim lookup and the run misses only on the first.
func TestNoBleedAcrossTrials(t *testing.T) {
	var spec core.AttackSpec
	for _, a := range core.Attacks() {
		if a.Name == "stack-smash-inject" {
			spec = a
		}
	}
	// No ASLR/canary: every trial is identical regardless of seed.
	sc := core.TrialScenario(spec, core.Mitigations{DEP: true}, true)
	counters := func(trials int) map[string]uint64 {
		rep := harness.Run([]harness.Scenario{sc}, harness.Options{
			Trials: trials, Jobs: 1, BaseSeed: 3,
			Telemetry: &telemetry.Spec{},
		})
		return rep.Telemetry.File().Counters
	}
	runLevel := func(name string) bool {
		return name == "harness.trials" || strings.HasPrefix(name, "buildcache.")
	}
	perTrial := func(c map[string]uint64) int {
		n := 0
		for name := range c {
			if !runLevel(name) {
				n++
			}
		}
		return n
	}
	one := counters(1)
	two := counters(2)
	for name, v := range one {
		if runLevel(name) || v == 0 {
			continue
		}
		if two[name] != 2*v {
			t.Errorf("%s: 1-trial %d, 2-trial %d (want exactly double)",
				name, v, two[name])
		}
	}
	if perTrial(two) != perTrial(one) {
		t.Errorf("per-trial counter sets differ: %d vs %d names", perTrial(one), perTrial(two))
	}
	for trials, c := range map[uint64]map[string]uint64{1: one, 2: two} {
		if got := c["buildcache.core.victim.hits"] + c["buildcache.core.victim.misses"]; got != trials {
			t.Errorf("%d-trial run: %d victim lookups, want one per trial", trials, got)
		}
		if got := c["buildcache.misses"]; got != 1 {
			t.Errorf("%d-trial run: %d build-cache misses, want 1 (the victim)", trials, got)
		}
	}
	if one["cpu.steps.retired"] == 0 {
		t.Error("no steps retired counted")
	}
}

// TestFuzzCampaignTelemetry: campaign collection reconciles — execs
// counted equals the configured budget, every exec classified, and the
// accumulated retired-step total survives the snapshot-restore rollback
// of the CPU's own counter.
func TestFuzzCampaignTelemetry(t *testing.T) {
	cfg := fuzz.Config{
		Name: "echo",
		Source: `
void main() {
	char buf[16];
	read(0, buf, 64); // spatial memory-safety vulnerability
	write(1, buf, 5);
}`,
		Seed: 1, MaxExecs: 300,
	}
	res, snap, err := fuzz.RunCollected(cfg, &telemetry.Spec{Events: true, EventCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := snap.Counters
	if c["fuzz.execs"] != uint64(res.Execs) {
		t.Fatalf("fuzz.execs %d, want %d", c["fuzz.execs"], res.Execs)
	}
	classified := c["fuzz.exec.crashed"] + c["fuzz.exec.detected"] +
		c["fuzz.exec.hung"] + c["fuzz.exec.exploited"] + c["fuzz.exec.clean"]
	if classified != c["fuzz.execs"] {
		t.Fatalf("classified %d of %d execs", classified, c["fuzz.execs"])
	}
	if res.TotalSteps == 0 || c["cpu.steps.retired"] != res.TotalSteps {
		t.Fatalf("retired %d, want accumulated TotalSteps %d",
			c["cpu.steps.retired"], res.TotalSteps)
	}
	if c["mem.restore.cycles"] == 0 {
		t.Fatal("campaign restored no snapshots")
	}
	// 300 execs through a 64-slot ring must wrap: the export still works
	// and the drop count is surfaced.
	if snap.Dropped == 0 {
		t.Fatal("64-event ring never dropped over 300 execs")
	}
	reg := telemetry.NewRegistry()
	snap.Scenario = "fuzz/echo"
	reg.AddSnap(snap)
	var b bytes.Buffer
	if err := reg.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b.Bytes(), []byte("fuzz.exec")) ||
		!bytes.Contains(b.Bytes(), []byte("events.dropped")) {
		t.Fatalf("trace export missing fuzz events:\n%s", b.String())
	}
}

// TestTelemetryOffZeroAlloc guards the nil-hook contract on the hot
// path: with no telemetry attached, stepping allocates nothing.
func TestTelemetryOffZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	c := benchLoopCPUFromTest(t)
	s := c.SaveArch()
	c.Run(4096) // warm every cache and hotness gate
	c.RestoreArch(s)
	avg := testing.AllocsPerRun(10, func() {
		c.RestoreArch(s) // rewind so each run executes the full budget
		if st := c.Run(4096); st != cpu.StepLimit {
			t.Fatalf("state %v fault %v", st, c.Fault())
		}
	})
	if avg != 0 {
		t.Fatalf("telemetry-off run allocates %.1f objects per 4096 steps", avg)
	}
}

// benchLoopCPUFromTest mirrors bench_test.go's benchLoopCPU for plain
// tests: a bare machine spinning in a two-instruction loop.
func benchLoopCPUFromTest(t *testing.T) *cpu.CPU {
	t.Helper()
	img := asm.MustAssemble("loop", `
	.text
loop:
	add esi, 1
	jmp loop
`)
	m := mem.New()
	if err := m.Map(0x1000, mem.PageSize, mem.RX); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadRaw(0x1000, img.Text); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(m)
	c.IP = 0x1000
	return c
}
