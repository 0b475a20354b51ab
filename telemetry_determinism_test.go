// Telemetry accounting: engine counters reconcile exactly with retired
// instructions, per-trial stats never bleed across trials, fuzz
// campaigns count every exec, and collection off allocates nothing.
// That metrics, event traces and profiles are identical across widths,
// tiers and the other speed layers, and that collection never perturbs
// the report, is checked by the behaviour oracle (oracle_test.go).
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

// TestDecodeCountsReconcile pins the accounting identity of the
// stepping engine: every retired instruction is exactly one fetch, so
// decode hits + misses equals the retired-step counter.
func TestDecodeCountsReconcile(t *testing.T) {
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
	var res core.Result
	var snap *telemetry.Snap
	var err error
	underTier(t, "step", func() {
		res, snap, err = core.RunCollected(s, core.Mitigations{DEP: true}, &telemetry.Spec{})
	})
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

// TestReseededTrialsBuildNoBlocks: a reseeded attack trial is a fresh
// kernel.Load that retires a few dozen instructions, and none of its
// pcs is visited often enough to form a block, so the mc-aslr and
// mc-canary groups publish no cpu.block.builds: no trial of theirs
// allocates a block table.
func TestReseededTrialsBuildNoBlocks(t *testing.T) {
	reg := harness.NewRegistry()
	if err := core.RegisterScenariosFor(reg, ""); err != nil {
		t.Fatal(err)
	}
	for _, group := range []string{"mc-aslr", "mc-canary"} {
		rep := harness.Run(reg.Group(group), harness.Options{
			Trials: 4, Jobs: 1, BaseSeed: 1, Telemetry: &telemetry.Spec{},
		})
		c := rep.Telemetry.File().Counters
		if c["cpu.steps.retired"] == 0 {
			t.Fatalf("%s: no steps retired counted", group)
		}
		if n := c["cpu.block.builds"]; n != 0 {
			t.Errorf("%s: cpu.block.builds %d, want none", group, n)
		}
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
		Seed: 1, MaxExecs: 2000,
	}
	res, snap, err := fuzz.RunCollected(cfg, &telemetry.Spec{Events: true})
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
	// 2,000 execs emit more events than the ring holds, so it must wrap:
	// the export still works and the drop count is surfaced.
	if snap.Dropped == 0 {
		t.Fatalf("the %d-event ring never dropped over 2,000 execs", telemetry.DefaultEventCap)
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
