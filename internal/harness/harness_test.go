package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTrialSeedDeterministicAndDistinct(t *testing.T) {
	a := TrialSeed(42, "t1/rop", 3)
	if b := TrialSeed(42, "t1/rop", 3); a != b {
		t.Fatalf("same inputs gave %d and %d", a, b)
	}
	if b := TrialSeed(42, "t1/rop", 4); a == b {
		t.Fatal("adjacent trials share a seed")
	}
	if b := TrialSeed(42, "t1/ret2libc", 3); a == b {
		t.Fatal("distinct scenarios share a seed")
	}
	if b := TrialSeed(43, "t1/rop", 3); a == b {
		t.Fatal("base seed does not reach the derivation")
	}
	// Sweep a window and require no collisions inside one scenario.
	seen := make(map[int64]bool)
	for i := 0; i < 1024; i++ {
		s := TrialSeed(7, "sweep", i)
		if seen[s] {
			t.Fatalf("seed collision at trial %d", i)
		}
		seen[s] = true
	}
}

func TestRegistryOrderDupsAndGroups(t *testing.T) {
	r := NewRegistry()
	mk := func(name, group string) Scenario {
		return Scenario{Name: name, Group: group, Run: func(Trial) TrialResult { return TrialResult{} }}
	}
	for _, s := range []Scenario{mk("b/one", "b"), mk("a/two", "a"), mk("b/three", "b")} {
		if err := r.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(mk("a/two", "a")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(Scenario{Name: "nil-run"}); err == nil {
		t.Fatal("nil Run accepted")
	}
	all := r.All()
	if len(all) != 3 || all[0].Name != "b/one" || all[2].Name != "b/three" {
		t.Fatalf("order not preserved: %+v", all)
	}
	if g := r.Group("b"); len(g) != 2 || g[1].Name != "b/three" {
		t.Fatalf("group b: %+v", g)
	}
	if gs := r.Groups(); len(gs) != 2 || gs[0] != "a" || gs[1] != "b" {
		t.Fatalf("groups: %v", gs)
	}
	if _, ok := r.Lookup("a/two"); !ok {
		t.Fatal("lookup failed")
	}
}

// seedParity is a synthetic scenario whose outcome depends only on the
// trial seed, so aggregates are predictable and job-count independent.
func seedParity(name string) Scenario {
	return Scenario{
		Name:  name,
		Group: "synthetic",
		Run: func(tr Trial) TrialResult {
			if tr.Seed%2 == 0 {
				return TrialResult{Outcome: "even", Success: true}
			}
			return TrialResult{Outcome: "odd"}
		},
	}
}

func TestEngineAggregation(t *testing.T) {
	rep := Run([]Scenario{seedParity("p")}, Options{Trials: 64, Jobs: 4, BaseSeed: 5})
	c := rep.Cells[0]
	if c.Trials != 64 || c.Outcomes["even"]+c.Outcomes["odd"] != 64 {
		t.Fatalf("bad counts: %+v", c)
	}
	if c.Successes != c.Outcomes["even"] {
		t.Fatalf("successes %d != even %d", c.Successes, c.Outcomes["even"])
	}
	want := float64(c.Successes) / 64
	if c.SuccessRate != want {
		t.Fatalf("rate %v want %v", c.SuccessRate, want)
	}
	if len(rep.Results) != 1 || len(rep.Results[0]) != 64 {
		t.Fatalf("raw results shape %d x %d", len(rep.Results), len(rep.Results[0]))
	}
}

func TestEngineJobsDoNotChangeResults(t *testing.T) {
	scs := []Scenario{seedParity("a"), seedParity("b"), seedParity("c")}
	run := func(jobs int) []byte {
		rep := Run(scs, Options{Trials: 50, Jobs: jobs, BaseSeed: 11})
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	for _, jobs := range []int{2, 8, 32} {
		if got := run(jobs); !bytes.Equal(one, got) {
			t.Fatalf("jobs=%d report differs from jobs=1:\n%s\nvs\n%s", jobs, one, got)
		}
	}
}

// TestEngineRunsEveryTrialExactlyOnce pins the claim loop's unit-to-slot
// mapping: with several scenarios a trial index alone no longer names a
// slot, so every slot must run once, see its own scenario, index and
// seed, and land its result in its own place — at one worker, at more
// workers than units, and with nothing to run.
func TestEngineRunsEveryTrialExactlyOnce(t *testing.T) {
	const trials, seed = 20, 3
	names := []string{"count/a", "count/b", "count/c"}
	slot := func(name string, ti int, trialSeed int64) string {
		return fmt.Sprintf("%s#%d@%d", name, ti, trialSeed)
	}
	for _, jobs := range []int{1, 2, 7, 64} {
		seen := make([][]atomic.Int32, len(names))
		scs := make([]Scenario, len(names))
		for si, name := range names {
			seen[si] = make([]atomic.Int32, trials)
			scs[si] = Scenario{Name: name, Run: func(tr Trial) TrialResult {
				seen[si][tr.Index].Add(1)
				return TrialResult{Outcome: "ok", Detail: slot(tr.Scenario, tr.Index, tr.Seed)}
			}}
		}
		rep := Run(scs, Options{Trials: trials, Jobs: jobs, BaseSeed: seed})
		for si, name := range names {
			for ti := 0; ti < trials; ti++ {
				if n := seen[si][ti].Load(); n != 1 {
					t.Fatalf("jobs=%d: %s trial %d ran %d times", jobs, name, ti, n)
				}
				want := slot(name, ti, TrialSeed(seed, name, ti))
				if got := rep.Results[si][ti].Detail; got != want {
					t.Fatalf("jobs=%d: slot %s/%d holds %q, want %q", jobs, name, ti, got, want)
				}
			}
		}
	}
	for _, jobs := range []int{1, 64} {
		rep := Run(nil, Options{Trials: trials, Jobs: jobs})
		if len(rep.Cells) != 0 || len(rep.Results) != 0 {
			t.Fatalf("jobs=%d: empty run gave %d cells, %d result rows", jobs, len(rep.Cells), len(rep.Results))
		}
	}
}

func TestEnginePanicAndErrorBecomeCellErrors(t *testing.T) {
	s := Scenario{Name: "bad", Run: func(tr Trial) TrialResult {
		if tr.Index == 0 {
			panic("boom")
		}
		return TrialResult{Err: fmt.Errorf("infra %d", tr.Index)}
	}}
	rep := Run([]Scenario{s}, Options{Trials: 3, Jobs: 2})
	c := rep.Cells[0]
	if c.Errors != 3 {
		t.Fatalf("errors %d, want 3: %+v", c.Errors, c)
	}
	if c.SuccessRate != 0 {
		t.Fatalf("rate %v with zero completed trials", c.SuccessRate)
	}
	if c.FirstError == "" {
		t.Fatal("first error not preserved")
	}
}

func TestRenderTable(t *testing.T) {
	rep := Run([]Scenario{seedParity("t1/x/none")}, Options{Trials: 8, BaseSeed: 1, Jobs: 2})
	out := rep.Render()
	if !strings.Contains(out, "t1/x/none") || !strings.Contains(out, "trials") {
		t.Fatalf("render:\n%s", out)
	}
}

// BenchmarkRunBusyTrials measures the worker pool alone: 16 scenarios of
// 250 trials, each a fixed busy loop of about 5 µs, so ns/trial at jobs 2
// against jobs 1 shows how much of a second worker the pool turns into
// trials.
func BenchmarkRunBusyTrials(b *testing.B) {
	const cells, trials, iters = 16, 250, 2048
	scs := make([]Scenario, cells)
	for i := range scs {
		scs[i] = Scenario{Name: fmt.Sprintf("busy/%d", i), Run: func(tr Trial) TrialResult {
			x := uint64(tr.Seed) | 1
			for range iters {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			return TrialResult{Outcome: "ok", Success: x&1 == 0}
		}}
	}
	for _, jobs := range []int{1, 2} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for range b.N {
				Run(scs, Options{Trials: trials, Jobs: jobs})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells*trials), "ns/trial")
		})
	}
}
