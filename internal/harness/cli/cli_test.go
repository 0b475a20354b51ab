package cli

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"softsec/internal/cpu"
	"softsec/internal/harness"
)

func testRegistry(t *testing.T) *harness.Registry {
	t.Helper()
	reg := harness.NewRegistry()
	run := func(outcome string) harness.RunFunc {
		return func(tr harness.Trial) harness.TrialResult {
			return harness.TrialResult{Outcome: outcome, Success: outcome == "win"}
		}
	}
	for _, s := range []harness.Scenario{
		{Name: "g1/a", Group: "g1", Run: run("win")},
		{Name: "g1/b", Group: "g1", Run: run("lose")},
		{Name: "g2/c", Group: "g2", Run: run("lose")},
	} {
		reg.MustRegister(s)
	}
	return reg
}

func TestRegisterDefaults(t *testing.T) {
	var s Sweep
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	s.Register(fs, 42)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Trials != 1 || s.Seed != 42 || s.JSON || s.List || s.Group != "" {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if s.TelemetrySpec() != nil {
		t.Fatal("telemetry collection on by default")
	}
	if err := fs.Parse([]string{"-trials", "8", "-jobs", "2", "-json", "-group", "g1", "-stats"}); err != nil {
		t.Fatal(err)
	}
	if s.Trials != 8 || s.Jobs != 2 || !s.JSON || s.Group != "g1" || !s.Stats {
		t.Fatalf("parsed wrong: %+v", s)
	}
	if s.TelemetrySpec() == nil {
		t.Fatal("-stats did not turn telemetry collection on")
	}
}

func TestApplyEngine(t *testing.T) {
	savedB, savedT := cpu.UseBlockEngine, cpu.UseTraceEngine
	defer func() { cpu.UseBlockEngine, cpu.UseTraceEngine = savedB, savedT }()
	for _, tc := range []struct {
		engine       string
		block, trace bool
	}{
		{"step", false, false},
		{"block", true, false},
		{"trace", true, true},
		{"", true, true},
	} {
		s := Sweep{Trials: 1, Engine: tc.engine}
		if err := s.Check(); err != nil {
			t.Fatalf("Check(-engine %q): %v", tc.engine, err)
		}
		if cpu.UseBlockEngine != tc.block || cpu.UseTraceEngine != tc.trace {
			t.Fatalf("Check(-engine %q): block=%v trace=%v, want %v/%v",
				tc.engine, cpu.UseBlockEngine, cpu.UseTraceEngine, tc.block, tc.trace)
		}
	}
	s := Sweep{Trials: 1, Engine: "turbo"}
	if err := s.Check(); err == nil ||
		!strings.Contains(err.Error(), `unknown -engine "turbo"`) {
		t.Fatalf("err = %v, want unknown-engine error", err)
	}
}

func TestSelectUnknownGroup(t *testing.T) {
	reg := testRegistry(t)
	if _, err := Select(reg, "nope"); err == nil ||
		!strings.Contains(err.Error(), `no scenarios in group "nope"`) {
		t.Fatalf("err = %v, want the shared unknown-group error", err)
	}
	all, err := Select(reg, "")
	if err != nil || len(all) != 3 {
		t.Fatalf("Select all: %d scenarios, err %v", len(all), err)
	}
	g1, err := Select(reg, "g1")
	if err != nil || len(g1) != 2 {
		t.Fatalf("Select g1: %d scenarios, err %v", len(g1), err)
	}
}

func TestPrintScenarios(t *testing.T) {
	reg := testRegistry(t)
	var buf bytes.Buffer
	s := Sweep{Group: "g2"}
	if err := s.PrintScenarios(&buf, reg); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "g2/c") || strings.Contains(got, "g1/a") {
		t.Fatalf("listing wrong:\n%s", got)
	}
}

func TestRunRendersTableAndJSON(t *testing.T) {
	reg := testRegistry(t)
	scs, err := Select(reg, "g1")
	if err != nil {
		t.Fatal(err)
	}
	s := Sweep{Trials: 2, Jobs: 1}
	var tbl bytes.Buffer
	rep, err := s.Run(&tbl, scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 || rep.Cells[0].Successes != 2 {
		t.Fatalf("report wrong: %+v", rep.Cells)
	}
	if !strings.Contains(tbl.String(), "g1/a") {
		t.Fatalf("table missing cells:\n%s", tbl.String())
	}
	s.JSON = true
	var js bytes.Buffer
	if _, err := s.Run(&js, scs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"scenario": "g1/a"`) {
		t.Fatalf("JSON missing cells:\n%s", js.String())
	}
}
