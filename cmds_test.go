package softsec

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"softsec/internal/telemetry"
)

// cmds_test.go builds every command-line tool and exercises it end to end
// (the "does the shipped binary actually work" layer above the unit
// tests).

func buildTools(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, tool := range []string{"minc", "smasm", "secsim", "figures", "attacklab", "rundiff"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return bin
}

// runToolStd is runTool with stdout and stderr captured separately —
// for the byte-identity checks where stdout must stay pure report
// output while progress lines and ledger notices land on stderr.
func runToolStd(t *testing.T, bin, tool string, wantExit int, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, tool), args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s%s", tool, args, err, so.String(), se.String())
	}
	if exit != wantExit {
		t.Fatalf("%s %v: exit %d, want %d\n%s%s", tool, args, exit, wantExit, so.String(), se.String())
	}
	return so.String(), se.String()
}

func runTool(t *testing.T, bin, tool string, wantExit int, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, tool), args...)
	out, err := cmd.CombinedOutput()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	if exit != wantExit {
		t.Fatalf("%s %v: exit %d, want %d\n%s", tool, args, exit, wantExit, out)
	}
	return string(out)
}

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	work := t.TempDir()

	// A vulnerable program for minc.
	cFile := filepath.Join(work, "vuln.c")
	if err := os.WriteFile(cFile, []byte(`
void main() {
	char buf[16];
	int n = read(0, buf, 64);
	write(1, buf, n);
}`), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("minc -S", func(t *testing.T) {
		out := runTool(t, bin, "minc", 0, "-S", cFile)
		if !strings.Contains(out, "push ebp") || !strings.Contains(out, ".global main") {
			t.Fatalf("assembly output:\n%s", out)
		}
	})
	t.Run("minc -run", func(t *testing.T) {
		// The guest's exit status propagates: main leaves write's
		// return value (5 bytes) in EAX.
		out := runTool(t, bin, "minc", 5, "-run", "-in", "hello", cFile)
		if !strings.Contains(out, "hello") {
			t.Fatalf("run output:\n%s", out)
		}
	})
	t.Run("minc -analyze", func(t *testing.T) {
		out := runTool(t, bin, "minc", 1, "-analyze", cFile)
		if !strings.Contains(out, "spatial") {
			t.Fatalf("analysis output:\n%s", out)
		}
	})

	sFile := filepath.Join(work, "prog.s")
	if err := os.WriteFile(sFile, []byte(`
	.text
	.global main
main:
	push ebx
	mov eax, 42
	pop ebx
	ret
`), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("smasm", func(t *testing.T) {
		out := runTool(t, bin, "smasm", 0, "-d", "-gadgets", sFile)
		if !strings.Contains(out, "global .text") || !strings.Contains(out, "mov eax, 0x2a") {
			t.Fatalf("smasm output:\n%s", out)
		}
		if !strings.Contains(out, "pop ebx; ret") {
			t.Fatalf("gadget mining output:\n%s", out)
		}
	})

	t.Run("figures", func(t *testing.T) {
		out := runTool(t, bin, "figures", 0, "-fig", "4")
		if !strings.Contains(out, "received the secret 666") {
			t.Fatalf("figures output:\n%s", out)
		}
	})

	t.Run("attacklab list", func(t *testing.T) {
		out := runTool(t, bin, "attacklab", 0, "-list")
		for _, want := range []string{"stack-smash-inject", "heap-uaf", "rop-chain"} {
			if !strings.Contains(out, want) {
				t.Fatalf("catalog missing %s:\n%s", want, out)
			}
		}
	})
	t.Run("attacklab machine matrix", func(t *testing.T) {
		out := runTool(t, bin, "attacklab", 0, "-machine")
		if !strings.Contains(out, "pma") || !strings.Contains(out, "SAFE") {
			t.Fatalf("T3 output:\n%s", out)
		}
	})

	t.Run("secsim compromised exits 1", func(t *testing.T) {
		out := runTool(t, bin, "secsim", 1, "-attack", "return-to-libc", "-dep")
		if !strings.Contains(out, "COMPROMISED") {
			t.Fatalf("secsim output:\n%s", out)
		}
	})
	t.Run("secsim detected exits 0", func(t *testing.T) {
		out := runTool(t, bin, "secsim", 0, "-attack", "return-to-libc", "-dep", "-canary")
		if !strings.Contains(out, "detected") {
			t.Fatalf("secsim output:\n%s", out)
		}
	})

	t.Run("secsim coarse CFI bypass exits 1", func(t *testing.T) {
		out := runTool(t, bin, "secsim", 1, "-attack", "jop-entry-reuse", "-cfi", "coarse")
		if !strings.Contains(out, "COMPROMISED") || !strings.Contains(out, "cfi-coarse") {
			t.Fatalf("secsim output:\n%s", out)
		}
	})
	t.Run("secsim fine CFI detects exits 0", func(t *testing.T) {
		out := runTool(t, bin, "secsim", 0, "-attack", "jop-entry-reuse", "-cfi", "fine", "-shadowstack")
		if !strings.Contains(out, "detected") || !strings.Contains(out, "cfi(fine)") {
			t.Fatalf("secsim output:\n%s", out)
		}
	})
	t.Run("secsim unknown CFI precision exits 2", func(t *testing.T) {
		out := runTool(t, bin, "secsim", 2, "-attack", "jop-entry-reuse", "-cfi", "medium")
		if !strings.Contains(out, "unknown -cfi precision") {
			t.Fatalf("secsim output:\n%s", out)
		}
	})
	t.Run("secsim -cfi conflicts with -scenario", func(t *testing.T) {
		out := runTool(t, bin, "secsim", 2, "-scenario", "fuzz/echo/none", "-cfi", "fine")
		if !strings.Contains(out, "-cfi has no effect") {
			t.Fatalf("secsim output:\n%s", out)
		}
	})
	t.Run("secsim engine tiers agree", func(t *testing.T) {
		// The execution tiers are bit-identical, so the classified
		// outcome and exit code must not depend on -engine.
		var outcomes [3]string
		for i, engine := range []string{"step", "block", "trace"} {
			out := runTool(t, bin, "secsim", 1,
				"-attack", "return-to-libc", "-dep", "-engine", engine)
			if !strings.Contains(out, "COMPROMISED") {
				t.Fatalf("-engine %s output:\n%s", engine, out)
			}
			outcomes[i] = out
		}
		if outcomes[0] != outcomes[1] || outcomes[0] != outcomes[2] {
			t.Fatalf("tier outputs differ:\nstep:\n%s\nblock:\n%s\ntrace:\n%s",
				outcomes[0], outcomes[1], outcomes[2])
		}
	})
	t.Run("secsim unknown engine exits 2", func(t *testing.T) {
		out := runTool(t, bin, "secsim", 2, "-attack", "rop-chain", "-engine", "turbo")
		if !strings.Contains(out, `unknown -engine "turbo"`) {
			t.Fatalf("secsim output:\n%s", out)
		}
	})
	t.Run("attacklab unknown engine exits 2", func(t *testing.T) {
		out := runTool(t, bin, "attacklab", 2, "-list", "-engine", "turbo")
		if !strings.Contains(out, `unknown -engine "turbo"`) {
			t.Fatalf("attacklab output:\n%s", out)
		}
	})
	t.Run("secsim unknown profile exits 2", func(t *testing.T) {
		out := runTool(t, bin, "secsim", 2, "-attack", "rop-chain", "-profile", "martian")
		if !strings.Contains(out, `unknown layout profile "martian"`) {
			t.Fatalf("secsim output:\n%s", out)
		}
	})
	t.Run("attacklab unknown profile exits 2", func(t *testing.T) {
		out := runTool(t, bin, "attacklab", 2, "-list", "-profile", "martian")
		if !strings.Contains(out, `unknown layout profile "martian"`) {
			t.Fatalf("attacklab output:\n%s", out)
		}
	})
	// A truncated run ledger is bad input: both sweep tools reject it
	// with exit 2 and one line before running anything. (For secsim, exit
	// 1 would read as "compromised".)
	corrupt := filepath.Join(work, "corrupt_runs")
	if err := os.MkdirAll(corrupt, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupt, "ledger.jsonl"), []byte(`{"seq": 1, "id": "ab`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tool string
		args []string
	}{
		{"secsim", []string{"-attack", "return-to-libc", "-dep", "-runlog", corrupt}},
		{"attacklab", []string{"-group", "t1", "-trials", "2", "-runlog", corrupt}},
	} {
		t.Run(tc.tool+" corrupt run ledger exits 2", func(t *testing.T) {
			out := runTool(t, bin, tc.tool, 2, tc.args...)
			if want := tc.tool + ": runlog: ledger line 1: unexpected end of JSON input\n"; out != want {
				t.Fatalf("%s output:\n%s\nwant:\n%s", tc.tool, out, want)
			}
		})
	}
	// Bad sweep flag values are caught right after flag parsing: exit 2
	// and one line, before any header prints or any trial runs, whether
	// or not the command line asks for a sweep.
	badProgress := `unknown -progress "bogus" (want auto, on, or off)`
	missing := filepath.Join(work, "missing")
	listMetrics := filepath.Join(work, "list_metrics.json")
	for _, tc := range []struct {
		name, tool string
		args       []string
		want       string
	}{
		{"secsim bad -progress exits 2 before the sweep", "secsim",
			[]string{"-progress", "bogus", "-trials", "2", "-attack", "return-to-libc"}, badProgress},
		{"attacklab bad -progress exits 2 before the sweep", "attacklab",
			[]string{"-progress", "bogus", "-group", "t3"}, badProgress},
		{"secsim bad -progress exits 2 without a sweep", "secsim",
			[]string{"-progress", "bogus"}, badProgress},
		{"attacklab bad -progress exits 2 without a sweep", "attacklab",
			[]string{"-progress", "bogus"}, badProgress},
		{"secsim -trials 0 exits 2", "secsim",
			[]string{"-trials", "0"}, "-trials 0: want at least 1"},
		{"secsim -trials -3 exits 2", "secsim",
			[]string{"-trials", "-3", "-attack", "return-to-libc"}, "-trials -3: want at least 1"},
		{"attacklab -trials 0 exits 2", "attacklab",
			[]string{"-trials", "0", "-group", "t3"}, "-trials 0: want at least 1"},
		{"secsim -metrics in a missing directory exits 2", "secsim",
			[]string{"-attack", "stack-smash-inject", "-canary", "-trials", "2", "-metrics", missing + "/m.json"},
			"-metrics " + missing + "/m.json: no directory " + missing},
		{"secsim -guestprof in a missing directory exits 2", "secsim",
			[]string{"-attack", "stack-smash-inject", "-guestprof", missing + "/p.txt"},
			"-guestprof " + missing + "/p.txt: no directory " + missing},
		{"secsim -evtrace in a missing directory exits 2", "secsim",
			[]string{"-scenario", "fuzz/echo/none", "-evtrace", missing + "/e.json"},
			"-evtrace " + missing + "/e.json: no directory " + missing},
		{"attacklab -metrics in a missing directory exits 2", "attacklab",
			[]string{"-group", "cfi", "-metrics", missing + "/m.json"},
			"-metrics " + missing + "/m.json: no directory " + missing},
		// A flag the selected mode would ignore is refused, not dropped.
		{"secsim -attack with -group exits 2", "secsim",
			[]string{"-group", "t3", "-attack", "rop-chain", "-trials", "1"},
			"-attack has no effect with -scenario/-scenarios/-group (the cell's attack and mitigation config are baked in)"},
		{"secsim -v with -scenario exits 2", "secsim",
			[]string{"-scenario", "fuzz/echo/none", "-v"},
			"-v has no effect with -scenario/-scenarios/-group (the cell's attack and mitigation config are baked in)"},
		{"secsim -v on an attack sweep exits 2", "secsim",
			[]string{"-attack", "rop-chain", "-dep", "-trials", "2", "-v"},
			"-v has no effect on a sweep (-trials above 1, -json or -runlog); it prints one trial's victim and output"},
		{"attacklab -machine with -group exits 2", "attacklab",
			[]string{"-machine", "-group", "cfi"},
			"-machine has no effect with -group/-scenarios/-list (it selects the T3 matrix, or the t3 group in a sweep)"},
		{"attacklab -list refuses -group", "attacklab",
			[]string{"-list", "-group", "cfi"},
			"-group has no effect with -list (it prints the attack catalog)"},
		{"attacklab -list refuses -metrics and writes nothing", "attacklab",
			[]string{"-list", "-metrics", listMetrics},
			"-metrics has no effect with -list (it prints the attack catalog)"},
		{"attacklab -scenarios refuses -json and -trials", "attacklab",
			[]string{"-scenarios", "-json", "-trials", "3"},
			"-json has no effect with -scenarios (it lists the catalog, narrowed only by -group)"},
		{"secsim -scenarios refuses -stats", "secsim",
			[]string{"-scenarios", "-stats"},
			"-stats has no effect with -scenarios (it lists the catalog, narrowed only by -group)"},
		{"attacklab matrix refuses -seed", "attacklab",
			[]string{"-seed", "5"},
			"-seed has no effect on the fixed-seed T1/T3 matrix (-trials above 1, -json, -group or a telemetry flag make a sweep)"},
		{"attacklab matrix refuses -progress", "attacklab",
			[]string{"-progress", "on"},
			"-progress has no effect on the fixed-seed T1/T3 matrix (-trials above 1, -json, -group or a telemetry flag make a sweep)"},
		{"secsim single trial refuses -jobs and -progress", "secsim",
			[]string{"-attack", "stack-smash-inject", "-dep", "-jobs", "3", "-progress", "on"},
			"-jobs has no effect on a single trial (-trials above 1, -json or -runlog make a sweep)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if out, want := runTool(t, bin, tc.tool, 2, tc.args...), tc.tool+": "+tc.want+"\n"; out != want {
				t.Fatalf("%s output:\n%s\nwant:\n%s", tc.tool, out, want)
			}
		})
	}
	t.Run("attacklab -list refusal wrote no metrics file", func(t *testing.T) {
		if _, err := os.Stat(listMetrics); !os.IsNotExist(err) {
			t.Fatalf("refused run wrote %s (stat err %v)", listMetrics, err)
		}
	})
	t.Run("secsim profile flips the canary cell", func(t *testing.T) {
		// The CVE-2023-4039 shape end to end: the same attack under the
		// same mitigation is detected on the classic layout (exit 0) and
		// compromised on canary-below-vla (exit 1).
		out := runTool(t, bin, "secsim", 0, "-attack", "return-to-libc", "-canary", "-profile", "classic")
		if !strings.Contains(out, "detected") {
			t.Fatalf("classic output:\n%s", out)
		}
		out = runTool(t, bin, "secsim", 1, "-attack", "return-to-libc", "-canary", "-profile", "canary-below-vla")
		if !strings.Contains(out, "COMPROMISED") {
			t.Fatalf("canary-below-vla output:\n%s", out)
		}
	})
	t.Run("attacklab profile group smoke", func(t *testing.T) {
		out := runTool(t, bin, "attacklab", 0, "-group", "t1p", "-trials", "1", "-jobs", "2")
		for _, want := range []string{
			"t1p/classic/return-to-libc/canary",
			"t1p/canary-below-vla/return-to-libc/canary",
			"t1p/inverted-locals/data-only/none",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("t1p sweep missing %q:\n%s", want, out)
			}
		}
	})
	// -stats lists every counter and histogram of the run's registry;
	// one name from each family shows the whole registry is rendered.
	statsFamilies := []string{"cpu.block.dispatches", "buildcache.hits", "harness.warm_restores"}
	t.Run("secsim -stats", func(t *testing.T) {
		// A single trial lists its own counters after the outcome lines.
		out := runTool(t, bin, "secsim", 1, "-attack", "rop-chain", "-dep", "-stats")
		if i, j := strings.Index(out, "outcome:"), strings.Index(out, "\ncpu.steps.retired "); i < 0 || j < i {
			t.Fatalf("single-trial listing missing or before the outcome:\n%s", out)
		}
		// In -json mode the listing goes to stderr and stdout stays JSON.
		stdout, stderr := runToolStd(t, bin, "secsim", 0, "-group", "cfi", "-trials", "2", "-jobs", "2", "-json", "-stats")
		if !strings.HasPrefix(stdout, "{") || strings.Contains(stdout, "buildcache.hits") {
			t.Fatalf("stdout is not pure report JSON:\n%.400s", stdout)
		}
		for _, want := range statsFamilies {
			if !strings.Contains(stderr, "\n"+want+" ") {
				t.Fatalf("-stats listing missing %q:\n%s", want, stderr)
			}
		}
	})
	t.Run("attacklab -stats over a sweep", func(t *testing.T) {
		// Telemetry flags imply sweep mode, so attacklab renders the same
		// registry listing secsim does, after the table.
		out := runTool(t, bin, "attacklab", 0, "-group", "cfi", "-trials", "1", "-stats")
		for _, want := range append([]string{"cfi/jop-entry-reuse/coarse"}, statsFamilies...) {
			if !strings.Contains(out, want) {
				t.Fatalf("attacklab -stats missing %q:\n%s", want, out)
			}
		}
		// -stats alone is a telemetry flag too: it sweeps t1.
		out = runTool(t, bin, "attacklab", 0, "-stats")
		if !strings.Contains(out, "t1/rop-chain/dep") || !strings.Contains(out, "\nbuildcache.hits ") {
			t.Fatalf("attacklab -stats did not sweep t1 with a listing:\n%s", out)
		}
	})
	t.Run("observers leave the output unchanged", func(t *testing.T) {
		// Report bytes are identical with any observer on or off, and
		// the -stats listing itself does not depend on -jobs.
		args := []string{"-group", "cfi", "-trials", "2", "-jobs", "2", "-json"}
		plain, _ := runToolStd(t, bin, "secsim", 0, args...)
		for _, observer := range [][]string{
			{"-stats"}, {"-metrics", filepath.Join(work, "observed.json")}, {"-progress", "on"},
		} {
			if out, _ := runToolStd(t, bin, "secsim", 0, append(args, observer...)...); out != plain {
				t.Fatalf("%v changed the report:\n%s\nvs\n%s", observer, out, plain)
			}
		}
		j1 := runTool(t, bin, "attacklab", 0, "-group", "t1", "-trials", "3", "-jobs", "1", "-stats")
		j2 := runTool(t, bin, "attacklab", 0, "-group", "t1", "-trials", "3", "-jobs", "2", "-stats")
		if j1 != j2 {
			t.Fatalf("-stats output differs between jobs 1 and 2:\n%s\nvs\n%s", j1, j2)
		}
	})
	t.Run("secsim telemetry artifacts", func(t *testing.T) {
		mfile := filepath.Join(work, "metrics.json")
		pfile := filepath.Join(work, "guestprof.txt")
		tfile := filepath.Join(work, "evtrace.json")
		out := runTool(t, bin, "secsim", 0, "-scenario", "fuzz/echo/none",
			"-trials", "2", "-jobs", "2",
			"-metrics", mfile, "-guestprof", pfile, "-evtrace", tfile)
		if !strings.Contains(out, "guest profile:") {
			t.Fatalf("hot-cost table missing:\n%s", out)
		}
		metrics, err := os.ReadFile(mfile)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateMetrics(metrics); err != nil {
			t.Fatalf("metrics validation: %v", err)
		}
		prof, err := os.ReadFile(pfile)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(prof), "main") {
			t.Fatalf("folded profile has no main frames:\n%s", prof)
		}
		ev, err := os.ReadFile(tfile)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"traceEvents", "fuzz.exec", "process_name"} {
			if !strings.Contains(string(ev), want) {
				t.Fatalf("event trace missing %q:\n%.400s", want, ev)
			}
		}
	})
	t.Run("secsim single-trial metrics", func(t *testing.T) {
		mfile := filepath.Join(work, "single.json")
		out := runTool(t, bin, "secsim", 0, "-attack", "return-to-libc",
			"-dep", "-canary", "-metrics", mfile)
		if !strings.Contains(out, "detected") {
			t.Fatalf("secsim output:\n%s", out)
		}
		data, err := os.ReadFile(mfile)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{`"tool": "telemetry-metrics"`, "cpu.steps.retired", "cpu.fault.fail-fast"} {
			if !strings.Contains(string(data), want) {
				t.Fatalf("metrics missing %q:\n%s", want, data)
			}
		}
	})

	t.Run("attacklab cfi grid", func(t *testing.T) {
		out := runTool(t, bin, "attacklab", 0, "-group", "cfi", "-trials", "1")
		for _, want := range []string{
			"cfi/jop-entry-reuse/coarse", "cfi/jop-entry-reuse/fine",
			"cfi/rop-chain/fine+shadowstack",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("cfi grid missing %s:\n%s", want, out)
			}
		}
	})

	runs := filepath.Join(work, "runs")
	t.Run("runlog and progress are strictly observational", func(t *testing.T) {
		// The determinism contract extended to the new observability
		// layer: report and metrics bytes are identical at any -jobs
		// width, with live progress on or off, with the run ledger on or
		// off. Stdout stays pure report JSON — progress lines and the
		// ledger notice go to stderr.
		m1 := filepath.Join(work, "runlog_m1.json")
		m4 := filepath.Join(work, "runlog_m4.json")
		args := []string{"-scenario", "fuzz/echo/none", "-trials", "2", "-json"}
		out1, _ := runToolStd(t, bin, "secsim", 0, append(args,
			"-jobs", "1", "-metrics", m1, "-runlog", runs, "-progress=off")...)
		out4, err4 := runToolStd(t, bin, "secsim", 0, append(args,
			"-jobs", "4", "-metrics", m4, "-runlog", runs, "-progress=on")...)
		outPlain, _ := runToolStd(t, bin, "secsim", 0, args...)
		if out1 != out4 {
			t.Fatalf("report bytes differ between jobs 1 and 4:\n%s\nvs\n%s", out1, out4)
		}
		if out1 != outPlain {
			t.Fatalf("report bytes differ with -runlog on vs off:\n%s\nvs\n%s", out1, outPlain)
		}
		b1, err := os.ReadFile(m1)
		if err != nil {
			t.Fatal(err)
		}
		b4, err := os.ReadFile(m4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b4) {
			t.Fatalf("metrics bytes differ between jobs 1 and 4:\n%s\nvs\n%s", b1, b4)
		}
		// The env fingerprint rides the quarantined wall section.
		if !strings.Contains(string(b1), "env.go_version") {
			t.Fatalf("metrics missing env fingerprint:\n%s", b1)
		}
		for _, want := range []string{"runlog: appended run 2", "trials/s", "in "} {
			if !strings.Contains(err4, want) {
				t.Fatalf("stderr missing %q:\n%s", want, err4)
			}
		}
	})
	t.Run("rundiff clean runs and regression gate", func(t *testing.T) {
		// The two ledger appends above were byte-identical experiments.
		out := runTool(t, bin, "rundiff", 0, "-dir", runs)
		for _, want := range []string{"deterministic content identical", "clean"} {
			if !strings.Contains(out, want) {
				t.Fatalf("rundiff output missing %q:\n%s", want, out)
			}
		}
		// An unmeetable throughput floor must gate (exit 1): identical
		// runs sit at a ratio near 1, far below a 1000x floor.
		out = runTool(t, bin, "rundiff", 1, "-dir", runs,
			"-floor", "trials_per_sec=1000")
		if !strings.Contains(out, "REGRESSION") {
			t.Fatalf("rundiff output missing regression:\n%s", out)
		}
		// A perturbed seed is a different experiment: new content key,
		// and the config diff names the input that moved.
		runToolStd(t, bin, "secsim", 0, "-scenario", "fuzz/echo/none",
			"-trials", "2", "-json", "-seed", "99", "-runlog", runs)
		out = runTool(t, bin, "rundiff", 0, "-dir", runs, "last~1", "last")
		for _, want := range []string{"different experiments", "seed: 42 -> 99"} {
			if !strings.Contains(out, want) {
				t.Fatalf("rundiff output missing %q:\n%s", want, out)
			}
		}
		out = runTool(t, bin, "rundiff", 0, "-dir", runs, "-list")
		if !strings.Contains(out, "fuzz/echo/none") {
			t.Fatalf("rundiff -list output:\n%s", out)
		}
		// File mode loads each record through runlog.Load (schema, kind,
		// content ID, embedded metrics), no ledger needed.
		out = runTool(t, bin, "rundiff", 0,
			filepath.Join(runs, "records", "000001.json"),
			filepath.Join(runs, "records", "000002.json"))
		if !strings.Contains(out, "deterministic content identical") {
			t.Fatalf("rundiff file mode output:\n%s", out)
		}
		// Only sweep records load; an older ledger's bench-kind record is
		// a load error (exit 2).
		bad := filepath.Join(work, "old_record.json")
		if err := os.WriteFile(bad, []byte(`{"schema": 1, "tool": "runlog-record", "config": {"tool": "x", "kind": "bench"}}`), 0o644); err != nil {
			t.Fatal(err)
		}
		out = runTool(t, bin, "rundiff", 2, bad, filepath.Join(runs, "records", "000001.json"))
		if !strings.Contains(out, `kind "bench"`) {
			t.Fatalf("rundiff output:\n%s", out)
		}
	})
	t.Run("rundiff missing ledger exits 2 and creates nothing", func(t *testing.T) {
		// rundiff only reads: a mistyped -dir is bad input in both modes,
		// not a new empty ledger left behind on disk.
		missing := filepath.Join(work, "no_such_runs")
		for _, args := range [][]string{{"-dir", missing, "-list"}, {"-dir", missing}} {
			out := runTool(t, bin, "rundiff", 2, args...)
			if want := "rundiff: stat " + missing + ": no such file or directory\n"; out != want {
				t.Fatalf("rundiff %v output:\n%s\nwant:\n%s", args, out, want)
			}
		}
		if _, err := os.Stat(missing); !os.IsNotExist(err) {
			t.Fatalf("rundiff created %s (stat: %v)", missing, err)
		}
	})
}
