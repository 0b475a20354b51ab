// Benchmarks regenerating every figure and table of the reproduction; see
// EXPERIMENTS.md for the mapping to the paper's claims. Simulated-platform
// costs are reported both as Go wall time (ns/op) and, where meaningful,
// as deterministic retired-instruction counts (instrs/op metric), which is
// the unit the overhead tables use.
package softsec

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/attack"
	"softsec/internal/bytecode"
	"softsec/internal/cfi"
	"softsec/internal/core"
	"softsec/internal/cpu"
	"softsec/internal/figures"
	"softsec/internal/fuzz"
	"softsec/internal/harness"
	"softsec/internal/kernel"
	"softsec/internal/mem"
	"softsec/internal/minc"
	"softsec/internal/pma"
	"softsec/internal/securecomp"
	"softsec/internal/sfi"
)

// kernelSource is the compute kernel for the overhead table (T2): a loop
// with one function call, one array write, and one array read per
// iteration, so canaries (per call) and bounds checks (per access) both
// show up.
const kernelSource = `
int step(int i) {
	char tmp[8];
	tmp[i % 8] = i;
	return tmp[i % 8];
}
int main() {
	int i;
	int acc = 0;
	for (i = 0; i < 500; i++) {
		acc = acc + step(i);
	}
	return acc & 0xFF;
}`

func buildKernelProc(b *testing.B, opt minc.Options, cfg kernel.Config) *kernel.Process {
	b.Helper()
	img, err := minc.Compile("kern", kernelSource, opt)
	if err != nil {
		b.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		b.Fatal(err)
	}
	p, err := kernel.Load(ld, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// runOverhead measures the kernel under one compiler/platform config,
// reporting retired instructions per run.
func runOverhead(b *testing.B, opt minc.Options, cfg kernel.Config) {
	b.Helper()
	var steps uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := buildKernelProc(b, opt, cfg)
		if st := p.Run(); st != cpu.Exited {
			b.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		steps = p.CPU.Steps
	}
	b.ReportMetric(float64(steps), "instrs/op")
}

// --- T2: run-time overhead of the countermeasures ----------------------

func BenchmarkOverheadBaseline(b *testing.B) {
	runOverhead(b, minc.Options{}, kernel.Config{DEP: true})
}

func BenchmarkOverheadCanary(b *testing.B) {
	runOverhead(b, minc.Options{Canary: true}, kernel.Config{DEP: true, CanarySeed: 7})
}

func BenchmarkOverheadChecked(b *testing.B) {
	runOverhead(b, minc.Options{BoundsCheck: true},
		kernel.Config{DEP: true, CheckedLibc: true})
}

func BenchmarkOverheadCanaryChecked(b *testing.B) {
	runOverhead(b, minc.Options{Canary: true, BoundsCheck: true},
		kernel.Config{DEP: true, CanarySeed: 7, CheckedLibc: true})
}

// BenchmarkOverheadASLR: ASLR costs at load time, not at run time — the
// instrs/op metric stays at baseline while load does extra work.
func BenchmarkOverheadASLR(b *testing.B) {
	runOverhead(b, minc.Options{}, kernel.Config{DEP: true, ASLR: true, ASLRSeed: 3})
}

// sfiKernel is the T2 row for software fault isolation: the same loop
// shape written in the SFI toolchain dialect, before and after masking.
const sfiKernel = `
	.text
	.global main
main:
	mov esi, 0
	mov ecx, 0
loop:
	cmp esi, 500
	jae done
	mov ebx, 0x00400000
	storew [ebx], esi
	loadw edx, [ebx]
	add ecx, edx
	add esi, 1
	jmp loop
done:
	mov ebx, ecx
	and ebx, 0xFF
	mov eax, 1
	int 0x80
`

func runSFIKernel(b *testing.B, masked bool) {
	b.Helper()
	src := sfiKernel
	sb := sfi.Sandbox{Base: 0x00400000, Size: 0x1000}
	if masked {
		var err error
		src, err = sfi.Rewrite(sfiKernel, sb)
		if err != nil {
			b.Fatal(err)
		}
	}
	var steps uint64
	for i := 0; i < b.N; i++ {
		img, err := asm.Assemble("plugin", src)
		if err != nil {
			b.Fatal(err)
		}
		ld, err := kernel.Link(kernel.Libc(), img)
		if err != nil {
			b.Fatal(err)
		}
		p, err := kernel.Load(ld, kernel.Config{DEP: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Mem.Map(0x00400000, 0x2000, mem.RW); err != nil {
			b.Fatal(err)
		}
		if st := p.Run(); st != cpu.Exited {
			b.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		steps = p.CPU.Steps
	}
	b.ReportMetric(float64(steps), "instrs/op")
}

func BenchmarkOverheadSFIOff(b *testing.B) { runSFIKernel(b, false) }
func BenchmarkOverheadSFIOn(b *testing.B)  { runSFIKernel(b, true) }

// Bytecode VM interpretation penalty (Section IV-A disadvantage 1): the
// sum kernel in bytecode vs natively compiled MinC.
func BenchmarkOverheadBytecodeVM(b *testing.B) {
	sum := &bytecode.Module{
		Name:   "k",
		Fields: map[string]uint32{},
		Methods: map[string]*bytecode.Method{
			"sum": {Name: "sum", Public: true, NArgs: 1, NLoc: 2,
				Code: []bytecode.Instr{
					{Op: bytecode.LoadLocal, A: 1},
					{Op: bytecode.LoadLocal, A: 0},
					{Op: bytecode.CmpLt},
					{Op: bytecode.Jz, A: 13},
					{Op: bytecode.LoadLocal, A: 2},
					{Op: bytecode.LoadLocal, A: 1},
					{Op: bytecode.Add},
					{Op: bytecode.StoreLocal, A: 2},
					{Op: bytecode.LoadLocal, A: 1},
					{Op: bytecode.Push, A: 1},
					{Op: bytecode.Add},
					{Op: bytecode.StoreLocal, A: 1},
					{Op: bytecode.Jmp, A: 0},
					{Op: bytecode.LoadLocal, A: 2},
					{Op: bytecode.Ret},
				}},
		},
	}
	var steps uint64
	for i := 0; i < b.N; i++ {
		vm := bytecode.NewVM(sum)
		v, err := vm.Invoke("k", "sum", 500)
		if err != nil || v != 124750 {
			b.Fatalf("%d %v", v, err)
		}
		steps = vm.Steps
	}
	b.ReportMetric(float64(steps), "bytecodes/op")
}

// nativeSumSource is BenchmarkOverheadBytecodeVM's sum method in MinC:
// the native row the bytecode interpretation penalty compares against.
const nativeSumSource = `
int sum(int n) {
	int i;
	int acc = 0;
	for (i = 0; i < n; i++) {
		acc = acc + i;
	}
	return acc;
}
int main() {
	return sum(500);
}`

func BenchmarkOverheadNativeSum(b *testing.B) {
	img, err := minc.Compile("sum", nativeSumSource, minc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := kernel.Load(ld, kernel.Config{DEP: true})
		if err != nil {
			b.Fatal(err)
		}
		if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != 124750 {
			b.Fatalf("state %v exit %d fault %v, want exit 124750", st, p.CPU.ExitCode(), p.CPU.Fault())
		}
		steps = p.CPU.Steps
	}
	b.ReportMetric(float64(steps), "instrs/op")
}

// --- T4/F3: the cost of a protected-module entry ------------------------

const vaultSrc = `
static int tries_left = 3;
static int PIN = 1234;
static int secret = 666;
int get_secret(int provided_pin) {
	if (tries_left > 0) {
		if (PIN == provided_pin) { tries_left = 3; return secret; }
		else { tries_left--; return 0; }
	}
	else return 0;
}`

// vaultCaller invokes get_secret 100 times. The loop counter lives in the
// frame, not a register: every register except EBP/ESP is caller-saved in
// this ABI (and hardened veneers additionally scrub scratch registers).
const vaultCaller = `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 8
	mov ecx, 0
	storew [ebp-4], ecx
callloop:
	loadw ecx, [ebp-4]
	cmp ecx, 100
	jae out
	mov eax, 1234
	storew [esp], eax
	call get_secret
	loadw ecx, [ebp-4]
	add ecx, 1
	storew [ebp-4], ecx
	jmp callloop
out:
	leave
	ret
`

func benchVaultCalls(b *testing.B, protect bool) {
	var modImg *asm.Image
	var err error
	if protect {
		modImg, err = securecomp.Harden("secretmod", vaultSrc,
			[]securecomp.Export{{Name: "get_secret", Args: 1}}, securecomp.Full())
	} else {
		modImg, err = minc.Compile("secretmod", vaultSrc, minc.Options{})
	}
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	for i := 0; i < b.N; i++ {
		ld, err := kernel.Link(kernel.Libc(), modImg, asm.MustAssemble("m", vaultCaller))
		if err != nil {
			b.Fatal(err)
		}
		p, err := kernel.Load(ld, kernel.Config{DEP: true})
		if err != nil {
			b.Fatal(err)
		}
		if protect {
			if _, err := pma.Protect(p, "secretmod"); err != nil {
				b.Fatal(err)
			}
		}
		if st := p.Run(); st != cpu.Exited {
			b.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		steps = p.CPU.Steps
	}
	b.ReportMetric(float64(steps)/100, "instrs/call")
}

func BenchmarkPMACallPlain(b *testing.B)     { benchVaultCalls(b, false) }
func BenchmarkPMACallProtected(b *testing.B) { benchVaultCalls(b, true) }

// --- T5: sealing / attestation / state continuity throughput ------------

func BenchmarkSealUnseal(b *testing.B) {
	hw := pma.NewHardware(1)
	key := hw.ModuleKey(pma.CodeHash([]byte("module")))
	state := make([]byte, 256)
	b.SetBytes(int64(len(state)))
	for i := 0; i < b.N; i++ {
		blob, err := hw.Seal(key, state, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hw.Unseal(key, blob, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContinuitySave(b *testing.B) {
	hw := pma.NewHardware(1)
	key := hw.ModuleKey(pma.CodeHash([]byte("module")))
	state := []byte("tries_left=3")
	stores := map[string]pma.Store{
		"plain":   &pma.PlainStore{Disk: pma.NewDisk(), ID: "v"},
		"sealed":  &pma.SealedStore{Disk: pma.NewDisk(), HW: hw, Key: key, ID: "v"},
		"memoir":  &pma.MemoirStore{Disk: pma.NewDisk(), HW: hw, Key: key, ID: "v"},
		"twoslot": &pma.TwoSlotStore{Disk: pma.NewDisk(), HW: hw, Key: key, ID: "v"},
	}
	for name, s := range stores {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.Save(state, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T1/T3: the matrices themselves --------------------------------------

func BenchmarkT1Cell(b *testing.B) {
	attacks := core.Attacks()
	a := attacks[0] // stack-smash-inject
	m := core.Mitigations{DEP: true}
	for i := 0; i < b.N; i++ {
		s, err := a.Scenario(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(s, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1Matrix(b *testing.B) {
	attacks := core.Attacks()
	configs := core.StandardConfigs()
	for i := 0; i < b.N; i++ {
		m := core.RunMatrixJobs(attacks, configs, 1)
		if len(m.Attacks) != len(attacks) {
			b.Fatal("short matrix")
		}
	}
}

// BenchmarkTrialThroughput measures harness trials/sec at increasing
// worker-pool widths — the scaling trajectory, not just single-run
// latency. Each trial is a full T1 cell (compile, recon, link, load,
// attack, classify) with a per-trial ASLR layout.
func BenchmarkTrialThroughput(b *testing.B) {
	var spec core.AttackSpec
	for _, a := range core.Attacks() {
		if a.Name == "stack-smash-inject" {
			spec = a
		}
	}
	sc := core.TrialScenario(spec, core.Mitigations{DEP: true, ASLR: true}, true)
	widths := []int{1, 4, runtime.NumCPU()}
	sort.Ints(widths)
	widths = slices.Compact(widths)
	for _, jobs := range widths {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			rep := harness.Run([]harness.Scenario{sc},
				harness.Options{Trials: b.N, Jobs: jobs, BaseSeed: 1})
			if c := rep.Cells[0]; c.Errors > 0 {
				b.Fatalf("%d trial errors: %s", c.Errors, c.FirstError)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
		})
	}
}

// --- fuzzing subsystem: process resets and campaign throughput ----------

// quickstartVictim is the quickstart example's vulnerable server — the
// reference workload for the snapshot-vs-reload comparison.
const quickstartVictim = `
void main() {
	char buf[16];
	read(0, buf, 64); // spatial memory-safety vulnerability
	write(1, buf, 5);
}`

func quickstartLinked(b *testing.B) *kernel.Linked {
	b.Helper()
	img, err := minc.Compile("victim", quickstartVictim, minc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		b.Fatal(err)
	}
	return ld
}

// BenchmarkSnapshotRestore measures one process reset on the fuzzing
// fast path: run the quickstart victim to completion, then Restore to
// the post-Load snapshot. Compare with BenchmarkFullReload, the same
// reset done the pre-snapshot way — the ratio is the speedup that makes
// fuzz campaigns feasible.
func BenchmarkSnapshotRestore(b *testing.B) {
	ld := quickstartLinked(b)
	in := kernel.ScriptInput{[]byte("hello")}
	p, err := kernel.Load(ld, kernel.Config{DEP: true, Input: &in})
	if err != nil {
		b.Fatal(err)
	}
	snap := p.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := p.Run(); st != cpu.Exited {
			b.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		if err := p.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReload is the baseline reset: a fresh kernel.Load per
// execution (link amortized, as a harness would). It doubles as the
// lazy-cache-allocation guard: the quickstart victim runs front to back
// without re-executing a single address, so the decode and block caches
// must never allocate — the regression this pins cost a 30 → 55 µs/op
// slide when the caches were allocated eagerly.
func BenchmarkFullReload(b *testing.B) {
	ld := quickstartLinked(b)
	in := kernel.ScriptInput{[]byte("hello")}
	b.ReportAllocs()
	b.ResetTimer()
	var last *kernel.Process
	for i := 0; i < b.N; i++ {
		p, err := kernel.Load(ld, kernel.Config{DEP: true, Input: &in})
		if err != nil {
			b.Fatal(err)
		}
		if st := p.Run(); st != cpu.Exited {
			b.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		last = p
	}
	b.StopTimer()
	if dc, bc := last.CPU.CacheFootprint(); dc || bc {
		b.Fatalf("one-shot load allocated caches (decode=%v block=%v): lazy allocation regressed", dc, bc)
	}
}

// TestFullReloadStaysCacheFree is the benchmark guard as a plain test, so
// `go test` (not only -bench runs) pins the lazy allocation: a one-shot
// process allocates neither cache nor the stack pages it never writes,
// while a looping process still earns its engine's cache on its first
// re-executed address: the block table on the default tier, the decode
// table on the stepping engine.
func TestFullReloadStaysCacheFree(t *testing.T) {
	img, err := minc.Compile("victim", quickstartVictim, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	loadRun := func() *kernel.Process {
		t.Helper()
		p, err := kernel.Load(ld, kernel.Config{DEP: true, Input: &kernel.ScriptInput{[]byte("hello")}})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Run(); st != cpu.Exited {
			t.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		return p
	}
	p := loadRun()
	if dc, bc := p.CPU.CacheFootprint(); dc || bc {
		t.Fatalf("one-shot run allocated caches (decode=%v block=%v)", dc, bc)
	}

	// Pages are demand-zero and the page table is a few extents, so a
	// whole load-and-run costs the pages it writes plus little
	// bookkeeping: well under 24 KiB.
	const loads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < loads; i++ {
		loadRun()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / loads; per >= 24<<10 {
		t.Fatalf("one-shot load and run allocated %d bytes on average, want < %d", per, 24<<10)
	}

	// Control: the looping compute kernel re-executes addresses and must
	// still invest in the cache of the engine that runs it, and only that
	// one.
	img, err = minc.Compile("kern", kernelSource, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld, err = kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{"trace", "step"} {
		underTier(t, tier, func() {
			p, err = kernel.Load(ld, kernel.Config{DEP: true})
			if err != nil {
				t.Fatal(err)
			}
			if st := p.Run(); st != cpu.Exited {
				t.Fatalf("state %v fault %v", st, p.CPU.Fault())
			}
		})
		blocks := tier != "step"
		if dc, bc := p.CPU.CacheFootprint(); dc == blocks || bc != blocks {
			t.Fatalf("hot loop on the %s tier allocated decode=%v block=%v, want only its engine's cache",
				tier, dc, bc)
		}
	}
}

// BenchmarkFuzzExecsPerSec measures end-to-end fuzzing throughput:
// mutate, reset, execute, classify, admit — the number every campaign
// cell's wall-clock hangs on.
func BenchmarkFuzzExecsPerSec(b *testing.B) {
	c, err := fuzz.New(fuzz.Config{
		Name: "echo", Source: quickstartVictim, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := c.Fuzz(b.N); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "execs/sec")
}

// parserVictim is a well-behaved input checker: no overflow is
// reachable, so the campaign never veers into injected-code execution
// and every reset stays on the warm-cache fast path. This is the
// workload shape most fuzzing cells actually have — a parser probed for
// logic paths, not a victim mid-exploit — and the cell the trace tier's
// cross-reset cache retention is aimed at.
const parserVictim = `
void main() {
	char buf[8];
	int n;
	n = read(0, buf, 8);
	if (n > 1 && buf[0] == 'O' && buf[1] == 'K') {
		write(1, buf, 2);
	}
}`

// microVictim is the tightest realistic fuzz target: read a 4-byte
// magic, branch on it, exit. At ~40-60 interpreted steps per run, the
// campaign loop itself — reset, input delivery, trap handling, coverage
// bookkeeping, classification, mutation — dominates, so this cell
// measures the per-execution overhead floor of the whole fuzzing stack.
const microVictim = `
void main() {
	char buf[4];
	read(0, buf, 4);
	if (buf[0] == 'F') {
		write(1, buf, 1);
	}
}`

// BenchmarkFuzzExecsPerSecHot measures campaign throughput on warm-cache
// non-crashing cells: mutate, reset, execute, classify, admit, with
// block and trace caches staying warm across every reset. The
// no-policy execs/sec numbers here are the headline fuzzing figures in
// EXPERIMENTS.md.
func BenchmarkFuzzExecsPerSecHot(b *testing.B) {
	for _, tc := range []struct {
		name, src string
	}{
		{"parser", parserVictim},
		{"micro", microVictim},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := fuzz.New(fuzz.Config{
				Name: tc.name, Source: tc.src, Seed: 1, DEP: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.Fuzz(b.N); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "execs/sec")
		})
	}
}

// BenchmarkFuzzExecsPerSecCFI is the campaign-throughput view of CFI
// cost: the same mutate/reset/execute/classify loop with the label-table
// policy enforcing each precision — the exec/sec overhead column of the
// EXPERIMENTS attack×CFI table.
func BenchmarkFuzzExecsPerSecCFI(b *testing.B) {
	for _, prec := range []string{"coarse", "fine"} {
		b.Run(prec, func(b *testing.B) {
			c, err := fuzz.New(fuzz.Config{
				Name: "echo", Source: quickstartVictim, Seed: 1, CFI: prec,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := c.Fuzz(b.N); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "execs/sec")
		})
	}
}

func BenchmarkT3IsolationMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunIsolationMatrixJobs(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F1-F4: figure regeneration ------------------------------------------

func BenchmarkF1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF2F3Scraping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig2(); err != nil {
			b.Fatal(err)
		}
		if _, err := figures.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF4Exploit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- toolchain micro-benchmarks ------------------------------------------

func BenchmarkCompilerThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minc.Compile("kern", kernelSource, minc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGadgetScan(b *testing.B) {
	libc := kernel.Libc()
	b.SetBytes(int64(len(libc.Text)))
	for i := 0; i < b.N; i++ {
		if gs := attack.FindGadgets(libc.Text, 0, 5); len(gs) == 0 {
			b.Fatal("no gadgets")
		}
	}
}

func BenchmarkInterpreterSpeed(b *testing.B) {
	// Raw simulator speed: simulated instructions per second on a tight
	// loop (contextualizes every other number).
	p := buildKernelProc(b, minc.Options{}, kernel.Config{DEP: true})
	if st := p.Run(); st != cpu.Exited {
		b.Fatal(st)
	}
	total := p.CPU.Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := buildKernelProc(b, minc.Options{}, kernel.Config{DEP: true})
		p.Run()
	}
	b.ReportMetric(float64(total), "sim-instrs/op")
}

// benchLoopCPU builds a bare machine spinning in a two-instruction loop —
// the purest view of per-step interpreter cost, no kernel or compiler in
// the timing.
func benchLoopCPU(b *testing.B) *cpu.CPU {
	b.Helper()
	img := asm.MustAssemble("loop", `
	.text
loop:
	add esi, 1
	jmp loop
`)
	m := mem.New()
	if err := m.Map(0x1000, mem.PageSize, mem.RX); err != nil {
		b.Fatal(err)
	}
	if err := m.LoadRaw(0x1000, img.Text); err != nil {
		b.Fatal(err)
	}
	c := cpu.New(m)
	c.IP = 0x1000
	return c
}

// BenchmarkDecodeCacheHit measures the steady-state per-instruction cost
// of the single-step reference engine when every fetch hits the decoded-
// instruction cache (the block engine is disabled for the measurement).
func BenchmarkDecodeCacheHit(b *testing.B) {
	c := benchLoopCPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	underTier(b, "step", func() {
		if st := c.Run(uint64(b.N)); st != cpu.StepLimit {
			b.Fatalf("state %v fault %v", st, c.Fault())
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkBlockCacheHit is the block-engine counterpart: the same tight
// loop dispatched block-at-a-time from a warm block cache — the
// steady-state per-instruction cost of the fast path. The warm-up run is
// rewound with RestoreArch so the timed run starts Running with hot
// caches.
func BenchmarkBlockCacheHit(b *testing.B) {
	c := benchLoopCPU(b)
	underTier(b, "block", func() {
		s := c.SaveArch()
		c.Run(64) // warm the hotness gate and the block cache
		c.RestoreArch(s)
		b.ReportAllocs()
		b.ResetTimer()
		if st := c.Run(uint64(b.N)); st != cpu.StepLimit {
			b.Fatalf("state %v fault %v", st, c.Fault())
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// benchChainCPU builds a machine looping through a chain of nblocks
// two-instruction basic blocks, the last jumping back to the first. To
// the block engine this is the worst case the trace tier targets: every
// second instruction is a block boundary, so the per-dispatch overheads
// (cache probe, budget setup, policy lookup) are paid at half the
// instruction rate. To the trace tier the whole chain is one superblock
// that loops back on itself without leaving the dispatch.
func benchChainCPU(b *testing.B, nblocks int) *cpu.CPU {
	b.Helper()
	var src strings.Builder
	src.WriteString("\t.text\n")
	for i := 0; i < nblocks; i++ {
		fmt.Fprintf(&src, "b%d:\n\tadd esi, 1\n\tjmp b%d\n", i, (i+1)%nblocks)
	}
	img := asm.MustAssemble("chain", src.String())
	m := mem.New()
	if err := m.Map(0x1000, mem.PageSize, mem.RX); err != nil {
		b.Fatal(err)
	}
	if err := m.LoadRaw(0x1000, img.Text); err != nil {
		b.Fatal(err)
	}
	c := cpu.New(m)
	c.IP = 0x1000
	return c
}

// benchChainRun measures steady-state ns/instr on the block-chain
// workload under the current engine configuration.
func benchChainRun(b *testing.B, c *cpu.CPU) {
	b.Helper()
	s := c.SaveArch()
	c.Run(2048) // heat the blocks past the trace threshold and record
	c.RestoreArch(s)
	b.ReportAllocs()
	b.ResetTimer()
	if st := c.Run(uint64(b.N)); st != cpu.StepLimit {
		b.Fatalf("state %v fault %v", st, c.Fault())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkTraceCacheHit is the trace-tier headline: the 8-block chain
// served from a warm trace cache as one self-looping superblock. Compare
// BenchmarkTraceVsBlockChain/block — the same workload with traces off —
// for the per-dispatch overhead the tier removes.
func BenchmarkTraceCacheHit(b *testing.B) {
	c := benchChainCPU(b, 8)
	ts := &cpu.TraceStats{}
	c.TraceStats = ts
	benchChainRun(b, c)
	if ts.Formed == 0 {
		b.Fatal("no trace formed: benchmark measured the block tier")
	}
}

// BenchmarkTraceVsBlockChain runs the identical chain workload under the
// block tier alone and under the trace tier: the ratio of the two MIPS
// numbers is the superblock speedup on dispatch-bound code.
func BenchmarkTraceVsBlockChain(b *testing.B) {
	b.Run("block", func(b *testing.B) {
		underTier(b, "block", func() { benchChainRun(b, benchChainCPU(b, 8)) })
	})
	b.Run("trace", func(b *testing.B) {
		benchChainRun(b, benchChainCPU(b, 8))
	})
}

// BenchmarkBlockBuild measures block formation cost: every iteration
// builds main's entry block from scratch (decode per instruction, no
// cache). This is the price the hotness gate avoids paying for one-shot
// code.
func BenchmarkBlockBuild(b *testing.B) {
	p := buildKernelProc(b, minc.Options{}, kernel.Config{DEP: true})
	start, ok := p.SymbolAddr("main")
	if !ok {
		b.Fatal("no main symbol")
	}
	blk := p.CPU.BuildBlockAt(start)
	if blk == nil || blk.Len() < 2 {
		b.Fatalf("degenerate block at main: %+v", blk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.CPU.BuildBlockAt(start) == nil {
			b.Fatal("build failed")
		}
	}
	b.ReportMetric(float64(blk.Len()), "instrs/block")
}

// BenchmarkBlockHistogram runs the compute kernel with block statistics
// installed and reports the block-length distribution and where block
// formation stopped — the shape data documenting why blocks end early
// (terminators vs page boundaries vs the length cap).
func BenchmarkBlockHistogram(b *testing.B) {
	var st cpu.BlockStats
	for i := 0; i < b.N; i++ {
		p := buildKernelProc(b, minc.Options{}, kernel.Config{DEP: true})
		st = cpu.BlockStats{}
		p.CPU.BlockStats = &st
		if s := p.Run(); s != cpu.Exited {
			b.Fatalf("state %v fault %v", s, p.CPU.Fault())
		}
	}
	b.ReportMetric(blockLenMean(&st), "mean-block-len")
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Builds+st.StepFalls), "hit-rate")
	b.Logf("block formation histogram:\n%s", renderBlockHist(&st))
}

// blockLenMean computes the mean built-block length.
func blockLenMean(st *cpu.BlockStats) float64 {
	var n, sum uint64
	for l, c := range st.LenHist {
		n += c
		sum += uint64(l) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// renderBlockHist renders the block-length histogram plus the stop-
// reason breakdown for b.Logf — the helper documenting where block
// formation stops early.
func renderBlockHist(st *cpu.BlockStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "builds=%d hits=%d dispatches=%d step-fallbacks=%d\n",
		st.Builds, st.Hits, st.Dispatches, st.StepFalls)
	var max uint64
	for _, c := range st.LenHist {
		if c > max {
			max = c
		}
	}
	for l, c := range st.LenHist {
		if c == 0 {
			continue
		}
		bar := int(40 * c / max)
		fmt.Fprintf(&sb, "len %2d  %6d  %s\n", l, c, strings.Repeat("#", bar))
	}
	for r := cpu.StopTerminator; r <= cpu.StopUndecodable; r++ {
		if n := st.StopHist[r]; n > 0 {
			fmt.Fprintf(&sb, "stop %-13s %6d\n", r, n)
		}
	}
	return sb.String()
}

// BenchmarkTelemetryOverhead pairs the tight loop with and without
// telemetry hooks: "off" is the shipping configuration and must stay
// within noise (<2%) of the no-hook engine numbers — a nil hook costs
// one untaken branch per site; "counters" adds the per-step stat
// structs; "profiled" adds PC sampling, which also forces the
// single-step reference engine (so compare it against
// BenchmarkDecodeCacheHit, not the block tier).
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, setup func(c *cpu.CPU)) {
		c := benchLoopCPU(b)
		setup(c)
		s := c.SaveArch()
		c.Run(4096) // warm every cache and hotness gate
		c.RestoreArch(s)
		b.ReportAllocs()
		b.ResetTimer()
		if st := c.Run(uint64(b.N)); st != cpu.StepLimit {
			b.Fatalf("state %v fault %v", st, c.Fault())
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
	}
	b.Run("off", func(b *testing.B) { run(b, func(*cpu.CPU) {}) })
	b.Run("counters", func(b *testing.B) {
		run(b, func(c *cpu.CPU) {
			c.DecodeStats = &cpu.DecodeStats{}
			c.FaultStats = &cpu.FaultStats{}
			c.BlockStats = &cpu.BlockStats{}
			c.TraceStats = &cpu.TraceStats{}
		})
	})
	b.Run("profiled", func(b *testing.B) {
		run(b, func(c *cpu.CPU) { c.Prof = cpu.NewProfiler(64) })
	})
}

// BenchmarkDecodeCacheMiss invalidates the cached decode before every
// step (a PokeWord bumps the code page's write stamp), so each fetch pays
// the byte-fetch + decode slow path.
func BenchmarkDecodeCacheMiss(b *testing.B) {
	c := benchLoopCPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Mem.PokeWord(0x1800, uint32(i)) // on the X page: invalidates
		if !c.Step() {
			b.Fatalf("fault %v", c.Fault())
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// --- T4 ablation: the cost of each secure-compilation hardening step -----

func benchHardening(b *testing.B, opt securecomp.Options) {
	mod, err := securecomp.Harden("secretmod", vaultSrc,
		[]securecomp.Export{{Name: "get_secret", Args: 1}}, opt)
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	for i := 0; i < b.N; i++ {
		ld, err := kernel.Link(kernel.Libc(), mod, asm.MustAssemble("m", vaultCaller))
		if err != nil {
			b.Fatal(err)
		}
		p, err := kernel.Load(ld, kernel.Config{DEP: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pma.Protect(p, "secretmod"); err != nil {
			b.Fatal(err)
		}
		if st := p.Run(); st != cpu.Exited {
			b.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		steps = p.CPU.Steps
	}
	b.ReportMetric(float64(steps)/100, "instrs/call")
}

func BenchmarkHardeningNaive(b *testing.B) {
	benchHardening(b, securecomp.Naive())
}

func BenchmarkHardeningGuardOnly(b *testing.B) {
	benchHardening(b, securecomp.Options{FnPtrGuard: true})
}

func BenchmarkHardeningVeneer(b *testing.B) {
	benchHardening(b, securecomp.Options{Veneer: true})
}

func BenchmarkHardeningVeneerPrivStack(b *testing.B) {
	benchHardening(b, securecomp.Options{Veneer: true, PrivateStack: true})
}

func BenchmarkHardeningFull(b *testing.B) {
	benchHardening(b, securecomp.Full())
}

// Shadow-stack (CFI) run-time cost on the call-heavy kernel.
func BenchmarkOverheadShadowStack(b *testing.B) {
	runOverhead(b, minc.Options{}, kernel.Config{DEP: true, ShadowStack: true})
}

// --- CFI: label-table enforcement cost --------------------------------

// benchInterpreterCFI is BenchmarkInterpreterSpeed with a CFI policy
// installed: per iteration it loads the compute kernel, recovers its CFG
// (the once-per-load static cost) and runs it under label-table checks.
// Under CFI the block engine refuses spans ending in indirect branches
// and RETs (they are stepped so the label check runs on the reference
// path), so this measures the end-to-end price of the acceptance bound:
// fine CFI must stay within 2× of the no-policy block engine.
func benchInterpreterCFI(b *testing.B, prec cfi.Precision) {
	b.Helper()
	run := func() *kernel.Process {
		p := buildKernelProc(b, minc.Options{}, kernel.Config{DEP: true})
		g, err := cfi.Recover(p)
		if err != nil {
			b.Fatal(err)
		}
		p.CPU.Policy = cfi.NewPolicy(g, prec)
		if st := p.Run(); st != cpu.Exited {
			b.Fatalf("state %v fault %v", st, p.CPU.Fault())
		}
		return p
	}
	total := run().CPU.Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(total), "sim-instrs/op")
}

func BenchmarkInterpreterSpeedCFICoarse(b *testing.B) { benchInterpreterCFI(b, cfi.Coarse) }
func BenchmarkInterpreterSpeedCFIFine(b *testing.B)   { benchInterpreterCFI(b, cfi.Fine) }

// BenchmarkCFIRecover isolates the static cost: one CFG recovery over
// the loaded victim+libc image (linear-sweep decode, symbol seeding,
// address-taken scrape).
func BenchmarkCFIRecover(b *testing.B) {
	p := buildKernelProc(b, minc.Options{}, kernel.Config{DEP: true})
	base, end := p.TextBounds()
	b.SetBytes(int64(end - base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfi.Recover(p); err != nil {
			b.Fatal(err)
		}
	}
}
