// Package fuzz is a deterministic coverage-guided greybox fuzzer over
// SM32 victim programs: the discovery workload of the reproduction.
//
// The paper's matrix answers "does this hand-written exploit still work
// under mitigation X?". A fuzzing campaign asks the preceding question:
// how hard is it to *find* a crashing (or exploiting) input in the first
// place, and how does each mitigation change that cost? A campaign cell
// reports edges covered, executions to first crash, and what the
// mitigations detected — mitigation versus fuzz-discovery cost, a
// figure-ready table the matrix cannot produce.
//
// The loop is the classic greybox triad, built on two platform
// capabilities added for it:
//
//   - edge coverage: cpu.Coverage, an AFL-style branch-edge bitmap the
//     CPU fills when a map is installed (nil otherwise — the non-fuzzing
//     path pays nothing);
//   - process resets: kernel.Process.Snapshot/Restore over
//     mem.Checkpoint, so each execution starts from the loaded image in
//     time proportional to the pages the previous run dirtied instead of
//     re-linking and re-loading the victim.
//
// Everything is deterministic for a fixed Config.Seed: the ASLR layout
// and canary draws, the mutation schedule, corpus admission, and every
// counter in Result. Campaigns run as harness.Scenario trials (group
// "fuzz"), so `-jobs 1` and `-jobs N` sweeps produce byte-identical
// reports, matching the harness determinism contract.
package fuzz

import (
	"bytes"
	"fmt"
	"math/rand"

	"softsec/internal/attack"
	"softsec/internal/buildcache"
	"softsec/internal/cfi"
	"softsec/internal/cpu"
	"softsec/internal/kernel"
	"softsec/internal/layout"
	"softsec/internal/minc"
	"softsec/internal/seedrand"
	"softsec/internal/telemetry"
)

// Config describes one fuzzing campaign: a victim, a mitigation stack,
// and a deterministic budget.
type Config struct {
	// Name labels the campaign in results ("echo", "arbwrite", ...).
	Name string
	// Source is the MinC victim program.
	Source string

	// Mitigations deployed on the victim platform (the Section III-C
	// arsenal, same knobs as the matrix cells).
	Canary      bool
	DEP         bool
	ASLR        bool
	Checked     bool
	ShadowStack bool
	// CFI selects a control-flow-integrity precision ("", "coarse" or
	// "fine"): after loading, the campaign recovers the victim's CFG and
	// installs the internal/cfi label-table policy, so the campaign
	// measures how each precision changes discovery cost and
	// time-to-exploit. The policy survives every snapshot restore (it is
	// machine configuration, not architectural state).
	CFI string

	// Seed drives every random choice of the campaign: layout and canary
	// draws, mutation schedule, corpus scheduling. Same seed, same
	// campaign — regardless of the worker count of the surrounding sweep.
	Seed int64
	// MaxExecs is the campaign budget in victim executions (including
	// the seed-corpus runs). Zero means DefaultMaxExecs.
	MaxExecs int
	// Profile names the machine layout profile (internal/layout) the
	// victim is compiled for and loaded on. Empty means "classic". Like
	// the matrix's Mitigations.Profile, it is platform identity, not a
	// mitigation, so MitLabel excludes it.
	Profile string
}

// Campaign limits. DefaultExecSteps bounds each execution; exceeding
// it classifies the run as a hang. DefaultMaxInput caps mutated input
// length. DefaultExecHeap caps the victim's heap segment
// (kernel.Config.MaxHeap) — tight, like a fuzzer's RLIMIT: junk
// executions calling sbrk must not churn megabytes of pages per run.
const (
	DefaultMaxExecs  = 2000
	DefaultExecSteps = 20_000
	DefaultMaxInput  = 192
	DefaultExecHeap  = 1 << 20
)

// DefaultSeeds is every campaign's initial corpus: small
// benign-looking inputs; everything interesting is grown by the
// mutators.
func DefaultSeeds() [][]byte {
	return [][]byte{
		[]byte("hello\n"),
		[]byte("0123456789abcdef"),
		{0, 0, 0, 0},
	}
}

// MitLabel renders the mitigation stack like the matrix does
// ("canary+dep", "none").
func (c Config) MitLabel() string {
	s := ""
	add := func(on bool, name string) {
		if on {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(c.Canary, "canary")
	add(c.DEP, "dep")
	add(c.ASLR, "aslr")
	add(c.Checked, "checked")
	add(c.ShadowStack, "shadowstack")
	add(c.CFI != "", "cfi-"+c.CFI)
	if s == "" {
		return "none"
	}
	return s
}

// ExecOutcome classifies one fuzzed execution.
type ExecOutcome int

const (
	// Clean: the victim exited or halted and no oracle fired.
	Clean ExecOutcome = iota
	// Detected: a deployed mitigation caught the input (canary
	// fail-fast, CFI shadow-stack fault, bounds violation, policy fault).
	Detected
	// Crashed: an uncontrolled fault — the classic fuzzing finding.
	Crashed
	// Hung: the step budget ran out.
	Hung
	// Exploited: the execution tripped an exploitation oracle (the PWNED
	// marker, the shell stand-in) — the input did not just crash the
	// victim, it reached an attacker goal.
	Exploited
)

// ExecResult reports one execution. It is self-contained: record()
// derives everything (including the crash signature) from it, never
// from the process state an intervening Execute may have replaced.
type ExecResult struct {
	Outcome  ExecOutcome
	State    cpu.State
	Fault    *cpu.Fault // the fault that stopped the run, nil otherwise
	Sig      string     // crash signature (fault kind @ IP), set when Crashed
	NewEdges int        // coverage bits this input set that no earlier one did
	Steps    uint64     // instructions retired
}

// Result is the deterministic summary of a campaign. All fields derive
// only from Config (notably Seed), never from wall-clock or scheduling.
type Result struct {
	Name        string `json:"name"`
	Mitigations string `json:"mitigations"`
	Seed        int64  `json:"seed"`
	Execs       int    `json:"execs"`
	Edges       int    `json:"edges"`
	CorpusSize  int    `json:"corpus_size"`

	Crashes    int `json:"crashes"`    // crashing executions
	CrashSigs  int `json:"crash_sigs"` // distinct (fault kind, IP) signatures
	Detections int `json:"detections"` // mitigation-detected executions
	Hangs      int `json:"hangs"`
	Exploits   int `json:"exploits"`

	// TotalSteps is the guest instructions retired across all executions
	// (per-exec deltas summed — the CPU's own counter rolls back with
	// every snapshot restore).
	TotalSteps uint64 `json:"total_steps"`

	// Execution index (1-based) of the first finding of each class; -1
	// if the class never occurred. These are the discovery-cost numbers.
	FirstCrashExec   int `json:"first_crash_exec"`
	FirstDetectExec  int `json:"first_detect_exec"`
	FirstExploitExec int `json:"first_exploit_exec"`

	// FirstCrashInput reproduces the first crash; FirstCrashFault
	// describes it.
	FirstCrashInput []byte `json:"-"`
	FirstCrashFault string `json:"first_crash_fault,omitempty"`
}

// Summary renders the deterministic one-line cell detail used in harness
// reports.
func (r Result) Summary() string {
	return fmt.Sprintf("execs=%d edges=%d corpus=%d crashes=%d(sigs=%d) detected=%d hangs=%d exploits=%d first-crash=%d first-detect=%d",
		r.Execs, r.Edges, r.CorpusSize, r.Crashes, r.CrashSigs,
		r.Detections, r.Hangs, r.Exploits, r.FirstCrashExec, r.FirstDetectExec)
}

// streamInput feeds one flat byte string to the victim's reads,
// sequentially: the fuzzer's view of an input is a stream, however many
// read() calls the victim slices it into. Resettable so one allocation
// serves the whole campaign.
type streamInput struct {
	data []byte
	off  int
}

func (s *streamInput) NextInput(max int, _ []byte) []byte {
	if s.off >= len(s.data) {
		return nil
	}
	n := len(s.data) - s.off
	if n > max {
		n = max
	}
	chunk := s.data[s.off : s.off+n]
	s.off += n
	return chunk
}

func (s *streamInput) reset(data []byte) {
	s.data = data
	s.off = 0
}

// Campaign is an instantiated fuzzing campaign: a loaded victim with an
// armed snapshot, coverage maps, corpus, and deterministic PRNG.
type Campaign struct {
	cfg  Config
	rng  *rand.Rand
	proc *kernel.Process
	snap *kernel.Snapshot
	in   streamInput

	execCov cpu.Coverage // per-execution edge map
	virgin  cpu.Coverage // accumulated campaign coverage

	corpus []corpusEntry
	sched  mutator // see mutate.go
	seeds  [][]byte

	res       Result
	crashSigs map[string]bool

	// baseSteps is the CPU step count at snapshot time: every restore
	// rolls the counter back here, so r.Steps-baseSteps is one
	// execution's retirement.
	baseSteps uint64
	// events, when non-nil, receives per-execution classification and
	// corpus-admission events (see telemetry.go).
	events *telemetry.Ring
}

// victimKey is the content identity of a fuzz victim build: the source
// plus every mitigation that reaches codegen. Runtime mitigations (DEP,
// ASLR, CFI, shadow stack) and all seeds act on the loaded process, not
// the linked artifact, so they stay out of the key.
type victimKey struct {
	src     string
	canary  bool
	checked bool
	profile string
}

// linkCache memoizes the compile+link pass across campaign trials. Every
// lookup is a counted Do on a per-trial path, so the published counters
// stay identical at any worker count (see internal/buildcache).
var linkCache = buildcache.New[victimKey, *kernel.Linked]("fuzz.link")

// New compiles, links and loads the victim under the configured
// mitigations, scrapes the mutation dictionary from the loaded image,
// and arms the snapshot every execution resets to.
func New(cfg Config) (*Campaign, error) {
	if cfg.MaxExecs == 0 {
		cfg.MaxExecs = DefaultMaxExecs
	}

	rng := seedrand.New(cfg.Seed)
	// Fixed draw order: layout seed, canary seed, then the mutation
	// stream owns the rng.
	aslrSeed := rng.Int63()
	canarySeed := int64(0)
	if cfg.Canary {
		canarySeed = rng.Int63() | 1
	}

	prof, err := layout.ByName(cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %w", err)
	}
	// The compiled and linked victim is a pure function of the content
	// key, so repeated campaign trials of one cell (each a fresh Campaign
	// with its own seed) share one toolchain pass; the per-campaign Load
	// below re-randomizes everything the seeds govern.
	key := victimKey{src: cfg.Source, canary: cfg.Canary, checked: cfg.Checked, profile: cfg.Profile}
	ld, err := linkCache.Do(key, func() (*kernel.Linked, error) {
		img, err := minc.Compile("victim", cfg.Source, minc.Options{
			Canary: cfg.Canary, BoundsCheck: cfg.Checked, Layout: prof,
		})
		if err != nil {
			return nil, fmt.Errorf("fuzz: compile victim: %w", err)
		}
		ld, err := kernel.Link(kernel.Libc(), img)
		if err != nil {
			return nil, fmt.Errorf("fuzz: link: %w", err)
		}
		return ld, nil
	})
	if err != nil {
		return nil, err
	}
	p, err := kernel.Load(ld, kernel.Config{
		DEP:         cfg.DEP,
		ASLR:        cfg.ASLR,
		ASLRSeed:    aslrSeed,
		CanarySeed:  canarySeed,
		CheckedLibc: cfg.Checked,
		ShadowStack: cfg.ShadowStack,
		MaxSteps:    DefaultExecSteps,
		MaxHeap:     DefaultExecHeap,
		Profile:     prof,
	})
	if err != nil {
		return nil, fmt.Errorf("fuzz: load: %w", err)
	}
	switch cfg.CFI {
	case "":
	case "coarse", "fine":
		g, err := cfi.Recover(p)
		if err != nil {
			return nil, fmt.Errorf("fuzz: cfi recovery: %w", err)
		}
		prec := cfi.Coarse
		if cfg.CFI == "fine" {
			prec = cfi.Fine
		}
		p.CPU.Policy = cfi.NewPolicy(g, prec)
	default:
		return nil, fmt.Errorf("fuzz: unknown CFI precision %q (want coarse or fine)", cfg.CFI)
	}

	c := &Campaign{
		cfg:       cfg,
		rng:       rng,
		proc:      p,
		seeds:     DefaultSeeds(),
		crashSigs: make(map[string]bool),
		res: Result{
			Name:             cfg.Name,
			Mitigations:      cfg.MitLabel(),
			Seed:             cfg.Seed,
			FirstCrashExec:   -1,
			FirstDetectExec:  -1,
			FirstExploitExec: -1,
		},
	}
	c.sched = newMutator(buildDictionary(p), DefaultMaxInput)
	p.CPU.Coverage = &c.execCov
	c.baseSteps = p.CPU.Steps
	c.snap = p.Snapshot()
	return c, nil
}

// Execute resets the victim to the armed snapshot, feeds it input, runs
// it to completion and classifies the outcome. It does not touch the
// corpus or result counters — Fuzz drives those.
func (c *Campaign) Execute(input []byte) (ExecResult, error) {
	if err := c.proc.Restore(c.snap); err != nil {
		return ExecResult{}, err
	}
	c.in.reset(input)
	c.proc.SetInput(&c.in)
	c.execCov.Reset()
	st := c.proc.Run()

	r := ExecResult{State: st, Steps: c.proc.CPU.Steps}
	r.Outcome = c.classify(st)
	if f := c.proc.CPU.Fault(); f != nil {
		r.Fault = f
		if r.Outcome == Crashed {
			r.Sig = crashSig(f)
		}
	}
	r.NewEdges = c.execCov.NewBits(&c.virgin)
	return r, nil
}

// crashSig renders the crash signature "<kind>@<ip>" without fmt: most
// executions of a campaign crash, and reflective formatting on that path
// was a measurable slice of campaign wall-clock (full fault descriptions
// are rendered lazily, only for the one first-crash record).
func crashSig(f *cpu.Fault) string {
	const hexd = "0123456789abcdef"
	var b [8]byte
	ip := f.IP
	for i := 7; i >= 0; i-- {
		b[i] = hexd[ip&0xF]
		ip >>= 4
	}
	return f.Kind.String() + "@" + string(b[:])
}

// exploitMarkers are output substrings whose appearance means the run
// reached an attacker goal, reusing the core oracles' conventions.
var exploitMarkers = [][]byte{[]byte(attack.PwnMarker), []byte("SHELL!")}

func (c *Campaign) classify(st cpu.State) ExecOutcome {
	out := c.proc.Output.Bytes()
	for _, m := range exploitMarkers {
		if bytes.Contains(out, m) {
			return Exploited
		}
	}
	switch st {
	case cpu.Exited:
		if code := c.proc.CPU.ExitCode(); code == attack.PwnExitCode || code == attack.ShellExitCode {
			return Exploited
		}
		return Clean
	case cpu.Halted:
		return Clean
	case cpu.StepLimit:
		return Hung
	case cpu.Faulted:
		if kernel.CountermeasureFault(c.proc.CPU.Fault()) {
			return Detected
		}
		return Crashed
	default:
		return Crashed
	}
}

// Fuzz runs up to execs more executions: first any unconsumed corpus
// seeds, then mutation rounds. It stops early only on infrastructure
// errors — findings are recorded, not fatal.
func (c *Campaign) Fuzz(execs int) error {
	for i := 0; i < execs; i++ {
		var input []byte
		if len(c.seeds) > 0 {
			input = c.seeds[0]
			c.seeds = c.seeds[1:]
		} else if len(c.corpus) == 0 {
			// Every seed was consumed and none was admitted (a victim
			// that crashes on all seeds): synthesize material.
			input = c.sched.fresh(c.rng)
		} else {
			base := c.corpus[c.rng.Intn(len(c.corpus))]
			var other []byte
			if len(c.corpus) > 1 {
				other = c.corpus[c.rng.Intn(len(c.corpus))].data
			}
			input = c.sched.mutate(c.rng, base.data, other)
		}
		r, err := c.Execute(input)
		if err != nil {
			return err
		}
		c.record(input, r)
	}
	return nil
}

// record updates counters, findings and the corpus for one execution.
func (c *Campaign) record(input []byte, r ExecResult) {
	c.res.Execs++
	c.res.TotalSteps += r.Steps - c.baseSteps
	n := c.res.Execs
	if c.events != nil {
		c.events.Emit("fuzz.exec", uint32(n), uint64(r.Outcome))
	}
	switch r.Outcome {
	case Crashed:
		c.res.Crashes++
		if c.res.FirstCrashExec < 0 {
			c.res.FirstCrashExec = n
			c.res.FirstCrashInput = append([]byte(nil), input...)
			if r.Fault != nil {
				c.res.FirstCrashFault = r.Fault.Error()
			}
		}
		if r.Sig != "" && !c.crashSigs[r.Sig] {
			c.crashSigs[r.Sig] = true
			c.res.CrashSigs++
		}
	case Detected:
		c.res.Detections++
		if c.res.FirstDetectExec < 0 {
			c.res.FirstDetectExec = n
		}
	case Hung:
		c.res.Hangs++
	case Exploited:
		c.res.Exploits++
		if c.res.FirstExploitExec < 0 {
			c.res.FirstExploitExec = n
		}
	}
	// Coverage-novelty admission. All runs merge into the campaign map
	// (so a wild crash is novel only once), but only survivable runs
	// earn a corpus slot: a crashing input is the end of its line, and
	// admitting every wild-jump crash would flood the corpus with junk
	// — each lands at a fresh address and so always looks novel.
	if r.NewEdges > 0 {
		c.execCov.MergeInto(&c.virgin)
		if r.Outcome == Clean || r.Outcome == Detected || r.Outcome == Exploited {
			c.corpus = append(c.corpus, corpusEntry{
				data:     append([]byte(nil), input...),
				newEdges: r.NewEdges,
			})
			if c.events != nil {
				c.events.Emit("fuzz.admit", uint32(n), uint64(r.NewEdges))
			}
		}
	}
	c.res.Edges = c.virgin.Count()
	c.res.CorpusSize = len(c.corpus)
}

// Result returns the campaign summary so far.
func (c *Campaign) Result() Result { return c.res }

// corpusEntry is one admitted input.
type corpusEntry struct {
	data     []byte
	newEdges int
}
