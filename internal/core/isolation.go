package core

import (
	"fmt"

	"softsec/internal/asm"
	"softsec/internal/attack"
	"softsec/internal/bytecode"
	"softsec/internal/capmach"
	"softsec/internal/cpu"
	"softsec/internal/harness"
	"softsec/internal/kernel"
	"softsec/internal/minc"
	"softsec/internal/pma"
	"softsec/internal/securecomp"
	"softsec/internal/sfi"
)

// This file implements the T3 experiment: the isolation mechanisms of the
// paper's Section IV-A (virtual machine, software fault isolation,
// capability machine, protected module architecture) against the two
// flavours of machine-code attacker — a malicious module inside the
// process, and malware in the kernel. Every cell is an executed attack,
// not an assertion.

// IsolationResult is one cell of the T3 matrix.
type IsolationResult struct {
	Mechanism string
	Attacker  string // "in-process" or "kernel"
	// SecretStolen reports whether the attacker obtained the module's
	// secret (the PIN value 1234 / secret 666 of Figure 2).
	SecretStolen bool
	// Note explains how the outcome came about.
	Note string
}

// pinSecretSrc is the Figure 2 module used as the asset under attack.
const pinSecretSrc = `
static int tries_left = 3;
static int PIN = 1234;
static int secret = 666;
int get_secret(int provided_pin) {
	if (tries_left > 0) {
		if (PIN == provided_pin) {
			tries_left = 3;
			return secret;
		} else { tries_left--; return 0; }
	}
	else return 0;
}
`

var pinPattern = []byte{0xd2, 0x04, 0x00, 0x00} // 1234 little-endian

// IsolationMechanisms are the rows of the T3 grid, AttackerModels its
// columns.
var (
	IsolationMechanisms = []string{"none", "bytecode-vm", "sfi", "capability", "pma"}
	AttackerModels      = []string{"in-process", "kernel"}
)

// IsolationScenario wraps one (mechanism, attacker) cell as a harness
// scenario. The cells are deterministic, so trials beyond the first just
// confirm stability; the scenario form is what lets the matrix share the
// worker pool and the JSON report with everything else.
func IsolationScenario(mech, attacker string) harness.Scenario {
	return harness.Scenario{
		Name:  "t3/" + mech + "/" + attacker,
		Group: "t3",
		Meta:  map[string]string{"mechanism": mech, "attacker": attacker},
		Run: func(t harness.Trial) harness.TrialResult {
			r, err := runIsolationCell(mech, attacker)
			if err != nil {
				return harness.TrialResult{Err: err}
			}
			outcome := "SAFE"
			if r.SecretStolen {
				outcome = "STOLEN"
			}
			return harness.TrialResult{
				Outcome: outcome,
				Success: r.SecretStolen,
				Detail:  r.Note,
			}
		},
	}
}

// IsolationScenarios builds the full T3 grid as harness scenarios.
func IsolationScenarios() []harness.Scenario {
	var out []harness.Scenario
	for _, mech := range IsolationMechanisms {
		for _, attacker := range AttackerModels {
			out = append(out, IsolationScenario(mech, attacker))
		}
	}
	return out
}

// RunIsolationMatrixJobs executes the T3 grid across a worker pool.
func RunIsolationMatrixJobs(jobs int) ([]IsolationResult, error) {
	scenarios := IsolationScenarios()
	rep := harness.Run(scenarios, harness.Options{Trials: 1, Jobs: jobs})
	var out []IsolationResult
	for i, sc := range scenarios {
		r := rep.Results[i][0]
		if r.Err != nil {
			return nil, fmt.Errorf("isolation %s/%s: %w", sc.Meta["mechanism"], sc.Meta["attacker"], r.Err)
		}
		out = append(out, IsolationResult{
			Mechanism:    sc.Meta["mechanism"],
			Attacker:     sc.Meta["attacker"],
			SecretStolen: r.Success,
			Note:         r.Detail,
		})
	}
	return out, nil
}

func runIsolationCell(mech, attacker string) (IsolationResult, error) {
	res := IsolationResult{Mechanism: mech, Attacker: attacker}
	switch mech {
	case "none", "pma":
		return runFlatOrPMA(res, mech == "pma")
	case "bytecode-vm":
		return runVMCell(res)
	case "sfi":
		return runSFICell(res)
	case "capability":
		return runCapabilityCell(res)
	}
	return res, fmt.Errorf("unknown mechanism %q", mech)
}

// runFlatOrPMA runs the native-machine cells: the secret module linked
// flat (or hardened+protected), attacked by the scraper module or by the
// kernel scraper.
func runFlatOrPMA(res IsolationResult, protected bool) (IsolationResult, error) {
	var modImg *asm.Image
	var err error
	if protected {
		modImg, err = securecomp.Harden("secretmod", pinSecretSrc,
			[]securecomp.Export{{Name: "get_secret", Args: 1}}, securecomp.Full())
	} else {
		modImg, err = minc.Compile("secretmod", pinSecretSrc, minc.Options{})
	}
	if err != nil {
		return res, err
	}

	if res.Attacker == "in-process" {
		scraper, err := attack.ScraperModule(kernel.NominalData, kernel.NominalData+0x1000, pinPattern)
		if err != nil {
			return res, err
		}
		ld, err := kernel.Link(kernel.Libc(), modImg, scraper)
		if err != nil {
			return res, err
		}
		p, err := kernel.Load(ld, kernel.Config{DEP: true})
		if err != nil {
			return res, err
		}
		if protected {
			if _, err := pma.Protect(p, "secretmod"); err != nil {
				return res, err
			}
		}
		st := p.Run()
		res.SecretStolen = st == cpu.Exited && p.CPU.ExitCode() == attack.ScraperExitCode
		if res.SecretStolen {
			res.Note = "scraper exfiltrated module data"
		} else if st == cpu.Faulted && p.CPU.Fault().Kind == cpu.FaultPolicy {
			res.Note = "PMA access-control fault stopped the scan"
		} else {
			res.Note = fmt.Sprintf("scan ended: %v", st)
		}
		return res, nil
	}

	// Kernel malware: scan all of memory from below the OS.
	trivial := asm.MustAssemble("m", "\t.text\n\t.global main\nmain:\n\tmov eax, 0\n\tret\n")
	ld, err := kernel.Link(kernel.Libc(), modImg, trivial)
	if err != nil {
		return res, err
	}
	p, err := kernel.Load(ld, kernel.Config{DEP: true})
	if err != nil {
		return res, err
	}
	if protected {
		pol, err := pma.Protect(p, "secretmod")
		if err != nil {
			return res, err
		}
		hits := pol.KernelScrape(p, pinPattern)
		res.SecretStolen = len(hits) > 0
		res.Note = "hardware access control applies below the kernel too"
		return res, nil
	}
	hits := attack.KernelScrape(p, pinPattern)
	res.SecretStolen = len(hits) > 0
	res.Note = "kernel reads all of physical memory"
	return res, nil
}

func runVMCell(res IsolationResult) (IsolationResult, error) {
	vault := &bytecode.Module{
		Name: "vault",
		Fields: map[string]uint32{
			"tries_left": 3, "PIN": 1234, "secret": 666,
		},
		Methods: map[string]*bytecode.Method{
			"get_secret": {Name: "get_secret", Public: true, NArgs: 1,
				Code: []bytecode.Instr{
					{Op: bytecode.Push, A: 0}, {Op: bytecode.Ret},
				}},
		},
	}
	evil := &bytecode.Module{
		Name:   "evil",
		Fields: map[string]uint32{},
		Methods: map[string]*bytecode.Method{
			"steal": {Name: "steal", Public: true,
				Code: []bytecode.Instr{
					{Op: bytecode.GetForeign, Mod: "vault", Name: "secret"},
					{Op: bytecode.Ret},
				}},
		},
	}
	vm := bytecode.NewVM(vault, evil)
	if res.Attacker == "in-process" {
		_, err := vm.Invoke("evil", "steal")
		res.SecretStolen = err == nil
		res.Note = "VM checks private-field access on every instruction"
		return res, nil
	}
	res.SecretStolen = vm.Scrape(1234) > 0
	res.Note = "the VM's field store is plain memory one layer down"
	return res, nil
}

func runSFICell(res IsolationResult) (IsolationResult, error) {
	const sbBase, sbSize = 0x00400000, 0x1000
	sb := sfi.Sandbox{Base: sbBase, Size: sbSize}
	scraperSrc := fmt.Sprintf(`
	.text
	.global main
main:
	mov esi, 0x%x
	mov ebx, 0x%x
scan:
	cmp esi, ebx
	jae done
	loadw eax, [esi]
	cmp eax, 1234
	jz hit
	add esi, 1
	jmp scan
hit:
	mov ebx, 99
	mov eax, 1
	int 0x80
done:
	mov ebx, 0
	mov eax, 1
	int 0x80
`, kernel.NominalData, kernel.NominalData+0x1000)

	modImg, err := minc.Compile("secretmod", pinSecretSrc, minc.Options{})
	if err != nil {
		return res, err
	}
	rewritten, err := sfi.Rewrite(scraperSrc, sb)
	if err != nil {
		return res, err
	}
	plugin, err := asm.Assemble("plugin", rewritten)
	if err != nil {
		return res, err
	}
	if err := sfi.Verify(plugin, sb); err != nil {
		return res, err
	}
	ld, err := kernel.Link(kernel.Libc(), modImg, plugin)
	if err != nil {
		return res, err
	}
	p, err := kernel.Load(ld, kernel.Config{DEP: true})
	if err != nil {
		return res, err
	}
	if err := p.Mem.Map(sbBase, sbSize+0x1000, 3 /* RW */); err != nil {
		return res, err
	}
	if res.Attacker == "in-process" {
		st := p.Run()
		res.SecretStolen = st == cpu.Exited && p.CPU.ExitCode() == 99
		res.Note = "masked loads confine the plugin to its sandbox"
		return res, nil
	}
	// Kernel attacker: SFI is a userspace construction, no help.
	hits := attack.KernelScrape(p, pinPattern)
	res.SecretStolen = len(hits) > 0
	res.Note = "SFI constrains the module, not the kernel"
	return res, nil
}

func runCapabilityCell(res IsolationResult) (IsolationResult, error) {
	// The vault compartment: secret at mem[0], reachable only through a
	// sealed capability pair held by the client.
	client := []capmach.Instr{
		{Op: capmach.CLoad, Rd: 2, Rs: 1}, // direct sealed-data access
	}
	module := []capmach.Instr{
		{Op: capmach.CLoad, Rd: 2, Rs: capmach.IDC},
		{Op: capmach.Out, Rd: 2},
		{Op: capmach.CRet, Rs: 6},
	}
	prog := append(append([]capmach.Instr{}, client...), module...)
	m := capmach.New(16, prog)
	m.Mem[0] = capmach.DataWord(1234)
	m.Reg[1] = capmach.CapWord(capmach.Cap{
		Base: 0, Len: 1, Cursor: 0, Perms: capmach.PermR, Sealed: true, OType: 9,
	})
	if res.Attacker == "in-process" {
		err := m.Run(100)
		res.SecretStolen = err == nil && len(m.Output) > 0 && m.Output[0] == 1234
		res.Note = "sealed capabilities are opaque to the client"
		return res, nil
	}
	// Kernel attacker: privileged software holding root capabilities (or
	// scanning physical memory) still sees everything.
	found := false
	for _, w := range m.Mem {
		if !w.IsCap && w.Val == 1234 {
			found = true
		}
	}
	res.SecretStolen = found
	res.Note = "a kernel holding root capabilities reads all memory"
	return res, nil
}

// RenderIsolation formats the T3 matrix.
func RenderIsolation(rows []IsolationResult) string {
	out := fmt.Sprintf("%-14s | %-11s | %-9s | %s\n", "mechanism", "attacker", "secret", "note")
	for _, r := range rows {
		v := "SAFE"
		if r.SecretStolen {
			v = "STOLEN"
		}
		out += fmt.Sprintf("%-14s | %-11s | %-9s | %s\n", r.Mechanism, r.Attacker, v, r.Note)
	}
	return out
}
