package kernel

import (
	"errors"
	"fmt"

	"softsec/internal/cpu"
	"softsec/internal/isa"
	"softsec/internal/mem"
)

// Syscall numbers (placed in EAX; arguments in EBX, ECX, EDX, ESI).
const (
	SysExit  = 1
	SysRead  = 3
	SysWrite = 4
	SysSbrk  = 5

	// Kernel-assisted run-time checking services (the "run-time checks"
	// of Section III-C2, in the style of AddressSanitizer): the checked
	// dialect's compiled code registers allocations and validates
	// accesses through these.
	SysAllocReg   = 0x20
	SysAllocUnreg = 0x21
	SysAllocCheck = 0x22
)

// Errno values returned (negated) in EAX.
const (
	EFAULT = 14
	ENOMEM = 12
)

// maxOutput caps a process's buffered output, as RLIMIT_FSIZE caps a
// file: a write that would pass it stores what fits and returns that
// count, so a write at the cap returns 0. Without it a guest could make
// the host buffer its mapped memory any number of times over: one write
// of a heap grown to MaxHeapBytes would copy and buffer 128 MiB.
const maxOutput = 1 << 20

// BoundsViolation is the error produced when a run-time check catches an
// out-of-bounds access. It is deliberately a distinct type: the scenario
// oracles classify "blocked with detection" separately from crashes.
type BoundsViolation struct {
	Addr uint32
	Size uint32
}

func (b *BoundsViolation) Error() string {
	return fmt.Sprintf("bounds violation: access [0x%08x,+0x%x) outside every live allocation", b.Addr, b.Size)
}

// CountermeasureFault reports whether a fault is a deployed
// countermeasure catching the attack rather than a crash: canary
// fail-fast, a policy fault, a CFI fault, or a run-time bounds check.
// It is the one detection rule of core.Classify and the fuzzer.
func CountermeasureFault(f *cpu.Fault) bool {
	if f == nil {
		return false
	}
	switch f.Kind {
	case cpu.FaultFailFast, cpu.FaultPolicy, cpu.FaultCFI:
		return true
	}
	var bv *BoundsViolation
	return errors.As(f.Err, &bv)
}

type trapHandler Process

// Trap implements cpu.TrapHandler for INT 0x80.
func (h *trapHandler) Trap(c *cpu.CPU, vector uint8) error {
	p := (*Process)(h)
	if vector != 0x80 {
		return fmt.Errorf("kernel: unknown interrupt vector 0x%x", vector)
	}
	no := c.Reg[isa.EAX]
	a1 := c.Reg[isa.EBX]
	a2 := c.Reg[isa.ECX]
	a3 := c.Reg[isa.EDX]

	switch no {
	case SysExit:
		p.trace("exit(%d)", int32(a1))
		c.Exit(int32(a1))
		return nil

	case SysRead:
		// The fortified guard aborts loudly *before* any byte lands:
		// during testing, every illegal access must be detected.
		if err := p.checkedLibcGuard(a2, a3); err != nil {
			return err
		}
		n := p.sysRead(a1, a2, a3)
		// Gated at the call site: boxing four variadic args allocates
		// even when tracing is off, and read/write are the syscalls
		// fuzzing hits hundreds of thousands of times per second.
		if p.Config.TraceSyscalls {
			p.trace("read(%d, 0x%08x, %d) = %d", a1, a2, a3, int32(n))
		}
		c.Reg[isa.EAX] = n
		return nil

	case SysWrite:
		// Fortified write: an over-long source range out of a registered
		// allocation is an information leak in the making (Heartbleed's
		// shape); during testing it must abort loudly.
		if err := p.checkedLibcGuard(a2, a3); err != nil {
			return err
		}
		n := p.sysWrite(a1, a2, a3)
		if p.Config.TraceSyscalls {
			p.trace("write(%d, 0x%08x, %d) = %d", a1, a2, a3, int32(n))
		}
		c.Reg[isa.EAX] = n
		return nil

	case SysSbrk:
		old, err := p.Sbrk(a1)
		p.trace("sbrk(%d) = 0x%08x", a1, old)
		if err != nil {
			enomem := int32(-ENOMEM)
			c.Reg[isa.EAX] = uint32(enomem)
			return nil
		}
		c.Reg[isa.EAX] = old
		return nil

	case SysAllocReg:
		p.RegisterAlloc(a1, a2)
		c.Reg[isa.EAX] = 0
		return nil

	case SysAllocUnreg:
		p.UnregisterAlloc(a1)
		c.Reg[isa.EAX] = 0
		return nil

	case SysAllocCheck:
		if !p.CheckAlloc(a1, a2) {
			return &BoundsViolation{Addr: a1, Size: a2}
		}
		c.Reg[isa.EAX] = 0
		return nil
	}
	return fmt.Errorf("kernel: unknown syscall %d", no)
}

func (p *Process) trace(format string, args ...any) {
	if p.Config.TraceSyscalls {
		p.SyscallLog = append(p.SyscallLog, fmt.Sprintf(format, args...))
	}
}

// checkedLibcGuard implements the fortified read(): if the destination
// buffer lies inside a registered allocation but the *requested* length
// exceeds that allocation, the access is refused before any bytes land.
// Buffers the registry does not know about pass unchecked — run-time
// testing tools have exactly this false-negative mode.
func (p *Process) checkedLibcGuard(buf, n uint32) error {
	if !p.Config.CheckedLibc {
		return nil
	}
	for base, size := range p.allocs {
		if buf >= base && buf < base+size {
			if buf+n > base+size || buf+n < buf {
				return &BoundsViolation{Addr: buf, Size: n}
			}
			return nil
		}
	}
	// Stack addresses must lie in a *live* registration: a buffer whose
	// frame has been deallocated (the paper's temporal vulnerability) is
	// gone from the registry and gets caught here.
	if buf >= p.Layout.StackLow && buf < p.Layout.StackLow+p.Layout.StackSize {
		return &BoundsViolation{Addr: buf, Size: n}
	}
	return nil
}

// sysRead copies the next scripted input chunk into [buf, buf+max). It
// returns the count stored in EAX: bytes copied, 0 at end of input, or
// -EFAULT when nothing could be copied.
//
// Note the deliberate fidelity to real kernels: the copy respects page
// permissions but nothing else. If userspace asks for 32 bytes into a
// 16-byte stack buffer, the kernel happily keeps copying — that is the
// paper's Section III-A spatial vulnerability.
func (p *Process) sysRead(fd, buf, max uint32) uint32 {
	if p.CopyGuard != nil {
		if err := p.CopyGuard(buf, max, true); err != nil {
			return efault()
		}
	}
	if p.Config.Input == nil {
		return 0
	}
	data := p.Config.Input.NextInput(int(max), p.Output.Bytes())
	if len(data) == 0 {
		return 0
	}
	n, err := p.Mem.WriteBytes(buf, data)
	if n == 0 && err != nil {
		return efault()
	}
	return uint32(n)
}

func (p *Process) sysWrite(fd, buf, n uint32) uint32 {
	if p.CopyGuard != nil {
		if err := p.CopyGuard(buf, n, false); err != nil {
			return efault()
		}
	}
	// Validate the whole source range before allocating the copy buffer:
	// a junk length in EDX must cost an EFAULT, not a multi-gigabyte
	// allocation (fuzzed executions hand this syscall random registers).
	if !p.Mem.CheckRange(buf, n, mem.R) {
		return efault()
	}
	if room := max(maxOutput-p.Output.Len(), 0); int(n) > room {
		n = uint32(room)
	}
	b, err := p.Mem.ReadBytes(buf, int(n))
	if err != nil {
		// Partial reads are not reported byte-precisely; a faulting
		// source range is an EFAULT, as on Linux.
		return efault()
	}
	p.Output.Write(b)
	return n
}

func efault() uint32 {
	v := int32(-EFAULT)
	return uint32(v)
}
