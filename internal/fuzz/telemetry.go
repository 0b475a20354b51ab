package fuzz

import (
	"softsec/internal/kernel"
	"softsec/internal/telemetry"
)

// RunCollected executes a whole campaign — New, Fuzz(MaxExecs),
// Result — optionally with telemetry: when spec is non-nil, fresh
// instruments are attached to the campaign's victim before fuzzing and
// the collected snapshot — engine counters plus the fuzz-layer
// counters below — is returned alongside the result. A nil spec
// collects nothing and returns a nil snapshot.
//
// The retired-step total published as cpu.steps.retired is the
// campaign's accumulated per-execution sum, not the CPU's own counter:
// snapshot restores roll the architectural counter back once per exec.
func RunCollected(cfg Config, spec *telemetry.Spec) (Result, *telemetry.Snap, error) {
	c, err := New(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	ins := kernel.AttachInstruments(c.proc, spec)
	if ins != nil {
		c.events = ins.Ring
	}
	if err := c.Fuzz(c.cfg.MaxExecs); err != nil {
		return Result{}, nil, err
	}
	res := c.Result()
	var snap *telemetry.Snap
	if ins != nil {
		snap = ins.Snap(c.proc, res.TotalSteps)
		publishResult(res, snap)
	}
	return res, snap, nil
}

// publishResult maps the campaign summary onto fuzz.* counters.
func publishResult(r Result, s *telemetry.Snap) {
	s.Count("fuzz.execs", uint64(r.Execs))
	s.Count("fuzz.exec.crashed", uint64(r.Crashes))
	s.Count("fuzz.exec.detected", uint64(r.Detections))
	s.Count("fuzz.exec.hung", uint64(r.Hangs))
	s.Count("fuzz.exec.exploited", uint64(r.Exploits))
	clean := r.Execs - r.Crashes - r.Detections - r.Hangs - r.Exploits
	if clean > 0 {
		s.Count("fuzz.exec.clean", uint64(clean))
	}
	s.Count("fuzz.corpus.admitted", uint64(r.CorpusSize))
	s.Count("fuzz.edges", uint64(r.Edges))
	s.Count("fuzz.crash_sigs", uint64(r.CrashSigs))
}
