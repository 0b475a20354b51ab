package cli

// Telemetry flag plumbing shared by secsim and attacklab: -metrics,
// -guestprof, -evtrace and -stats all ride the same per-trial
// collection spec, and WriteOutputs turns a merged registry into the
// artifacts the flags name. Keeping this here (not in the drivers) is
// what stops the binaries from drifting.

import (
	"fmt"
	"io"
	"os"

	"softsec/internal/telemetry"
)

// TelemetrySpec converts the telemetry flags into a collection spec:
// nil (collection off, the zero-overhead default) when none was given.
// -guestprof turns the deterministic profiler on; -evtrace the event
// ring; -metrics and -stats need only counters, which every non-nil
// spec collects. -runlog implies collection too: a run record
// without its counters could not be diffed.
func (s *Sweep) TelemetrySpec() *telemetry.Spec {
	if s.Metrics == "" && s.GuestProf == "" && s.EvTrace == "" && !s.Stats && s.RunLog == "" {
		return nil
	}
	return &telemetry.Spec{
		Profile: s.GuestProf != "",
		Events:  s.EvTrace != "",
	}
}

// WriteOutputs materializes every requested telemetry artifact from
// reg: the metrics JSON, the folded guest profile, the Chrome
// trace_event timeline, and the -stats listing (plus the guest hot-cost
// table when profiling) to w. A nil registry — telemetry was
// off — writes nothing.
func (s *Sweep) WriteOutputs(reg *telemetry.Registry, w io.Writer) error {
	if reg == nil {
		return nil
	}
	if s.Metrics != "" {
		b, err := reg.MetricsJSON()
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if err := os.WriteFile(s.Metrics, b, 0o644); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if s.GuestProf != "" {
		f, err := os.Create(s.GuestProf)
		if err != nil {
			return fmt.Errorf("guestprof: %w", err)
		}
		werr := reg.WriteFolded(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("guestprof: %w", werr)
		}
		if table := reg.HotTable(10); table != "" {
			if _, err := io.WriteString(w, table); err != nil {
				return err
			}
		}
	}
	if s.EvTrace != "" {
		f, err := os.Create(s.EvTrace)
		if err != nil {
			return fmt.Errorf("evtrace: %w", err)
		}
		werr := reg.WriteTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("evtrace: %w", werr)
		}
	}
	if s.Stats {
		return reg.WriteStats(w)
	}
	return nil
}
