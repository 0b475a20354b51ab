package mem

import "softsec/internal/telemetry"

// Stats counts address-space telemetry when installed via SetStats:
// per-page write-stamp bumps (the two-tier code-invalidation signal the
// decode/block/trace caches validate against) and checkpoint restore
// traffic. Nil is the default and costs each site one untaken branch —
// the same contract as the CPU's optional stat hooks.
type Stats struct {
	StampBumps        uint64 // per-page wgen increments (invalidations)
	RestoreCycles     uint64 // Restore calls
	RestoreDirtyPages uint64 // dirty pages walked across all restores
}

// Publish adds the memory counters to s.
func (st *Stats) Publish(s *telemetry.Snap) {
	s.Count("mem.stamp.bumps", st.StampBumps)
	s.Count("mem.restore.cycles", st.RestoreCycles)
	s.Count("mem.restore.dirty_pages", st.RestoreDirtyPages)
}

// SetStats installs (or, with nil, removes) the stats sink.
func (m *Memory) SetStats(st *Stats) { m.stats = st }

// bumpStamp invalidates cached code derived from p's current bytes or
// permissions by advancing its write stamp, counting the bump when a
// stats sink is installed.
func (m *Memory) bumpStamp(p *page) {
	p.wgen++
	if m.stats != nil {
		m.stats.StampBumps++
	}
}
