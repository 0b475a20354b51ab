package harness

// Live sweep progress. A long sweep (hundreds of cells × hundreds of
// trials) is silent until the report prints; the progress layer streams
// per-cell completion, throughput, cache-hit rate and an ETA to stderr
// while the worker pool drains. It is strictly observational: workers
// bump lock-free counters the renderer goroutine samples on a timer, so
// report and metrics bytes are byte-identical with progress on or off,
// at any -jobs width — the same contract as telemetry collection.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softsec/internal/buildcache"
)

// Progress configures the live renderer. A nil *Progress (the default)
// means progress off: the engine allocates nothing and workers pay one
// untaken branch per trial.
type Progress struct {
	// W receives the rendered lines; the CLI passes stderr so stdout
	// stays pure report output.
	W io.Writer
	// TTY selects in-place updates (carriage return, line clear) over
	// plain newline-separated lines. The CLI sets it from an isatty
	// probe of W; plain mode is what CI logs see.
	TTY bool
	// Label prefixes every line, conventionally the swept group.
	Label string
}

// interval returns the render period: 200ms on a TTY, 2s in plain
// mode (CI logs should not scroll with redraws).
func (p *Progress) interval() time.Duration {
	if p.TTY {
		return 200 * time.Millisecond
	}
	return 2 * time.Second
}

// progressState is the engine-side tracker: written by workers with
// atomic adds, read by the renderer goroutine. Results never flow
// through it.
type progressState struct {
	p       *Progress
	start   time.Time
	trials  int      // per cell
	total   uint64   // trials × cells
	perCell []uint64 // completed trials per scenario index (atomic)
	done    atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// startProgress launches the renderer; returns nil when progress is off.
func startProgress(p *Progress, ncells, trials int) *progressState {
	if p == nil || p.W == nil {
		return nil
	}
	ps := &progressState{
		p:       p,
		start:   time.Now(),
		trials:  trials,
		total:   uint64(ncells * trials),
		perCell: make([]uint64, ncells),
		stop:    make(chan struct{}),
	}
	ps.wg.Add(1)
	go ps.render()
	return ps
}

// trialDone records one completed (scenario, trial) unit. Safe for
// concurrent use; nil-receiver safe so the worker loop needs no branch
// beyond the nil check the compiler folds in.
func (ps *progressState) trialDone(si int) {
	if ps == nil {
		return
	}
	atomic.AddUint64(&ps.perCell[si], 1)
	ps.done.Add(1)
}

// finish stops the renderer and prints the final summary line.
func (ps *progressState) finish() {
	if ps == nil {
		return
	}
	close(ps.stop)
	ps.wg.Wait()
}

func (ps *progressState) render() {
	defer ps.wg.Done()
	tick := time.NewTicker(ps.p.interval())
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			ps.line(false)
		case <-ps.stop:
			ps.line(true)
			return
		}
	}
}

// line renders one progress (or the final summary) line.
func (ps *progressState) line(final bool) {
	done := ps.done.Load()
	if !final && done == 0 {
		return // nothing to report yet; don't print an empty line
	}
	elapsed := time.Since(ps.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	cellsDone := 0
	for i := range ps.perCell {
		if atomic.LoadUint64(&ps.perCell[i]) >= uint64(ps.trials) {
			cellsDone++
		}
	}
	var b strings.Builder
	if ps.p.TTY {
		b.WriteString("\r\x1b[2K")
	}
	label := ps.p.Label
	if label == "" {
		label = "sweep"
	}
	fmt.Fprintf(&b, "%s: %d/%d trials  %d/%d cells  %.0f trials/s",
		label, done, ps.total, cellsDone, len(ps.perCell), rate)
	if st := buildcache.TotalStats(); st.Hits+st.Misses > 0 {
		fmt.Fprintf(&b, "  cache %.0f%% hit", 100*float64(st.Hits)/float64(st.Hits+st.Misses))
	}
	if final {
		fmt.Fprintf(&b, "  in %.2fs\n", elapsed)
	} else {
		if rate > 0 && done < ps.total {
			eta := float64(ps.total-done) / rate
			fmt.Fprintf(&b, "  eta %s", fmtETA(eta))
		}
		if !ps.p.TTY {
			b.WriteString("\n")
		}
	}
	io.WriteString(ps.p.W, b.String())
}

// fmtETA renders a second count as m:ss (or h:mm:ss past the hour).
func fmtETA(secs float64) string {
	s := int(secs + 0.5)
	if s >= 3600 {
		return fmt.Sprintf("%d:%02d:%02d", s/3600, (s%3600)/60, s%60)
	}
	return fmt.Sprintf("%d:%02d", s/60, s%60)
}
