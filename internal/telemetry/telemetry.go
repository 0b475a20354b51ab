// Package telemetry is the unified observability layer of the
// reproduction: a zero-dependency metrics registry, a deterministic
// guest-profiler aggregation format, and a ring-buffered event-trace
// exporter. Every execution tier (cpu decode/block/trace caches, mem
// checkpointing, the kernel, fuzz campaigns) publishes into it through
// nil-guarded hooks that follow the Policy/Coverage pattern: a machine
// with telemetry off pays one untaken branch per hook site and allocates
// nothing.
//
// The package splits observations into two sections with different
// contracts:
//
//   - deterministic metrics (counters, histograms, folded guest
//     profiles): derived only from simulated execution, never from
//     wall-clock or scheduling. Per-trial Snaps are merged into a
//     Registry in harness slot order, so a -jobs 1 and a -jobs N sweep
//     serialize byte-identical metrics files;
//   - wall metrics (timings, rates): explicitly non-deterministic,
//     serialized under a separate "wall" key so consumers (and diff
//     tools) never confuse the two.
//
// Event traces are per-trial timelines, labeled by (scenario, trial) and
// ordered by a monotonic ring sequence number — not by Steps, which the
// fuzzer's snapshot restores roll backward. Export is Chrome
// trace_event JSON (chrome://tracing, Perfetto); profiles export as
// folded stacks (flamegraph.pl's input format).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Spec selects what a collected run should record. A nil *Spec means
// telemetry off; a non-nil Spec always collects counters and histograms,
// with the profiler and event ring opted into individually.
type Spec struct {
	// Profile samples the guest sim PC every ProfileInterval retired
	// instructions. Sampling is instruction-count-driven, so profiles are
	// byte-identical across runs, job counts and engine tiers (installing
	// a profiler forces the bit-identical stepping engine).
	Profile bool
	// ProfileInterval overrides the sampling period; zero means
	// DefaultProfileInterval.
	ProfileInterval uint64
	// Events records engine events into a bounded ring per trial.
	Events bool
	// EventCap overrides the ring capacity; zero means DefaultEventCap.
	// When the ring is full the oldest events are overwritten (the drop
	// count is reported).
	EventCap int
}

// Collection defaults.
const (
	DefaultProfileInterval = 64
	DefaultEventCap        = 4096
)

// Interval returns the effective profiler sampling period.
func (s *Spec) Interval() uint64 {
	if s.ProfileInterval != 0 {
		return s.ProfileInterval
	}
	return DefaultProfileInterval
}

// Cap returns the effective event-ring capacity.
func (s *Spec) Cap() int {
	if s.EventCap != 0 {
		return s.EventCap
	}
	return DefaultEventCap
}

// Snap is the telemetry of one trial: a shard produced by exactly one
// worker, merged into a Registry afterwards. It is not safe for
// concurrent use — one trial, one goroutine, one Snap.
type Snap struct {
	// Scenario and Trial label the shard for event-timeline export; the
	// harness stamps them when slotting results.
	Scenario string
	Trial    int

	Counters map[string]uint64
	// Hists maps histogram name -> bucket label -> count. Bucket labels
	// are fixed-width decimal ("04") so lexicographic order is numeric
	// order.
	Hists   map[string]map[string]uint64
	Profile map[string]uint64 // folded stack -> sample count
	Events  []Event
	Dropped uint64
}

// NewSnap returns an empty shard.
func NewSnap() *Snap {
	return &Snap{
		Counters: make(map[string]uint64),
		Hists:    make(map[string]map[string]uint64),
	}
}

// Count adds v to the named counter.
func (s *Snap) Count(name string, v uint64) {
	if v != 0 {
		s.Counters[name] += v
	}
}

// Bucket adds v to one bucket of the named histogram.
func (s *Snap) Bucket(hist, bucket string, v uint64) {
	if v == 0 {
		return
	}
	h := s.Hists[hist]
	if h == nil {
		h = make(map[string]uint64)
		s.Hists[hist] = h
	}
	h[bucket] += v
}

// BucketInt is Bucket with a numeric label, zero-padded to two digits so
// histogram JSON sorts numerically.
func (s *Snap) BucketInt(hist string, bucket int, v uint64) {
	s.Bucket(hist, fmt.Sprintf("%02d", bucket), v)
}

// AddProfile merges a folded-stack profile into the shard.
func (s *Snap) AddProfile(folded map[string]uint64) {
	if len(folded) == 0 {
		return
	}
	if s.Profile == nil {
		s.Profile = make(map[string]uint64, len(folded))
	}
	for k, v := range folded {
		s.Profile[k] += v
	}
}

// Timeline is one trial's labeled event sequence inside a Registry.
type Timeline struct {
	Scenario string
	Trial    int
	Events   []Event
	Dropped  uint64
}

// Registry aggregates trial shards. Merging is commutative for the
// deterministic sections (counters, histograms and profiles sum;
// timelines sort by label at export), so concurrent AddSnap calls from
// worker goroutines produce the same registry as any sequential order —
// the property the determinism suite pins under -race. Wall metrics are
// the explicitly non-deterministic section.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]uint64
	hists     map[string]map[string]uint64
	profile   map[string]uint64
	timelines []Timeline
	wall      map[string]float64
	wallStr   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		hists:    make(map[string]map[string]uint64),
		profile:  make(map[string]uint64),
	}
}

// AddSnap merges one trial shard. Safe for concurrent use.
func (r *Registry) AddSnap(s *Snap) {
	if s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range s.Counters {
		r.counters[k] += v
	}
	for name, h := range s.Hists {
		rh := r.hists[name]
		if rh == nil {
			rh = make(map[string]uint64, len(h))
			r.hists[name] = rh
		}
		for b, v := range h {
			rh[b] += v
		}
	}
	for k, v := range s.Profile {
		r.profile[k] += v
	}
	if len(s.Events) > 0 || s.Dropped > 0 {
		r.timelines = append(r.timelines, Timeline{
			Scenario: s.Scenario,
			Trial:    s.Trial,
			Events:   s.Events,
			Dropped:  s.Dropped,
		})
	}
}

// Count adds v to a counter directly (harness-level counters that have
// no per-trial shard). Safe for concurrent use.
func (r *Registry) Count(name string, v uint64) {
	if v == 0 {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// Counter returns a counter's current value (0 when never counted).
func (r *Registry) Counter(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Hist returns a copy of one histogram (nil when never filled).
func (r *Registry) Hist(name string) map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return nil
	}
	out := make(map[string]uint64, len(h))
	for b, v := range h {
		out[b] = v
	}
	return out
}

// SetWall records one wall-clock metric (nanoseconds, rates, ...) in the
// non-deterministic section.
func (r *Registry) SetWall(name string, v float64) {
	r.mu.Lock()
	if r.wall == nil {
		r.wall = make(map[string]float64)
	}
	r.wall[name] = v
	r.mu.Unlock()
}

// SetWallString records one string-valued entry in the wall section —
// the environment fingerprint (go version, GOOS/GOARCH) run records
// embed so a metrics file is self-describing. Strings ride the same
// quarantined "wall" key as timings: they describe the machine that
// produced the file, never the simulated execution, so determinism
// checks keep ignoring the section wholesale.
func (r *Registry) SetWallString(name, v string) {
	r.mu.Lock()
	if r.wallStr == nil {
		r.wallStr = make(map[string]string)
	}
	r.wallStr[name] = v
	r.mu.Unlock()
}

// MetricsSchema versions the metrics file format; MetricsTool is the
// tool tag that marks a metrics file, checked by ValidateMetrics.
const (
	MetricsSchema = 1
	MetricsTool   = "telemetry-metrics"
)

// MetricsFile is the serialized registry. The counters/hists sections
// are deterministic (encoding/json sorts map keys, and merge order never
// changes a sum), the wall section is not and is omitted when empty —
// harness sweeps write none, so their files compare byte-for-byte across
// job counts.
type MetricsFile struct {
	Schema   int                          `json:"schema"`
	Tool     string                       `json:"tool"`
	Counters map[string]uint64            `json:"counters"`
	Hists    map[string]map[string]uint64 `json:"hists,omitempty"`
	// Wall mixes float64 timings/rates and string environment entries
	// (SetWall / SetWallString) under one quarantined key.
	Wall map[string]any `json:"wall,omitempty"`
}

// File snapshots the registry into its serializable form.
func (r *Registry) File() *MetricsFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &MetricsFile{
		Schema:   MetricsSchema,
		Tool:     MetricsTool,
		Counters: make(map[string]uint64, len(r.counters)),
	}
	for k, v := range r.counters {
		f.Counters[k] = v
	}
	if len(r.hists) > 0 {
		f.Hists = make(map[string]map[string]uint64, len(r.hists))
		for name, h := range r.hists {
			hc := make(map[string]uint64, len(h))
			for b, v := range h {
				hc[b] = v
			}
			f.Hists[name] = hc
		}
	}
	if len(r.wall)+len(r.wallStr) > 0 {
		f.Wall = make(map[string]any, len(r.wall)+len(r.wallStr))
		for k, v := range r.wall {
			f.Wall[k] = v
		}
		for k, v := range r.wallStr {
			f.Wall[k] = v
		}
	}
	return f
}

// MetricsJSON serializes the registry's metrics file with stable
// formatting.
func (r *Registry) MetricsJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r.File(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ValidateMetrics checks that data is a well-formed metrics file:
// correct schema and tool tag, no unknown fields, and a counters
// section. runlog.Load runs it on the metrics a run record embeds.
func ValidateMetrics(data []byte) error {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f MetricsFile
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("telemetry: metrics file: %w", err)
	}
	if f.Schema != MetricsSchema {
		return fmt.Errorf("telemetry: metrics file: schema %d (want %d)", f.Schema, MetricsSchema)
	}
	if f.Tool != MetricsTool {
		return fmt.Errorf("telemetry: metrics file: tool %q (want %q)", f.Tool, MetricsTool)
	}
	if f.Counters == nil {
		return fmt.Errorf("telemetry: metrics file: missing counters section")
	}
	return nil
}

// WriteStats writes the deterministic counters and histograms as a
// plain listing: every counter as "name value", then every histogram as
// "name bucket:count ...", one line each, sorted by name and with the
// names padded to one column. It is the -stats rendering; the wall
// section is left out, so the listing is as deterministic as the
// metrics file.
func (r *Registry) WriteStats(w io.Writer) error {
	f := r.File()
	counters := slices.Sorted(maps.Keys(f.Counters))
	hists := slices.Sorted(maps.Keys(f.Hists))
	width := 0
	for _, name := range append(counters, hists...) {
		width = max(width, len(name))
	}
	var b strings.Builder
	for _, name := range counters {
		fmt.Fprintf(&b, "%-*s %d\n", width, name, f.Counters[name])
	}
	for _, name := range hists {
		fmt.Fprintf(&b, "%-*s", width, name)
		for _, bucket := range slices.Sorted(maps.Keys(f.Hists[name])) {
			fmt.Fprintf(&b, " %s:%d", bucket, f.Hists[name][bucket])
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFolded writes the merged guest profile in folded-stacks format —
// one "frame;frame;leaf count" line per distinct stack, sorted — the
// input format of standard flamegraph tooling.
func (r *Registry) WriteFolded(w io.Writer) error {
	r.mu.Lock()
	keys := make([]string, 0, len(r.profile))
	for k := range r.profile {
		keys = append(keys, k)
	}
	counts := make(map[string]uint64, len(keys))
	for k, v := range r.profile {
		counts[k] = v
	}
	r.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, counts[k]); err != nil {
			return err
		}
	}
	return nil
}

// ProfileSamples returns the total sample count of the merged profile.
func (r *Registry) ProfileSamples() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, v := range r.profile {
		n += v
	}
	return n
}

// HotTable renders the per-function hot-cost table of the merged guest
// profile: self samples (the function was executing) and total samples
// (the function was anywhere on the stack), sorted by self cost, top
// `limit` rows (0 = all). Returns "" when no profile was collected.
func (r *Registry) HotTable(limit int) string {
	r.mu.Lock()
	type cost struct{ self, total uint64 }
	costs := make(map[string]*cost)
	var samples uint64
	for stack, n := range r.profile {
		samples += n
		frames := strings.Split(stack, ";")
		seen := make(map[string]bool, len(frames))
		for i, f := range frames {
			c := costs[f]
			if c == nil {
				c = &cost{}
				costs[f] = c
			}
			if !seen[f] {
				c.total += n
				seen[f] = true
			}
			if i == len(frames)-1 {
				c.self += n
			}
		}
	}
	r.mu.Unlock()
	if samples == 0 {
		return ""
	}
	names := make([]string, 0, len(costs))
	for n := range costs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := costs[names[i]], costs[names[j]]
		if a.self != b.self {
			return a.self > b.self
		}
		if a.total != b.total {
			return a.total > b.total
		}
		return names[i] < names[j]
	})
	if limit > 0 && len(names) > limit {
		names = names[:limit]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "guest profile: %d samples\n", samples)
	fmt.Fprintf(&b, "%8s %7s  %8s %7s  %s\n", "self", "self%", "total", "total%", "function")
	for _, n := range names {
		c := costs[n]
		fmt.Fprintf(&b, "%8d %6.1f%%  %8d %6.1f%%  %s\n",
			c.self, 100*float64(c.self)/float64(samples),
			c.total, 100*float64(c.total)/float64(samples), n)
	}
	return b.String()
}
