package perf

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Phases of a traced run; each is one process in the exported trace.
const (
	phaseHarness = 1 + iota // the workload through harness.Run, hooks wrapped
	phaseReplica            // the trial pipeline called stage by stage
	phaseLadder             // single-layer calls in isolation
)

var phaseNames = []string{phaseHarness: "harness", phaseReplica: "replica", phaseLadder: "ladder"}

// span is one timed call into a layer, recorded from outside it. It
// holds no pointers, so the spans a traced run keeps add nothing to the
// garbage collector's marking work.
type span struct {
	name  uint16 // index into recorder.names
	phase int8
	// lane groups the spans of one trial (see laneOf); lane 0 holds
	// spans that belong to no trial.
	lane int32
	// parent is the index of the enclosing span, or -1.
	parent     int32
	start, end int64 // ns since the recorder's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory for the length of a traced run. It is
// safe for concurrent use: harness workers record trial spans from their
// own goroutines.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	names []string
	ids   map[string]uint16
}

// newRecorder returns an empty recorder with room for capacity spans,
// whose clock starts now.
func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity), ids: make(map[string]uint16)}
}

// now returns the recorder clock in nanoseconds.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span named name and returns its index.
func (r *recorder) add(name string, phase int8, lane int32, start, end int64) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.ids[name]
	if !ok {
		id = uint16(len(r.names))
		r.names = append(r.names, name)
		r.ids[name] = id
	}
	r.spans = append(r.spans, span{name: id, phase: phase, lane: lane, parent: -1, start: start, end: end})
	return int32(len(r.spans) - 1)
}

// since records a span that started at start and ends now, and returns
// its duration.
func (r *recorder) since(name string, phase int8, lane int32, start int64) int64 {
	end := r.now()
	r.add(name, phase, lane, start, end)
	return end - start
}

// mark returns the number of spans recorded so far, for adopt.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// adopt makes parent the parent of every parentless span recorded since
// mark. Callers record an enclosing span after its children ended, then
// adopt them.
func (r *recorder) adopt(mark int, parent int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := mark; i < len(r.spans); i++ {
		if int32(i) != parent && r.spans[i].parent < 0 {
			r.spans[i].parent = parent
		}
	}
}

// durations returns the durations, in microseconds, of the spans of one
// phase with the given name. Call it only once recording has stopped.
func (r *recorder) durations(phase int8, name string) []float64 {
	id, ok := r.ids[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.phase == phase && s.name == id {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may overlap one another (two harness workers run trials at
// once under one rep span); the union counts each instant once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - coveredNs(s, spans, children[int32(i)])
	}
	return self
}

// coveredNs measures the union of the kids' intervals clipped to p.
func coveredNs(p span, spans []span, kids []int32) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var covered int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			covered += hi - lo
			lo, hi = v[0], v[1]
		} else {
			hi = max(hi, v[1])
		}
	}
	return covered + hi - lo
}

// traceEvent is one Chrome trace_event record.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int8           `json:"pid"`
	TID   int32          `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans on the lanes keep accepts as Chrome
// trace_event JSON, loadable by Perfetto and chrome://tracing: one
// process per phase, one thread per lane named laneName(lane), every
// span of a trial carrying the trial's id, and each span's self time in
// its args. Call it only once recording has stopped.
func (r *recorder) writeChrome(w io.Writer, keep func(lane int32) bool, laneName func(lane int32) string) error {
	self := selfTimes(r.spans)
	var ev []traceEvent
	for pid := phaseHarness; pid < len(phaseNames); pid++ {
		ev = append(ev, traceEvent{Name: "process_name", Phase: "M", PID: int8(pid),
			Args: map[string]any{"name": phaseNames[pid]}})
	}
	named := make(map[[2]int32]bool)
	for i, s := range r.spans {
		if !keep(s.lane) {
			continue
		}
		id := laneName(s.lane)
		if k := [2]int32{int32(s.phase), s.lane}; !named[k] {
			named[k] = true
			ev = append(ev, traceEvent{Name: "thread_name", Phase: "M", PID: s.phase, TID: s.lane,
				Args: map[string]any{"name": id}})
		}
		ev = append(ev, traceEvent{Name: r.names[s.name], Phase: "X", TS: float64(s.start) / 1e3,
			Dur: float64(s.dur()) / 1e3, PID: s.phase, TID: s.lane,
			Args: map[string]any{"id": id, "self_us": float64(self[i]) / 1e3}})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{ev, "ns"}); err != nil {
		return fmt.Errorf("perf: encode trace: %w", err)
	}
	return bw.Flush()
}
