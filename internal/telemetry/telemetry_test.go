package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSnapCountSkipsZero(t *testing.T) {
	s := NewSnap()
	s.Count("a", 0)
	if _, ok := s.Counters["a"]; ok {
		t.Fatal("zero count created a counter entry")
	}
	s.Count("a", 2)
	s.Count("a", 3)
	if s.Counters["a"] != 5 {
		t.Fatalf("a = %d, want 5", s.Counters["a"])
	}
	s.Bucket("h", "01", 0)
	if _, ok := s.Hists["h"]; ok {
		t.Fatal("zero bucket created a histogram")
	}
	s.BucketInt("h", 4, 7)
	if s.Hists["h"]["04"] != 7 {
		t.Fatalf("h[04] = %d, want 7", s.Hists["h"]["04"])
	}
}

// TestRegistryMergeCommutes pins the determinism contract: any merge
// order of the same shards serializes the identical metrics file.
func TestRegistryMergeCommutes(t *testing.T) {
	mk := func() (*Snap, *Snap) {
		a := NewSnap()
		a.Count("cpu.steps.retired", 100)
		a.BucketInt("cpu.block.len", 3, 2)
		a.AddProfile(map[string]uint64{"main;f": 4})
		b := NewSnap()
		b.Count("cpu.steps.retired", 50)
		b.Count("mem.stamp.bumps", 7)
		b.BucketInt("cpu.block.len", 3, 1)
		b.AddProfile(map[string]uint64{"main;f": 1, "main": 2})
		return a, b
	}

	r1 := NewRegistry()
	a, b := mk()
	r1.AddSnap(a)
	r1.AddSnap(b)
	r2 := NewRegistry()
	a, b = mk()
	r2.AddSnap(b)
	r2.AddSnap(a)

	j1, err := r1.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("merge order changed the metrics file:\n%s\nvs\n%s", j1, j2)
	}
	if r1.Counter("cpu.steps.retired") != 150 {
		t.Fatalf("retired = %d, want 150", r1.Counter("cpu.steps.retired"))
	}
	if h := r1.Hist("cpu.block.len"); h["03"] != 3 {
		t.Fatalf("len hist %v, want 03:3", h)
	}

	var f1 bytes.Buffer
	if err := r1.WriteFolded(&f1); err != nil {
		t.Fatal(err)
	}
	want := "main 2\nmain;f 5\n"
	if f1.String() != want {
		t.Fatalf("folded = %q, want %q", f1.String(), want)
	}
}

// TestRegistryConcurrentAddSnap is the -race target for shard merging:
// many workers merging concurrently must lose nothing.
func TestRegistryConcurrentAddSnap(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := NewSnap()
				s.Count("n", 1)
				s.BucketInt("h", i%4, 1)
				s.AddProfile(map[string]uint64{"main": 1})
				r.AddSnap(s)
				r.Count("direct", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != workers*per {
		t.Fatalf("n = %d, want %d", got, workers*per)
	}
	if got := r.Counter("direct"); got != workers*per {
		t.Fatalf("direct = %d, want %d", got, workers*per)
	}
	if got := r.ProfileSamples(); got != workers*per {
		t.Fatalf("profile samples = %d, want %d", got, workers*per)
	}
	var n uint64
	for _, v := range r.Hist("h") {
		n += v
	}
	if n != workers*per {
		t.Fatalf("hist total = %d, want %d", n, workers*per)
	}
}

func TestMetricsJSONValidates(t *testing.T) {
	r := NewRegistry()
	s := NewSnap()
	s.Count("cpu.steps.retired", 42)
	r.AddSnap(s)
	b, err := r.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(b); err != nil {
		t.Fatalf("own output rejected: %v", err)
	}
	if !strings.Contains(string(b), `"tool": "telemetry-metrics"`) {
		t.Fatalf("missing tool tag:\n%s", b)
	}
	// A registry with no wall metrics must not serialize a wall section
	// (the section is explicitly non-deterministic).
	if strings.Contains(string(b), `"wall"`) {
		t.Fatalf("wall section present without SetWall:\n%s", b)
	}
	r.SetWall("ns_per_op.x", 1.5)
	b, err = r.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"wall"`) {
		t.Fatalf("wall section missing after SetWall:\n%s", b)
	}
	if err := ValidateMetrics(b); err != nil {
		t.Fatalf("wall-bearing file rejected: %v", err)
	}

	for name, bad := range map[string]string{
		"wrong schema":  `{"schema": 9, "tool": "telemetry-metrics", "counters": {}}`,
		"wrong tool":    `{"schema": 1, "tool": "runlog-record", "counters": {}}`,
		"no counters":   `{"schema": 1, "tool": "telemetry-metrics"}`,
		"unknown field": `{"schema": 1, "tool": "telemetry-metrics", "counters": {}, "bogus": 1}`,
		"not json":      `]`,
	} {
		if err := ValidateMetrics([]byte(bad)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWriteStats(t *testing.T) {
	r := NewRegistry()
	s := NewSnap()
	s.Count("cpu.steps.retired", 12)
	s.Count("buildcache.hits", 3)
	s.BucketInt("cpu.block.len", 10, 1)
	s.BucketInt("cpu.block.len", 2, 4)
	s.Bucket("cpu.block.stop", "terminator", 5)
	r.AddSnap(s)
	r.Count("harness.warm_restores", 7)
	r.SetWall("elapsed_ns", 1e9)
	r.SetWallString("env.go_version", "go1")
	var buf bytes.Buffer
	if err := r.WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	want := `buildcache.hits       3
cpu.steps.retired     12
harness.warm_restores 7
cpu.block.len         02:4 10:1
cpu.block.stop        terminator:5
`
	if buf.String() != want {
		t.Fatalf("listing:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestRingWrapAndDrop(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Emit("e", uint32(i), uint64(i))
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	for i, e := range ev {
		wantSeq := uint64(i + 3) // events 3..6 survive (seq starts at 1)
		if e.Seq != wantSeq || e.Addr != uint32(wantSeq-1) {
			t.Fatalf("event %d = %+v, want seq %d", i, e, wantSeq)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
}

func TestWriteTrace(t *testing.T) {
	r := NewRegistry()
	// Two trials of one scenario, added out of order: export must sort.
	s1 := NewSnap()
	s1.Scenario, s1.Trial = "sc", 1
	s1.Events = []Event{{Seq: 1, Name: "block.build", Addr: 0x1000, Val: 3}}
	s0 := NewSnap()
	s0.Scenario, s0.Trial = "sc", 0
	s0.Events = []Event{{Seq: 1, Name: "trace.form", Addr: 0x2000, Val: 8}}
	s0.Dropped = 5
	r.AddSnap(s1)
	r.AddSnap(s0)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	// metadata + trial0 event + trial0 drop marker + trial1 event
	if len(f.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4:\n%s", len(f.TraceEvents), buf.String())
	}
	if f.TraceEvents[0].Ph != "M" || f.TraceEvents[0].Args["name"] != "sc" {
		t.Fatalf("first record not process_name metadata: %+v", f.TraceEvents[0])
	}
	if f.TraceEvents[1].Name != "trace.form" || f.TraceEvents[1].Tid != 0 {
		t.Fatalf("trial 0 did not sort first: %+v", f.TraceEvents[1])
	}
	if f.TraceEvents[2].Name != "events.dropped" || f.TraceEvents[2].Args["val"] != "5" {
		t.Fatalf("drop marker missing: %+v", f.TraceEvents[2])
	}

	// Empty registry still writes a loadable file.
	var empty bytes.Buffer
	if err := NewRegistry().WriteTrace(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), `"traceEvents": []`) {
		t.Fatalf("empty export: %s", empty.String())
	}
}

func TestHotTable(t *testing.T) {
	r := NewRegistry()
	if r.HotTable(0) != "" {
		t.Fatal("empty registry rendered a table")
	}
	s := NewSnap()
	s.AddProfile(map[string]uint64{
		"main":          1,
		"main;f":        6,
		"main;f;memcpy": 3,
	})
	r.AddSnap(s)
	tab := r.HotTable(0)
	if !strings.Contains(tab, "guest profile: 10 samples") {
		t.Fatalf("header:\n%s", tab)
	}
	lines := strings.Split(strings.TrimRight(tab, "\n"), "\n")
	if len(lines) != 5 { // header + columns + 3 functions
		t.Fatalf("%d lines:\n%s", len(lines), tab)
	}
	// f: self 6 (sorted first), total 9; main: self 1, total 10.
	if !strings.Contains(lines[2], "f") || !strings.Contains(lines[2], "6") {
		t.Fatalf("hottest row:\n%s", tab)
	}
	if got := r.HotTable(1); strings.Count(got, "\n") != 3 {
		t.Fatalf("limit 1 rendered:\n%s", got)
	}
}

func TestSpecDefaults(t *testing.T) {
	s := &Spec{}
	if s.Interval() != DefaultProfileInterval {
		t.Fatalf("Interval = %d", s.Interval())
	}
	if s.Cap() != DefaultEventCap {
		t.Fatalf("Cap = %d", s.Cap())
	}
	s = &Spec{ProfileInterval: 7, EventCap: 9}
	if s.Interval() != 7 || s.Cap() != 9 {
		t.Fatalf("overrides ignored: %d %d", s.Interval(), s.Cap())
	}
}
