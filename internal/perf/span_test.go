package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// overlapping builds a rep span over two workers' overlapping trials,
// one trial past the rep's end, and a trial on a lane of its own.
func overlapping() *recorder {
	r := newRecorder(0)
	mark := r.mark()
	r.add("trial", phaseHarness, 1, 10, 40) // worker 1
	r.add("trial", phaseHarness, 2, 20, 60) // worker 2, overlapping
	r.add("trial", phaseHarness, 3, 70, 80)
	r.add("trial", phaseHarness, 4, 90, 120) // ends after the rep
	r.adopt(mark, r.add("rep", phaseHarness, 0, 0, 100))
	return r
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	r := overlapping()
	self := selfTimes(r.spans)
	// Children cover [10,60] ∪ [70,80] ∪ [90,100] = 70 of the rep's 100;
	// their summed durations (110) would over-subtract.
	if got := self[4]; got != 30 {
		t.Errorf("rep self time = %d, want 30", got)
	}
	for i, want := range []int64{30, 40, 10, 30} {
		if self[i] != want {
			t.Errorf("trial %d self time = %d, want %d (no children)", i, self[i], want)
		}
	}
}

func TestChromeTraceDecodes(t *testing.T) {
	r := overlapping()
	var buf bytes.Buffer
	laneName := func(l int32) string { return fmt.Sprintf("cell/%d", l) }
	if err := r.writeChrome(&buf, func(l int32) bool { return l != 3 }, laneName); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	var spans, threads int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X":
			spans++
			if e.Args["id"] != laneName(int32(e.TID)) {
				t.Errorf("span on lane %d has id %v", e.TID, e.Args["id"])
			}
			if e.Name == "rep" && (e.Args["self_us"] != 0.03 || e.Dur != 0.1) {
				t.Errorf("rep span: dur %v us, self %v us; want 0.1 and 0.03", e.Dur, e.Args["self_us"])
			}
		case e.Ph == "M" && e.Name == "thread_name":
			threads++
		}
	}
	if spans != 4 || threads != 4 {
		t.Errorf("%d spans on %d lanes, want 4 on 4 (lane 3 dropped)", spans, threads)
	}
}
