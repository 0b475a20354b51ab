package harness

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// warmFunc adapts a function to WarmInstance.
type warmFunc func(Trial) TrialResult

func (f warmFunc) RunTrial(t Trial) TrialResult { return f(t) }

// reportJSON runs scs and returns the report with its JSON bytes.
func reportJSON(t *testing.T, scs []Scenario, opt Options) (*Report, []byte) {
	t.Helper()
	rep := Run(scs, opt)
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return rep, b
}

// TestWarmNewFailureRunsCold: a hook whose New fails leaves every trial
// of the cell to the cold path, which gives the results of a run
// without the hook.
func TestWarmNewFailureRunsCold(t *testing.T) {
	const trials = 12
	plain := seedParity("p")
	hooked := plain
	hooked.Warm = &WarmSpec{New: func() (WarmInstance, error) { return nil, errors.New("no victim") }}
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			opt := Options{Trials: trials, Jobs: jobs, BaseSeed: 5}
			_, want := reportJSON(t, []Scenario{plain}, opt)
			rep, got := reportJSON(t, []Scenario{hooked}, opt)
			if rep.ColdLoads != trials || rep.WarmRestores != 0 {
				t.Errorf("%d cold / %d warm, want %d / 0", rep.ColdLoads, rep.WarmRestores, trials)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report with a failing hook:\n%s\nwithout the hook:\n%s", got, want)
			}
		})
	}
}

// TestWarmPanicFallsBackCold: an instance that panics is discarded. The
// trial it panicked on runs again cold, and the worker serves its later
// trials of the cell cold too, with the results of a run without the
// hook.
func TestWarmPanicFallsBackCold(t *testing.T) {
	const trials = 10
	plain := seedParity("p")
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			var coldRuns [trials]atomic.Int32
			hooked := plain
			hooked.Run = func(tr Trial) TrialResult {
				coldRuns[tr.Index].Add(1)
				return plain.Run(tr)
			}
			hooked.Warm = &WarmSpec{New: func() (WarmInstance, error) {
				n := 0
				return warmFunc(func(tr Trial) TrialResult {
					if n++; n == 2 {
						panic("corrupt process state")
					}
					return plain.Run(tr)
				}), nil
			}}
			opt := Options{Trials: trials, Jobs: jobs, BaseSeed: 5}
			_, want := reportJSON(t, []Scenario{plain}, opt)
			rep, got := reportJSON(t, []Scenario{hooked}, opt)
			if rep.WarmRestores+rep.ColdLoads != trials {
				t.Errorf("%d warm + %d cold, want %d trials", rep.WarmRestores, rep.ColdLoads, trials)
			}
			if jobs == 1 {
				// Trial 0 is warm; trial 1 panics and reruns cold; the
				// rest run cold.
				if rep.WarmRestores != 1 || rep.ColdLoads != trials-1 {
					t.Errorf("%d warm / %d cold, want 1 / %d", rep.WarmRestores, rep.ColdLoads, trials-1)
				}
				for ti := range coldRuns {
					if want := min(ti, 1); int(coldRuns[ti].Load()) != want {
						t.Errorf("trial %d ran cold %d times, want %d", ti, coldRuns[ti].Load(), want)
					}
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report with a panicking instance:\n%s\nwithout the hook:\n%s", got, want)
			}
		})
	}
}
