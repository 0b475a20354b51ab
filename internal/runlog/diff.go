package runlog

// Cross-run diffing: outcome flips per cell, metric-counter deltas, and
// wall-clock throughput ratios checked against configured regression
// floors. The diff reads only what the records carry, so any two runs —
// different processes, days, commits, machines — compare the same way
// the in-process determinism tests compare two harness.Run calls.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// reportDoc mirrors just enough of harness.Report to diff cells without
// importing the harness (records may outlive harness field additions,
// so decoding is deliberately loose).
type reportDoc struct {
	BaseSeed int64 `json:"base_seed"`
	Trials   int   `json:"trials"`
	Cells    []struct {
		Scenario string         `json:"scenario"`
		Trials   int            `json:"trials"`
		Outcomes map[string]int `json:"outcomes"`
		Errors   int            `json:"errors"`
	} `json:"cells"`
}

// CellDiff reports one scenario whose outcome histogram changed.
type CellDiff struct {
	Scenario string         `json:"scenario"`
	A        map[string]int `json:"a"` // nil: cell absent from run A
	B        map[string]int `json:"b"` // nil: cell absent from run B
	// Flips is the number of trials whose outcome label changed —
	// half the L1 distance between the histograms.
	Flips int `json:"flips"`
}

// CounterDiff reports one telemetry counter whose value changed.
type CounterDiff struct {
	Name string `json:"name"`
	A    uint64 `json:"a"`
	B    uint64 `json:"b"`
}

// WallDiff reports one wall-clock number present in both runs.
type WallDiff struct {
	Name  string  `json:"name"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Ratio float64 `json:"ratio"` // B / A
}

// Options configures regression gating. Keys name wall entries; a floor
// fails when B/A drops below it (higher-is-better numbers like
// trials_per_sec), a ceiling fails when B/A rises above it
// (lower-is-better numbers like ns_per_instr).
type Options struct {
	Floors map[string]float64
	Ceils  map[string]float64
}

// Diff is the comparison of two records.
type Diff struct {
	A, B *Record `json:"-"`

	// AID/BID echo the compared records' content IDs into the JSON
	// rendering (the full records stay out of it).
	AID string `json:"a_id"`
	BID string `json:"b_id"`
	// Identical means the deterministic content matched: same inputs
	// key, same output digest.
	Identical bool `json:"identical"`
	// KeyMatch means the runs are the same experiment (inputs match),
	// so output differences are signal, not apples-to-oranges.
	KeyMatch bool     `json:"key_match"`
	Config   []string `json:"config,omitempty"` // human lines for input differences

	Cells    []CellDiff    `json:"cells,omitempty"`
	Flips    int           `json:"flips"` // total flipped trials
	Counters []CounterDiff `json:"counters,omitempty"`
	Wall     []WallDiff    `json:"wall,omitempty"`

	// Regressions holds one line per violated floor or ceiling.
	Regressions []string `json:"regressions,omitempty"`
}

// Compare diffs run B against baseline A.
func Compare(a, b *Record, opt Options) (*Diff, error) {
	d := &Diff{
		A:         a,
		B:         b,
		AID:       a.ID,
		BID:       b.ID,
		Identical: a.ID == b.ID,
		KeyMatch:  a.Key() == b.Key(),
	}
	d.diffConfig()
	if err := d.diffCells(); err != nil {
		return nil, err
	}
	d.diffCounters()
	d.diffWall(opt)
	return d, nil
}

func (d *Diff) diffConfig() {
	add := func(name, av, bv string) {
		if av != bv {
			d.Config = append(d.Config, fmt.Sprintf("%s: %s -> %s", name, av, bv))
		}
	}
	a, b := d.A.Config, d.B.Config
	add("tool", a.Tool, b.Tool)
	add("group", a.Group, b.Group)
	add("scenario", a.Scenario, b.Scenario)
	add("trials", fmt.Sprint(a.Trials), fmt.Sprint(b.Trials))
	add("seed", fmt.Sprint(a.Seed), fmt.Sprint(b.Seed))
	add("profile", a.Profile, b.Profile)
}

func (d *Diff) diffCells() error {
	parse := func(raw json.RawMessage) (map[string]map[string]int, []string, error) {
		cells := map[string]map[string]int{}
		var order []string
		var doc reportDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, nil, fmt.Errorf("runlog: embedded report: %w", err)
		}
		for _, c := range doc.Cells {
			h := map[string]int{}
			for k, v := range c.Outcomes {
				h[k] = v
			}
			if c.Errors > 0 {
				h["ERROR"] = c.Errors
			}
			cells[c.Scenario] = h
			order = append(order, c.Scenario)
		}
		return cells, order, nil
	}
	ac, aOrder, err := parse(d.A.Report)
	if err != nil {
		return err
	}
	bc, bOrder, err := parse(d.B.Report)
	if err != nil {
		return err
	}
	// Walk A's cell order, then B-only cells in B's order: scenario
	// order is part of the report contract, so the diff preserves it.
	seen := map[string]bool{}
	for _, name := range append(append([]string{}, aOrder...), bOrder...) {
		if seen[name] {
			continue
		}
		seen[name] = true
		ah, aok := ac[name]
		bh, bok := bc[name]
		if aok && bok && histEqual(ah, bh) {
			continue
		}
		cd := CellDiff{Scenario: name}
		if aok {
			cd.A = ah
		}
		if bok {
			cd.B = bh
		}
		if aok && bok {
			l1 := 0
			for _, k := range histKeys(ah, bh) {
				v := ah[k] - bh[k]
				if v < 0 {
					v = -v
				}
				l1 += v
			}
			cd.Flips = l1 / 2
			if cd.Flips == 0 {
				cd.Flips = 1 // unequal totals still count as a flip
			}
		} else {
			for _, v := range ah {
				cd.Flips += v
			}
			for _, v := range bh {
				cd.Flips += v
			}
		}
		d.Flips += cd.Flips
		d.Cells = append(d.Cells, cd)
	}
	return nil
}

func (d *Diff) diffCounters() {
	var ac, bc map[string]uint64
	if d.A.Metrics != nil {
		ac = d.A.Metrics.Counters
	}
	if d.B.Metrics != nil {
		bc = d.B.Metrics.Counters
	}
	for _, name := range unionKeys(ac, bc) {
		if ac[name] != bc[name] {
			d.Counters = append(d.Counters, CounterDiff{Name: name, A: ac[name], B: bc[name]})
		}
	}
}

func (d *Diff) diffWall(opt Options) {
	names := map[string]bool{}
	for k := range d.A.Wall {
		if _, ok := d.B.Wall[k]; ok {
			names[k] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		av, bv := d.A.Wall[k], d.B.Wall[k]
		w := WallDiff{Name: k, A: av, B: bv}
		if av != 0 {
			w.Ratio = bv / av
		}
		d.Wall = append(d.Wall, w)
		if floor, ok := opt.Floors[k]; ok && av > 0 && w.Ratio < floor {
			d.Regressions = append(d.Regressions, fmt.Sprintf(
				"%s: %.4g -> %.4g (ratio %.3f < floor %.3f)", k, av, bv, w.Ratio, floor))
		}
		if ceil, ok := opt.Ceils[k]; ok && av > 0 && w.Ratio > ceil {
			d.Regressions = append(d.Regressions, fmt.Sprintf(
				"%s: %.4g -> %.4g (ratio %.3f > ceiling %.3f)", k, av, bv, w.Ratio, ceil))
		}
	}
	for k := range opt.Floors {
		if _, ok := names[k]; !ok {
			d.Regressions = append(d.Regressions, fmt.Sprintf("%s: floor configured but not present in both runs", k))
		}
	}
	for k := range opt.Ceils {
		if _, ok := names[k]; !ok {
			d.Regressions = append(d.Regressions, fmt.Sprintf("%s: ceiling configured but not present in both runs", k))
		}
	}
	sort.Strings(d.Regressions)
}

// Clean reports whether the diff found no output differences and no
// regressions (config/input differences alone are not failures — the
// caller asked to compare them).
func (d *Diff) Clean() bool {
	return d.Flips == 0 && len(d.Counters) == 0 && len(d.Regressions) == 0
}

// Render formats the diff for humans.
func (d *Diff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A %s  (%s %s, %s)\n", d.A.ID, d.A.Config.Tool, d.A.Config.Label(), d.A.Env.GoVersion)
	fmt.Fprintf(&b, "B %s  (%s %s, %s)\n", d.B.ID, d.B.Config.Tool, d.B.Config.Label(), d.B.Env.GoVersion)
	switch {
	case d.Identical:
		b.WriteString("deterministic content identical\n")
	case d.KeyMatch:
		b.WriteString("same experiment, outputs differ\n")
	default:
		b.WriteString("different experiments (inputs differ)\n")
	}
	for _, line := range d.Config {
		fmt.Fprintf(&b, "  config %s\n", line)
	}
	if len(d.Cells) > 0 {
		fmt.Fprintf(&b, "outcome flips: %d trial(s) across %d cell(s)\n", d.Flips, len(d.Cells))
		for _, c := range d.Cells {
			fmt.Fprintf(&b, "  %-28s %s -> %s\n", c.Scenario, histString(c.A), histString(c.B))
		}
	}
	if len(d.Counters) > 0 {
		fmt.Fprintf(&b, "counter deltas: %d\n", len(d.Counters))
		for _, c := range d.Counters {
			fmt.Fprintf(&b, "  %-40s %d -> %d (%+d)\n", c.Name, c.A, c.B, int64(c.B)-int64(c.A))
		}
	}
	if len(d.Wall) > 0 {
		b.WriteString("wall (observational unless a floor/ceiling is set):\n")
		for _, w := range d.Wall {
			fmt.Fprintf(&b, "  %-28s %.4g -> %.4g  (x%.3f)\n", w.Name, w.A, w.B, w.Ratio)
		}
	}
	for _, r := range d.Regressions {
		fmt.Fprintf(&b, "REGRESSION %s\n", r)
	}
	if d.Clean() {
		b.WriteString("clean: no flips, no counter deltas, no regressions\n")
	}
	return b.String()
}

func histEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func histKeys(a, b map[string]int) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func histString(h map[string]int) string {
	if h == nil {
		return "(absent)"
	}
	parts := make([]string, 0, len(h))
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, h[k]))
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

func unionKeys(a, b map[string]uint64) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
