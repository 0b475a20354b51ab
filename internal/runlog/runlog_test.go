package runlog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"softsec/internal/telemetry"
)

func sweepRecord(seed int64, outcomes map[string]int) *Record {
	cells := []map[string]any{{
		"scenario":     "stack/smash",
		"trials":       10,
		"successes":    outcomes["success"],
		"success_rate": float64(outcomes["success"]) / 10,
		"outcomes":     outcomes,
	}}
	report, _ := json.Marshal(map[string]any{
		"base_seed": seed, "trials": 10, "cells": cells,
	})
	reg := telemetry.NewRegistry()
	reg.Count("vm.steps", 1234)
	reg.Count("harness.trials", 10)
	return &Record{
		Config: Config{
			Tool: "secsim", Group: "table1",
			Trials: 10, Seed: seed, Profile: "default",
		},
		Env:     CaptureEnv(4),
		Report:  report,
		Metrics: reg.File(),
		Wall:    map[string]float64{"trials_per_sec": 5000, "elapsed_sec": 0.1},
	}
}

func TestSealIdentitySplit(t *testing.T) {
	a := sweepRecord(1, map[string]int{"success": 10})
	b := sweepRecord(1, map[string]int{"success": 10})
	b.Wall["trials_per_sec"] = 1 // wall never feeds identity
	b.Env.Jobs = 32
	if a.Seal() != b.Seal() {
		t.Fatalf("identical deterministic content, different IDs: %s vs %s", a.ID, b.ID)
	}

	// Same inputs, different outputs: key half shared, digest half not.
	c := sweepRecord(1, map[string]int{"success": 9, "blocked": 1})
	c.Seal()
	if a.Key() != c.Key() {
		t.Fatalf("same inputs, different keys")
	}
	if a.Digest() == c.Digest() {
		t.Fatalf("different outcomes, same digest")
	}

	// Different seed: different experiment, different key.
	d := sweepRecord(2, map[string]int{"success": 10})
	d.Seal()
	if a.Key() == d.Key() {
		t.Fatalf("different seed, same key")
	}
}

func TestValidateRejectsTampering(t *testing.T) {
	r := sweepRecord(1, map[string]int{"success": 10})
	r.Seal()
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(data); err != nil {
		t.Fatalf("sealed record: %v", err)
	}
	// Swap the report without resealing: the content hash must notice.
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["report"] = json.RawMessage(`{"base_seed":1,"trials":10,"cells":[]}`)
	tampered, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(tampered); err == nil {
		t.Fatal("tampered record validated")
	}
}

func TestStoreAppendResolveLoad(t *testing.T) {
	st := Open(t.TempDir())
	// IDs are hex, so some start with four decimal digits: a ref that
	// parses as a number no seq has must still match as an ID prefix.
	// A nonzero leading digit keeps that number past every seq here.
	var ids []string
	digitSeq := 0
	for seed := int64(1); seed <= 3 || digitSeq == 0; seed++ {
		e, err := st.Append(sweepRecord(seed, map[string]int{"success": 10}))
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != int(seed) {
			t.Fatalf("seq %d, want %d", e.Seq, seed)
		}
		ids = append(ids, e.ID)
		if digitSeq == 0 && e.ID[0] != '0' && strings.Trim(e.ID[:4], "0123456789") == "" {
			digitSeq = e.Seq
		}
	}

	n := len(ids)
	for ref, wantSeq := range map[string]int{
		"last": n, "last~1": n - 1, "last~2": n - 2, "2": 2, ids[0][:8]: 1,
		ids[digitSeq-1][:4]: digitSeq,
	} {
		e, err := st.Resolve(ref)
		if err != nil {
			t.Fatalf("resolve %q: %v", ref, err)
		}
		if e.Seq != wantSeq {
			t.Fatalf("resolve %q: seq %d, want %d", ref, e.Seq, wantSeq)
		}
		if _, err := st.Load(e); err != nil {
			t.Fatalf("load %q: %v", ref, err)
		}
	}
	if _, err := st.Resolve("last~9"); err == nil {
		t.Fatal("resolve past ledger start succeeded")
	}
	if _, err := st.Resolve("ffffffffffff"); err == nil {
		t.Fatal("resolve of unknown ID succeeded")
	}

	// A re-run of seed 1 is content-identical but still appends: the
	// ledger is history, not a set.
	e, err := st.Append(sweepRecord(1, map[string]int{"success": 10}))
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != n+1 || e.ID != ids[0] {
		t.Fatalf("re-run: seq %d id %s, want seq %d id %s", e.Seq, e.ID, n+1, ids[0])
	}
}

// TestOpenCreatesNothingUntilAppend: reading a ledger that does not exist
// yet leaves the filesystem alone, so a mistyped directory leaves no
// trace; the first Append creates the directory.
func TestOpenCreatesNothingUntilAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	st := Open(dir)
	entries, err := st.Entries()
	if err != nil || len(entries) != 0 {
		t.Fatalf("Entries on a missing ledger: %d entries, err %v", len(entries), err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Open+Entries created %s (stat: %v)", dir, err)
	}
	e, err := st.Append(sweepRecord(1, map[string]int{"success": 10}))
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 1 {
		t.Fatalf("first append got seq %d", e.Seq)
	}
	if _, err := st.Load(e); err != nil {
		t.Fatalf("load first record: %v", err)
	}
}

// TestAppendRefusesOlderSchemaLedger: a ledger that lists a record of
// an older schema takes no further record, since rundiff could not
// compare across the two. Appendable and Append both refuse it in one
// line that names the record, and the refused Append writes nothing.
func TestAppendRefusesOlderSchemaLedger(t *testing.T) {
	dir := t.TempDir()
	st := Open(dir)
	if _, err := st.Append(sweepRecord(1, map[string]int{"success": 10})); err != nil {
		t.Fatal(err)
	}
	if err := st.Appendable(); err != nil {
		t.Fatalf("Appendable on a current ledger: %v", err)
	}
	old := `{"schema": 1, "tool": "runlog-record", "id": "x", "config": {"tool": "secsim", "kind": "sweep", "engine": "step"}, "report": {}}`
	if err := os.WriteFile(filepath.Join(dir, "records", "000002.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	lf, err := os.OpenFile(filepath.Join(dir, "ledger.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.WriteString(`{"seq": 2, "id": "x", "tool": "secsim", "label": "sweep", "file": "records/000002.json", "unix_ms": 1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("records", "000002.json") + ": runlog: record: schema 1 (want 2)"
	if err := st.Appendable(); err == nil || err.Error() != want {
		t.Fatalf("Appendable: err = %v, want %q", err, want)
	}
	if _, err := st.Append(sweepRecord(2, map[string]int{"success": 10})); err == nil || err.Error() != want {
		t.Fatalf("Append: err = %v, want %q", err, want)
	}
	if entries, err := st.Entries(); err != nil || len(entries) != 2 {
		t.Fatalf("after the refused append: %d entries, err %v, want 2", len(entries), err)
	}
	if _, err := os.Stat(filepath.Join(dir, "records", "000003.json")); !os.IsNotExist(err) {
		t.Fatalf("the refused append wrote a record (stat: %v)", err)
	}
}

// TestConcurrentAppends drives parallel appends through one store and a
// second store handle on the same directory — the cross-goroutine and
// cross-process paths CI runs under -race.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	st1, st2 := Open(dir), Open(dir)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := st1.Append(sweepRecord(seed, map[string]int{"success": 10})); err != nil {
				errs <- err
			}
		}(int64(i))
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := st2.Append(sweepRecord(seed, map[string]int{"blocked": 10})); err != nil {
				errs <- err
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	entries, err := st1.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2*n {
		t.Fatalf("ledger has %d entries, want %d", len(entries), 2*n)
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if _, err := st1.Load(e); err != nil {
			t.Fatalf("load seq %d: %v", e.Seq, err)
		}
	}
}

func TestCompareIdenticalAndFlips(t *testing.T) {
	a := sweepRecord(1, map[string]int{"success": 10})
	b := sweepRecord(1, map[string]int{"success": 10})
	a.Seal()
	b.Seal()
	d, err := Compare(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Identical || !d.Clean() || d.Flips != 0 {
		t.Fatalf("identical runs: %+v", d)
	}
	if !strings.Contains(d.Render(), "deterministic content identical") {
		t.Fatalf("render: %s", d.Render())
	}

	c := sweepRecord(1, map[string]int{"success": 7, "blocked": 3})
	c.Metrics.Counters["vm.steps"] = 999
	c.Seal()
	d, err = Compare(a, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Identical || !d.KeyMatch {
		t.Fatalf("same experiment expected: %+v", d)
	}
	if d.Flips != 3 {
		t.Fatalf("flips = %d, want 3", d.Flips)
	}
	if len(d.Counters) != 1 || d.Counters[0].Name != "vm.steps" {
		t.Fatalf("counters: %+v", d.Counters)
	}
	if d.Clean() {
		t.Fatal("flipped run reported clean")
	}
}

func TestCompareRegressionFloors(t *testing.T) {
	a := sweepRecord(1, map[string]int{"success": 10})
	b := sweepRecord(1, map[string]int{"success": 10})
	b.Wall["trials_per_sec"] = 2000 // 0.4x of a's 5000
	a.Seal()
	b.Seal()

	d, err := Compare(a, b, Options{Floors: map[string]float64{"trials_per_sec": 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 {
		t.Fatalf("regressions: %v", d.Regressions)
	}
	if d.Clean() {
		t.Fatal("regressed run reported clean")
	}
	if !strings.Contains(d.Render(), "REGRESSION") {
		t.Fatalf("render misses regression: %s", d.Render())
	}

	// Within the floor: clean.
	b.Wall["trials_per_sec"] = 4500
	d, err = Compare(a, b, Options{Floors: map[string]float64{"trials_per_sec": 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Clean() {
		t.Fatalf("in-floor run not clean: %v", d.Regressions)
	}

	// Ceiling on a lower-is-better number.
	b.Wall["elapsed_sec"] = 10
	d, err = Compare(a, b, Options{Ceils: map[string]float64{"elapsed_sec": 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 {
		t.Fatalf("ceiling regressions: %v", d.Regressions)
	}

	// A configured floor whose key is missing must fail loudly, not
	// silently pass.
	d, err = Compare(a, b, Options{Floors: map[string]float64{"no_such_metric": 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regressions) != 1 {
		t.Fatalf("missing-key floor: %v", d.Regressions)
	}
}

func TestEnvPublishWallIsMachineInvariantOnly(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Count("x", 1)
	CaptureEnv(8).PublishWall(reg)
	f := reg.File()
	if _, ok := f.Wall["env.go_version"]; !ok {
		t.Fatal("go_version missing from wall")
	}
	for k := range f.Wall {
		if strings.Contains(k, "jobs") {
			t.Fatalf("pool width leaked into metrics wall: %s", k)
		}
	}
	// The embedded fingerprint must not break metrics validation.
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateMetrics(b); err != nil {
		t.Fatalf("metrics with env wall: %v", err)
	}
}

func TestLabelAndKinds(t *testing.T) {
	for _, tc := range []struct {
		c    Config
		want string
	}{
		{Config{Tool: "secsim", Scenario: "stack/smash"}, "stack/smash"},
		{Config{Tool: "secsim", Group: "table1"}, "table1"},
		{Config{Tool: "attacklab"}, "attacklab"},
	} {
		if got := tc.c.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.c, got, tc.want)
		}
	}
	// Schema 1 hashed a record kind and the engine tier into the key;
	// a record of either kind from such a ledger is refused by its
	// schema, in one line.
	for _, kind := range []string{"sweep", "bench"} {
		old := `{"schema": 1, "tool": "runlog-record", "id": "x", "config": {"tool": "secsim", "kind": "` +
			kind + `", "engine": "step"}, "report": {}}`
		_, err := Load([]byte(old))
		if err == nil || err.Error() != "runlog: record: schema 1 (want 2)" {
			t.Fatalf("schema-1 %s record: err = %v", kind, err)
		}
	}
}

// FuzzLoadRecord: on arbitrary bytes Load returns a record or an error
// and never panics, every record it accepts recomputes its own ID, and
// the store's serialization of an accepted record loads back under the
// same ID.
func FuzzLoadRecord(f *testing.F) {
	r := sweepRecord(1, map[string]int{"success": 9, "blocked": 1})
	r.Seal()
	sealed, err := r.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(sealed[:len(sealed)/2])
	f.Add([]byte(`{"schema": 1, "tool": "runlog-record", "id": "x", "config": {"tool": "secsim", "kind": "sweep", "engine": "step"}, "report": {}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(data)
		if err != nil {
			return
		}
		if want := r.Key() + "-" + r.Digest(); r.ID != want {
			t.Fatalf("accepted record %q recomputes to %q", r.ID, want)
		}
		again, err := r.Marshal()
		if err != nil {
			t.Fatalf("accepted record does not marshal: %v", err)
		}
		r2, err := Load(again)
		if err != nil || r2.ID != r.ID {
			t.Fatalf("accepted record %q reloads as %v (err %v)", r.ID, r2, err)
		}
	})
}
