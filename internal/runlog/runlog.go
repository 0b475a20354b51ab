// Package runlog is the cross-run observability layer: an append-only,
// content-keyed store of run records plus the diff and regression
// engines over them. Every sweep (secsim/attacklab -runlog) can append
// a schema-validated record — the aggregate report, the merged
// telemetry metrics (cache and warm counters included), the wall-clock
// throughput numbers, and an environment fingerprint — so the paper's
// comparative claims stop evaporating when the process exits: any two
// runs, days or commits apart, can be diffed cell by cell and counter by
// counter, and CI can gate on configured regression floors instead of a
// human re-reading EXPERIMENTS.md.
//
// Identity follows the same determinism split the telemetry layer
// enforces. A record's ID is two content hashes joined:
//
//	<key>-<digest>
//
// The key hashes the run's *inputs* (tool, selection, trials, seed,
// profile — everything that defines the experiment, deliberately
// excluding the worker-pool width and the machine), so two runs of the
// same experiment share a key anywhere. The digest hashes
// the *deterministic outputs* (report bytes, metric counters and
// histograms — never the quarantined wall section or the environment),
// so byte-identical runs share a full ID and a changed outcome or
// counter shows up as a digest change under the same key. Wall-clock
// numbers (trials/sec, elapsed time) ride along in the record for
// throughput-ratio checks but never feed identity.
package runlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"softsec/internal/telemetry"
)

// Schema versions the record format; Tool tags a file as a run record,
// as telemetry.MetricsTool tags a metrics file. Load refuses a record of
// any other schema.
const (
	Schema = 2
	Tool   = "runlog-record"
)

// Env is the environment fingerprint: the machine and process context a
// run executed under. It is recorded for provenance and diff rendering
// but excluded from both content hashes — the same experiment on
// another machine or at another -jobs width is still the same
// experiment.
type Env struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"goos"`
	Arch      string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Jobs is the worker-pool width the run used. Execution context,
	// not an input: results are byte-identical at any width.
	Jobs int `json:"jobs,omitempty"`
}

// CaptureEnv fingerprints the current process.
func CaptureEnv(jobs int) Env {
	return Env{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Jobs:      jobs,
	}
}

// PublishWall embeds the machine fingerprint under the quarantined
// "wall" key of a metrics registry, so metrics files are
// self-describing. Only process-invariant fields go in — never Jobs —
// which keeps a -jobs 1 and a -jobs N metrics file byte-identical, the
// ValidateMetrics determinism contract.
func (e Env) PublishWall(reg *telemetry.Registry) {
	reg.SetWallString("env.go_version", e.GoVersion)
	reg.SetWallString("env.goos", e.OS)
	reg.SetWallString("env.goarch", e.Arch)
	reg.SetWall("env.num_cpu", float64(e.NumCPU))
}

// Config identifies a run's inputs — everything that feeds the content
// key. Group and Scenario describe the selection (one or the other,
// matching the CLI's -group/-scenario split).
type Config struct {
	Tool     string `json:"tool"` // secsim, attacklab
	Group    string `json:"group,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Trials   int    `json:"trials,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Profile  string `json:"profile,omitempty"`
}

// Label is the human name of the selection: the scenario, the group, or
// the tool when neither is set (a sweep over the whole catalog).
func (c Config) Label() string {
	switch {
	case c.Scenario != "":
		return c.Scenario
	case c.Group != "":
		return c.Group
	}
	return c.Tool
}

// Record is one appended run.
type Record struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"` // always the Tool constant
	// ID is <key>-<digest>, stamped by Seal.
	ID     string `json:"id"`
	Config Config `json:"config"`
	Env    Env    `json:"env"`
	// Report is the sweep's aggregate report JSON (harness.Report),
	// verbatim — the bytes the determinism contract makes identical at
	// any -jobs width.
	Report json.RawMessage `json:"report,omitempty"`
	// Metrics is the merged telemetry registry: deterministic counters
	// and histograms (cache/warm counters included) plus the
	// quarantined wall section carrying the embedded fingerprint.
	Metrics *telemetry.MetricsFile `json:"metrics,omitempty"`
	// Wall holds the run's wall-clock numbers (trials/sec, elapsed
	// time). Excluded from the digest, exactly like the metrics wall
	// section.
	Wall map[string]float64 `json:"wall,omitempty"`
}

// hash12 returns the first 12 hex chars of sha256 over the parts.
func hash12(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// Key hashes the record's inputs.
func (r *Record) Key() string {
	b, _ := json.Marshal(r.Config)
	return hash12(b)
}

// Digest hashes the record's deterministic outputs: the report bytes
// plus the metric counters and histograms. The report is compacted
// first — serialization indents the embedded raw JSON, so hashing the
// compact form keeps the digest stable across a store round-trip.
// encoding/json sorts map keys, so the marshaled forms are canonical;
// the wall section and the environment are deliberately absent.
func (r *Record) Digest() string {
	report := []byte(r.Report)
	var buf bytes.Buffer
	if json.Compact(&buf, report) == nil {
		report = buf.Bytes()
	}
	parts := [][]byte{report}
	if r.Metrics != nil {
		c, _ := json.Marshal(r.Metrics.Counters)
		h, _ := json.Marshal(r.Metrics.Hists)
		parts = append(parts, c, h)
	}
	return hash12(parts...)
}

// Seal stamps schema, tool tag and content ID. Call after the record's
// content is final, before appending.
func (r *Record) Seal() string {
	r.Schema = Schema
	r.Tool = Tool
	r.ID = r.Key() + "-" + r.Digest()
	return r.ID
}

// Marshal serializes a record the way the store writes it.
func (r *Record) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Load parses and validates a serialized record: schema, tool tag, the
// content ID (tamper evidence) and the embedded metrics. The schema is
// read first, so a record of another format is refused by its version
// rather than by the first field it no longer has.
func Load(data []byte) (*Record, error) {
	if err := checkSchema(data); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var r Record
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("runlog: record: %w", err)
	}
	return &r, validate(&r)
}

// checkSchema refuses a serialized record whose schema head is not
// Schema. A head that does not parse is left to the caller's strict
// decode.
func checkSchema(data []byte) error {
	var head struct {
		Schema int `json:"schema"`
	}
	if json.Unmarshal(data, &head) == nil && head.Schema != Schema {
		return fmt.Errorf("runlog: record: schema %d (want %d)", head.Schema, Schema)
	}
	return nil
}

func validate(r *Record) error {
	if r.Schema != Schema {
		return fmt.Errorf("runlog: record: schema %d (want %d)", r.Schema, Schema)
	}
	if r.Tool != Tool {
		return fmt.Errorf("runlog: record: tool %q (want %q)", r.Tool, Tool)
	}
	if len(r.Report) == 0 {
		return fmt.Errorf("runlog: sweep record without a report")
	}
	if r.Config.Tool == "" {
		return fmt.Errorf("runlog: record: empty config.tool")
	}
	// Content addressing is tamper evidence: the stored ID must
	// recompute from the stored content.
	if want := r.Key() + "-" + r.Digest(); r.ID != want {
		return fmt.Errorf("runlog: record: id %q does not match content (want %q)", r.ID, want)
	}
	if r.Metrics != nil {
		mb, err := json.Marshal(r.Metrics)
		if err != nil {
			return err
		}
		if err := telemetry.ValidateMetrics(mb); err != nil {
			return fmt.Errorf("runlog: embedded metrics: %w", err)
		}
	}
	return nil
}
