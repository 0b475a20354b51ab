package runlog

// The store is a directory:
//
//	<dir>/ledger.jsonl        append-only index, one line per run
//	<dir>/records/<seq>.json  full records; the content ID is in the
//	                          record body and the ledger entry
//
// Records are immutable once written: a re-run of the same experiment
// appends a new sequence number even when the content ID is identical,
// so the ledger is the run history, in order, forever. Appends are safe
// across goroutines (a process-wide mutex) and across processes (the
// record file is created with O_EXCL and the ledger line is a single
// O_APPEND write, the POSIX atomic-append idiom the telemetry event
// trace already relies on).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LedgerEntry is one line of ledger.jsonl: enough to list and resolve
// runs without opening the record files.
type LedgerEntry struct {
	Seq    int    `json:"seq"`
	ID     string `json:"id"`
	Tool   string `json:"tool"`
	Kind   string `json:"kind"`
	Label  string `json:"label"`
	Trials int    `json:"trials,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	File   string `json:"file"` // relative to the store dir
	UnixMS int64  `json:"unix_ms"`
}

// Store is an open run ledger directory.
type Store struct {
	dir string
	mu  sync.Mutex
}

// Open opens a ledger directory without touching the filesystem:
// reading a missing directory gives an empty ledger, and the first
// Append creates it.
func Open(dir string) *Store {
	return &Store{dir: dir}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Append seals, validates and persists a record, returning its ledger
// entry. The record file lands before the ledger line, so a crash
// between the two leaves an orphaned record file, never a dangling
// ledger entry.
func (s *Store) Append(r *Record) (LedgerEntry, error) {
	r.Seal()
	if err := validate(r); err != nil {
		return LedgerEntry{}, err
	}
	body, err := r.Marshal()
	if err != nil {
		return LedgerEntry{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	entries, err := s.entriesLocked()
	if err != nil {
		return LedgerEntry{}, err
	}
	seq := len(entries) + 1

	if err := os.MkdirAll(filepath.Join(s.dir, "records"), 0o755); err != nil {
		return LedgerEntry{}, fmt.Errorf("runlog: append: %w", err)
	}
	// O_EXCL on the seq-named file is the cross-process claim: two
	// appenders that both computed the same next seq collide here, and
	// the loser retries with the next number instead of silently
	// overwriting. The filename is the seq alone so the claim is atomic
	// regardless of content.
	var rel string
	for {
		rel = filepath.Join("records", fmt.Sprintf("%06d.json", seq))
		f, err := os.OpenFile(filepath.Join(s.dir, rel), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			if _, err := f.Write(body); err != nil {
				f.Close()
				return LedgerEntry{}, err
			}
			if err := f.Close(); err != nil {
				return LedgerEntry{}, err
			}
			break
		}
		if !os.IsExist(err) {
			return LedgerEntry{}, fmt.Errorf("runlog: append: %w", err)
		}
		seq++
	}

	e := LedgerEntry{
		Seq:    seq,
		ID:     r.ID,
		Tool:   r.Config.Tool,
		Kind:   r.Config.Kind,
		Label:  r.Config.Label(),
		Trials: r.Config.Trials,
		Seed:   r.Config.Seed,
		File:   rel,
		UnixMS: time.Now().UnixMilli(),
	}
	line, err := json.Marshal(e)
	if err != nil {
		return LedgerEntry{}, err
	}
	lf, err := os.OpenFile(filepath.Join(s.dir, "ledger.jsonl"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return LedgerEntry{}, err
	}
	if _, err := lf.Write(append(line, '\n')); err != nil {
		lf.Close()
		return LedgerEntry{}, err
	}
	return e, lf.Close()
}

// Entries returns the ledger, oldest first.
func (s *Store) Entries() ([]LedgerEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entriesLocked()
}

func (s *Store) entriesLocked() ([]LedgerEntry, error) {
	f, err := os.Open(filepath.Join(s.dir, "ledger.jsonl"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var out []LedgerEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e LedgerEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("runlog: ledger line %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// Resolve maps a run reference to its ledger entry. Accepted forms:
//
//	last       the most recent run
//	last~N     N runs before the most recent
//	<seq>      a ledger sequence number
//	<id...>    a content-ID prefix (the most recent match wins)
//
// IDs are hex, so a ref can be both a number and an ID prefix: a
// matching seq wins, and an all-digit ref that names no seq is tried as
// a prefix.
func (s *Store) Resolve(ref string) (LedgerEntry, error) {
	entries, err := s.Entries()
	if err != nil {
		return LedgerEntry{}, err
	}
	if len(entries) == 0 {
		return LedgerEntry{}, fmt.Errorf("runlog: %s: empty ledger", s.dir)
	}
	if ref == "last" || strings.HasPrefix(ref, "last~") {
		back := 0
		if ref != "last" {
			back, err = strconv.Atoi(ref[len("last~"):])
			if err != nil || back < 0 {
				return LedgerEntry{}, fmt.Errorf("runlog: bad run reference %q", ref)
			}
		}
		i := len(entries) - 1 - back
		if i < 0 {
			return LedgerEntry{}, fmt.Errorf("runlog: %q: only %d run(s) in ledger", ref, len(entries))
		}
		return entries[i], nil
	}
	if seq, err := strconv.Atoi(ref); err == nil {
		for _, e := range entries {
			if e.Seq == seq {
				return e, nil
			}
		}
	}
	for i := len(entries) - 1; i >= 0; i-- {
		if strings.HasPrefix(entries[i].ID, ref) {
			return entries[i], nil
		}
	}
	return LedgerEntry{}, fmt.Errorf("runlog: no run matching %q", ref)
}

// Load reads and validates the record behind a ledger entry.
func (s *Store) Load(e LedgerEntry) (*Record, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, e.File))
	if err != nil {
		return nil, err
	}
	r, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.File, err)
	}
	if r.ID != e.ID {
		return nil, fmt.Errorf("runlog: %s: record ID %s does not match ledger entry %s", e.File, r.ID, e.ID)
	}
	return r, nil
}
