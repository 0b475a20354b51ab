package pma

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the paper's Section IV-C: secure local storage and
// recovery of protected-module state. The adversary is the operating
// system: it controls the disk, so it can read, replace, and *roll back*
// stored blobs at will. Four schemes of increasing strength are modeled:
//
//	PlainStore   — state stored in the clear. The OS reads and forges it.
//	SealedStore  — state sealed (AES-GCM under the module key). The OS can
//	               no longer read or forge it, but can *replay* an older
//	               sealed blob: the rollback attack on tries_left.
//	MemoirStore  — sealed state bound to a monotonic NVRAM counter
//	               (Memoir [36]). Rollback is detected, but a crash between
//	               the counter increment and the disk write leaves no blob
//	               matching the counter: the module bricks (liveness
//	               failure) — exactly the problem the paper raises.
//	TwoSlotStore — an ICE-style [37] two-slot protocol: write the new blob
//	               to the alternate slot first, then commit the counter.
//	               Rollback detection *and* crash liveness.

// Disk is OS-controlled storage: the attacker can snapshot and restore it.
type Disk struct {
	blobs map[string][]byte
}

// NewDisk returns empty storage.
func NewDisk() *Disk { return &Disk{blobs: make(map[string][]byte)} }

// Write stores a blob (the OS performs this on the module's behalf).
func (d *Disk) Write(key string, blob []byte) {
	d.blobs[key] = append([]byte(nil), blob...)
}

// Read fetches a blob.
func (d *Disk) Read(key string) ([]byte, bool) {
	b, ok := d.blobs[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// Snapshot clones the whole disk — the attacker's rollback material.
func (d *Disk) Snapshot() map[string][]byte {
	s := make(map[string][]byte, len(d.blobs))
	for k, v := range d.blobs {
		s[k] = append([]byte(nil), v...)
	}
	return s
}

// Restore replaces the disk contents with a snapshot — the rollback attack.
func (d *Disk) Restore(s map[string][]byte) {
	d.blobs = make(map[string][]byte, len(s))
	for k, v := range s {
		d.blobs[k] = append([]byte(nil), v...)
	}
}

// ErrCrash is returned when the fault injector cuts power mid-operation.
var ErrCrash = errors.New("pma: simulated crash")

// ErrStale is returned when recovery detects a rolled-back state.
var ErrStale = errors.New("pma: stored state is stale (rollback detected)")

// ErrNoState is returned when no usable state exists.
var ErrNoState = errors.New("pma: no stored state")

// FaultInjector crashes the system after a fixed number of primitive
// steps, to probe liveness of the store protocols. A nil injector never
// crashes.
type FaultInjector struct {
	// CrashAfter is the number of primitive operations to allow; the
	// operation with index CrashAfter fails with ErrCrash. Negative
	// disables crashing.
	CrashAfter int
	count      int
}

func (f *FaultInjector) step() error {
	if f == nil || f.CrashAfter < 0 {
		return nil
	}
	if f.count == f.CrashAfter {
		return ErrCrash
	}
	f.count++
	return nil
}

// Store persists and recovers module state; one instance per scheme.
type Store interface {
	// Save persists state; primitive steps may crash via inj.
	Save(state []byte, inj *FaultInjector) error
	// Recover returns the freshest valid state.
	Recover() ([]byte, error)
}

// PlainStore stores plaintext.
type PlainStore struct {
	Disk *Disk
	ID   string
}

// Save implements Store.
func (s *PlainStore) Save(state []byte, inj *FaultInjector) error {
	if err := inj.step(); err != nil {
		return err
	}
	s.Disk.Write(s.ID, state)
	return nil
}

// Recover implements Store.
func (s *PlainStore) Recover() ([]byte, error) {
	b, ok := s.Disk.Read(s.ID)
	if !ok {
		return nil, ErrNoState
	}
	return b, nil
}

// SealedStore seals with the module key but has no freshness.
type SealedStore struct {
	Disk *Disk
	HW   *Hardware
	Key  []byte
	ID   string
}

// Save implements Store.
func (s *SealedStore) Save(state []byte, inj *FaultInjector) error {
	blob, err := s.HW.Seal(s.Key, state, nil)
	if err != nil {
		return err
	}
	if err := inj.step(); err != nil {
		return err
	}
	s.Disk.Write(s.ID, blob)
	return nil
}

// Recover implements Store.
func (s *SealedStore) Recover() ([]byte, error) {
	blob, ok := s.Disk.Read(s.ID)
	if !ok {
		return nil, ErrNoState
	}
	return s.HW.Unseal(s.Key, blob, nil)
}

func counterAux(n uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n)
	return b[:]
}

// MemoirStore binds each sealed blob to a freshly incremented monotonic
// counter. Increment-then-write: a crash between the two bricks the module.
type MemoirStore struct {
	Disk *Disk
	HW   *Hardware
	Key  []byte
	ID   string
}

// Save implements Store.
func (s *MemoirStore) Save(state []byte, inj *FaultInjector) error {
	if err := inj.step(); err != nil {
		return err
	}
	n := s.HW.CounterIncrement(s.ID) // step 1: burn the counter
	blob, err := s.HW.Seal(s.Key, state, counterAux(n))
	if err != nil {
		return err
	}
	if err := inj.step(); err != nil {
		return err // crash here loses the only blob matching n
	}
	s.Disk.Write(s.ID, blob) // step 2: persist
	return nil
}

// Recover implements Store.
func (s *MemoirStore) Recover() ([]byte, error) {
	blob, ok := s.Disk.Read(s.ID)
	if !ok {
		return nil, ErrNoState
	}
	n := s.HW.CounterRead(s.ID)
	pt, err := s.HW.Unseal(s.Key, blob, counterAux(n))
	if err != nil {
		return nil, fmt.Errorf("%w (counter %d)", ErrStale, n)
	}
	return pt, nil
}

// TwoSlotStore writes the new sealed blob (bound to counter n+1) into the
// alternate slot *before* committing the counter. Recovery accepts the
// slot matching the committed counter, or — after a crash between write
// and commit — the slot matching counter+1, which it then commits. Stale
// blobs (counter < committed) never verify: rollback remains detected.
type TwoSlotStore struct {
	Disk *Disk
	HW   *Hardware
	Key  []byte
	ID   string
}

func (s *TwoSlotStore) slot(n uint64) string {
	return fmt.Sprintf("%s.slot%d", s.ID, n%2)
}

// Save implements Store.
func (s *TwoSlotStore) Save(state []byte, inj *FaultInjector) error {
	next := s.HW.CounterRead(s.ID) + 1
	blob, err := s.HW.Seal(s.Key, state, counterAux(next))
	if err != nil {
		return err
	}
	if err := inj.step(); err != nil {
		return err // crash before write: old state + old counter remain valid
	}
	s.Disk.Write(s.slot(next), blob) // step 1: write alternate slot
	if err := inj.step(); err != nil {
		return err // crash before commit: recovery rolls forward
	}
	s.HW.CounterIncrement(s.ID) // step 2: commit
	return nil
}

// Recover implements Store.
func (s *TwoSlotStore) Recover() ([]byte, error) {
	n := s.HW.CounterRead(s.ID)
	// Prefer a completed-but-uncommitted save (counter n+1).
	if blob, ok := s.Disk.Read(s.slot(n + 1)); ok {
		if pt, err := s.HW.Unseal(s.Key, blob, counterAux(n+1)); err == nil {
			s.HW.CounterIncrement(s.ID) // roll forward
			return pt, nil
		}
	}
	if n == 0 {
		return nil, ErrNoState
	}
	blob, ok := s.Disk.Read(s.slot(n))
	if !ok {
		return nil, ErrNoState
	}
	pt, err := s.HW.Unseal(s.Key, blob, counterAux(n))
	if err != nil {
		return nil, fmt.Errorf("%w (counter %d)", ErrStale, n)
	}
	return pt, nil
}
