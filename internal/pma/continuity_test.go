package pma

import (
	"errors"
	"testing"
)

// vaultState is the serialized tries_left of the paper's rollback example.
func vaultState(tries byte) []byte { return []byte{'t', 'r', 'i', 'e', 's', '=', tries} }

// namedStore is a scheme and the name the tables give it.
type namedStore struct {
	name string
	Store
}

func newStores(t *testing.T) (*Hardware, *Disk, []namedStore) {
	t.Helper()
	hw := NewHardware(11)
	disk := NewDisk()
	key := hw.ModuleKey(CodeHash([]byte("pin vault module")))
	return hw, disk, []namedStore{
		{"plain", &PlainStore{Disk: disk, ID: "vault"}},
		{"sealed", &SealedStore{Disk: disk, HW: hw, Key: key, ID: "vault"}},
		{"memoir-counter", &MemoirStore{Disk: disk, HW: hw, Key: key, ID: "vault"}},
		{"two-slot", &TwoSlotStore{Disk: disk, HW: hw, Key: key, ID: "vault"}},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	_, _, stores := newStores(t)
	for _, s := range stores {
		if err := s.Save(vaultState(3), nil); err != nil {
			t.Fatalf("%s: save: %v", s.name, err)
		}
		got, err := s.Recover()
		if err != nil {
			t.Fatalf("%s: recover: %v", s.name, err)
		}
		if string(got) != string(vaultState(3)) {
			t.Fatalf("%s: got %q", s.name, got)
		}
	}
}

func TestConfidentialityAgainstOSRead(t *testing.T) {
	hw := NewHardware(11)
	disk := NewDisk()
	key := hw.ModuleKey(CodeHash([]byte("vault")))

	plain := &PlainStore{Disk: disk, ID: "p"}
	if err := plain.Save([]byte("PIN=1234"), nil); err != nil {
		t.Fatal(err)
	}
	if b, _ := disk.Read("p"); string(b) != "PIN=1234" {
		t.Fatal("baseline: plaintext state should be readable by the OS")
	}

	sealed := &SealedStore{Disk: disk, HW: hw, Key: key, ID: "s"}
	if err := sealed.Save([]byte("PIN=1234"), nil); err != nil {
		t.Fatal(err)
	}
	if b, _ := disk.Read("s"); string(b) == "PIN=1234" ||
		containsSub(b, []byte("1234")) {
		t.Fatal("sealed blob leaks plaintext")
	}
}

func containsSub(hay, needle []byte) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		match := true
		for j := range needle {
			if hay[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// rollbackAttack runs the paper's Section IV-C attack: save state with 3
// tries, burn two tries (saving each time), then restore the disk snapshot
// taken at 3 tries and try to recover. Returns whether the module accepted
// the stale state.
func rollbackAttack(t *testing.T, s namedStore, disk *Disk) bool {
	t.Helper()
	if err := s.Save(vaultState(3), nil); err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	snapshot := disk.Snapshot() // attacker snapshots the fresh state
	if err := s.Save(vaultState(2), nil); err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	if err := s.Save(vaultState(1), nil); err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	disk.Restore(snapshot) // the rollback
	got, err := s.Recover()
	if err != nil {
		if !errors.Is(err, ErrStale) && !errors.Is(err, ErrNoState) {
			t.Fatalf("%s: unexpected recover error %v", s.name, err)
		}
		return false
	}
	return string(got) == string(vaultState(3))
}

func TestRollbackMatrix(t *testing.T) {
	// Expected: plain and sealed-only fall to rollback; the counter
	// schemes detect it.
	expect := map[string]bool{
		"plain":          true,
		"sealed":         true,
		"memoir-counter": false,
		"two-slot":       false,
	}
	_, disk, stores := newStores(t)
	for _, s := range stores {
		got := rollbackAttack(t, s, disk)
		if got != expect[s.name] {
			t.Errorf("%s: rollback success = %v, want %v", s.name, got, expect[s.name])
		}
	}
}

func TestOSForgeryOnPlainStore(t *testing.T) {
	_, disk, stores := newStores(t)
	plain := stores[0]
	if err := plain.Save(vaultState(1), nil); err != nil {
		t.Fatal(err)
	}
	// The OS simply writes a forged state with unlimited tries.
	disk.Write("vault", vaultState(99))
	got, err := plain.Recover()
	if err != nil || got[len(got)-1] != 99 {
		t.Fatalf("forgery should succeed on the plain store: %q %v", got, err)
	}
	// The sealed store rejects forgeries (the OS has no module key).
	sealed := stores[1]
	if err := sealed.Save(vaultState(1), nil); err != nil {
		t.Fatal(err)
	}
	disk.Write("vault", vaultState(99))
	if _, err := sealed.Recover(); err == nil {
		t.Fatal("sealed store accepted a forged blob")
	}
}

// TestCrashLiveness probes every crash point of every scheme: after a
// crash during Save, recovery must yield *some* valid previous state for
// a live scheme. Memoir's increment-then-write window is the documented
// liveness failure.
func TestCrashLiveness(t *testing.T) {
	type result struct {
		scheme string
		live   bool
	}
	var results []result
	for _, scheme := range []string{"plain", "sealed", "memoir-counter", "two-slot"} {
		live := true
		// Probe crash points 0..3 of the *second* save (the first save
		// is completed so a previous state exists).
		for crashAt := 0; crashAt < 4; crashAt++ {
			hw := NewHardware(11)
			disk := NewDisk()
			key := hw.ModuleKey(CodeHash([]byte("pin vault module")))
			var s Store
			switch scheme {
			case "plain":
				s = &PlainStore{Disk: disk, ID: "v"}
			case "sealed":
				s = &SealedStore{Disk: disk, HW: hw, Key: key, ID: "v"}
			case "memoir-counter":
				s = &MemoirStore{Disk: disk, HW: hw, Key: key, ID: "v"}
			case "two-slot":
				s = &TwoSlotStore{Disk: disk, HW: hw, Key: key, ID: "v"}
			}
			if err := s.Save(vaultState(3), nil); err != nil {
				t.Fatal(err)
			}
			inj := &FaultInjector{CrashAfter: crashAt}
			err := s.Save(vaultState(2), inj)
			if err != nil && !errors.Is(err, ErrCrash) {
				t.Fatalf("%s: save error %v", scheme, err)
			}
			if _, rerr := s.Recover(); rerr != nil {
				live = false
			}
		}
		results = append(results, result{scheme, live})
	}
	expect := map[string]bool{
		"plain":          true,
		"sealed":         true,
		"memoir-counter": false, // bricks when crashing between increment and write
		"two-slot":       true,  // rolls forward or keeps the old state
	}
	for _, r := range results {
		if r.live != expect[r.scheme] {
			t.Errorf("%s: liveness %v, want %v", r.scheme, r.live, expect[r.scheme])
		}
	}
}

// TestTwoSlotRollbackAfterCrash: even in its crash window, the two-slot
// scheme must not accept *stale* state older than the last commit.
func TestTwoSlotRollbackAfterCrash(t *testing.T) {
	hw := NewHardware(11)
	disk := NewDisk()
	key := hw.ModuleKey(CodeHash([]byte("pin vault module")))
	s := &TwoSlotStore{Disk: disk, HW: hw, Key: key, ID: "v"}
	if err := s.Save(vaultState(3), nil); err != nil {
		t.Fatal(err)
	}
	snapshot := disk.Snapshot()
	if err := s.Save(vaultState(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(vaultState(1), nil); err != nil {
		t.Fatal(err)
	}
	// Crash mid-save of state 0 (after slot write, before commit)...
	inj := &FaultInjector{CrashAfter: 1}
	if err := s.Save(vaultState(0), inj); !errors.Is(err, ErrCrash) {
		t.Fatalf("expected crash, got %v", err)
	}
	// ...attacker rolls the disk back to the 3-tries snapshot.
	disk.Restore(snapshot)
	if got, err := s.Recover(); err == nil && string(got) == string(vaultState(3)) {
		t.Fatal("two-slot accepted rolled-back state")
	}
}

func TestFaultInjectorDisabled(t *testing.T) {
	inj := &FaultInjector{CrashAfter: -1}
	for i := 0; i < 10; i++ {
		if err := inj.step(); err != nil {
			t.Fatal("disabled injector crashed")
		}
	}
	var nilInj *FaultInjector
	if err := nilInj.step(); err != nil {
		t.Fatal("nil injector crashed")
	}
}
