package buildcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSingleflight pins the determinism contract's core clause: a key is
// built exactly once no matter how many goroutines race the first
// lookup, and Misses counts distinct keys, not racing callers.
func TestSingleflight(t *testing.T) {
	c := New[int, int]("test.singleflight")
	defer c.Reset()
	var builds atomic.Uint64
	const callers = 32
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(7, func() (int, error) {
				builds.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
	if st.Hits != callers-1 {
		t.Fatalf("Hits = %d, want %d", st.Hits, callers-1)
	}
}

// TestErrorsAreCached: a failed build is memoized like a value — every
// subsequent lookup observes the same error without re-building, so a
// sweep's error cells stay byte-identical cached-vs-uncached.
func TestErrorsAreCached(t *testing.T) {
	c := New[string, int]("test.errors")
	defer c.Reset()
	boom := errors.New("boom")
	var builds int
	for i := 0; i < 3; i++ {
		_, err := c.Do("k", func() (int, error) {
			builds++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("lookup %d: err = %v, want boom", i, err)
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
}

// TestDisabledBypasses: with the layer off, every call builds directly
// and nothing is stored or counted — the uncached reference behavior.
func TestDisabledBypasses(t *testing.T) {
	c := New[int, int]("test.disabled")
	defer c.Reset()
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	var builds int
	for i := 0; i < 3; i++ {
		if _, err := c.Do(9, func() (int, error) { builds++; return 9, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 3 {
		t.Fatalf("build ran %d times with cache disabled, want 3", builds)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats moved while disabled: %+v", st)
	}
}

// TestParallelHammer drives many goroutines through overlapping keys
// with Resets interleaved between rounds — the -race workout for the
// lock and singleflight paths, mirroring a parallel sweep's access
// pattern (many workers, few distinct keys).
func TestParallelHammer(t *testing.T) {
	c := New[int, string]("test.hammer")
	defer c.Reset()
	const workers = 16
	const rounds = 8
	const keys = 5
	for r := 0; r < rounds; r++ {
		c.Reset()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					k := (w + i) % keys
					want := fmt.Sprintf("v%d", k)
					v, err := c.Do(k, func() (string, error) { return want, nil })
					if err != nil || v != want {
						t.Errorf("Do(%d) = (%q, %v), want (%q, nil)", k, v, err, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		st := c.Stats()
		if st.Misses != keys {
			t.Fatalf("round %d: Misses = %d, want %d (one per distinct key)", r, st.Misses, keys)
		}
		if st.Hits != workers*50-keys {
			t.Fatalf("round %d: Hits = %d, want %d", r, st.Hits, workers*50-keys)
		}
	}
}

// TestTotalStatsAggregates: the registry sums per-cache counters.
func TestTotalStatsAggregates(t *testing.T) {
	ResetAll()
	a := New[int, int]("test.agg.a")
	b := New[int, int]("test.agg.b")
	defer ResetAll()
	for i := 0; i < 2; i++ {
		a.Do(1, func() (int, error) { return 1, nil })
		b.Do(1, func() (int, error) { return 1, nil })
	}
	tot := TotalStats()
	if tot.Misses < 2 || tot.Hits < 2 {
		t.Fatalf("TotalStats = %+v, want >=2 hits and >=2 misses", tot)
	}
	var saw int
	each(func(name string, s Stats) {
		if name == "test.agg.a" || name == "test.agg.b" {
			saw++
			if s.Hits != 1 || s.Misses != 1 {
				t.Fatalf("%s stats = %+v, want 1/1", name, s)
			}
		}
	})
	if saw != 2 {
		t.Fatalf("Each visited %d test caches, want 2", saw)
	}
}
