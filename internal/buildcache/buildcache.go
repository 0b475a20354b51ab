// Package buildcache is the content-keyed memoization layer under the
// sweep engine. A mitigation sweep re-runs the same victim hundreds of
// times with only the per-trial seeds and input varying, yet every trial
// historically paid the full toolchain pass — MinC compile, static link,
// attacker reconnaissance — twice (once for the attacker's offline copy,
// once for the deployed victim). The artifacts those passes produce are
// pure functions of content (victim source, codegen options, layout
// profile): this package caches them once per distinct key so a
// 256-trial cell does one toolchain pass instead of 512, while
// per-trial kernel.Load keeps re-randomizing everything the seeds
// govern (ASLR layout, canary value). Two caches use it: core.victim
// (one entry per attack victim: linked program plus recon) and
// fuzz.link.
//
// Determinism contract. The cache must never make a sweep's report or
// telemetry depend on scheduling:
//
//   - Values are built under per-key singleflight: concurrent lookups of
//     one key build once and share the result (errors included), so
//     Misses always equals the number of distinct keys built regardless
//     of worker count.
//   - Do is the only access, every call counts exactly one hit or miss,
//     and only per-trial code paths call it — warm and cold trials
//     alike, one lookup per attack trial — so the lookups a run makes
//     follow from its trial count alone and the counters are
//     byte-identical at any -jobs width. Worker-local warm-instance
//     construction (see internal/harness) builds from its first trial's
//     lookup and never looks up anything itself.
//   - Eviction is insertion-ordered past a generous per-cache capacity.
//     Shipped catalogs stay far below capacity, so Evictions is zero in
//     practice; the cap exists only to bound memory on pathological
//     workloads (where determinism of the counters is forfeit anyway).
//
// The harness engine calls ResetAll at the start of every Run, so each
// sweep observes a cold cache and the counters it publishes describe
// that sweep alone — the property the cached-vs-uncached and
// jobs-1-vs-N differential tests pin.
package buildcache

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Stats is one cache's (or the aggregate) counter snapshot.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// enabled gates the whole layer. Differential tests flip it off to
// reproduce the uncached historical behavior; see SetEnabled.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns the cache layer on or off and returns the previous
// state. When off, Do invokes its build function directly — nothing is
// stored, counted, or shared — which is the reference behavior the
// cached-vs-uncached differential tests compare against. Not intended
// for concurrent flipping mid-sweep.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// resettable is the registry's view of one cache.
type resettable interface {
	Reset()
	Stats() Stats
	name() string
}

var (
	regMu    sync.Mutex
	registry []resettable
)

// entry is one memoized build: done closes when val/err are final.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache memoizes build results under comparable content keys.
type Cache[K comparable, V any] struct {
	cname string
	cap   int

	mu    sync.Mutex
	m     map[K]*entry[V]
	order []K
	st    Stats
}

// New registers a named cache with the given capacity (entries). The
// name keys its published counters (buildcache.<name>.hits, ...);
// capacity bounds memory, not correctness (see the package comment on
// eviction).
func New[K comparable, V any](name string, capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache[K, V]{cname: name, cap: capacity, m: make(map[K]*entry[V])}
	regMu.Lock()
	registry = append(registry, c)
	regMu.Unlock()
	return c
}

// Do returns the memoized value for key, building it at most once per
// key per cache epoch. Concurrent callers of one key share a single
// build (and its error). Every call counts exactly one hit or miss.
func (c *Cache[K, V]) Do(key K, build func() (V, error)) (V, error) {
	if !enabled.Load() {
		return build()
	}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.st.Hits++
		c.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	c.st.Misses++
	e := &entry[V]{done: make(chan struct{})}
	c.m[key] = e
	c.order = append(c.order, key)
	c.evictLocked(key)
	c.mu.Unlock()

	e.val, e.err = build()
	close(e.done)
	return e.val, e.err
}

// evictLocked drops the oldest entries past capacity, never the key
// just inserted. Caller holds c.mu.
func (c *Cache[K, V]) evictLocked(keep K) {
	for len(c.order) > c.cap {
		victim := c.order[0]
		c.order = c.order[1:]
		if victim == keep {
			c.order = append(c.order, victim)
			continue
		}
		delete(c.m, victim)
		c.st.Evictions++
	}
}

// Stats snapshots the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// Reset drops every entry and zeroes the counters, starting a fresh
// cache epoch. Must not race in-flight Do builds (the harness resets
// only between runs).
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.m = make(map[K]*entry[V])
	c.order = nil
	c.st = Stats{}
	c.mu.Unlock()
}

func (c *Cache[K, V]) name() string { return c.cname }

// ResetAll resets every registered cache — the start-of-run epoch
// boundary the harness engine uses, also handy in tests.
func ResetAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, c := range registry {
		c.Reset()
	}
}

// TotalStats sums the counters of every registered cache.
func TotalStats() Stats {
	var t Stats
	each(func(_ string, s Stats) {
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
	})
	return t
}

// PublishCounters exports the cache counters through count, the
// signature of telemetry.Registry.Count: the aggregate under
// buildcache.{hits,misses,evictions} and every per-cache breakdown
// under buildcache.<name>.{hits,misses,evictions}. Zero values are
// passed through (Count skips them), so a disabled or idle cache layer
// publishes no keys at all. Lookups are counted only on per-trial code
// paths under singleflight, so every exported value is invariant
// across -jobs widths — run records can carry them verbatim and
// cross-run diffs of the counters are meaningful.
func PublishCounters(count func(name string, v uint64)) {
	each(func(name string, s Stats) {
		count("buildcache."+name+".hits", s.Hits)
		count("buildcache."+name+".misses", s.Misses)
		count("buildcache."+name+".evictions", s.Evictions)
	})
	t := TotalStats()
	count("buildcache.hits", t.Hits)
	count("buildcache.misses", t.Misses)
	count("buildcache.evictions", t.Evictions)
}

// each visits every registered cache in name order with a counter
// snapshot.
func each(fn func(name string, s Stats)) {
	regMu.Lock()
	caches := append([]resettable(nil), registry...)
	regMu.Unlock()
	sort.Slice(caches, func(i, j int) bool { return caches[i].name() < caches[j].name() })
	for _, c := range caches {
		fn(c.name(), c.Stats())
	}
}
