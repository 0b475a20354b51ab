package mem

import "fmt"

// Process-reset checkpointing.
//
// A Checkpoint freezes the logical content of the address space at one
// instant and lets the Memory be rolled back to that instant in time
// proportional to the pages *touched* since, not to the size of the
// space. It is the memory half of kernel process snapshot/restore, and
// the mechanism that makes fuzzing campaigns reset a victim in
// microseconds instead of re-linking and re-loading it.
//
// The implementation is a first-touch undo log. While a checkpoint is
// active, the first mutation of each page — a permission-checked write, a
// raw poke or load, or a Map of a fresh page — saves that page's
// pre-checkpoint bytes (or the fact that it did not exist) keyed by page
// number, and records the page on the dirty list of the current
// mutate-restore cycle. Restore walks only the dirty list:
// pages untouched since the previous restore are already at their
// checkpoint content and cost nothing, so a reset is proportional to the
// pages the *last run* dirtied, not to everything any run ever touched.
// The log keeps its entries across restores — an entry already holds the
// checkpoint-time truth, so a page re-dirtied in a later cycle re-enters
// the dirty list with a cheap map hit, never a second page copy.
//
// The hot write path pays one nil test when no checkpoint is active, and
// one generation compare (page.seq) when one is — the per-page map
// lookup happens only on first touch.
//
// Decode-cache interaction: Restore bumps the write generation of every
// page whose content it rolls back, so decodes cached against the
// mutated-run bytes of exactly those pages are invalidated — and no
// others. Pages untouched since the checkpoint (under DEP, all of text)
// keep their stamps, so their cached decodes, blocks and traces stay warm
// across resets — the fuzzing fast path. A page's permissions are fixed
// when it is mapped, and only Restore removes a page, so the log holds
// bytes alone; the created pages Restore removes are retired through
// releasePage, which bumps their stamps before recycling them.

// Checkpoint is an active memory checkpoint created by Memory.Checkpoint.
// At most one checkpoint is active per Memory; creating a new one
// abandons the old (its undo information is discarded, not applied).
type Checkpoint struct {
	seq    uint64
	npages int
	// pages holds the pre-checkpoint bytes of each page the checkpoint
	// has seen mutated. A nil entry means "no page existed here at
	// checkpoint time" — created pages carry no payload, so a run that
	// maps thousands of pages costs the log only map entries, not page
	// copies.
	pages map[uint32]*[PageSize]byte
	// dirty lists the pages touched since the last Restore (or since the
	// checkpoint was taken). Restore processes exactly this list. A page
	// appears at most once per cycle: the page.seq stamp suppresses
	// repeats.
	dirty []uint32
}

// Checkpoint begins tracking mutations so a later Restore can roll the
// address space back to its current content. Any previously active
// checkpoint for this Memory is abandoned.
func (m *Memory) Checkpoint() *Checkpoint {
	m.snapSeq++
	cp := &Checkpoint{
		seq:    m.snapSeq,
		npages: m.npages,
		pages:  make(map[uint32]*[PageSize]byte),
	}
	m.snap = cp
	return cp
}

// Restore rolls the address space back to the state captured by cp:
// byte content and the set of mapped pages return to their checkpoint
// values. The checkpoint stays active, so the mutate-restore cycle can
// repeat indefinitely. cp must be the Memory's active checkpoint.
func (m *Memory) Restore(cp *Checkpoint) error {
	if m.snap != cp {
		return fmt.Errorf("mem: Restore: checkpoint is not active for this memory")
	}
	if m.stats != nil {
		m.stats.RestoreCycles++
		m.stats.RestoreDirtyPages += uint64(len(cp.dirty))
	}
	for _, pn := range cp.dirty {
		s := m.slot(pn) // extents never shrink, so the slot exists
		cur := *s
		if u := cp.pages[pn]; u != nil {
			// Roll back only the span the run wrote — every content
			// mutation path routes through touch, which saves a page only
			// to store at least one byte into it, so the span is never
			// empty — and bump the stamp: decodes cached against the
			// mutated-run content must not survive.
			copy(cur.writable()[cur.dlo:cur.dhi], u[cur.dlo:cur.dhi])
			m.bumpStamp(cur)
			// Back to checkpoint content and un-saved: the next write in
			// the next cycle re-dirties the page (cheap — the log entry
			// already exists, so no second page copy ever happens).
			cur.seq = 0
			continue
		}
		*s = nil
		m.npages--
		// Retiring the run-created page bumps its write stamp, so
		// decodes cached against code injected into it die, and recycles
		// the object for the next run's Map.
		m.releasePage(cur)
		// A created-page entry is spent once the page is gone; drop it so
		// workloads that map transient pages (heap churn) do not grow the
		// log without bound. A later Map at this pn records a fresh entry.
		delete(cp.pages, pn)
	}
	cp.dirty = cp.dirty[:0]
	if m.npages != cp.npages {
		return fmt.Errorf("mem: Restore: page accounting diverged (%d != %d)", m.npages, cp.npages)
	}
	m.lastPN, m.lastPage = 0, nil
	return nil
}

// save records page p (number pn) on this cycle's dirty list — and, on
// the page's first-ever touch under this checkpoint, copies its
// pre-checkpoint state into the undo log — then stamps it saved so the
// cycle's further writes skip the log entirely. Callers must invoke it
// before mutating the page.
func (cp *Checkpoint) save(pn uint32, p *page) {
	p.seq = cp.seq
	// A fresh cycle for this page: no bytes written yet; touch extends
	// the span by the write that follows.
	p.dlo, p.dhi = PageSize, 0
	cp.dirty = append(cp.dirty, pn)
	if _, ok := cp.pages[pn]; ok {
		return
	}
	u := new([PageSize]byte)
	*u = *p.data
	cp.pages[pn] = u
}

// saveAbsent records that no page existed at pn at checkpoint time (the
// page is being created by Map), dirtying the cycle.
func (cp *Checkpoint) saveAbsent(pn uint32) {
	cp.dirty = append(cp.dirty, pn)
	if _, ok := cp.pages[pn]; ok {
		return
	}
	cp.pages[pn] = nil
}

// touch is the hot-path hook every page content mutation goes through,
// announcing a write of n bytes at addr: a nil test when no checkpoint
// is active, and a dirty-span extension when one is (the first touch per
// cycle additionally saves the page). The span is what lets Restore copy
// back only the bytes a run actually wrote.
func (m *Memory) touch(addr, n uint32, p *page) {
	if m.snap == nil {
		return
	}
	if p.seq != m.snap.seq {
		m.snap.save(addr>>pageShift, p)
	}
	if o := addr & PageMask; o < p.dlo {
		p.dlo = o
	}
	if e := addr&PageMask + n; e > p.dhi {
		p.dhi = e
	}
}
