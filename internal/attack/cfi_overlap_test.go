package attack

import (
	"reflect"
	"testing"

	"softsec/internal/cfi"
	"softsec/internal/kernel"
	"softsec/internal/minc"
)

// This file pins the seam between the attacker's view of a binary (the
// gadget scan) and the defender's view (the CFI label table): the scans
// must be deterministic — recon and attack construction feed harness
// sweeps whose aggregates are byte-compared across worker counts — and
// the mined material must relate to the labels exactly as the CFI story
// claims: a scraped gadget is, with overwhelming probability, *not* a
// function entry, which is precisely why coarse CFI stops ROP while
// entry-reuse chains sail through.

// overlapVictim is the dispatch-table victim shape: indirect calls in
// text, function addresses in immediates.
const overlapVictim = `
char name[16];
int *handler;

int greet() {
	write(1, "hi ", 3);
	return 0;
}
void main() {
	handler = greet;
	read(0, name, 24);
	int *f = handler;
	f();
}`

func loadOverlapVictim(t *testing.T) *kernel.Process {
	t.Helper()
	img, err := minc.Compile("victim", overlapVictim, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernel.Load(ld, kernel.Config{DEP: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func loadedText(t *testing.T, p *kernel.Process) ([]byte, uint32) {
	t.Helper()
	base, end := p.TextBounds()
	text, ok := p.Mem.PeekRaw(base, int(end-base))
	if !ok {
		t.Fatalf("cannot read text [%#x,%#x)", base, end)
	}
	return text, base
}

// TestGadgetScanDeterminism: the finder is a pure function of its input
// bytes — two scans over the same text yield identical gadget lists, in
// identical order.
func TestGadgetScanDeterminism(t *testing.T) {
	libc := kernel.Libc()
	a := FindGadgets(libc.Text, 0x1000, 6)
	b := FindGadgets(libc.Text, 0x1000, 6)
	if len(a) == 0 {
		t.Fatal("no RET gadgets in libc")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("FindGadgets is not deterministic")
	}
}

// TestCoarseCFIRejectsScrapedGadgets is the overlap claim itself: mine
// every RET gadget out of the loaded victim exactly as the ROP compiler
// does, then feed each gadget address to the coarse CFI policy as (a) an
// indirect-call target and (b) a RET target. Every gadget that is not a
// recovered function entry must be rejected on the call edge, and every
// gadget that is not a return site must be rejected on the ret edge —
// the label table leaves code-reuse only the entry-reuse loophole.
func TestCoarseCFIRejectsScrapedGadgets(t *testing.T) {
	p := loadOverlapVictim(t)
	text, base := loadedText(t, p)
	g, err := cfi.Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	pol := cfi.NewPolicy(g, cfi.Coarse)

	var callSite, retAddr uint32
	for a := g.TextBase; a < g.TextEnd; a++ {
		switch l := g.LabelAt(a); {
		case l&cfi.LabelIndirect != 0 && callSite == 0:
			callSite = a
		case l&cfi.LabelRet != 0 && retAddr == 0:
			retAddr = a
		}
	}
	if callSite == 0 || retAddr == 0 {
		t.Fatalf("missing sites (call=%#x ret=%#x)", callSite, retAddr)
	}

	gadgets := FindGadgets(text, base, 6)
	if len(gadgets) == 0 {
		t.Fatal("no gadgets mined from victim text")
	}
	entries, retSites, rejected := 0, 0, 0
	for _, gd := range gadgets {
		callErr := pol.CheckExec(callSite, gd.Addr)
		retErr := pol.CheckExec(retAddr, gd.Addr)
		if g.LabelAt(gd.Addr)&cfi.LabelEntry != 0 {
			entries++
			if callErr != nil {
				t.Fatalf("gadget at entry %#x rejected on the call edge: %v", gd.Addr, callErr)
			}
		} else if callErr == nil {
			t.Fatalf("non-entry gadget %v accepted as an indirect-call target", gd)
		}
		if g.LabelAt(gd.Addr)&cfi.LabelRetSite != 0 {
			retSites++
			if retErr != nil {
				t.Fatalf("gadget at return site %#x rejected on the ret edge: %v", gd.Addr, retErr)
			}
		} else if retErr == nil {
			t.Fatalf("non-return-site gadget %v accepted as a RET target", gd)
		}
		if callErr != nil && retErr != nil {
			rejected++
		}
	}
	// The scan must have found genuinely unintended material: gadgets
	// that are neither entries nor return sites — dead to coarse CFI on
	// both edges.
	if rejected == 0 {
		t.Fatalf("every mined gadget doubles as a label (%d entries, %d ret-sites of %d): scan too weak to test the overlap",
			entries, retSites, len(gadgets))
	}
}
