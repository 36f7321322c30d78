package fdd

import (
	"testing"

	"diversefw/internal/interval"
	"diversefw/internal/synth"
)

// TestPromotionKeepsFamilyCoverage: a promotion renumbers only the
// overlay's ids, so the covered-set cache keeps its entries for family
// nodes, which stay valid, and drops those of overlay nodes, whose ids
// the promotion reuses.
func TestPromotionKeepsFamilyCoverage(t *testing.T) {
	p := synth.RealLife(200, 1)
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	st := b.core.st
	ap := newAppender(p.Schema, st)
	defer ap.release()
	st.openOverlay(p.Size())
	defer st.closeOverlay()
	// uncovered returns the first id in [lo, hi) of a nonterminal the
	// store did not mark complete: one whose union coveredBy caches.
	uncovered := func(lo, hi uint32) uint32 {
		for v := lo; v < hi; v++ {
			if r := st.nodes[v]; r.field != TerminalField && !r.complete {
				return v
			}
		}
		t.Fatalf("no incomplete nonterminal among ids [%d, %d)", lo, hi)
		return noNode
	}

	fam := uncovered(0, st.base)
	famRec := st.nodes[fam]
	want := interval.NewSet(ap.coveredBy(fam, &famRec).Intervals()...)
	// Append a few rules on top of the first checkpoint, as a resume
	// does, so the overlay holds partial diagrams of its own.
	cp := b.checkpoints[0]
	root := cp.root
	for _, r := range p.Rules[cp.rules : cp.rules+8] {
		root = ap.appendRule(root, r.Pred, r.Decision)
	}
	ov := uncovered(st.base, uint32(len(st.nodes)))
	ovRec := st.nodes[ov]
	ap.coveredBy(ov, &ovRec)
	if ap.cov[fam].gen != ap.covGen || ap.cov[ov].gen != ap.covGen {
		t.Fatal("coveredBy did not cache the family and overlay unions")
	}

	ap.promote(root)
	if ap.cov[fam].gen != ap.covGen {
		t.Fatalf("promotion dropped family node %d's covered set", fam)
	}
	if ap.cov[ov].gen == ap.covGen {
		t.Fatalf("overlay node %d's covered set survived the promotion that renumbered it", ov)
	}
	if got := ap.coveredBy(fam, &famRec); !got.Equal(want) {
		t.Fatalf("family node %d covers %v after the promotion, %v before", fam, got, want)
	}
}
