package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/impact"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// TestArenaPolicyUnchangedByEdits checks that a policy whose sets and
// predicates share the native parser's arena slabs is as immutable as
// one built set by set: cloning it, inserting into it, applying an edit
// script to it and serving ImpactEdits on it leave its text and content
// address as they were.
func TestArenaPolicyUnchangedByEdits(t *testing.T) {
	schema := field.IPv4FiveTuple()
	text := "dport in !(25|80) && proto in tcp -> discard\n" +
		"src in !10.0.0.0/8 && sport in 0-1023|2000 -> accept\n" +
		rule.FormatPolicy(synth.RealLife(120, 5))
	p, err := frontend.Parse("native", schema, text, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Neighbouring sets and predicates are adjacent in the slabs, so each
	// must end at its capacity: an append through one must reallocate
	// rather than write into the next. No operation appends through a set
	// today, so the capacities are checked directly.
	for ri, r := range p.Rules {
		if cap(r.Pred) != len(r.Pred) {
			t.Fatalf("rule %d: predicate cap %d, len %d", ri, cap(r.Pred), len(r.Pred))
		}
		for fi, s := range r.Pred {
			if ivs := reflect.ValueOf(s).Field(0); ivs.Cap() != ivs.Len() {
				t.Fatalf("rule %d field %d: set cap %d, len %d", ri, fi, ivs.Cap(), ivs.Len())
			}
		}
	}
	wantText, wantHash := rule.FormatPolicy(p), PolicyHash(p)

	c := p.Clone()
	c.Rules[0].Pred[3] = schema.FullSet(3) // dport
	c.Rules[1].Decision = rule.Discard
	extra, err := rule.ParseRule(schema, "dst in 192.168.0.0/16|10.1.0.0/16 -> accept")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InsertRule(1, extra); err != nil {
		t.Fatal(err)
	}
	edits, err := impact.ParseEdits(schema, "insert 1: dport in 25 -> accept\n"+
		"replace 3: src in !10.0.0.0/8 -> discard\ndelete 5\nswap 2 7\nappend: any -> discard\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := impact.Apply(p, edits); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := New(Config{}).ImpactEdits(context.Background(), p, edits); err != nil {
		t.Fatal(err)
	}

	if got := rule.FormatPolicy(p); got != wantText {
		t.Fatalf("policy text changed:\n%s\nwant:\n%s", got, wantText)
	}
	if got := PolicyHash(p); got != wantHash {
		t.Fatalf("PolicyHash changed: %s, want %s", got, wantHash)
	}
}

// TestDiagramAndReportOwnTheirIntervals parses a policy into the native
// parser's arena, compiles it through the engine and diffs it, keeps the
// diagram and the report, and drops the policy and the engine. The
// arena's interval slab must then be collected: no edge label of the
// diagram and no row of the report may be a view of the rule sets it
// was built from.
func TestDiagramAndReportOwnTheirIntervals(t *testing.T) {
	schema := field.IPv4FiveTuple()
	base := synth.RealLife(120, 5)
	other, _ := synth.Perturb(base, 25, 3)
	collected := make(chan struct{})
	diagram, report := func() (*fdd.FDD, *compare.Report) {
		p, err := frontend.Parse("native", schema, rule.FormatPolicy(base), frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Every set of p views the arena's one interval slab, whose first
		// interval is field 0's full domain, the set of every rule that
		// omits field 0 (the catch-all does): the lowest address of them
		// all is the slab's.
		var first *interval.Interval
		for _, r := range p.Rules {
			for _, s := range r.Pred {
				ptr := (*interval.Interval)(reflect.ValueOf(s).Field(0).Index(0).Addr().UnsafePointer())
				if first == nil || uintptr(unsafe.Pointer(ptr)) < uintptr(unsafe.Pointer(first)) {
					first = ptr
				}
			}
		}
		runtime.SetFinalizer(first, func(*interval.Interval) { close(collected) })
		e := New(Config{})
		c, _, err := e.Compile(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		report, _, err := e.DiffPolicies(context.Background(), p, other)
		if err != nil {
			t.Fatal(err)
		}
		if report.Equivalent() {
			t.Fatal("the diff found no discrepancy")
		}
		return c.FDD, report
	}()
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the policy's interval slab is still reachable from the diagram or the report")
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(diagram)
	runtime.KeepAlive(report)
}
