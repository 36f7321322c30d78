package query

import (
	"strings"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/packet"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
)

func teamBFDD(t *testing.T) *fdd.FDD {
	t.Helper()
	f, err := fdd.Construct(paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestQueryMailServerPorts asks Team B's firewall: which destination
// ports are accepted for inbound traffic to the mail server? Expected:
// only port 25 (and only for TCP, but the port projection is {25}).
func TestQueryMailServerPorts(t *testing.T) {
	t.Parallel()
	f := teamBFDD(t)
	s := paper.Schema()
	where := rule.FullPredicate(s)
	where[paper.FieldI] = interval.SetOf(0, 0)
	where[paper.FieldD] = interval.SetOf(paper.Gamma, paper.Gamma)
	got, err := Run(f, Query{Select: paper.FieldN, Where: where, Decision: rule.Accept})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(interval.SetOf(25, 25)) {
		t.Fatalf("accepted ports to the mail server = %v, want {25}", got)
	}
}

// TestQueryMaliciousSources asks: which sources are accepted inbound by
// Team B? Everything except the malicious domain (Team B discards it
// first).
func TestQueryMaliciousSources(t *testing.T) {
	t.Parallel()
	f := teamBFDD(t)
	s := paper.Schema()
	where := rule.FullPredicate(s)
	where[paper.FieldI] = interval.SetOf(0, 0)
	got, err := Run(f, Query{Select: paper.FieldS, Where: where, Decision: rule.Accept})
	if err != nil {
		t.Fatal(err)
	}
	notMal := s.FullSet(paper.FieldS).Subtract(interval.SetOf(paper.Alpha, paper.Beta))
	if !got.Equal(notMal) {
		t.Fatalf("accepted sources = %v, want complement of the malicious domain", got)
	}
}

// TestQueryAgainstOracle cross-checks query answers against brute-force
// membership: v is in the answer iff some sampled packet with that value
// satisfies the condition and gets the decision.
func TestQueryAgainstOracle(t *testing.T) {
	t.Parallel()
	p := paper.TeamA()
	f, err := fdd.Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	s := paper.Schema()
	where := rule.FullPredicate(s)
	where[paper.FieldI] = interval.SetOf(0, 0)
	where[paper.FieldD] = interval.SetOf(paper.Gamma, paper.Gamma)
	ports, err := Run(f, Query{Select: paper.FieldN, Where: where, Decision: rule.Discard})
	if err != nil {
		t.Fatal(err)
	}
	// For Team A, inbound to the mail server is discarded only when the
	// source is malicious and the port is not 25 — so the discarded-port
	// projection is every port but... port 25 is accepted by rule 1
	// regardless of source; other ports from malicious sources are
	// discarded. Projection: all ports except 25.
	want := s.FullSet(paper.FieldN).Subtract(interval.SetOf(25, 25))
	if !ports.Equal(want) {
		t.Fatalf("discarded ports = %v, want %v", ports, want)
	}

	// Spot-check membership with the oracle.
	sm := packet.NewSampler(s, 5)
	for i := 0; i < 2000; i++ {
		pkt := sm.Biased(p)
		pkt[paper.FieldI] = 0
		pkt[paper.FieldD] = paper.Gamma
		d, _, _ := p.Decide(pkt)
		if d == rule.Discard && !ports.Contains(pkt[paper.FieldN]) {
			t.Fatalf("port %d discarded for %v but missing from projection", pkt[paper.FieldN], pkt)
		}
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	f := teamBFDD(t)
	s := paper.Schema()
	if _, err := Run(f, Query{Select: -1, Where: rule.FullPredicate(s), Decision: rule.Accept}); err == nil {
		t.Fatal("bad select should fail")
	}
	if _, err := Run(f, Query{Select: 0, Where: rule.Predicate{}, Decision: rule.Accept}); err == nil {
		t.Fatal("bad arity should fail")
	}
	if _, err := Run(f, Query{Select: 0, Where: rule.FullPredicate(s)}); err == nil {
		t.Fatal("bad decision should fail")
	}
}

func TestRunPolicy(t *testing.T) {
	t.Parallel()
	s := paper.Schema()
	where := rule.FullPredicate(s)
	got, err := RunPolicy(paper.TeamB(), Query{Select: paper.FieldI, Where: where, Decision: rule.Accept})
	if err != nil {
		t.Fatal(err)
	}
	// Both interfaces see some accepted traffic.
	if !got.Equal(s.FullSet(paper.FieldI)) {
		t.Fatalf("interfaces with accepted traffic = %v", got)
	}
}

// TestVerifySpecProperties encodes the requirement specification of
// Section 2 as properties and checks the agreed firewall against them.
func TestVerifySpecProperties(t *testing.T) {
	t.Parallel()
	agreed, err := fdd.Construct(paper.AgreedFirewall())
	if err != nil {
		t.Fatal(err)
	}
	s := paper.Schema()

	// Property 1: nothing from the malicious domain is accepted inbound.
	pred := rule.FullPredicate(s)
	pred[paper.FieldI] = interval.SetOf(0, 0)
	pred[paper.FieldS] = interval.SetOf(paper.Alpha, paper.Beta)
	if w, err := Verify(agreed, pred, rule.Discard); err != nil || w != nil {
		t.Fatalf("malicious traffic property violated: %+v, %v", w, err)
	}

	// Property 2: clean-source e-mail to the server is accepted.
	pred = rule.FullPredicate(s)
	pred[paper.FieldI] = interval.SetOf(0, 0)
	pred[paper.FieldS] = s.FullSet(paper.FieldS).Subtract(interval.SetOf(paper.Alpha, paper.Beta))
	pred[paper.FieldD] = interval.SetOf(paper.Gamma, paper.Gamma)
	pred[paper.FieldN] = interval.SetOf(25, 25)
	if w, err := Verify(agreed, pred, rule.Accept); err != nil || w != nil {
		t.Fatalf("mail property violated: %+v, %v", w, err)
	}

	// A deliberately false property returns a genuine witness.
	pred = rule.FullPredicate(s)
	w, err := Verify(agreed, pred, rule.Accept)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("not every packet is accepted; expected a witness")
	}
	got, _ := agreed.Decide(w.Packet)
	if got != w.Decision || got == rule.Accept {
		t.Fatalf("witness is not genuine: %v decides %v", w.Packet, got)
	}
}

// TestVerifyCatchesTeamAsBug: Team A accepts malicious e-mail — the
// property check each team could have run before the comparison phase.
func TestVerifyCatchesTeamAsBug(t *testing.T) {
	t.Parallel()
	s := paper.Schema()
	pred := rule.FullPredicate(s)
	pred[paper.FieldI] = interval.SetOf(0, 0)
	pred[paper.FieldS] = interval.SetOf(paper.Alpha, paper.Beta)
	w, err := VerifyPolicy(paper.TeamA(), pred, rule.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("Team A accepts some malicious packets; expected a witness")
	}
	if w.Packet[paper.FieldD] != paper.Gamma || w.Packet[paper.FieldN] != 25 {
		t.Fatalf("witness should be malicious e-mail to the server, got %v", w.Packet)
	}
}

func TestParse(t *testing.T) {
	t.Parallel()
	s := paper.Schema()
	q, err := Parse(s, "select N where I in 0 && D in 192.168.0.1 decision accept")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select != paper.FieldN || q.Decision != rule.Accept {
		t.Fatalf("parsed query = %+v", q)
	}
	if !q.Where[paper.FieldD].Equal(interval.SetOf(paper.Gamma, paper.Gamma)) {
		t.Fatalf("where D = %v", q.Where[paper.FieldD])
	}

	// Without a where clause.
	q, err = Parse(s, "select S decision discard")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select != paper.FieldS || !q.Where[paper.FieldI].Equal(s.FullSet(paper.FieldI)) {
		t.Fatalf("parsed query = %+v", q)
	}

	for _, bad := range []string{
		"N where I in 0 decision accept", // no select
		"select N where I in 0",          // no decision
		"select bogus decision accept",   // unknown field
		"select N decision fly",          // unknown decision
		"select N where Z in 0 decision accept",
		"select N where decision accept",     // empty where clause
		"select bogus where decision accept", // unknown field, empty where
		"select N where   decision accept",   // blank where clause
		"select N where  decision accept",    // markers one space apart
		// Invalid UTF-8, which strings.ToLower lengthens: keyword offsets
		// must stay offsets into the text.
		"select \xff\xff\xff\xff\xff\xff\xff\xff decision accept",
	} {
		if _, err := Parse(s, bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestParsedQueryEndToEnd runs a parsed textual query.
func TestParsedQueryEndToEnd(t *testing.T) {
	t.Parallel()
	s := paper.Schema()
	q, err := Parse(s, "select N where I in 0 && D in 192.168.0.1 decision accept")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(teamBFDD(t), q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(interval.SetOf(25, 25)) {
		t.Fatalf("got %v, want {25}", got)
	}
}

// parseSeeds are the query texts the tests above parse, accepted and
// rejected alike.
var parseSeeds = []string{
	"select N where I in 0 && D in 192.168.0.1 decision accept",
	"select S decision discard",
	"N where I in 0 decision accept",
	"select N where I in 0",
	"select bogus decision accept",
	"select N decision fly",
	"select N where Z in 0 decision accept",
	"select N where decision accept",
	"select bogus where decision accept",
	"SELECT N WHERE I in 0 DECISION accept",
	"select \xff\xff\xff\xff\xff\xff\xff\xff decision accept",
}

// formatQuery renders q in the text form Parse reads.
func formatQuery(s *field.Schema, q Query) string {
	r := rule.FormatRule(s, rule.Rule{Pred: q.Where, Decision: q.Decision})
	where := strings.TrimSuffix(r, " -> "+q.Decision.String())
	return "select " + s.Field(q.Select).Name + " where " + where + " decision " + q.Decision.String()
}

// FuzzQueryParse: Parse never panics, and a query it accepts, rendered
// back to text, parses to the same query.
func FuzzQueryParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	s := paper.Schema()
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(s, text)
		if err != nil {
			return
		}
		back, err := Parse(s, formatQuery(s, q))
		if err != nil {
			t.Fatalf("%q: reparse of %q: %v", text, formatQuery(s, q), err)
		}
		if back.Select != q.Select || back.Decision != q.Decision {
			t.Fatalf("%q: reparsed as %+v, want %+v", text, back, q)
		}
		for i := range q.Where {
			if !back.Where[i].Equal(q.Where[i]) {
				t.Fatalf("%q: where field %d changed through %q", text, i, formatQuery(s, q))
			}
		}
	})
}
