package frontend

import (
	"strings"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/interval"
	"diversefw/internal/packet"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

const sampleConfig = `
# filter table for the gateway
*filter
:INPUT DROP [0:0]
-P INPUT DROP
-A INPUT -s 224.168.0.0/16 -j DROP
-A INPUT -d 192.168.0.1/32 -p tcp --dport 25 -j ACCEPT
-A INPUT -p udp --dport 53 -j ACCEPT
-A INPUT ! -s 10.0.0.0/8 -p tcp --dport 22 -j REJECT
-A FORWARD -s 1.2.3.4 -j ACCEPT
COMMIT
`

func TestImportBasics(t *testing.T) {
	t.Parallel()
	p, err := parseIptables(sampleConfig, "INPUT")
	if err != nil {
		t.Fatal(err)
	}
	// 4 INPUT rules + catch-all; the FORWARD rule is skipped.
	if p.Size() != 5 {
		t.Fatalf("size = %d, want 5\n%s", p.Size(), rule.FormatPolicy(p))
	}
	if !p.EndsWithCatchAll() || p.Rules[4].Decision != rule.Discard {
		t.Fatal("chain policy should become a default-deny catch-all")
	}

	// Semantics spot checks. Fields: src, dst, sport, dport, proto.
	cases := []struct {
		name string
		pkt  rule.Packet
		want rule.Decision
	}{
		{"malicious dropped", rule.Packet{0xE0A80001, 0xC0A80001, 1234, 25, 6}, rule.Discard},
		{"mail accepted", rule.Packet{0x0A000001, 0xC0A80001, 1234, 25, 6}, rule.Accept},
		{"mail over udp not matched by tcp rule", rule.Packet{0x0A000001, 0xC0A80001, 1234, 25, 17}, rule.Discard},
		{"dns accepted", rule.Packet{0x0A000001, 0x08080808, 1234, 53, 17}, rule.Accept},
		{"ssh from outside rejected", rule.Packet{0xC0000001, 0x0A000002, 1234, 22, 6}, rule.Discard},
		{"ssh from inside falls to default", rule.Packet{0x0A000009, 0x0A000002, 1234, 22, 6}, rule.Discard},
		{"everything else default-deny", rule.Packet{0x0A000001, 0x08080808, 1234, 80, 6}, rule.Discard},
	}
	for _, c := range cases {
		got, _, ok := p.Decide(c.pkt)
		if !ok || got != c.want {
			t.Errorf("%s: got %v (ok=%v), want %v", c.name, got, ok, c.want)
		}
	}
}

func TestImportNegation(t *testing.T) {
	t.Parallel()
	p, err := parseIptables("-A INPUT ! -s 10.0.0.0/8 -j DROP\n-P INPUT ACCEPT\n", "INPUT")
	if err != nil {
		t.Fatal(err)
	}
	inside := interval.SetOf(0x0A000000, 0x0AFFFFFF)
	if p.Rules[0].Pred[fSrc].Overlaps(inside) {
		t.Fatal("negated source should exclude 10.0.0.0/8")
	}
}

func TestImportInsertPrepends(t *testing.T) {
	t.Parallel()
	text := `
-A INPUT -p tcp -j ACCEPT
-I INPUT -p tcp --dport 23 -j DROP
-P INPUT DROP
`
	p, err := parseIptables(text, "INPUT")
	if err != nil {
		t.Fatal(err)
	}
	// The -I rule must be first, so telnet is dropped.
	got, _, _ := p.Decide(rule.Packet{1, 2, 3, 23, 6})
	if got != rule.Discard {
		t.Fatalf("telnet = %v, want discard (insert order)", got)
	}
}

func TestImportMultiport(t *testing.T) {
	t.Parallel()
	p, err := parseIptables("-A INPUT -p tcp -m multiport --dports 25,80,8000:8080 -j ACCEPT\n-P INPUT DROP\n", "INPUT")
	if err != nil {
		t.Fatal(err)
	}
	want := interval.NewSet(interval.Point(25), interval.Point(80), interval.MustNew(8000, 8080))
	if !p.Rules[0].Pred[fDport].Equal(want) {
		t.Fatalf("dports = %v, want %v", p.Rules[0].Pred[fDport], want)
	}
}

func TestImportErrors(t *testing.T) {
	t.Parallel()
	bad := []string{
		"-A INPUT -s 10.0.0.0/8\n",                         // no target
		"-A INPUT -j LOG\n",                                // LOG unsupported
		"-A INPUT --teleport 9 -j ACCEPT\n",                // unknown option
		"-A INPUT ! -j ACCEPT\n",                           // dangling negation
		"-A INPUT -s banana -j ACCEPT\n",                   // bad CIDR
		"-A INPUT -p tcp --dport x -j ACCEPT\n",            // bad port
		"-A INPUT -s 10.0.0.0/8 ! -s 10.0.0.0/8 -j DROP\n", // conflicting matches
		"-Z INPUT\n", // unsupported directive
		"-P INPUT\n", // malformed policy
	}
	for _, text := range bad {
		if _, err := parseIptables(text, "INPUT"); err == nil {
			t.Errorf("parseIptables(%q) should fail", text)
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	t.Parallel()
	p, err := parseIptables(sampleConfig, "INPUT")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := exportIptables(&sb, p, "INPUT"); err != nil {
		t.Fatal(err)
	}
	q, err := parseIptables(sb.String(), "INPUT")
	if err != nil {
		t.Fatalf("reimport: %v\n%s", err, sb.String())
	}
	eq, err := compare.Equivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("round trip changed semantics:\n%s", sb.String())
	}
}

func TestExportSyntheticRoundTrip(t *testing.T) {
	t.Parallel()
	// Synthetic policies use multi-interval complements rarely, but their
	// sets exercise CIDR splitting; check a differential round trip.
	p := synth.Synthetic(synth.Config{Rules: 40, Seed: 21})
	var sb strings.Builder
	if err := exportIptables(&sb, p, "INPUT"); err != nil {
		t.Skipf("policy not expressible in the iptables subset: %v", err)
	}
	q, err := parseIptables(sb.String(), "INPUT")
	if err != nil {
		t.Fatalf("reimport: %v", err)
	}
	sm := packet.NewSampler(p.Schema, 31)
	for i := 0; i < 2000; i++ {
		pkt := sm.BiasedPair(p, q)
		want, _ := packet.Oracle(p, pkt)
		got, _ := packet.Oracle(q, pkt)
		if want != got {
			t.Fatalf("round trip differs on %v: %v vs %v", pkt, got, want)
		}
	}
}

func TestExportRejectsNonFiveTuple(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	s := paper.Schema() // five fields, but not the iptables five-tuple
	p := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	if err := exportIptables(&sb, p, "INPUT"); err == nil {
		t.Fatal("non-five-tuple schema should fail")
	}
}
