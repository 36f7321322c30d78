package frontend

import (
	"strings"
	"testing"

	"diversefw/internal/field"
	"diversefw/internal/rule"
)

// FuzzNftables checks that the nftables parser never panics, that every
// accepted ruleset lowers to a comprehensive policy (the synthesized
// catch-all), and that the lowered IR survives a native round trip —
// the property the cross-format cache keying rests on.
func FuzzNftables(f *testing.F) {
	seeds := []string{
		nftSample,
		"table ip t {\n chain c {\n tcp dport 22 accept\n }\n}\n",
		"table ip t {\n chain c {\n policy drop;\n }\n}\n",
		"table inet filter {\n chain input {\n type filter hook input priority 0; policy drop;\n ip saddr { 10.0.0.1, 10.0.0.2 } accept\n }\n}\n",
		"table ip t {\n chain c {\n ip saddr != 10.0.0.0/8 drop\n }\n}\n",
		"table ip t {\n chain c {\n meta l4proto tcp accept\n }\n}\n",
		"table ip t {\n chain c {\n counter packets 0 bytes 0 drop\n }\n}\n",
		"table ip t {\n chain c {\n reject with icmp type port-unreachable\n }\n}\n",
		"flush ruleset\n",
		"table ip t {\n chain c {\n tcp dport { } accept\n }\n}\n",
		"table ip t {\n chain c {\n tcp dport 22",
		"chain orphan { }\n",
		"table ip t { junk }\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := field.IPv4FiveTuple()
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse("nftables", schema, text, Options{})
		if err != nil {
			return
		}
		if !p.EndsWithCatchAll() {
			t.Fatalf("lowered policy lacks catch-all: %q", text)
		}
		rendered := rule.FormatPolicy(p)
		back, err := Parse("native", schema, rendered, Options{})
		if err != nil {
			t.Fatalf("lowered IR failed native round trip: %q -> %q: %v", text, rendered, err)
		}
		if rule.FormatPolicy(back) != rendered {
			t.Fatalf("native round trip not a fixpoint: %q vs %q", rendered, rule.FormatPolicy(back))
		}
	})
}

// FuzzSecgroup checks the security-group frontend the same way: no
// panics, comprehensive lowering, native round trip.
func FuzzSecgroup(f *testing.F) {
	seeds := []string{
		sgSample,
		`[{"IpProtocol": "tcp", "FromPort": 22, "ToPort": 22, "IpRanges": [{"CidrIp": "10.0.0.0/8"}]}]`,
		`[{"IpProtocol": "-1"}]`,
		`[{"IpProtocol": "icmp", "FromPort": 8, "ToPort": 0}]`,
		`[{"ipProtocol": "udp", "fromPort": 53, "toPort": 53, "ipRanges": [{"cidrIp": "0.0.0.0/0"}]}]`,
		`{"GroupName": "empty", "IpPermissions": []}`,
		`[{"IpProtocol": "tcp", "FromPort": 80, "ToPort": 22}]`,
		`[{"IpProtocol": "tcp", "IpRanges": [{"CidrIp": "bogus"}]}]`,
		`{"IpPermissions": [,]}`,
		`[`,
		`null`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := field.IPv4FiveTuple()
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse("secgroup", schema, text, Options{})
		if err != nil {
			return
		}
		if !p.EndsWithCatchAll() {
			t.Fatalf("lowered policy lacks catch-all: %q", text)
		}
		rendered := rule.FormatPolicy(p)
		if _, err := Parse("native", schema, rendered, Options{}); err != nil {
			t.Fatalf("lowered IR failed native round trip: %q -> %q: %v", text, rendered, err)
		}
	})
}

// FuzzImport checks that the iptables importer never panics and that
// accepted configurations survive an export/import round trip (verified
// by spot evaluation).
func FuzzImport(f *testing.F) {
	seeds := []string{
		"-P INPUT DROP\n-A INPUT -s 10.0.0.0/8 -j ACCEPT\n",
		"-A INPUT -d 192.168.0.1 -p tcp --dport 25 -j ACCEPT\n",
		"-A INPUT ! -s 10.0.0.0/8 -p tcp --dport 22 -j REJECT\n",
		"-I INPUT -p udp --sport 1024:65535 -j DROP\n",
		"-A INPUT -p tcp -m multiport --dports 25,80,8000:8080 -j ACCEPT\n",
		"*filter\n:INPUT DROP [0:0]\nCOMMIT\n",
		"-A INPUT -j LOG\n",
		"-A INPUT --dport -j ACCEPT\n",
		"-A FORWARD -j ACCEPT\n",
		"-P INPUT\n",
		"iptables -A INPUT -j ACCEPT\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := parseIptables(text, "INPUT")
		if err != nil {
			return
		}
		if !p.EndsWithCatchAll() {
			t.Fatalf("imported policy lacks catch-all: %q", text)
		}
		var sb strings.Builder
		if err := exportIptables(&sb, p, "INPUT"); err != nil {
			return // some imports are not re-exportable; fine
		}
		if _, err := parseIptables(sb.String(), "INPUT"); err != nil {
			t.Fatalf("exported config failed to reimport: %q -> %q: %v", text, sb.String(), err)
		}
	})
}
