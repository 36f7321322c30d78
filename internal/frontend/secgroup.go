package frontend

import (
	"encoding/json"
	"fmt"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// secgroup lowers cloud security-group JSON (the AWS
// describe-security-groups shape) onto the five-tuple schema:
//
//	{
//	  "GroupName": "web",
//	  "IpPermissions": [
//	    {"IpProtocol": "tcp", "FromPort": 443, "ToPort": 443,
//	     "IpRanges": [{"CidrIp": "0.0.0.0/0"}]}
//	  ]
//	}
//
// A bare permission array is also accepted. Each permission becomes one
// accept rule (source = union of its CidrIp ranges, destination port =
// FromPort..ToPort); security groups are default-deny, so the policy
// ends with a discard catch-all. IpProtocol "-1" means any protocol,
// and a missing or -1 port range means any port. Field names match
// case-insensitively, so lowercase AWS-CLI output works too.
type secgroup struct{}

func init() { register(secgroup{}) }

func (secgroup) Name() string { return "secgroup" }
func (secgroup) Description() string {
	return "cloud security-group JSON (AWS-style ingress permissions), five-tuple schema"
}

type sgRange struct {
	CidrIp      string
	Description string
}

type sgPerm struct {
	IpProtocol string
	FromPort   *int
	ToPort     *int
	IpRanges   []sgRange
}

type sgDoc struct {
	GroupName     string
	Description   string
	IpPermissions []sgPerm
}

func (secgroup) Parse(schema *field.Schema, text string, _ Options) (*rule.Policy, error) {
	if err := requireFiveTuple("secgroup", schema); err != nil {
		return nil, err
	}
	perms, derr := sgDecode(text)
	if derr != nil {
		return nil, &ParseError{Format: "secgroup", Diagnostics: []Diagnostic{*derr}}
	}
	var diags []Diagnostic
	addDiag := func(i int, format string, args ...interface{}) {
		if len(diags) < maxDiagnostics {
			diags = append(diags, Diagnostic{Line: 1, Col: 1,
				Message: fmt.Sprintf("permission %d: %s", i, fmt.Sprintf(format, args...))})
		}
	}
	var rules []rule.Rule
	for i, perm := range perms {
		pred := rule.FullPredicate(schema)

		proto := strings.ToLower(strings.TrimSpace(perm.IpProtocol))
		isICMP := proto == "icmp" || proto == "icmpv6" || proto == "1" || proto == "58"
		switch proto {
		case "", "-1":
			// any protocol
		default:
			s, err := rule.ParseValueSet(schema.Field(fProto), proto)
			if err != nil {
				addDiag(i, "bad IpProtocol %q: %v", perm.IpProtocol, err)
				continue
			}
			pred[fProto] = s
		}

		// FromPort/ToPort are ICMP type/code for icmp permissions, not
		// ports; the five-tuple model keeps those unconstrained.
		if !isICMP && (perm.FromPort != nil || perm.ToPort != nil) {
			lo, hi := 0, 65535
			if perm.FromPort != nil {
				lo = *perm.FromPort
			}
			if perm.ToPort != nil {
				hi = *perm.ToPort
			}
			if lo == -1 || hi == -1 {
				// AWS uses -1 for "all ports".
			} else {
				if lo < 0 || hi > 65535 || lo > hi {
					addDiag(i, "bad port range %d-%d", lo, hi)
					continue
				}
				iv, err := interval.New(uint64(lo), uint64(hi))
				if err != nil {
					addDiag(i, "bad port range %d-%d: %v", lo, hi, err)
					continue
				}
				pred[fDport] = interval.NewSet(iv)
			}
		}

		if len(perm.IpRanges) > 0 {
			src := interval.NewSet()
			bad := false
			for _, r := range perm.IpRanges {
				s, err := rule.ParseValueSet(schema.Field(fSrc), strings.TrimSpace(r.CidrIp))
				if err != nil {
					addDiag(i, "bad CidrIp %q: %v", r.CidrIp, err)
					bad = true
					break
				}
				src = src.Union(s)
			}
			if bad {
				continue
			}
			pred[fSrc] = src
		}

		rules = append(rules, rule.Rule{Pred: pred, Decision: rule.Accept})
	}
	if len(diags) > 0 {
		return nil, &ParseError{Format: "secgroup", Diagnostics: diags}
	}
	// Security groups are default-deny: anything no permission covers
	// is dropped.
	rules = append(rules, rule.CatchAll(schema, rule.Discard))
	return rule.NewPolicy(schema, rules)
}

// sgDecode accepts either the full describe-security-groups document or
// a bare permission array, with strict-but-case-insensitive fields.
func sgDecode(text string) ([]sgPerm, *Diagnostic) {
	trimmed := strings.TrimLeftFunc(text, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	if strings.HasPrefix(trimmed, "[") {
		var perms []sgPerm
		if err := json.Unmarshal([]byte(text), &perms); err != nil {
			return nil, sgJSONDiag(text, err)
		}
		return perms, nil
	}
	var doc sgDoc
	if err := json.Unmarshal([]byte(text), &doc); err != nil {
		return nil, sgJSONDiag(text, err)
	}
	return doc.IpPermissions, nil
}

// sgJSONDiag converts encoding/json's byte offsets into line/column
// diagnostics against the original text.
func sgJSONDiag(text string, err error) *Diagnostic {
	var off int64
	switch e := err.(type) {
	case *json.SyntaxError:
		off = e.Offset
	case *json.UnmarshalTypeError:
		off = e.Offset
	}
	line, col := 1, 1
	if off > 0 && int(off) <= len(text) {
		head := text[:off]
		line = 1 + strings.Count(head, "\n")
		col = int(off) - strings.LastIndexByte(head, '\n')
	}
	return &Diagnostic{Line: line, Col: col, Message: err.Error()}
}
