package frontend

import (
	"bufio"
	"fmt"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/prefix"
	"diversefw/internal/rule"
)

// iptablesFrontend lowers one chain of the filter table from a practical
// subset of iptables-save syntax onto the five-tuple schema:
//
//	-A CHAIN [!] -s CIDR [!] -d CIDR -p tcp|udp|icmp
//	         --sport P[:Q] --dport P[:Q] -j ACCEPT|DROP|REJECT
//	-P CHAIN ACCEPT|DROP          (chain policy -> trailing catch-all)
//
// Lines for other chains are skipped; -I prepends as iptables does.
// Port lists from -m multiport (--sports/--dports a,b:c,d) are folded
// into one rule, since predicates here are arbitrary value sets — a
// faithful import that iptables itself needs an extension module for.
// Without a -P line the conventional default-deny is appended. The first
// bad line stops the parse with one diagnostic at that line.
type iptablesFrontend struct{}

func init() { register(iptablesFrontend{}) }

func (iptablesFrontend) Name() string { return "iptables" }
func (iptablesFrontend) Description() string {
	return "one chain of an iptables-save dump, five-tuple schema"
}

func (iptablesFrontend) Parse(schema *field.Schema, text string, opt Options) (*rule.Policy, error) {
	if err := requireFiveTuple("iptables", schema); err != nil {
		return nil, err
	}
	chain := opt.Chain
	if chain == "" {
		chain = "INPUT"
	}
	return parseIptables(text, chain)
}

// parseIptables lowers the named chain of an iptables-save dump.
func parseIptables(text, chain string) (*rule.Policy, error) {
	schema := field.IPv4FiveTuple()
	var rules []rule.Rule
	defaultDecision := rule.Discard
	fail := func(line int, err error) (*rule.Policy, error) {
		return nil, &ParseError{Format: "iptables", Diagnostics: []Diagnostic{
			{Line: line, Col: 1, Message: err.Error()},
		}}
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "*") || strings.HasPrefix(line, ":") || line == "COMMIT" {
			continue
		}
		line = strings.TrimPrefix(line, "iptables ")
		toks := strings.Fields(line)
		if len(toks) == 0 {
			continue
		}
		switch toks[0] {
		case "-P":
			if len(toks) != 3 {
				return fail(lineNo, fmt.Errorf("-P needs chain and target"))
			}
			if !strings.EqualFold(toks[1], chain) {
				continue
			}
			d, err := iptTarget(toks[2])
			if err != nil {
				return fail(lineNo, err)
			}
			defaultDecision = d
		case "-A", "-I":
			if len(toks) < 2 || !strings.EqualFold(toks[1], chain) {
				continue
			}
			rl, err := iptRule(schema, toks[2:])
			if err != nil {
				return fail(lineNo, err)
			}
			if toks[0] == "-I" {
				// -I prepends (insert at head) like iptables does.
				rules = append([]rule.Rule{rl}, rules...)
			} else {
				rules = append(rules, rl)
			}
		default:
			return fail(lineNo, fmt.Errorf("unsupported directive %q", toks[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return fail(1, fmt.Errorf("iptables: read: %w", err))
	}
	rules = append(rules, rule.CatchAll(schema, defaultDecision))
	p, err := rule.NewPolicy(schema, rules)
	if err != nil {
		return fail(1, err)
	}
	return p, nil
}

// iptTarget maps iptables targets to decisions.
func iptTarget(t string) (rule.Decision, error) {
	switch strings.ToUpper(t) {
	case "ACCEPT":
		return rule.Accept, nil
	case "DROP", "REJECT":
		return rule.Discard, nil
	case "LOG":
		return 0, fmt.Errorf("LOG is a non-terminating target; not representable as a decision")
	default:
		return 0, fmt.Errorf("unsupported target %q", t)
	}
}

// iptRule parses the match/target options of one -A line.
func iptRule(schema *field.Schema, toks []string) (rule.Rule, error) {
	pred := rule.FullPredicate(schema)
	var decision rule.Decision
	negate := false

	setField := func(fi int, s interval.Set) error {
		if negate {
			s = s.ComplementWithin(schema.Domain(fi))
			negate = false
		}
		if s.Empty() {
			return fmt.Errorf("field %s match is empty", schema.Field(fi).Name)
		}
		pred[fi] = pred[fi].Intersect(s)
		if pred[fi].Empty() {
			return fmt.Errorf("field %s matches conflict", schema.Field(fi).Name)
		}
		return nil
	}

	i := 0
	next := func(opt string) (string, error) {
		i++
		if i >= len(toks) {
			return "", fmt.Errorf("%s needs an argument", opt)
		}
		return toks[i], nil
	}
	for ; i < len(toks); i++ {
		switch toks[i] {
		case "!":
			negate = true
		case "-s", "--source", "-d", "--destination":
			opt := toks[i]
			arg, err := next(opt)
			if err != nil {
				return rule.Rule{}, err
			}
			iv, err := prefix.ParseCIDR(arg)
			if err != nil {
				return rule.Rule{}, err
			}
			fi := fSrc
			if opt == "-d" || opt == "--destination" {
				fi = fDst
			}
			if err := setField(fi, interval.SetFromInterval(iv)); err != nil {
				return rule.Rule{}, err
			}
		case "-p", "--protocol":
			arg, err := next("-p")
			if err != nil {
				return rule.Rule{}, err
			}
			s, err := rule.ParseValueSet(schema.Field(fProto), strings.ToLower(arg))
			if err != nil {
				return rule.Rule{}, err
			}
			if err := setField(fProto, s); err != nil {
				return rule.Rule{}, err
			}
		case "--sport", "--sports", "--source-port", "--source-ports":
			arg, err := next("--sport")
			if err != nil {
				return rule.Rule{}, err
			}
			s, err := iptPorts(arg)
			if err != nil {
				return rule.Rule{}, err
			}
			if err := setField(fSport, s); err != nil {
				return rule.Rule{}, err
			}
		case "--dport", "--dports", "--destination-port", "--destination-ports":
			arg, err := next("--dport")
			if err != nil {
				return rule.Rule{}, err
			}
			s, err := iptPorts(arg)
			if err != nil {
				return rule.Rule{}, err
			}
			if err := setField(fDport, s); err != nil {
				return rule.Rule{}, err
			}
		case "-m", "--match":
			// Match extensions (multiport, comment, ...) carry no
			// semantics themselves; their options follow and are handled
			// above.
			if _, err := next("-m"); err != nil {
				return rule.Rule{}, err
			}
		case "--comment":
			if _, err := next("--comment"); err != nil {
				return rule.Rule{}, err
			}
		case "-j", "--jump":
			arg, err := next("-j")
			if err != nil {
				return rule.Rule{}, err
			}
			d, err := iptTarget(arg)
			if err != nil {
				return rule.Rule{}, err
			}
			decision = d
		case "-i", "--in-interface", "-o", "--out-interface":
			// Interface matches are outside the five-tuple schema; accept
			// and ignore them (the paper's example folds interfaces into a
			// field; the five-tuple schema does not carry one).
			if _, err := next(toks[i]); err != nil {
				return rule.Rule{}, err
			}
		default:
			return rule.Rule{}, fmt.Errorf("unsupported option %q", toks[i])
		}
	}
	if decision == 0 {
		return rule.Rule{}, fmt.Errorf("rule has no -j target")
	}
	if negate {
		return rule.Rule{}, fmt.Errorf("dangling '!'")
	}
	return rule.Rule{Pred: pred, Decision: decision}, nil
}

// iptPorts parses "25", "1024:65535", and multiport lists
// "25,80,1000:2000" into a value set.
func iptPorts(arg string) (interval.Set, error) {
	var ivs []interval.Interval
	for _, part := range strings.Split(arg, ",") {
		part = strings.ReplaceAll(strings.TrimSpace(part), ":", "-")
		iv, err := prefix.ParsePortRange(part)
		if err != nil {
			return interval.Set{}, err
		}
		ivs = append(ivs, iv)
	}
	if len(ivs) == 0 {
		return interval.Set{}, fmt.Errorf("empty port list %q", arg)
	}
	return interval.NewSet(ivs...), nil
}
