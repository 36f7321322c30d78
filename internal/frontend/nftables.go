package frontend

import (
	"fmt"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// nftables lowers a practical subset of nftables ruleset text onto the
// five-tuple schema:
//
//	table <family> <name> {
//	    chain <name> {
//	        type filter hook input priority 0; policy drop;
//	        ip saddr 10.0.0.0/8 tcp dport { 22, 80, 8000-8080 } accept
//	        ip daddr != 192.168.0.1 udp dport 53 counter drop
//	    }
//	}
//
// Matches: ip saddr/daddr (CIDR, address, range, { sets }, != negation),
// ip protocol / meta l4proto, tcp/udp sport/dport (ports, ranges, sets —
// the protocol match is implied). Verdicts: accept, drop, reject (with
// reason tolerated). Counter and comment/log noise is skipped. The
// chain's policy verdict becomes the trailing catch-all; nftables base
// chains default to accept when no policy is stated. Statements end at
// a newline or ';' (sets may not span lines).
type nftables struct{}

func init() { register(nftables{}) }

func (nftables) Name() string { return "nftables" }
func (nftables) Description() string {
	return "nftables ruleset text (one chain), five-tuple schema"
}

// nfToken is one lexeme with its 1-based source position.
type nfToken struct {
	text      string
	line, col int
	punct     bool
	quoted    bool
}

// nftTokenize splits ruleset text into words, quoted strings, and the
// structural punctuation, tracking line/column. '#' comments run to end
// of line.
func nftTokenize(text string) []nfToken {
	var toks []nfToken
	for lineNo, line := range strings.Split(text, "\n") {
		i := 0
		for i < len(line) {
			c := line[i]
			switch {
			case c == ' ' || c == '\t' || c == '\r':
				i++
			case c == '#':
				i = len(line)
			case c == '{' || c == '}' || c == ';' || c == ',':
				toks = append(toks, nfToken{text: string(c), line: lineNo + 1, col: i + 1, punct: true})
				i++
			case c == '"':
				j := i + 1
				for j < len(line) && line[j] != '"' {
					j++
				}
				toks = append(toks, nfToken{text: line[i+1 : j], line: lineNo + 1, col: i + 1, quoted: true})
				if j < len(line) {
					j++
				}
				i = j
			default:
				j := i
				for j < len(line) && !strings.ContainsAny(string(line[j]), " \t\r{};,#\"") {
					j++
				}
				toks = append(toks, nfToken{text: line[i:j], line: lineNo + 1, col: i + 1})
				i = j
			}
		}
	}
	return toks
}

// nftChain is one parsed chain: its statements are lowered only if the
// chain is the one selected for import.
type nftChain struct {
	name    string
	tok     nfToken
	hasHook bool
	// policy is the chain's default verdict; 0 means none stated
	// (nftables base chains then default to accept).
	policy rule.Decision
	stmts  [][]nfToken
}

type nftParser struct {
	toks  []nfToken
	pos   int
	diags []Diagnostic
}

func (p *nftParser) diag(t nfToken, format string, args ...interface{}) {
	if len(p.diags) < maxDiagnostics {
		p.diags = append(p.diags, Diagnostic{Line: t.line, Col: t.col, Message: fmt.Sprintf(format, args...)})
	}
}

// eofToken positions end-of-input diagnostics after the last token.
func (p *nftParser) eofToken() nfToken {
	if len(p.toks) == 0 {
		return nfToken{line: 1, col: 1}
	}
	last := p.toks[len(p.toks)-1]
	return nfToken{line: last.line, col: last.col + len(last.text)}
}

func (nftables) Parse(schema *field.Schema, text string, opt Options) (*rule.Policy, error) {
	if err := requireFiveTuple("nftables", schema); err != nil {
		return nil, err
	}
	p := &nftParser{toks: nftTokenize(text)}
	chains := p.ruleset()
	chain, ok := p.selectChain(chains, opt.Chain)
	if !ok {
		return nil, &ParseError{Format: "nftables", Diagnostics: p.diags}
	}
	var rules []rule.Rule
	for _, stmt := range chain.stmts {
		if rl, ok := p.lowerStatement(schema, stmt); ok {
			rules = append(rules, rl)
		}
	}
	if len(p.diags) > 0 {
		return nil, &ParseError{Format: "nftables", Diagnostics: p.diags}
	}
	def := chain.policy
	if def == 0 {
		def = rule.Accept
	}
	rules = append(rules, rule.CatchAll(schema, def))
	return rule.NewPolicy(schema, rules)
}

// ruleset parses the table/chain structure, collecting every chain.
func (p *nftParser) ruleset() []*nftChain {
	var chains []*nftChain
	for p.pos < len(p.toks) {
		t := p.toks[p.pos]
		switch t.text {
		case "table":
			p.pos++
			// family and name words, then the table body.
			for i := 0; i < 2 && p.pos < len(p.toks) && !p.toks[p.pos].punct; i++ {
				p.pos++
			}
			if p.pos >= len(p.toks) || p.toks[p.pos].text != "{" {
				p.diag(t, "table needs a '{' body")
				continue
			}
			p.pos++
			chains = append(chains, p.tableBody()...)
		case "flush":
			// "flush ruleset" preludes are noise for a one-shot import.
			p.pos++
			if p.pos < len(p.toks) && p.toks[p.pos].text == "ruleset" {
				p.pos++
			}
		case ";":
			p.pos++
		default:
			p.diag(t, "expected 'table', got %q", t.text)
			p.pos++
		}
	}
	return chains
}

// tableBody parses chains until the table's closing brace.
func (p *nftParser) tableBody() []*nftChain {
	var chains []*nftChain
	for p.pos < len(p.toks) {
		t := p.toks[p.pos]
		switch {
		case t.punct && t.text == "}":
			p.pos++
			return chains
		case t.punct && t.text == ";":
			p.pos++
		case t.text == "chain":
			p.pos++
			if p.pos >= len(p.toks) || p.toks[p.pos].punct {
				p.diag(t, "chain needs a name")
				continue
			}
			ch := &nftChain{name: p.toks[p.pos].text, tok: p.toks[p.pos]}
			p.pos++
			if p.pos >= len(p.toks) || p.toks[p.pos].text != "{" {
				p.diag(ch.tok, "chain %s needs a '{' body", ch.name)
				continue
			}
			p.pos++
			p.chainBody(ch)
			chains = append(chains, ch)
		default:
			p.diag(t, "unsupported table element %q (only chains are understood)", t.text)
			p.pos++
		}
	}
	p.diag(p.eofToken(), "unexpected end of input: unclosed table")
	return chains
}

// chainBody splits the chain into statements and records the base-chain
// metadata (type/hook, policy) it finds.
func (p *nftParser) chainBody(ch *nftChain) {
	for p.pos < len(p.toks) {
		t := p.toks[p.pos]
		if t.punct && t.text == "}" {
			p.pos++
			return
		}
		if t.punct && t.text == ";" {
			p.pos++
			continue
		}
		stmt := p.statement()
		if len(stmt) == 0 {
			continue
		}
		switch stmt[0].text {
		case "type":
			// Base-chain declaration: "type filter hook input priority 0".
			for _, tk := range stmt {
				if tk.text == "hook" {
					ch.hasHook = true
				}
			}
		case "policy":
			if len(stmt) != 2 {
				p.diag(stmt[0], "policy needs exactly one verdict")
				continue
			}
			switch stmt[1].text {
			case "accept":
				ch.policy = rule.Accept
			case "drop":
				ch.policy = rule.Discard
			default:
				p.diag(stmt[1], "unsupported chain policy %q (accept or drop)", stmt[1].text)
			}
		default:
			ch.stmts = append(ch.stmts, stmt)
		}
	}
	p.diag(p.eofToken(), "unexpected end of input: unclosed chain %s", ch.name)
}

// statement gathers tokens until a ';', a newline outside a set brace,
// or the chain's closing '}' (left unconsumed).
func (p *nftParser) statement() []nfToken {
	var out []nfToken
	depth := 0
	line := p.toks[p.pos].line
	for p.pos < len(p.toks) {
		t := p.toks[p.pos]
		if depth == 0 && t.line != line && len(out) > 0 {
			return out
		}
		if t.punct {
			switch t.text {
			case ";":
				p.pos++
				return out
			case "{":
				depth++
			case "}":
				if depth == 0 {
					return out
				}
				depth--
			}
		}
		out = append(out, t)
		line = t.line
		p.pos++
	}
	return out
}

// selectChain picks the chain to lower: the named one, else the sole
// chain, else the hooked chain named "input", else the sole hooked one.
func (p *nftParser) selectChain(chains []*nftChain, want string) (*nftChain, bool) {
	if len(p.diags) > 0 {
		// Structural damage: report it rather than guessing at chains.
		return nil, false
	}
	if want != "" {
		for _, ch := range chains {
			if strings.EqualFold(ch.name, want) {
				return ch, true
			}
		}
		p.diag(nfToken{line: 1, col: 1}, "no chain %q in ruleset", want)
		return nil, false
	}
	if len(chains) == 1 {
		return chains[0], true
	}
	var hooked []*nftChain
	for _, ch := range chains {
		if strings.EqualFold(ch.name, "input") && ch.hasHook {
			return ch, true
		}
		if ch.hasHook {
			hooked = append(hooked, ch)
		}
	}
	if len(hooked) == 1 {
		return hooked[0], true
	}
	p.diag(nfToken{line: 1, col: 1}, "ruleset has %d chains; select one (chain option)", len(chains))
	return nil, false
}

// lowerStatement turns one rule statement into an IR rule. Failures are
// recorded as diagnostics; ok is false then and the caller moves on, so
// one parse reports every bad rule in the chain.
func (p *nftParser) lowerStatement(schema *field.Schema, stmt []nfToken) (rule.Rule, bool) {
	pred := rule.FullPredicate(schema)
	var dec rule.Decision

	setField := func(t nfToken, fi int, s interval.Set) bool {
		pred[fi] = pred[fi].Intersect(s)
		if pred[fi].Empty() {
			p.diag(t, "field %s matches conflict (empty intersection)", schema.Field(fi).Name)
			return false
		}
		return true
	}

	i := 0
	for i < len(stmt) {
		t := stmt[i]
		// Only bookkeeping noise (comment, counter, log) may trail the
		// verdict; further matches or verdicts are malformed.
		if dec != 0 && t.text != "comment" && t.text != "counter" && t.text != "log" {
			p.diag(t, "unexpected %q after verdict", t.text)
			return rule.Rule{}, false
		}
		switch t.text {
		case "ip":
			if i+1 >= len(stmt) {
				p.diag(t, "ip needs saddr, daddr, or protocol")
				return rule.Rule{}, false
			}
			sel := stmt[i+1]
			var fi int
			switch sel.text {
			case "saddr":
				fi = fSrc
			case "daddr":
				fi = fDst
			case "protocol":
				fi = fProto
			default:
				p.diag(sel, "unsupported ip selector %q", sel.text)
				return rule.Rule{}, false
			}
			s, next, ok := p.spec(schema, stmt, i+2, fi)
			if !ok || !setField(sel, fi, s) {
				return rule.Rule{}, false
			}
			i = next
		case "tcp", "udp":
			proto := uint64(6)
			if t.text == "udp" {
				proto = 17
			}
			if !setField(t, fProto, interval.NewSet(interval.Point(proto))) {
				return rule.Rule{}, false
			}
			if i+1 >= len(stmt) {
				p.diag(t, "%s needs sport or dport", t.text)
				return rule.Rule{}, false
			}
			sel := stmt[i+1]
			var fi int
			switch sel.text {
			case "sport":
				fi = fSport
			case "dport":
				fi = fDport
			default:
				p.diag(sel, "unsupported %s selector %q", t.text, sel.text)
				return rule.Rule{}, false
			}
			s, next, ok := p.spec(schema, stmt, i+2, fi)
			if !ok || !setField(sel, fi, s) {
				return rule.Rule{}, false
			}
			i = next
		case "meta":
			if i+1 >= len(stmt) || stmt[i+1].text != "l4proto" {
				p.diag(t, "only meta l4proto is understood")
				return rule.Rule{}, false
			}
			s, next, ok := p.spec(schema, stmt, i+2, fProto)
			if !ok || !setField(t, fProto, s) {
				return rule.Rule{}, false
			}
			i = next
		case "counter":
			// "counter" or "counter packets N bytes M" — bookkeeping noise.
			i++
			if i+1 < len(stmt) && stmt[i].text == "packets" {
				i += 2
				if i+1 < len(stmt) && stmt[i].text == "bytes" {
					i += 2
				}
			}
		case "comment":
			if i+1 >= len(stmt) {
				p.diag(t, "comment needs a string")
				return rule.Rule{}, false
			}
			i += 2
		case "log":
			i++
			if i+1 < len(stmt) && stmt[i].text == "prefix" {
				i += 2
			}
		case "accept":
			dec = rule.Accept
			i++
		case "drop":
			dec = rule.Discard
			i++
		case "reject":
			// "reject with icmp type ..." reasons don't change the decision.
			dec = rule.Discard
			i = len(stmt)
		case "jump", "goto", "return", "continue":
			p.diag(t, "unsupported verdict %q (only accept, drop, reject)", t.text)
			return rule.Rule{}, false
		default:
			p.diag(t, "unsupported match %q", t.text)
			return rule.Rule{}, false
		}
	}
	if dec == 0 {
		p.diag(stmt[0], "rule has no verdict")
		return rule.Rule{}, false
	}
	return rule.Rule{Pred: pred, Decision: dec}, true
}

// spec parses a value expression for the field: a single atom (CIDR,
// address, range, port, protocol name, number), an anonymous set
// "{ a, b, c }", either optionally negated with "!=". Returns the next
// token index past the expression.
func (p *nftParser) spec(schema *field.Schema, stmt []nfToken, i, fi int) (interval.Set, int, bool) {
	f := schema.Field(fi)
	neg := false
	if i < len(stmt) && stmt[i].text == "!=" {
		neg = true
		i++
	}
	if i >= len(stmt) {
		p.diag(p.eofStmt(stmt), "missing value for %s", f.Name)
		return interval.Set{}, i, false
	}
	at := stmt[i]
	var body string
	if at.punct && at.text == "{" {
		var atoms []string
		i++
		for i < len(stmt) && !(stmt[i].punct && stmt[i].text == "}") {
			if stmt[i].punct && stmt[i].text == "," {
				i++
				continue
			}
			if stmt[i].punct {
				p.diag(stmt[i], "unexpected %q in set", stmt[i].text)
				return interval.Set{}, i, false
			}
			atoms = append(atoms, stmt[i].text)
			i++
		}
		if i >= len(stmt) {
			p.diag(at, "unterminated set")
			return interval.Set{}, i, false
		}
		i++ // consume '}'
		if len(atoms) == 0 {
			p.diag(at, "empty set")
			return interval.Set{}, i, false
		}
		body = strings.Join(atoms, "|")
	} else if at.punct {
		p.diag(at, "unexpected %q, want a value for %s", at.text, f.Name)
		return interval.Set{}, i, false
	} else {
		body = at.text
		i++
	}
	// The atom grammar (CIDR, address range, decimal range, protocol
	// names) is exactly the rule DSL's value syntax.
	s, err := rule.ParseValueSet(f, body)
	if err != nil {
		p.diag(at, "%v", err)
		return interval.Set{}, i, false
	}
	if neg {
		s = s.ComplementWithin(f.Domain)
		if s.Empty() {
			p.diag(at, "negation of the full domain is empty for %s", f.Name)
			return interval.Set{}, i, false
		}
	}
	return s, i, true
}

// eofStmt positions a diagnostic just past a statement's last token.
func (p *nftParser) eofStmt(stmt []nfToken) nfToken {
	if len(stmt) == 0 {
		return nfToken{line: 1, col: 1}
	}
	last := stmt[len(stmt)-1]
	return nfToken{line: last.line, col: last.col + len(last.text)}
}
