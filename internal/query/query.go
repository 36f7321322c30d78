// Package query implements firewall queries — the SQL-like analysis the
// paper's reference [20] ("Firewall Queries", Liu, Gouda, Ma & Ngu)
// builds on FDDs and that Section 1.4 positions as design-phase tooling
// complementary to diverse design: each team can interrogate its own
// policy ("which hosts can reach the mail server?", "is anything from the
// malicious domain accepted?") before cross comparison.
//
// A query has the form
//
//	SELECT F_i FROM f WHERE F_1 ∈ S_1 ∧ ... ∧ F_d ∈ S_d AND decision = dec
//
// and returns the set of values of field F_i carried by packets that
// satisfy the condition and receive the decision. Evaluation walks the
// policy's FDD once, intersecting edge labels with the query condition —
// exact, like everything else in this repository.
package query

import (
	"fmt"
	"strings"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// Query is a firewall query.
type Query struct {
	// Select is the index of the field whose values are collected.
	Select int
	// Where restricts the packets considered; use rule.FullPredicate for
	// no restriction, or narrow individual fields.
	Where rule.Predicate
	// Decision filters on the firewall's decision for the packet.
	Decision rule.Decision
}

// Run evaluates the query against the FDD and returns the exact set of
// values of the selected field over all matching packets.
func Run(f *fdd.FDD, q Query) (interval.Set, error) {
	if q.Select < 0 || q.Select >= f.Schema.NumFields() {
		return interval.Set{}, fmt.Errorf("query: select index %d out of range", q.Select)
	}
	if len(q.Where) != f.Schema.NumFields() {
		return interval.Set{}, fmt.Errorf("query: condition has %d conjuncts, schema has %d fields",
			len(q.Where), f.Schema.NumFields())
	}
	if q.Decision <= 0 {
		return interval.Set{}, fmt.Errorf("query: invalid decision %d", int(q.Decision))
	}
	var result interval.Set
	// walk carries the current value set of the selected field along the
	// path (the intersection of the query condition with the path's
	// constraint on that field).
	var walk func(n *fdd.Node, selected interval.Set) bool
	walk = func(n *fdd.Node, selected interval.Set) bool {
		if n.IsTerminal() {
			if n.Decision == q.Decision {
				result = result.Union(selected)
				return true
			}
			return false
		}
		hit := false
		for _, e := range n.Edges {
			feasible := e.Label.Intersect(q.Where[n.Field])
			if feasible.Empty() {
				continue // no packet satisfying the condition takes this edge
			}
			childSelected := selected
			if n.Field == q.Select {
				childSelected = feasible
			}
			if walk(e.To, childSelected) {
				hit = true
			}
		}
		return hit
	}
	walk(f.Root, q.Where[q.Select])
	return result, nil
}

// RunPolicy is Run on a rule policy: the FDD is constructed internally.
func RunPolicy(p *rule.Policy, q Query) (interval.Set, error) {
	f, err := fdd.Construct(p)
	if err != nil {
		return interval.Set{}, err
	}
	return Run(f, q)
}

// Witness is a packet demonstrating a property violation.
type Witness struct {
	Packet   rule.Packet
	Decision rule.Decision
}

// Verify checks the property "every packet matching pred gets decision
// want". It returns nil if the property holds, or a counterexample packet
// otherwise. This is the guarded-command style spec check each team can
// run against its design before the comparison phase.
func Verify(f *fdd.FDD, pred rule.Predicate, want rule.Decision) (*Witness, error) {
	if len(pred) != f.Schema.NumFields() {
		return nil, fmt.Errorf("query: predicate has %d conjuncts, schema has %d fields",
			len(pred), f.Schema.NumFields())
	}
	// Walk the diagram, keeping one representative value per field.
	witness := make(rule.Packet, f.Schema.NumFields())
	for i, s := range pred {
		v, ok := s.Min()
		if !ok {
			return nil, fmt.Errorf("query: field %s condition is empty", f.Schema.Field(i).Name)
		}
		witness[i] = v
	}
	var walk func(n *fdd.Node, w rule.Packet) *Witness
	walk = func(n *fdd.Node, w rule.Packet) *Witness {
		if n.IsTerminal() {
			if n.Decision != want {
				out := make(rule.Packet, len(w))
				copy(out, w)
				return &Witness{Packet: out, Decision: n.Decision}
			}
			return nil
		}
		for _, e := range n.Edges {
			feasible := e.Label.Intersect(pred[n.Field])
			if feasible.Empty() {
				continue
			}
			v, _ := feasible.Min()
			saved := w[n.Field]
			w[n.Field] = v
			if bad := walk(e.To, w); bad != nil {
				return bad
			}
			w[n.Field] = saved
		}
		return nil
	}
	return walk(f.Root, witness), nil
}

// VerifyPolicy is Verify on a rule policy.
func VerifyPolicy(p *rule.Policy, pred rule.Predicate, want rule.Decision) (*Witness, error) {
	f, err := fdd.Construct(p)
	if err != nil {
		return nil, err
	}
	return Verify(f, pred, want)
}

// Parse parses the textual query form
//
//	select <field> [where <conjuncts>] decision <dec>
//
// where <conjuncts> uses the rule text syntax ("src in 10.0.0.0/8 &&
// dport in 25"); omitting the where clause means all packets, and a
// where clause with no conjuncts is an error. Keywords match
// case-insensitively.
func Parse(schema *field.Schema, text string) (Query, error) {
	if !strings.HasPrefix(asciiLower(text), "select ") {
		return Query{}, fmt.Errorf("query: must start with 'select'")
	}
	rest := strings.TrimSpace(text[len("select "):])
	lower := asciiLower(rest)
	decPos := strings.LastIndex(lower, " decision ")
	if decPos < 0 {
		return Query{}, fmt.Errorf("query: missing 'decision'")
	}
	fieldName := strings.TrimSpace(rest[:decPos])
	whereText := "any"
	// The " where " marker may end on the space that opens " decision ",
	// so it is searched up to and including that space.
	wherePos := strings.Index(lower[:decPos+1], " where ")
	if wherePos >= 0 {
		fieldName = strings.TrimSpace(rest[:wherePos])
		whereText = strings.TrimSpace(rest[min(wherePos+len(" where "), decPos):decPos])
	}
	decText := strings.TrimSpace(rest[decPos+len(" decision "):])

	sel := schema.IndexOf(fieldName)
	if sel < 0 {
		return Query{}, fmt.Errorf("query: unknown field %q", fieldName)
	}
	dec, err := rule.ParseDecision(decText)
	if err != nil {
		return Query{}, err
	}
	if whereText == "" {
		return Query{}, fmt.Errorf("query: empty where clause")
	}
	// The where clause is exactly a rule predicate; reuse the rule parser.
	cond, err := rule.ParseRule(schema, whereText+" -> accept")
	if err != nil {
		return Query{}, err
	}
	return Query{Select: sel, Where: cond.Pred, Decision: dec}, nil
}

// asciiLower lowercases ASCII letters only, so every byte offset into
// the result is an offset into s (strings.ToLower may change the length
// of non-ASCII text).
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
