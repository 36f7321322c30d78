package impact

import (
	"fmt"
	"strconv"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/rule"
)

// Edit script format
//
// One edit per line (or per -edit flag), applied in order:
//
//	insert 1: dport in 25 -> accept     # insert before rule 1 (1-based)
//	append: any -> discard              # insert at the end
//	delete 3
//	replace 2: src in 10.0.0.0/8 -> discard
//	swap 1 4
//
// Rule positions are 1-based, matching every report in this repository.

// stripComment removes a trailing '#' comment and surrounding space. A
// '#' opens a comment anywhere on the line — the same convention as the
// policy text format (see rule.ParsePolicy), so no parseable rule can
// contain one. Stripping happens exactly here: both entry points below
// delegate to parseEditLine, which assumes a comment-free line.
func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// ParseEdit parses one edit line.
func ParseEdit(schema *field.Schema, line string) (Edit, error) {
	return parseEditLine(schema, stripComment(line))
}

// parseEditLine parses one comment-free edit line.
func parseEditLine(schema *field.Schema, line string) (Edit, error) {
	if line == "" {
		return Edit{}, fmt.Errorf("impact: empty edit")
	}

	verb := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		verb, rest = line[:i], strings.TrimSpace(line[i+1:])
	}

	// Verbs with a "N: rule" payload.
	parseIndexed := func(kind EditKind, needRule bool) (Edit, error) {
		head, ruleText, hasRule := strings.Cut(rest, ":")
		head = strings.TrimSpace(head)
		if needRule && !hasRule {
			return Edit{}, fmt.Errorf("impact: %s needs \"<n>: <rule>\"", verb)
		}
		n, err := strconv.Atoi(head)
		if err != nil || n < 1 {
			return Edit{}, fmt.Errorf("impact: bad rule position %q", head)
		}
		e := Edit{Kind: kind, Index: n - 1}
		if needRule {
			r, err := rule.ParseRule(schema, strings.TrimSpace(ruleText))
			if err != nil {
				return Edit{}, err
			}
			e.Rule = r
		}
		return e, nil
	}

	switch strings.ToLower(verb) {
	case "insert":
		return parseIndexed(InsertRule, true)
	case "append:":
		// "append: <rule>" — no index.
		r, err := rule.ParseRule(schema, rest)
		if err != nil {
			return Edit{}, err
		}
		return Edit{Kind: InsertRule, Index: appendIndex, Rule: r}, nil
	case "append":
		// tolerate "append : rule" spacing
		_, ruleText, ok := strings.Cut(rest, ":")
		if !ok {
			return Edit{}, fmt.Errorf("impact: append needs \": <rule>\"")
		}
		r, err := rule.ParseRule(schema, strings.TrimSpace(ruleText))
		if err != nil {
			return Edit{}, err
		}
		return Edit{Kind: InsertRule, Index: appendIndex, Rule: r}, nil
	case "replace":
		return parseIndexed(ReplaceRule, true)
	case "delete":
		n, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil || n < 1 {
			return Edit{}, fmt.Errorf("impact: bad delete position %q", rest)
		}
		return Edit{Kind: DeleteRule, Index: n - 1}, nil
	case "swap":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return Edit{}, fmt.Errorf("impact: swap needs two positions")
		}
		i, err1 := strconv.Atoi(parts[0])
		j, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || i < 1 || j < 1 {
			return Edit{}, fmt.Errorf("impact: bad swap positions %q", rest)
		}
		return Edit{Kind: SwapRules, Index: i - 1, J: j - 1}, nil
	default:
		return Edit{}, fmt.Errorf("impact: unknown edit verb %q", verb)
	}
}

// appendIndex marks an insert at the end of the policy; Apply resolves it
// against the policy's current size.
const appendIndex = -1

// ParseEdits parses a multi-line edit script.
func ParseEdits(schema *field.Schema, script string) ([]Edit, error) {
	var out []Edit
	for ln, line := range strings.Split(script, "\n") {
		trimmed := stripComment(line)
		if trimmed == "" {
			continue
		}
		e, err := parseEditLine(schema, trimmed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// FormatEdit renders the edit in the script syntax ParseEdit accepts
// (1-based positions), and is its inverse up to whitespace.
func FormatEdit(schema *field.Schema, e Edit) string {
	switch e.Kind {
	case InsertRule:
		if e.Index == appendIndex {
			return "append: " + rule.FormatRule(schema, e.Rule)
		}
		return fmt.Sprintf("insert %d: %s", e.Index+1, rule.FormatRule(schema, e.Rule))
	case DeleteRule:
		return fmt.Sprintf("delete %d", e.Index+1)
	case ReplaceRule:
		return fmt.Sprintf("replace %d: %s", e.Index+1, rule.FormatRule(schema, e.Rule))
	case SwapRules:
		return fmt.Sprintf("swap %d %d", e.Index+1, e.J+1)
	default:
		return fmt.Sprintf("%s %d", e.Kind, e.Index+1)
	}
}
