// Package frontend is the multi-platform policy-input layer: a registry
// of named formats, each with a parser that lowers platform-specific
// configuration text onto the common rule.Policy IR the whole pipeline
// (FDD construction, shaping, comparison, resolution, anomaly analysis)
// operates on.
//
// Zaliva's "Platform-Independent Firewall Policy Representation" argues
// for exactly this shape: one abstract model, per-platform frontends.
// Because every frontend lowers to the same canonical IR — and the
// engine content-addresses compilations by that IR (engine.PolicyHash)
// — the same policy arriving as nftables ruleset text and as native
// rule DSL shares a single compiled FDD.
//
// Registered formats:
//
//	native    the rule text DSL (docs/FORMATS.md), any schema
//	iptables  one chain of an iptables-save dump, five-tuple schema
//	nftables  an nftables ruleset (tables/chains, verdicts, ip
//	          saddr/daddr, tcp/udp dport sets and ranges), five-tuple
//	secgroup  cloud security-group JSON (AWS-style ingress permission
//	          lists), five-tuple
//
// Parse failures carry structured line/column diagnostics
// (*ParseError), so API clients and CLIs can point at the offending
// spot of the original config rather than a lowered artifact.
package frontend

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/rule"
)

// Diagnostic is one structured parse finding: where in the source text
// the problem is (1-based; Col 1 when the frontend cannot narrow the
// column) and what it is.
type Diagnostic struct {
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// maxDiagnostics bounds the diagnostics one parse collects: enough to
// fix a config in one round trip, bounded so a megabyte of garbage
// cannot balloon the error envelope.
const maxDiagnostics = 20

// ParseError is the typed failure of a frontend parse: the format that
// rejected the text plus at least one positioned diagnostic.
type ParseError struct {
	Format      string
	Diagnostics []Diagnostic
}

// Error renders the first diagnostic, with a count of the rest.
func (e *ParseError) Error() string {
	if len(e.Diagnostics) == 0 {
		return fmt.Sprintf("%s: unparseable input", e.Format)
	}
	d := e.Diagnostics[0]
	msg := fmt.Sprintf("%s: line %d:%d: %s", e.Format, d.Line, d.Col, d.Message)
	if n := len(e.Diagnostics) - 1; n > 0 {
		msg += fmt.Sprintf(" (and %d more)", n)
	}
	return msg
}

// ErrUnknownFormat is wrapped by Lookup and Parse when the format name
// is not registered; the API maps it to the stable unsupported_format
// error code.
var ErrUnknownFormat = errors.New("unknown policy format")

// ErrSchema is wrapped when a frontend is asked to lower onto a schema
// it does not target (the platform formats are five-tuple only).
var ErrSchema = errors.New("format does not support this schema")

// Options tunes a parse for formats with more than one unit per file.
type Options struct {
	// Chain selects the chain to read for iptables ("INPUT" by default)
	// and nftables (the "input" chain, or the only chain, by default).
	// Ignored by native and secgroup.
	Chain string
}

// Frontend parses one policy format down to the rule IR.
type Frontend interface {
	// Name is the registry key and wire format name.
	Name() string
	// Description is a one-line summary for flag help and /v1/version.
	Description() string
	// Parse lowers text onto a policy over schema. Syntax failures are
	// *ParseError; schema mismatches wrap ErrSchema.
	Parse(schema *field.Schema, text string, opt Options) (*rule.Policy, error)
}

// registry maps format names to frontends. Registration happens in
// init functions of this package only, so no lock is needed: the map
// is read-only after package initialization.
var registry = map[string]Frontend{}

func register(f Frontend) {
	if _, dup := registry[f.Name()]; dup {
		panic("frontend: duplicate format " + f.Name())
	}
	registry[f.Name()] = f
}

// DefaultFormat is the format an empty format name resolves to.
const DefaultFormat = "native"

// Formats lists the registered format names: native first (it is the
// default and the canonical IR's own syntax), the rest sorted.
func Formats() []string {
	rest := make([]string, 0, len(registry)-1)
	for name := range registry {
		if name != DefaultFormat {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append([]string{DefaultFormat}, rest...)
}

// Lookup resolves a format name ("" means native). Unknown names wrap
// ErrUnknownFormat and list what is available.
func Lookup(name string) (Frontend, error) {
	if name == "" {
		name = DefaultFormat
	}
	f, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("frontend: %w %q (have: %s)",
			ErrUnknownFormat, name, strings.Join(Formats(), ", "))
	}
	return f, nil
}

// Parse resolves the format and lowers text in one call.
func Parse(format string, schema *field.Schema, text string, opt Options) (*rule.Policy, error) {
	f, err := Lookup(format)
	if err != nil {
		return nil, err
	}
	return f.Parse(schema, text, opt)
}

// Field indices of the five-tuple schema the platform formats target.
const (
	fSrc = iota
	fDst
	fSport
	fDport
	fProto
)

// requireFiveTuple is the schema gate shared by the platform formats.
func requireFiveTuple(name string, schema *field.Schema) error {
	if !schema.Equal(field.IPv4FiveTuple()) {
		return fmt.Errorf("frontend: %s: %w (needs the five-tuple schema)", name, ErrSchema)
	}
	return nil
}

// native is the rule text DSL — the IR's own syntax, and the only
// format that works over every schema. It runs rule.ParseLines so one
// parse reports every bad line at once, as line-positioned diagnostics.
type native struct{}

func init() { register(native{}) }

func (native) Name() string        { return "native" }
func (native) Description() string { return "rule text DSL (docs/FORMATS.md), any schema" }

func (native) Parse(schema *field.Schema, text string, _ Options) (*rule.Policy, error) {
	var diags []Diagnostic
	p, err := rule.ParseLines(schema, text, func(line int, err error) bool {
		diags = append(diags, Diagnostic{Line: line, Col: 1, Message: err.Error()})
		return len(diags) < maxDiagnostics
	})
	if len(diags) > 0 {
		return nil, &ParseError{Format: "native", Diagnostics: diags}
	}
	if err != nil {
		// Every parsed rule is well formed, so validation only fails
		// for a hand-rolled schema quirk.
		return nil, &ParseError{Format: "native", Diagnostics: []Diagnostic{
			{Line: 1, Col: 1, Message: err.Error()},
		}}
	}
	return p, nil
}
