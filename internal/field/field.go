// Package field defines packet-field schemas: the ordered list of named
// fields, each with a finite integer domain, over which rules, packets, and
// FDDs are defined.
//
// Section 3.1 of the paper: a field F_i is a variable whose domain D(F_i)
// is a finite interval of nonnegative integers. A schema fixes the number,
// names, order, and domains of the fields; two policies can only be
// compared if they share a schema.
package field

import (
	"encoding/binary"
	"fmt"
	"strings"

	"diversefw/internal/interval"
)

// Kind describes how a field's values should be rendered in human-readable
// output (Section 7.1: IPs as prefixes, the rest as integers/intervals).
type Kind int

const (
	// KindInt renders values as plain integers and intervals.
	KindInt Kind = iota + 1
	// KindIPv4 renders values as dotted quads and intervals as CIDR lists.
	KindIPv4
	// KindPort renders values as port numbers (integers within [0, 65535]).
	KindPort
	// KindProto renders well-known protocol numbers symbolically (tcp/udp/icmp).
	KindProto
)

// Field is one packet field: a name plus a finite domain.
type Field struct {
	Name   string
	Domain interval.Interval
	Kind   Kind
}

// Schema is an ordered list of fields. The order is the total order used by
// ordered FDDs (Definition 4.1). Schemas are immutable after construction.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema validates and builds a schema. Field names must be nonempty and
// unique; every domain must start at 0 (the paper's domains are
// [0, 2^w - 1]; starting at zero keeps prefix conversion well-defined).
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("field: schema needs at least one field")
	}
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("field: field %d has empty name", i)
		}
		if _, dup := idx[f.Name]; dup {
			return nil, fmt.Errorf("field: duplicate field name %q", f.Name)
		}
		if f.Domain.Lo != 0 {
			return nil, fmt.Errorf("field: domain of %q must start at 0, got %v", f.Name, f.Domain)
		}
		if f.Kind < KindInt || f.Kind > KindProto {
			return nil, fmt.Errorf("field: field %q has invalid kind %d", f.Name, f.Kind)
		}
		idx[f.Name] = i
	}
	fs := make([]Field, len(fields))
	copy(fs, fields)
	return &Schema{fields: fs, index: idx}, nil
}

// MustSchema is like NewSchema but panics on error; for statically valid
// schema literals.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFields returns d, the number of fields.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field (0-based).
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// IndexOf returns the position of the named field, or -1 if absent.
func (s *Schema) IndexOf(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Domain returns the domain of the i-th field.
func (s *Schema) Domain(i int) interval.Interval { return s.fields[i].Domain }

// FullSet returns the i-th field's whole domain as a Set.
func (s *Schema) FullSet(i int) interval.Set {
	return interval.SetFromInterval(s.fields[i].Domain)
}

// Equal reports whether two schemas have identical fields in identical
// order (names, domains, and kinds).
func (s *Schema) Equal(other *Schema) bool {
	if s == other {
		return true
	}
	if other == nil || len(s.fields) != len(other.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != other.fields[i] {
			return false
		}
	}
	return true
}

// AppendKey appends a binary encoding of everything Equal compares to b
// and returns the extended slice: a uvarint field count, then per field
// its length-prefixed name, domain bounds and kind as uvarints. Equal
// schemas produce equal keys and the encoding is uniquely decodable, so
// it can lead a longer content key (see engine.PolicyHash).
func (s *Schema) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.fields)))
	for _, f := range s.fields {
		b = binary.AppendUvarint(b, uint64(len(f.Name)))
		b = append(b, f.Name...)
		b = binary.AppendUvarint(b, f.Domain.Lo)
		b = binary.AppendUvarint(b, f.Domain.Hi)
		b = binary.AppendUvarint(b, uint64(f.Kind))
	}
	return b
}

// String renders the schema as "name:domain" pairs.
func (s *Schema) String() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = fmt.Sprintf("%s:%v", f.Name, f.Domain)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Standard schemas.

const (
	maxIPv4  = 1<<32 - 1
	maxPort  = 1<<16 - 1
	maxProto = 1<<8 - 1
)

// IPv4FiveTuple returns the standard real-life firewall schema of Section
// 7.4: source IP, destination IP, source port, destination port, protocol.
func IPv4FiveTuple() *Schema {
	return MustSchema(
		Field{Name: "src", Domain: interval.MustNew(0, maxIPv4), Kind: KindIPv4},
		Field{Name: "dst", Domain: interval.MustNew(0, maxIPv4), Kind: KindIPv4},
		Field{Name: "sport", Domain: interval.MustNew(0, maxPort), Kind: KindPort},
		Field{Name: "dport", Domain: interval.MustNew(0, maxPort), Kind: KindPort},
		Field{Name: "proto", Domain: interval.MustNew(0, maxProto), Kind: KindProto},
	)
}

// PaperExample returns the 5-field schema of the paper's running example
// (Section 2): interface I in [0,1], source IP S, destination IP D,
// destination port N, and protocol type P in [0,1] (0 = TCP, 1 = UDP).
func PaperExample() *Schema {
	return MustSchema(
		Field{Name: "I", Domain: interval.MustNew(0, 1), Kind: KindInt},
		Field{Name: "S", Domain: interval.MustNew(0, maxIPv4), Kind: KindIPv4},
		Field{Name: "D", Domain: interval.MustNew(0, maxIPv4), Kind: KindIPv4},
		Field{Name: "N", Domain: interval.MustNew(0, maxPort), Kind: KindPort},
		Field{Name: "P", Domain: interval.MustNew(0, 1), Kind: KindInt},
	)
}

// FourTuple returns the four-field schema the paper notes most real-life
// firewalls examine (Section 7.4): source IP, destination IP, destination
// port, protocol.
func FourTuple() *Schema {
	return MustSchema(
		Field{Name: "src", Domain: interval.MustNew(0, maxIPv4), Kind: KindIPv4},
		Field{Name: "dst", Domain: interval.MustNew(0, maxIPv4), Kind: KindIPv4},
		Field{Name: "dport", Domain: interval.MustNew(0, maxPort), Kind: KindPort},
		Field{Name: "proto", Domain: interval.MustNew(0, maxProto), Kind: KindProto},
	)
}

// namedFive, namedFour and namedPaper are the schemas SchemaByName
// returns, built once: a Schema cannot change after it is built (its
// fields are unexported and Fields returns a copy), so every caller can
// share one value per name.
var (
	namedFive  = IPv4FiveTuple()
	namedFour  = FourTuple()
	namedPaper = PaperExample()
)

// SchemaByName resolves the schema names requests, journaled jobs and
// command-line flags carry, in any ASCII case: "five" (the default, also
// meant by ""), "four" and "paper". It allocates nothing on success.
func SchemaByName(name string) (*Schema, error) {
	switch {
	case name == "" || strings.EqualFold(name, "five"):
		return namedFive, nil
	case strings.EqualFold(name, "four"):
		return namedFour, nil
	case strings.EqualFold(name, "paper"):
		return namedPaper, nil
	default:
		return nil, fmt.Errorf("unknown schema %q", name)
	}
}
