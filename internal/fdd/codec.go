package fdd

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/rule"
)

// FDD text format
//
// A diagram file lets a team that designed its firewall directly as an
// FDD (Section 7.2) exchange it with the tooling. The format is
// line-based; node ids are arbitrary non-negative integers:
//
//	fdd v1
//	root 0
//	node 0 I
//	edge 0 0 1
//	edge 0 1 4
//	node 1 S
//	edge 1 224.168.0.0/16 2
//	edge 1 !224.168.0.0/16 3
//	terminal 2 discard
//	terminal 3 accept
//	terminal 4 accept
//
// Edge value sets use the rule text syntax for the source node's field.
// '#' starts a comment. Shared nodes (DAGs) serialize naturally since
// edges reference ids.

// Marshal writes the FDD in the text format. Shared subgraphs are written
// once.
func Marshal(w io.Writer, f *FDD) error {
	ids := make(map[*Node]int)
	var order []*Node
	var number func(n *Node)
	number = func(n *Node) {
		if _, ok := ids[n]; ok {
			return
		}
		ids[n] = len(ids)
		order = append(order, n)
		for _, e := range n.Edges {
			number(e.To)
		}
	}
	number(f.Root)

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "fdd v1")
	fmt.Fprintf(bw, "root %d\n", ids[f.Root])
	for _, n := range order {
		if n.IsTerminal() {
			fmt.Fprintf(bw, "terminal %d %s\n", ids[n], n.Decision)
			continue
		}
		fld := f.Schema.Field(n.Field)
		fmt.Fprintf(bw, "node %d %s\n", ids[n], fld.Name)
		for _, e := range n.Edges {
			fmt.Fprintf(bw, "edge %d %s %d\n", ids[n], rule.FormatValueSet(fld, e.Label), ids[e.To])
		}
	}
	return bw.Flush()
}

// Unmarshal reads an FDD in the text format and validates its semantic
// invariants (consistency, completeness; the diagram need not be ordered).
func Unmarshal(r io.Reader, schema *field.Schema) (*FDD, error) {
	type pendingEdge struct {
		from   int
		values string
		to     int
	}
	nodes := make(map[int]*Node)
	fieldOf := make(map[int]field.Field)
	var edges []pendingEdge
	root := -1
	sawHeader := false

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("fdd: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "fdd":
			if len(fields) != 2 || fields[1] != "v1" {
				return nil, fail("unsupported header %q", line)
			}
			sawHeader = true
		case "root":
			if len(fields) != 2 {
				return nil, fail("root needs one id")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad root id %q", fields[1])
			}
			root = id
		case "node":
			if len(fields) != 3 {
				return nil, fail("node needs id and field name")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad node id %q", fields[1])
			}
			if _, dup := nodes[id]; dup {
				return nil, fail("duplicate node id %d", id)
			}
			fi := schema.IndexOf(fields[2])
			if fi < 0 {
				return nil, fail("unknown field %q", fields[2])
			}
			nodes[id] = &Node{Field: fi}
			fieldOf[id] = schema.Field(fi)
		case "terminal":
			if len(fields) != 3 {
				return nil, fail("terminal needs id and decision")
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad terminal id %q", fields[1])
			}
			if _, dup := nodes[id]; dup {
				return nil, fail("duplicate node id %d", id)
			}
			d, err := rule.ParseDecision(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			nodes[id] = Terminal(d)
		case "edge":
			if len(fields) < 4 {
				return nil, fail("edge needs from, values, to")
			}
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad edge source %q", fields[1])
			}
			to, err := strconv.Atoi(fields[len(fields)-1])
			if err != nil {
				return nil, fail("bad edge target %q", fields[len(fields)-1])
			}
			values := strings.Join(fields[2:len(fields)-1], " ")
			edges = append(edges, pendingEdge{from: from, values: values, to: to})
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fdd: read: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("fdd: missing 'fdd v1' header")
	}
	if root < 0 {
		return nil, fmt.Errorf("fdd: missing root directive")
	}

	for _, e := range edges {
		from, ok := nodes[e.from]
		if !ok {
			return nil, fmt.Errorf("fdd: edge from undefined node %d", e.from)
		}
		if from.IsTerminal() {
			return nil, fmt.Errorf("fdd: edge from terminal node %d", e.from)
		}
		to, ok := nodes[e.to]
		if !ok {
			return nil, fmt.Errorf("fdd: edge to undefined node %d", e.to)
		}
		set, err := rule.ParseValueSet(fieldOf[e.from], e.values)
		if err != nil {
			return nil, fmt.Errorf("fdd: edge %d -> %d: %w", e.from, e.to, err)
		}
		from.Edges = append(from.Edges, Edge{Label: set, To: to})
	}

	rootNode, ok := nodes[root]
	if !ok {
		return nil, fmt.Errorf("fdd: root references undefined node %d", root)
	}
	f := &FDD{Schema: schema, Root: rootNode}
	if err := f.CheckSemanticInvariants(); err != nil {
		return nil, err
	}
	return f, nil
}
