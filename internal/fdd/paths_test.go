package fdd

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/interval"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// TestNumPathsMatchesRules holds the memoized path count to the path
// enumeration on the package's policy corpus: the paper's teams,
// real-life-shaped, synthetic and adversarial policies, and the lowered
// frontend configs, both reduced and copied out as trees.
func TestNumPathsMatchesRules(t *testing.T) {
	t.Parallel()
	policies := map[string]*rule.Policy{
		"teamA":          paper.TeamA(),
		"teamB":          paper.TeamB(),
		"agreed":         paper.AgreedFirewall(),
		"adversarial(8)": synth.Adversarial(8),
		"synthetic(120)": synth.Synthetic(synth.Config{Rules: 120, Seed: 3}),
	}
	for seed := int64(1); seed <= 3; seed++ {
		policies[fmt.Sprintf("reallife(120, %d)", seed)] = synth.RealLife(120, seed)
	}
	schema := field.IPv4FiveTuple()
	for _, c := range []struct{ file, format string }{
		{"web-dmz.rules", "iptables"},
		{"home-router.nft", "nftables"},
		{"web-sg.json", "secgroup"},
	} {
		text, err := os.ReadFile(filepath.Join("..", "..", "testdata", "frontends", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if policies[c.file], err = frontend.Parse(c.format, schema, string(text), frontend.Options{}); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
	}
	for name, p := range policies {
		f, err := Construct(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := f.NumPaths(), len(f.Rules()); got != want {
			t.Errorf("%s: NumPaths %d, Rules %d", name, got, want)
		}
		tree := f.Clone()
		if got, want := tree.NumPaths(), len(tree.Rules()); got != want {
			t.Errorf("%s tree: NumPaths %d, Rules %d", name, got, want)
		}
	}
}

// TestNumPathsDiamondChain counts a diagram of 41 nodes and 2^40 paths
// with NumPaths and Stats: a chain of 40 two-way diamonds, each node's
// two edges rejoining at the next node. Counting per path would take
// hours.
func TestNumPathsDiamondChain(t *testing.T) {
	t.Parallel()
	const depth = 40
	fields := make([]field.Field, depth)
	for i := range fields {
		fields[i] = field.Field{Name: fmt.Sprintf("f%d", i), Domain: interval.MustNew(0, 1), Kind: field.KindInt}
	}
	n := Terminal(rule.Accept)
	for i := depth - 1; i >= 0; i-- {
		n = &Node{Field: i, Edges: []Edge{
			{Label: interval.SetOf(0, 0), To: n},
			{Label: interval.SetOf(1, 1), To: n},
		}}
	}
	f := &FDD{Schema: field.MustSchema(fields...), Root: n}
	start := time.Now()
	got := f.NumPaths()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("NumPaths took %v on %d nodes", elapsed, depth+1)
	}
	if got != 1<<depth {
		t.Fatalf("NumPaths = %d, want %d", got, 1<<depth)
	}
	start = time.Now()
	st := f.Stats()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Stats took %v on %d nodes", elapsed, depth+1)
	}
	if st.Paths != got || st.Depth != depth || st.Nodes != depth+1 || st.Terminals != 1 || st.Edges != 2*depth {
		t.Fatalf("Stats = %+v, want %d paths, depth %d, %d nodes, 1 terminal, %d edges", st, got, depth, depth+1, 2*depth)
	}
}
