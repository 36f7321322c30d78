package fdd

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// constructPolicies returns the policies of four diff-cold-shaped pairs:
// for each of four 661-rule real-life bases (the size of the paper's
// larger subject and of the served benchmark's bases), a variant with 3%
// of its rules perturbed and a 25% perturbation of that variant.
func constructPolicies() []*rule.Policy {
	var out []*rule.Policy
	for seed := int64(1); seed <= 4; seed++ {
		a, _ := synth.Perturb(synth.RealLife(661, seed), 3, 10*seed)
		b, _ := synth.Perturb(a, 25, 10*seed+1)
		out = append(out, a, b)
	}
	return out
}

// BenchmarkConstruct times one checkpointed construction per op (an
// edit base's), cycling over the policies of constructPolicies. Its
// bytes/op and allocs/op locate the construction's garbage.
func BenchmarkConstruct(b *testing.B) {
	pols := constructPolicies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewBuilder(pols[i%len(pols)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstructCold is BenchmarkConstruct for the build a cold
// compilation runs, which the served diff path pays for twice per cold
// request: trimmed at birth, taking no checkpoint.
func BenchmarkConstructCold(b *testing.B) {
	pols := constructPolicies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTrimmedBuilderContext(context.Background(), pols[i%len(pols)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuilderResident measures what a cached builder costs to keep:
// it retains 16 builders (each policy of constructPolicies twice, in
// separate families) and reports the live heap they hold, after a full
// collection, per node of their family stores. The policies are built
// before the first measurement, so only construction's own objects
// count: nodes, edges, labels and the stores' tables.
func BenchmarkBuilderResident(b *testing.B) {
	pols := constructPolicies()
	var ms runtime.MemStats
	var perNode float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		builders := make([]*Builder, 16)
		nodes := 0
		for j := range builders {
			bl, err := NewBuilder(pols[j%len(pols)])
			if err != nil {
				b.Fatal(err)
			}
			builders[j] = bl
			nodes += bl.StoreNodes()
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		perNode = float64(ms.HeapAlloc-before) / float64(nodes)
		runtime.KeepAlive(builders)
	}
	b.ReportMetric(perNode, "B/storenode")
}

// servedEdit returns base edited by 1-3 replace, delete, insert or swap
// edits, each at a position uniform over the rules before the catch-all,
// with payloads drawn from donor's: the served impact-edit workload's
// mix.
func servedEdit(tb testing.TB, r *rand.Rand, base, donor *rule.Policy) *rule.Policy {
	cur := base
	for k := 1 + r.Intn(3); k > 0; k-- {
		pos, payload := r.Intn(cur.Size()-1), donor.Rules[r.Intn(donor.Size()-1)]
		var err error
		switch r.Intn(4) {
		case 0:
			cur, err = cur.ReplaceRule(pos, payload)
		case 1:
			cur, err = cur.DeleteRule(pos)
		case 2:
			cur, err = cur.InsertRule(pos, payload)
		default:
			cur, err = cur.SwapRules(pos, r.Intn(cur.Size()-1))
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return cur
}

// BenchmarkResumeServedBase times one resume of an edited policy against
// a 661-rule base that has already served 2,000 edits, as a served edit
// base has: every resume promotes its diagram into the base's family
// store, which grows with the edits served, so a per-resume cost that
// grows with the store shows here and not in a fresh family.
func BenchmarkResumeServedBase(b *testing.B) {
	base, donor := synth.RealLife(661, 1), synth.RealLife(661, 2)
	bl, err := NewBuilder(base)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	for range 2000 {
		if _, _, err := bl.Resume(ctx, servedEdit(b, r, base, donor)); err != nil {
			b.Fatal(err)
		}
	}
	edited := make([]*rule.Policy, 64)
	for i := range edited {
		edited[i] = servedEdit(b, r, base, donor)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bl.Resume(ctx, edited[i%len(edited)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bl.StoreNodes()), "storenodes")
}

// TestConstructAllocs pins construction's garbage to the diagram it
// publishes: a RealLife(661) build makes at most two allocations per
// node of its final diagram (the store's slabs and tables grow by
// doubling, and the diagram is materialized in one slab each of nodes,
// edges and intervals), however many intermediate nodes its overlay
// interned on the way. One heap object per interned node would make ten
// times that.
func TestConstructAllocs(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := synth.RealLife(661, seed)
		ctx, tr := trace.New(context.Background(), "build", "allocs")
		b, err := NewBuilderContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		sp, ok := tr.Snapshot().Root.Find("construct")
		if !ok {
			t.Fatal("no construct span")
		}
		overlay := sp.Attrs["overlayNodes"].(int)
		nodes := b.FDD().Stats().Nodes
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := NewBuilder(p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("seed %d: %.0f allocations, %d diagram nodes, %d overlay nodes", seed, allocs, nodes, overlay)
		if allocs > float64(2*nodes) {
			t.Fatalf("seed %d: a build makes %.0f allocations for a diagram of %d nodes (%d overlay nodes), want at most %d",
				seed, allocs, nodes, overlay, 2*nodes)
		}
	}
}
