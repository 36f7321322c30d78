package engine

import (
	"context"
	"runtime"
	"testing"

	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// liveHeap returns the heap bytes still allocated after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCompileChargeTracksHeap holds the compile cache's charge to the
// heap its entries really keep: cold compiles of 661-rule perturbations,
// parsed from native text as the server parses them, must leave a live
// heap within 2× of Stats().Compile.Bytes, in either direction.
func TestCompileChargeTracksHeap(t *testing.T) {
	const compiles = 64
	schema := field.IPv4FiveTuple()
	base := synth.RealLife(661, 1)
	texts := make([]string, compiles)
	for i := range texts {
		q, _ := synth.Perturb(base, 25, int64(i+1))
		texts[i] = rule.FormatPolicy(q)
	}
	e := New(Config{})
	before := liveHeap()
	for _, text := range texts {
		p, err := frontend.Parse("native", schema, text, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Compile(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	live := liveHeap() - before
	st := e.Stats()
	runtime.KeepAlive(e)
	if st.Compile.Entries != compiles {
		t.Fatalf("cache holds %d entries, want %d", st.Compile.Entries, compiles)
	}
	charged := st.Compile.Bytes
	t.Logf("per entry: live %d B, charged %d B (live/charged %.2f)",
		live/compiles, charged/compiles, float64(live)/float64(charged))
	if live > 2*charged || charged > 2*live {
		t.Fatalf("live heap %d B and charge %d B differ by more than 2x", live, charged)
	}
}
