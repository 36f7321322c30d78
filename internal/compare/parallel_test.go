package compare

import (
	"context"
	"runtime"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/synth"
)

// withProcs runs fn with GOMAXPROCS raised to n, so the parallel
// shape/compare fan-out paths execute with real multi-worker pools even
// on single-CPU machines (and are interleaved by the race detector
// under `go test -race`).
func withProcs(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestCrossCompareRace cross-compares 4 synthetic policies concurrently.
// It is the -race regression test for CrossCompare's bounded fan-out
// and for the concurrent construction underneath each pair.
func TestCrossCompareRace(t *testing.T) {
	policies := make([]*rule.Policy, 4)
	for i := range policies {
		policies[i] = synth.Synthetic(synth.Config{Rules: 40, Seed: int64(i + 1)})
	}
	withProcs(t, 4, func() {
		reports, err := CrossCompare(policies)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 6 {
			t.Fatalf("got %d pair reports, want 6", len(reports))
		}
		// Deterministic (i, j) order regardless of scheduling.
		k := 0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if reports[k].I != i || reports[k].J != j {
					t.Fatalf("report %d is pair (%d, %d), want (%d, %d)",
						k, reports[k].I, reports[k].J, i, j)
				}
				k++
			}
		}
	})
}

// TestParallelPipelineMatchesSequential: the paper's stages on the
// shared fan-out (the per-root-edge shape walk and the sharded lockstep
// comparison) must produce exactly the report the single-worker path
// produces.
func TestParallelPipelineMatchesSequential(t *testing.T) {
	pa := synth.Synthetic(synth.Config{Rules: 120, Seed: 11})
	pb := synth.Synthetic(synth.Config{Rules: 120, Seed: 12})

	var seq, par *Report
	withProcs(t, 1, func() {
		r, err := lockstepDiff(context.Background(), pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		seq = r
	})
	withProcs(t, 4, func() {
		r, err := lockstepDiff(context.Background(), pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		par = r
	})

	if seq.RawPaths != par.RawPaths || seq.PathsCompared != par.PathsCompared {
		t.Fatalf("path counters differ: sequential (%d raw / %d total) vs parallel (%d raw / %d total)",
			seq.RawPaths, seq.PathsCompared, par.RawPaths, par.PathsCompared)
	}
	if len(seq.Discrepancies) != len(par.Discrepancies) {
		t.Fatalf("row counts differ: %d vs %d", len(seq.Discrepancies), len(par.Discrepancies))
	}
	for i := range seq.Discrepancies {
		s, p := seq.Discrepancies[i], par.Discrepancies[i]
		if s.A != p.A || s.B != p.B {
			t.Fatalf("row %d decisions differ", i)
		}
		for f := range s.Pred {
			if !s.Pred[f].Equal(p.Pred[f]) {
				t.Fatalf("row %d field %d differs: %v vs %v", i, f, s.Pred[f], p.Pred[f])
			}
		}
	}
}

// TestParallelShapeRace exercises the shaping worker pool directly on a
// pair with many root-edge pairs.
func TestParallelShapeRace(t *testing.T) {
	pa := synth.Synthetic(synth.Config{Rules: 60, Seed: 21})
	pb := synth.Synthetic(synth.Config{Rules: 60, Seed: 22})
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 4, func() {
		sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
		if err != nil {
			t.Fatal(err)
		}
		if !SemiIsomorphic(sa, sb) {
			t.Fatal("parallel shaping did not produce semi-isomorphic diagrams")
		}
		if err := sa.CheckInvariants(); err != nil {
			t.Fatalf("shaped A invariants: %v", err)
		}
		if err := sb.CheckInvariants(); err != nil {
			t.Fatalf("shaped B invariants: %v", err)
		}
	})
}
