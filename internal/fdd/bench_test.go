package fdd

import (
	"testing"

	"diversefw/internal/rule"
	"diversefw/internal/synth"
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

// BenchmarkConstruct times one construction per op, cycling over the
// policies of constructPolicies. Its bytes/op and allocs/op locate the
// construction's garbage, which the served diff path pays for twice per
// cold request.
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
