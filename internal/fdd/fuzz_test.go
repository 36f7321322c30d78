package fdd

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// FuzzUnmarshal checks that the FDD file parser never panics (including
// on cyclic or inconsistent diagrams) and that anything it accepts passes
// the semantic invariants and re-marshals.
func FuzzUnmarshal(f *testing.F) {
	seeds := []string{
		"fdd v1\nroot 0\nterminal 0 accept\n",
		"fdd v1\nroot 0\nnode 0 I\nedge 0 0 1\nedge 0 1 2\nterminal 1 accept\nterminal 2 discard\n",
		"fdd v1\nroot 0\nnode 0 S\nedge 0 224.168.0.0/16 1\nedge 0 !224.168.0.0/16 2\nterminal 1 discard\nterminal 2 accept\n",
		"fdd v1\nroot 0\nnode 0 I\nnode 1 S\nedge 0 * 1\nedge 1 * 0\n", // cycle
		"fdd v1\nroot 9\n",
		"root 0\nterminal 0 accept\n",
		"fdd v1\nroot 0\nnode 0 I\nedge 0 0-1 1\nedge 0 1 1\nterminal 1 accept\n", // overlap
		"# comment only\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := paper.Schema()
	f.Fuzz(func(t *testing.T, text string) {
		fd, err := Unmarshal(strings.NewReader(text), schema)
		if err != nil {
			return
		}
		if err := fd.CheckSemanticInvariants(); err != nil {
			t.Fatalf("accepted diagram violates invariants: %v\n%q", err, text)
		}
		var sb strings.Builder
		if err := Marshal(&sb, fd); err != nil {
			t.Fatalf("accepted diagram failed to marshal: %v", err)
		}
		if _, err := Unmarshal(strings.NewReader(sb.String()), schema); err != nil {
			t.Fatalf("marshalled diagram failed to reparse: %v\n%s", err, sb.String())
		}
	})
}

// FuzzBuilderResume drives randomized edit sequences against a synthetic
// base policy and checks that resuming the base builder produces exactly
// the FDD scratch construction would: same failure behavior, and on
// success a graph-isomorphic diagram (reducing both roots into one fresh
// store must intern them to the same node — the reduced ordered form is
// canonical per decision function).
func FuzzBuilderResume(f *testing.F) {
	f.Add(int64(1), []byte{0x01, 0x42})
	f.Add(int64(2), []byte{0x83, 0x10, 0x22, 0x7f})
	f.Add(int64(3), []byte{0xff, 0xfe, 0xfd, 0xfc, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		n := 36 + int(uint64(seed)%48)
		before := synth.Synthetic(synth.Config{Rules: n, Seed: seed})
		after := before
		// Each op byte encodes an edit: two bits of kind, six of position.
		// Invalid edits (out of range after deletions) are skipped, like a
		// script author retrying; the donor rule for inserts/replaces comes
		// from the policy itself with a flipped decision, so it is always
		// schema-valid.
		for _, op := range ops {
			if after.Size() < 2 {
				break
			}
			pos := int(op>>2) % after.Size()
			donor := after.Rules[pos]
			donor.Decision = flip(donor.Decision)
			var next *rule.Policy
			var err error
			switch op & 3 {
			case 0:
				next, err = after.ReplaceRule(pos, donor)
			case 1:
				next, err = after.InsertRule(pos, donor)
			case 2:
				next, err = after.DeleteRule(pos)
			default:
				next, err = after.SwapRules(pos, (pos*7+1)%after.Size())
			}
			if err != nil {
				continue
			}
			after = next
		}
		base, err := NewBuilder(before)
		if err != nil {
			t.Fatalf("NewBuilder(before): %v", err)
		}
		resumed, st, rerr := base.Resume(context.Background(), after)
		scratch, serr := Construct(after)
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("resume err %v, scratch err %v", rerr, serr)
		}
		if rerr != nil {
			return
		}
		if st.CheckpointRules+st.RulesReappended != after.Size() {
			t.Fatalf("inconsistent stats %+v for %d rules", st, after.Size())
		}
		in := NewStore()
		if in.ReduceNode(after.Schema, resumed.FDD().Root) != in.ReduceNode(after.Schema, scratch.Root) {
			t.Fatalf("resumed FDD differs from scratch (seed %d, ops %x)", seed, ops)
		}
	})
}

// FuzzConstructMatchesReference holds construction on the pointer-free
// store to the Fig. 7 reference (referenceBuild): for a policy drawn
// from the adversarial family, a perturbed real-life policy or a
// perturbed frontend corpus policy, the builder's diagram and the
// reduced reference must be one node of the builder's family store,
// reducing the reference must add no node to it, and the effective bits
// must agree. A Resume after 1-3 random edits must land where a scratch
// build does (assertMatchesReference).
func FuzzConstructMatchesReference(f *testing.F) {
	schema := field.IPv4FiveTuple()
	var corpus []*rule.Policy
	for _, c := range []struct{ file, format string }{
		{"web-dmz.rules", "iptables"},
		{"home-router.nft", "nftables"},
		{"web-sg.json", "secgroup"},
	} {
		text, err := os.ReadFile(filepath.Join("..", "..", "testdata", "frontends", c.file))
		if err != nil {
			f.Fatal(err)
		}
		p, err := frontend.Parse(c.format, schema, string(text), frontend.Options{})
		if err != nil {
			f.Fatalf("%s: %v", c.file, err)
		}
		corpus = append(corpus, p)
	}
	// kind 0: synth.Adversarial(4 + n%21); kind 1: synth.RealLife(2 +
	// n%400, seed) perturbed by pct%60 percent; kind 2: corpus policy n%3
	// perturbed likewise.
	for _, n := range []uint16{4, 12, 20} {
		f.Add(uint8(0), n, int64(1), uint8(0))
	}
	for _, seed := range []int64{1, 2, 3} {
		f.Add(uint8(1), uint16(300), seed, uint8(3+10*seed))
	}
	for i := range corpus {
		f.Add(uint8(2), uint16(i), int64(i+1), uint8(0))
		f.Add(uint8(2), uint16(i), int64(i+1), uint8(50))
	}
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, seed int64, pct uint8) {
		var p *rule.Policy
		switch kind % 3 {
		case 0:
			p = synth.Adversarial(4 + int(n%21))
		case 1:
			p, _ = synth.Perturb(synth.RealLife(2+int(n%400), seed), float64(pct%60), seed+1)
		default:
			p, _ = synth.Perturb(corpus[int(n)%len(corpus)], float64(pct%60), seed)
		}
		assertMatchesReference(t, "fuzz", p, rand.New(rand.NewSource(seed)))
	})
}
