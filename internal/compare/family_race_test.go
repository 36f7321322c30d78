package compare

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// editScript applies n random edits to p, drawn from r: each deletes a
// rule or flips its decision between accept and discard.
func editScript(p *rule.Policy, r *rand.Rand, n int) (*rule.Policy, error) {
	for ; n > 0; n-- {
		i := r.Intn(p.Size() - 1) // keep the catch-all
		var err error
		if r.Intn(2) == 0 {
			p, err = p.DeleteRule(i)
		} else {
			rl := p.Rules[i]
			if rl.Decision == rule.Accept {
				rl.Decision = rule.Discard
			} else {
				rl.Decision = rule.Accept
			}
			p, err = p.ReplaceRule(i, rl)
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// TestResumeFamilyRace runs one builder family from many goroutines at
// once: some Resume the base with distinct edit scripts, growing the
// family store and publishing new nodes through its id->node table
// under the family lock, while others walk the base against earlier
// results of the same family with DiffFDDsDirect, reading published
// nodes without the lock. Run under -race it proves a build shares no
// memory with what readers touch; the results must match scratch
// construction and the sequential reports.
func TestResumeFamilyRace(t *testing.T) {
	withProcs(t, 4, func() {
		p := synth.RealLife(240, 17)
		base, err := fdd.NewBuilder(p)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(17))
		var earlier []*fdd.FDD
		var reports []*Report
		for i := 0; i < 4; i++ {
			after, err := editScript(p, r, 1+i)
			if err != nil {
				t.Fatal(err)
			}
			nb, _, err := base.Resume(context.Background(), after)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := DiffFDDsDirect(base.FDD(), nb.FDD())
			if err != nil {
				t.Fatal(err)
			}
			earlier, reports = append(earlier, nb.FDD()), append(reports, rep)
		}
		scripts := make([][]*rule.Policy, 4)
		for g := range scripts {
			for j := 0; j < 3; j++ {
				after, err := editScript(p, r, 1+r.Intn(3))
				if err != nil {
					t.Fatal(err)
				}
				scripts[g] = append(scripts[g], after)
			}
		}

		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for _, script := range scripts {
			wg.Add(1)
			go func(script []*rule.Policy) {
				defer wg.Done()
				for _, after := range script {
					nb, _, err := base.Resume(context.Background(), after)
					if err != nil {
						errs <- err
						return
					}
					scratch, err := fdd.NewBuilder(after)
					if err != nil {
						errs <- err
						return
					}
					rep, err := DiffFDDsDirect(nb.FDD(), scratch.FDD())
					if err != nil {
						errs <- err
						return
					}
					if len(rep.Discrepancies) != 0 {
						errs <- fmt.Errorf("resumed diagram differs from scratch on %d regions", len(rep.Discrepancies))
						return
					}
				}
			}(script)
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					for i, f := range earlier {
						rep, err := DiffFDDsDirect(base.FDD(), f)
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(rep.Discrepancies, reports[i].Discrepancies) {
							errs <- fmt.Errorf("concurrent diff against result %d changed its rows", i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}
