package compare

import (
	"context"
	"fmt"
	"sync"

	"diversefw/internal/fdd"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// rowStats counts one rows call's work for the trace: the differing
// paths enumerated before the merge, and the merge's fixpoint rounds
// (full sweeps over the fields, the last of which merges nothing).
type rowStats struct {
	enumerated int
	rounds     int
}

// diffRows lists the merged rows of a difference diagram: every decision
// path whose terminal decision satisfies differs, in the order
// (*fdd.FDD).Rules enumerates them, coalesced to the fixpoint the paper's
// Table 3 rows come from (see rowSet.merge), each built by row. The pair
// diff and DiffN both end here; they differ only in what a terminal
// decision encodes.
//
// Paths that agree are never materialized, and a subtree with no
// differing terminal is walked once. The surviving rows' predicates
// share one exact-size allocation, so a cached report pins neither the
// enumeration's working set nor a merged-away row. A diagram with no
// differing path yields nil.
//
// The enumeration and the merge poll ctx (and its budget's latch and
// wall clock) every guard.PollEvery nodes or rows, and once more at the
// end; on a stop they return the wrapped error and no rows.
func diffRows[T any](ctx context.Context, diff *fdd.FDD, differs func(rule.Decision) bool,
	row func(rule.Predicate, rule.Decision) T) ([]T, rowStats, error) {
	nf := diff.Schema.NumFields()
	s := rowSets.Get().(*rowSet)
	defer s.release()
	s.nf, s.differs, s.m = nf, differs, guard.NewMeter(ctx)
	s.cur = resize(s.cur, nf)
	for f := range s.cur {
		s.cur[f] = s.addSet(f, diff.Schema.FullSet(f))
	}
	s.collect(diff.Root)
	st := rowStats{enumerated: len(s.dec)}
	st.rounds = s.merge()
	if err := s.m.Flush(); err != nil {
		return nil, st, fmt.Errorf("compare: rows %s: %w", guard.Verb(err), err)
	}
	return emitRows(s, row), st, nil
}

// rowSets pools the working sets of rows calls, so that enumerating and
// merging grow no slice in the steady state: what a call allocates is
// its unions and its output.
var rowSets = sync.Pool{New: func() any { return new(rowSet) }}

// maxPooledSets caps the sets a pooled working set keeps room for
// (24 bytes each); the working set of a larger call is dropped, so one
// huge report does not stay resident in the pool.
const maxPooledSets = 1 << 16

// release empties s, dropping every reference it holds into the
// diagram, and returns it to the pool.
func (s *rowSet) release() {
	if cap(s.sets) > maxPooledSets {
		return
	}
	clear(s.sets[:cap(s.sets)])
	*s = rowSet{sets: s.sets[:0], fields: s.fields[:0], dec: s.dec[:0],
		setHash: s.setHash[:0], sum: s.sum[:0], table: s.table[:0], cur: s.cur[:0]}
	rowSets.Put(s)
}

// resize returns b resized to n zero elements, reusing its array when it
// is large enough.
func resize[E any](b []E, n int) []E {
	if cap(b) < n {
		return make([]E, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// rowSet holds the rows of one rows call: row i has decision dec[i] and
// field f sets[fields[i*nf+f]]. Rows name their fields by index, so the
// rows themselves hold no pointers: a merge pass compacts them with
// plain copies, and two rows that share a path prefix compare equal on
// it without looking at the sets. The sets are the diagram's edge labels
// and the full domains, shared, never copied, and the unions merges
// make.
type rowSet struct {
	nf     int
	sets   []interval.Set
	fields []int32
	dec    []rule.Decision
	// setHash[k] is fieldHash of sets[k] under the field it belongs to
	// (each set belongs to one); sum[i] is row i's decision hash plus the
	// hashes of all its fields. Row i's group key for a merge on field f
	// is sum[i] minus the hash of its field f: a hash of everything but
	// field f, kept in O(1) as fields change.
	setHash []uint64
	sum     []uint64
	table   []groupSlot
	// hashOverride, when non-nil, replaces every group key. Tests use it
	// to force all rows into one probe chain, so that grouping rests on
	// the equality check alone.
	hashOverride func(key uint64) uint64

	// Enumeration state: cur names the sets of the path being walked,
	// differs selects the terminals kept, and dead records the
	// nonterminals below which no terminal differs.
	cur     []int32
	differs func(rule.Decision) bool
	dead    map[*fdd.Node]struct{}

	// m polls the caller's context; once it stops, the enumeration and
	// the merge unwind and the rows are discarded.
	m guard.Meter
}

// groupSlot is one open-addressing slot of a merge pass's group table:
// the group key and the head row's index plus one (0 marks it empty).
type groupSlot struct {
	key  uint64
	head int32
}

// collect appends the differing paths below n, in edge order, and
// reports whether there were any. A pair diff's diagram funnels all
// agreement into one terminal, so every nonterminal there has a
// differing path and dead stays nil; the other diagrams (lockstep
// terminals per agreeing decision, DiffN's agreeing vectors) can hold
// whole agreeing subtrees, each walked only the first time it is met.
func (s *rowSet) collect(n *fdd.Node) bool {
	if s.m.Tick() {
		return false
	}
	if n.IsTerminal() {
		if !s.differs(n.Decision) {
			return false
		}
		s.fields = append(s.fields, s.cur...)
		s.dec = append(s.dec, n.Decision)
		return true
	}
	if _, ok := s.dead[n]; ok {
		return false
	}
	saved := s.cur[n.Field]
	found := false
	for i := range n.Edges {
		k := s.addSet(n.Field, n.Edges[i].Label)
		s.cur[n.Field] = k
		if s.collect(n.Edges[i].To) {
			found = true
		} else {
			s.sets, s.setHash = s.sets[:k], s.setHash[:k] // no row names it
		}
	}
	s.cur[n.Field] = saved
	if !found {
		if s.dead == nil {
			s.dead = make(map[*fdd.Node]struct{})
		}
		s.dead[n] = struct{}{}
	}
	return found
}

// merge coalesces rows that are identical in their decision and in
// every field but one, unioning the differing field. Shaping slices the
// packet space finely (e.g. "port != 25" becomes the two paths [0,24]
// and [26,65535]); merging restores the human-readable rows the paper
// shows in Table 3. It sweeps the fields last to first, to a fixpoint,
// and returns the number of sweeps.
//
// The decision is the merge key's only decision part, so a caller
// encodes whatever identifies a row's outcome into it injectively: the
// pair code a<<pairShift | b for a pair diff, the interned vector id for
// DiffN.
func (s *rowSet) merge() int {
	if len(s.dec) <= 1 {
		return 0
	}
	nf := s.nf
	s.sum = resize(s.sum, len(s.dec))
	for i, d := range s.dec {
		sum := decisionHash(d)
		for _, k := range s.fields[i*nf : (i+1)*nf] {
			sum += s.setHash[k]
		}
		s.sum[i] = sum
	}
	size := 16
	for size < 2*len(s.dec) {
		size *= 2
	}
	s.table = resize(s.table, size)
	rounds := 0
	for changed := true; changed; {
		changed = false
		rounds++
		// Merge the last (most specific) fields first: coalescing e.g. the
		// protocol split before the source split is what recovers the
		// paper's Table 3 rows rather than an equally-minimal but less
		// natural partition.
		for f := nf - 1; f >= 0; f-- {
			if s.mergeField(f) {
				changed = true
			}
		}
	}
	return rounds
}

// mergeField is one pass of the merge on field f. Rows are scanned in
// order and compacted in place: a row whose group (decision and every
// field but f) already has a head is unioned into the head's field f
// and dropped, any other row becomes its group's head at the next free
// position. So every group keeps its first row's position, and its
// field f is the union of its members' in row order. It reports whether
// any row was merged.
func (s *rowSet) mergeField(f int) bool {
	nf := s.nf
	clear(s.table)
	mask := len(s.table) - 1
	w := 0
	for i := range s.dec {
		if s.m.Tick() {
			return false
		}
		key := s.sum[i] - s.setHash[s.fields[i*nf+f]]
		if s.hashOverride != nil {
			key = s.hashOverride(key)
		}
		k := int(key) & mask
		for ; s.table[k].head != 0; k = (k + 1) & mask {
			if s.table[k].key == key && s.sameGroup(int(s.table[k].head-1), i, f) {
				break
			}
		}
		if head := int(s.table[k].head) - 1; head >= 0 {
			hf := head*nf + f
			old := s.fields[hf]
			u := s.addSet(f, s.sets[old].Union(s.sets[s.fields[i*nf+f]]))
			s.fields[hf] = u
			s.sum[head] += s.setHash[u] - s.setHash[old]
			continue
		}
		s.table[k] = groupSlot{key: key, head: int32(w + 1)}
		if w != i {
			copy(s.fields[w*nf:(w+1)*nf], s.fields[i*nf:(i+1)*nf])
			s.dec[w], s.sum[w] = s.dec[i], s.sum[i]
		}
		w++
	}
	if w == len(s.dec) {
		return false
	}
	s.fields, s.dec, s.sum = s.fields[:w*nf], s.dec[:w], s.sum[:w]
	return true
}

// addSet adds set, a set of field f, and returns its index.
func (s *rowSet) addSet(f int, set interval.Set) int32 {
	s.sets = append(s.sets, set)
	s.setHash = append(s.setHash, fieldHash(f, set))
	return int32(len(s.sets) - 1)
}

// sameGroup reports whether rows h and i have one decision and equal
// fields everywhere but f.
func (s *rowSet) sameGroup(h, i, f int) bool {
	if s.dec[h] != s.dec[i] {
		return false
	}
	fh, fi := s.fields[h*s.nf:(h+1)*s.nf], s.fields[i*s.nf:(i+1)*s.nf]
	for g := range fh {
		if g != f && fh[g] != fi[g] && !s.sets[fh[g]].Equal(s.sets[fi[g]]) {
			return false
		}
	}
	return true
}

// emitRows builds the output rows, whose predicates are cut from one
// exact-size slab of the surviving fields.
func emitRows[T any](s *rowSet, row func(rule.Predicate, rule.Decision) T) []T {
	if len(s.dec) == 0 {
		return nil
	}
	nf := s.nf
	preds := make([]interval.Set, len(s.fields))
	for j, k := range s.fields {
		preds[j] = s.sets[k]
	}
	out := make([]T, len(s.dec))
	for i, d := range s.dec {
		out[i] = row(preds[i*nf:(i+1)*nf:(i+1)*nf], d)
	}
	return out
}

// fieldHash hashes field f's set so that sums of field hashes over
// different fields stay well spread: the set's FNV hash, seeded by the
// field index, through the splitmix64 finalizer.
func fieldHash(f int, s interval.Set) uint64 {
	return mix64(s.Hash(uint64(f+1) * 0x9e3779b97f4a7c15))
}

// decisionHash is a row decision's share of its group key.
func decisionHash(d rule.Decision) uint64 {
	return mix64(uint64(d) ^ 0xd6e8feb86659fd93)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
