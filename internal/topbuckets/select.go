package topbuckets

import (
	"cmp"
	"sort"

	"tkij/internal/stats"
)

// This file implements the Top Buckets selection of Algorithm 1
// (getTopBuckets) in an order-insensitive, streaming form.
//
// Algorithm 1 computes kthResLB — a lower bound on the score of the k-th
// result — as the LB of the combination at which the cumulative result
// count of combinations, visited in descending-LB order, first reaches
// k. Equivalently (and independent of visit order):
//
//	kthResLB = max { t : Σ_{ω : ω.LB >= t} ω.nbRes >= k }
//
// It then keeps combinations whose UB clears that threshold.
//
// Two deliberate deviations from the printed pseudo-code, both noted in
// DESIGN.md:
//
//  1. Streaming. Ω is O(g^2n) and is never materialized; a bounded
//     min-heap retains just the descending-LB prefix covering k results,
//     and selection is a second streaming pass. Results are identical.
//  2. Tie correctness. The printed algorithm fills the selection in
//     descending-UB order until k results are collected, which under
//     score ties (UB == kthResLB but LB < kthResLB, common when scores
//     saturate at 1.0) can retain filler combinations while pruning the
//     very combinations whose LB established the threshold — breaking
//     Definition 2. We instead select {ω : ω.UB > kthResLB} ∪ H, where
//     H is the minimal descending-LB cover of k results (the set that
//     defined kthResLB). Every pruned ω then has UB <= kthResLB and H
//     certifies it: ∀ω' ∈ H, ω'.LB >= kthResLB >= ω.UB and
//     Σ_{H} nbRes >= k. This preserves the paper's observed behaviour
//     (e.g. a single combination selected for Qb,b) while making the
//     exactness guarantee robust to ties.

// lbCover is a min-heap over LB retaining the minimal descending-LB set
// of combinations covering at least k results. Every item owns its
// Buckets; spare is the tuple of the last item dropped, reused by the
// next item kept.
type lbCover struct {
	k     float64
	total float64
	items lbHeap
	spare []stats.Bucket
}

func newLBCover(k int) *lbCover { return &lbCover{k: float64(k)} }

// add offers one combination to the cover. cb.Buckets may be a buffer
// the caller reuses: add copies it only if the cover keeps cb.
func (c *lbCover) add(cb Combo) {
	at := c.items.push(cb)
	c.total += cb.NbRes
	for len(c.items) > 1 && c.total-c.items[0].NbRes >= c.k {
		c.total -= c.items[0].NbRes
		if at != 0 {
			c.spare = c.items[0].Buckets
		}
		at = c.items.pop(at)
	}
	if at >= 0 {
		c.items[at].Buckets = append(c.spare[:0], cb.Buckets...)
		c.spare = nil
	}
}

// threshold returns kthResLB: the minimum LB in the cover. When fewer
// than k results exist in total it degrades to the overall minimum LB,
// mirroring Algorithm 1's loop running to completion.
func (c *lbCover) threshold() float64 {
	if len(c.items) == 0 {
		return 0
	}
	return c.items[0].LB
}

// cover returns the covered combinations (H) in descending-LB order.
func (c *lbCover) cover() []Combo {
	out := append([]Combo(nil), c.items...)
	sortCombos(out, func(a, b Combo) bool { return a.LB > b.LB })
	return out
}

// lbHeap is a min-heap on LB. push and pop take container/heap's exact
// sift steps, so ties among equal LBs leave the same layout, and they
// follow one watched index through their swaps.
type lbHeap []Combo

// push adds c and returns its index.
func (h *lbHeap) push(c Combo) int {
	*h = append(*h, c)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].LB < s[i].LB) {
			return j
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes the minimum and returns the new index of the item at w,
// or -1 if that item was the one removed.
func (h *lbHeap) pop(w int) int {
	s := *h
	n := len(s) - 1
	w = s.swap(0, n, w)
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].LB < s[j].LB {
			j = j2
		}
		if !(s[j].LB < s[i].LB) {
			break
		}
		w = s.swap(i, j, w)
		i = j
	}
	s[n] = Combo{}
	*h = s[:n]
	if w == n {
		return -1
	}
	return w
}

// swap exchanges items i and j and returns where the item at w now is.
func (h lbHeap) swap(i, j, w int) int {
	h[i], h[j] = h[j], h[i]
	switch w {
	case i:
		return j
	case j:
		return i
	}
	return w
}

// sortCombos sorts with a deterministic tie-break on bucket identity.
func sortCombos(cs []Combo, less func(a, b Combo) bool) {
	sort.Slice(cs, func(i, j int) bool {
		if less(cs[i], cs[j]) {
			return true
		}
		if less(cs[j], cs[i]) {
			return false
		}
		return compareTuples(cs[i].Buckets, cs[j].Buckets) < 0
	})
}

// compareTuples orders bucket tuples field by field: Col, StartG, EndG
// of the first vertex, then of the next; a proper prefix sorts first.
// Counts are not part of a combination's identity.
func compareTuples(a, b []stats.Bucket) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		switch {
		case x.Col != y.Col:
			return cmp.Compare(x.Col, y.Col)
		case x.StartG != y.StartG:
			return cmp.Compare(x.StartG, y.StartG)
		case x.EndG != y.EndG:
			return cmp.Compare(x.EndG, y.EndG)
		}
	}
	return cmp.Compare(len(a), len(b))
}

// ComboSet is a set of combinations by identity: the bucket tuple,
// without counts or bounds. The plan cache uses it to match a
// combination across epochs (counts grow, bounds may be recomputed, the
// identity stays). Lookups allocate nothing. The zero value is empty.
type ComboSet struct {
	last    map[uint64]int   // tuple hash -> 1 + index of its latest member
	members [][]stats.Bucket // retained tuples, in insertion order
	prev    []int            // per member: 1 + index of the previous one with its hash, or 0
}

// Has reports whether a tuple equal to buckets is in the set.
func (s *ComboSet) Has(buckets []stats.Bucket) bool {
	for i := s.last[hashTuple(buckets)]; i > 0; i = s.prev[i-1] {
		if compareTuples(s.members[i-1], buckets) == 0 {
			return true
		}
	}
	return false
}

// Add inserts buckets, which the set retains, unless an equal tuple is
// already present.
func (s *ComboSet) Add(buckets []stats.Bucket) {
	if s.Has(buckets) {
		return
	}
	if s.last == nil {
		s.last = make(map[uint64]int)
	}
	h := hashTuple(buckets)
	s.members = append(s.members, buckets)
	s.prev = append(s.prev, s.last[h])
	s.last[h] = len(s.members)
}

// hashTuple is FNV-1a over the identity fields of every bucket.
func hashTuple(buckets []stats.Bucket) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range buckets {
		h = (h ^ uint64(b.Col)) * prime
		h = (h ^ uint64(b.StartG)) * prime
		h = (h ^ uint64(b.EndG)) * prime
	}
	return h
}

// SelectList runs Top Buckets selection over a materialized combination
// list (the brute-force and two-phase paths, and tests). It returns
// Ω_k,S sorted by descending UB.
func SelectList(k int, combos []Combo) []Combo {
	selected, _ := SelectWithThreshold(k, combos)
	return selected
}

// SelectWithThreshold is SelectList additionally returning kthResLB —
// the certified lower bound on the k-th result's score. The join phase
// uses it as a score floor: no result below it can reach the top-k.
func SelectWithThreshold(k int, combos []Combo) ([]Combo, float64) {
	s := newStreamSelector(k)
	for _, c := range combos {
		s.observe(c)
	}
	s.beginPick()
	for _, c := range combos {
		if s.clears(c) {
			s.keep(c)
		}
	}
	return s.finalize(), s.t
}

// streamSelector performs the selection over a two-pass stream: pass
// one feeds every combination to observe, pass two feeds every
// combination to pick, and finalize returns Ω_k,S. The two passes must
// present the same combinations (bounds may be recomputed). Both passes
// accept a Buckets slice the caller reuses; what the selector keeps, it
// copies.
type streamSelector struct {
	cover *lbCover
	t     float64
	// pass-two state
	selected []Combo
	seen     ComboSet
}

func newStreamSelector(k int) *streamSelector {
	return &streamSelector{cover: newLBCover(k)}
}

// observe is pass one: accumulate the LB cover.
func (s *streamSelector) observe(c Combo) { s.cover.add(c) }

// beginPick freezes the threshold and seeds the selection with H.
func (s *streamSelector) beginPick() {
	s.t = s.cover.threshold()
	for _, c := range s.cover.cover() {
		s.keep(c)
	}
}

// pick is pass two: keep every combination clearing the threshold.
func (s *streamSelector) pick(c Combo) {
	if s.clears(c) {
		c.Buckets = append([]stats.Bucket(nil), c.Buckets...)
		s.keep(c)
	}
}

// clears reports whether c is above the threshold and not yet selected.
func (s *streamSelector) clears(c Combo) bool {
	return c.UB > s.t && !s.seen.Has(c.Buckets)
}

// keep selects c, retaining c.Buckets.
func (s *streamSelector) keep(c Combo) {
	s.selected = append(s.selected, c)
	s.seen.Add(c.Buckets)
}

// finalize returns Ω_k,S sorted by descending UB.
func (s *streamSelector) finalize() []Combo {
	sortCombos(s.selected, func(a, b Combo) bool { return a.UB > b.UB })
	return s.selected
}
