package distribute

import (
	"fmt"
	"sort"

	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// Assignment is the result of a distribution algorithm.
type Assignment struct {
	// Algorithm names the producing algorithm ("DTB", "LPT", ...).
	Algorithm string
	// Reducers is the number of reduce partitions r.
	Reducers int
	// ComboReducer maps each combination (by index into the input slice)
	// to its reducer.
	ComboReducer []int
	// ReducerCombos lists, per reducer, the combination indexes it was
	// assigned, in assignment order (descending UB for DTB).
	ReducerCombos [][]int
	// BucketReducers maps each distinct bucket to the sorted set of
	// reducers that need a copy of its intervals. This drives the join
	// phase's map-side routing.
	BucketReducers map[stats.BucketKey][]int
	// ReducerResults is the candidate-result load per reducer
	// (Σ ω.nbRes over its combinations).
	ReducerResults []float64
	// ReplicatedRecords is the total number of interval records shipped
	// in the shuffle: Σ over buckets of |b| × (number of reducers
	// holding b). This is the I/O cost DTB's tie-breaking minimizes.
	ReplicatedRecords float64
}

// ResultImbalance returns max/avg of ReducerResults, the average taken
// over all r reducers (idle ones included) — the worst-case output
// imbalance the assignment allows.
func (a *Assignment) ResultImbalance() float64 {
	var max, sum float64
	n := 0
	for _, v := range a.ReducerResults {
		if v > max {
			max = v
		}
		sum += v
		n++
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(n))
}

// assignmentState tracks per-reducer load during construction. The
// distinct buckets of the input are numbered once; presence of bucket
// id on reducer rj is on[id*r+rj].
type assignmentState struct {
	a          *Assignment
	comboCount []int             // |Ω_rj|
	keys       []stats.BucketKey // bucket id -> identity
	ids        []int             // every combination's bucket ids, concatenated
	first      []int             // combination ci's ids are ids[first[ci]:first[ci+1]]
	on         []bool            // bucket id × reducer -> holds a copy
}

func newState(algorithm string, combos []topbuckets.Combo, r int) *assignmentState {
	s := &assignmentState{
		a: &Assignment{
			Algorithm:      algorithm,
			Reducers:       r,
			ComboReducer:   make([]int, len(combos)),
			ReducerCombos:  make([][]int, r),
			BucketReducers: make(map[stats.BucketKey][]int),
			ReducerResults: make([]float64, r),
		},
		comboCount: make([]int, r),
		first:      make([]int, len(combos)+1),
	}
	index := make(map[stats.BucketKey]int)
	for ci, c := range combos {
		for _, b := range c.Buckets {
			id, ok := index[b.Key()]
			if !ok {
				id = len(s.keys)
				index[b.Key()] = id
				s.keys = append(s.keys, b.Key())
			}
			s.ids = append(s.ids, id)
		}
		s.first[ci+1] = len(s.ids)
	}
	s.on = make([]bool, len(s.keys)*r)
	return s
}

// assign records combination comboIdx (with the given buckets and result
// count) on reducer rj, updating replication bookkeeping.
func (s *assignmentState) assign(comboIdx int, c topbuckets.Combo, rj int) {
	s.a.ComboReducer[comboIdx] = rj
	s.a.ReducerCombos[rj] = append(s.a.ReducerCombos[rj], comboIdx)
	s.a.ReducerResults[rj] += c.NbRes
	s.comboCount[rj]++
	ids := s.ids[s.first[comboIdx]:]
	for i, b := range c.Buckets {
		if at := ids[i]*s.a.Reducers + rj; !s.on[at] {
			s.on[at] = true
			s.a.ReplicatedRecords += float64(b.Count)
		}
	}
}

// finalize freezes the bucket→reducer sets in sorted order.
func (s *assignmentState) finalize() *Assignment {
	r := s.a.Reducers
	for id, key := range s.keys {
		var rs []int
		for rj, on := range s.on[id*r : (id+1)*r] {
			if on {
				rs = append(rs, rj)
			}
		}
		s.a.BucketReducers[key] = rs
	}
	return s.a
}

// inCost returns the input cost that assigning combination comboIdx to
// rj would *add*: the total cardinality of its buckets not yet present
// on rj.
//
// Note on fidelity: Algorithm 4 as printed defines inCost with
// Φ(rj, b) = 1 when b is already on rj and then minimizes it, which
// contradicts the accompanying prose ("selects the reducer that was
// already assigned the largest fraction of current ω ... favors
// assignments that reduce replication cost"). We follow the prose:
// minimize the *newly shipped* records, which is equivalent to
// maximizing the already-present fraction.
func (s *assignmentState) inCost(comboIdx int, c topbuckets.Combo, rj int) float64 {
	var cost float64
	ids := s.ids[s.first[comboIdx]:]
	for i, b := range c.Buckets {
		if !s.on[ids[i]*s.a.Reducers+rj] {
			cost += float64(b.Count)
		}
	}
	return cost
}

// sortIdx returns combination indexes ordered by less with a
// deterministic tie-break on the input order.
func sortIdx(n int, less func(i, j int) bool) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	return idx
}

// DTB implements DistributeTopBuckets (Algorithm 3). Combinations are
// processed in descending UB order; each goes to the reducer chosen by
// getReducer (Algorithm 4).
func DTB(combos []topbuckets.Combo, r int) (*Assignment, error) {
	if err := checkArgs(combos, r); err != nil {
		return nil, err
	}
	s := newState("DTB", combos, r)
	var totalRes float64
	for _, c := range combos {
		totalRes += c.NbRes
	}
	avgRes := totalRes / float64(r)
	order := sortIdx(len(combos), func(i, j int) bool { return combos[i].UB > combos[j].UB })
	for _, ci := range order {
		rj := s.getReducer(ci, combos[ci], avgRes)
		s.assign(ci, combos[ci], rj)
	}
	return s.finalize(), nil
}

// getReducer implements Algorithm 4: among reducers under the 2×avgRes
// result cap, restrict to those with the fewest assigned combinations,
// then pick the one with the lowest added input cost.
func (s *assignmentState) getReducer(comboIdx int, c topbuckets.Combo, avgRes float64) int {
	r := s.a.Reducers
	underCap := func(rj int) bool { return s.a.ReducerResults[rj] < 2*avgRes }
	// If every reducer is over the cap (degenerate: one combination
	// dwarfs the average), fall back to considering all of them.
	anyUnder := false
	for rj := 0; rj < r; rj++ {
		if underCap(rj) {
			anyUnder = true
			break
		}
	}
	eligible := func(rj int) bool { return !anyUnder || underCap(rj) }

	minAssigned := int(^uint(0) >> 1)
	for rj := 0; rj < r; rj++ {
		if eligible(rj) && s.comboCount[rj] < minAssigned {
			minAssigned = s.comboCount[rj]
		}
	}
	best, bestCost := -1, 0.0
	for rj := 0; rj < r; rj++ {
		if !eligible(rj) || s.comboCount[rj] != minAssigned {
			continue
		}
		cost := s.inCost(comboIdx, c, rj)
		if best == -1 || cost < bestCost {
			best, bestCost = rj, cost
		}
	}
	return best
}

// LPT is the baseline of §4.2.2: combinations in descending result-count
// order, each to the least result-loaded reducer. Scores are ignored.
func LPT(combos []topbuckets.Combo, r int) (*Assignment, error) {
	if err := checkArgs(combos, r); err != nil {
		return nil, err
	}
	s := newState("LPT", combos, r)
	order := sortIdx(len(combos), func(i, j int) bool { return combos[i].NbRes > combos[j].NbRes })
	for _, ci := range order {
		best := 0
		for rj := 1; rj < r; rj++ {
			if s.a.ReducerResults[rj] < s.a.ReducerResults[best] {
				best = rj
			}
		}
		s.assign(ci, combos[ci], best)
	}
	return s.finalize(), nil
}

// RoundRobin is an ablation: descending-UB order, reducer i%r. It shares
// DTB's score-awareness but ignores both balance and replication.
func RoundRobin(combos []topbuckets.Combo, r int) (*Assignment, error) {
	if err := checkArgs(combos, r); err != nil {
		return nil, err
	}
	s := newState("RoundRobin", combos, r)
	order := sortIdx(len(combos), func(i, j int) bool { return combos[i].UB > combos[j].UB })
	for pos, ci := range order {
		s.assign(ci, combos[ci], pos%r)
	}
	return s.finalize(), nil
}

func checkArgs(combos []topbuckets.Combo, r int) error {
	if r < 1 {
		return fmt.Errorf("distribute: need at least 1 reducer, got %d", r)
	}
	if len(combos) == 0 {
		return fmt.Errorf("distribute: no combinations to assign")
	}
	return nil
}

// Algorithm selects a distribution algorithm by name.
type Algorithm int

// The available distribution algorithms.
const (
	AlgDTB Algorithm = iota
	AlgLPT
	AlgRoundRobin
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgDTB:
		return "DTB"
	case AlgLPT:
		return "LPT"
	case AlgRoundRobin:
		return "RoundRobin"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Assign runs the selected algorithm.
func Assign(alg Algorithm, combos []topbuckets.Combo, r int) (*Assignment, error) {
	switch alg {
	case AlgDTB:
		return DTB(combos, r)
	case AlgLPT:
		return LPT(combos, r)
	case AlgRoundRobin:
		return RoundRobin(combos, r)
	}
	return nil, fmt.Errorf("distribute: unknown algorithm %d", int(alg))
}
