package distribute

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// This file keeps a reference implementation of DTB, LPT and
// RoundRobin as they stood when bucket placement was tracked in maps
// keyed by bucket identity. The production code numbers the distinct
// buckets and tracks placement in a dense slice; the tests below
// require it to emit exactly the reference's assignments.

type refState struct {
	a        *Assignment
	count    []int
	bucketOn map[stats.BucketKey]map[int]bool
}

func newRefState(algorithm string, nCombos, r int) *refState {
	return &refState{
		a: &Assignment{
			Algorithm:      algorithm,
			Reducers:       r,
			ComboReducer:   make([]int, nCombos),
			ReducerCombos:  make([][]int, r),
			BucketReducers: make(map[stats.BucketKey][]int),
			ReducerResults: make([]float64, r),
		},
		count:    make([]int, r),
		bucketOn: make(map[stats.BucketKey]map[int]bool),
	}
}

func (s *refState) assign(ci int, c topbuckets.Combo, rj int) {
	s.a.ComboReducer[ci] = rj
	s.a.ReducerCombos[rj] = append(s.a.ReducerCombos[rj], ci)
	s.a.ReducerResults[rj] += c.NbRes
	s.count[rj]++
	for _, b := range c.Buckets {
		on := s.bucketOn[b.Key()]
		if on == nil {
			on = make(map[int]bool)
			s.bucketOn[b.Key()] = on
		}
		if !on[rj] {
			on[rj] = true
			s.a.ReplicatedRecords += float64(b.Count)
		}
	}
}

func (s *refState) finalize() *Assignment {
	for key, on := range s.bucketOn {
		rs := make([]int, 0, len(on))
		for rj := range on {
			rs = append(rs, rj)
		}
		sort.Ints(rs)
		s.a.BucketReducers[key] = rs
	}
	return s.a
}

func (s *refState) inCost(c topbuckets.Combo, rj int) float64 {
	var cost float64
	for _, b := range c.Buckets {
		if !s.bucketOn[b.Key()][rj] {
			cost += float64(b.Count)
		}
	}
	return cost
}

func (s *refState) getReducer(c topbuckets.Combo, avgRes float64) int {
	r := s.a.Reducers
	underCap := func(rj int) bool { return s.a.ReducerResults[rj] < 2*avgRes }
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
		if eligible(rj) && s.count[rj] < minAssigned {
			minAssigned = s.count[rj]
		}
	}
	best, bestCost := -1, 0.0
	for rj := 0; rj < r; rj++ {
		if !eligible(rj) || s.count[rj] != minAssigned {
			continue
		}
		cost := s.inCost(c, rj)
		if best == -1 || cost < bestCost {
			best, bestCost = rj, cost
		}
	}
	return best
}

func refAssign(alg Algorithm, combos []topbuckets.Combo, r int) *Assignment {
	s := newRefState(alg.String(), len(combos), r)
	byUB := sortIdx(len(combos), func(i, j int) bool { return combos[i].UB > combos[j].UB })
	switch alg {
	case AlgDTB:
		var totalRes float64
		for _, c := range combos {
			totalRes += c.NbRes
		}
		for _, ci := range byUB {
			s.assign(ci, combos[ci], s.getReducer(combos[ci], totalRes/float64(r)))
		}
	case AlgLPT:
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
	case AlgRoundRobin:
		for pos, ci := range byUB {
			s.assign(ci, combos[ci], pos%r)
		}
	}
	return s.finalize()
}

// sameAssignment reports the first field in which got differs from
// want; float fields are compared bit for bit.
func sameAssignment(got, want *Assignment) error {
	switch {
	case got.Algorithm != want.Algorithm || got.Reducers != want.Reducers:
		return fmt.Errorf("%s/%d, want %s/%d", got.Algorithm, got.Reducers, want.Algorithm, want.Reducers)
	case !reflect.DeepEqual(got.ComboReducer, want.ComboReducer):
		return fmt.Errorf("ComboReducer %v, want %v", got.ComboReducer, want.ComboReducer)
	case !reflect.DeepEqual(got.ReducerCombos, want.ReducerCombos):
		return fmt.Errorf("ReducerCombos %v, want %v", got.ReducerCombos, want.ReducerCombos)
	case !reflect.DeepEqual(got.BucketReducers, want.BucketReducers):
		return fmt.Errorf("BucketReducers %v, want %v", got.BucketReducers, want.BucketReducers)
	case math.Float64bits(got.ReplicatedRecords) != math.Float64bits(want.ReplicatedRecords):
		return fmt.Errorf("ReplicatedRecords %v, want %v", got.ReplicatedRecords, want.ReplicatedRecords)
	}
	for rj := range want.ReducerResults {
		if math.Float64bits(got.ReducerResults[rj]) != math.Float64bits(want.ReducerResults[rj]) {
			return fmt.Errorf("ReducerResults %v, want %v", got.ReducerResults, want.ReducerResults)
		}
	}
	return nil
}

var algorithms = []Algorithm{AlgDTB, AlgLPT, AlgRoundRobin}

func TestAssignMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		combos := randCombos(rng, 1+rng.Intn(120), 1+rng.Intn(4), 1+rng.Intn(8))
		// Coarse UBs and repeated result counts tie the sort orders.
		for i := range combos {
			combos[i].UB = float64(rng.Intn(5)) / 4
			if rng.Intn(2) == 0 {
				combos[i].NbRes = float64(1 + rng.Intn(3))
			}
		}
		r := 1 + rng.Intn(12)
		for _, alg := range algorithms {
			got, err := Assign(alg, combos, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAssignment(got, refAssign(alg, combos, r)); err != nil {
				t.Fatalf("trial %d %s r=%d: %v", trial, alg, r, err)
			}
		}
	}
}

// TestAssignMatchesReferencePlans assigns the selections TopBuckets
// makes for the Table-1 shapes the serving benchmark plans.
func TestAssignMatchesReferencePlans(t *testing.T) {
	cols := make([]*interval.Collection, 3)
	for i := range cols {
		cols[i] = datagen.Uniform(fmt.Sprintf("C%d", i+1), 1500, int64(i+1))
	}
	ms, _, err := stats.Collect(cols, 10, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	avg := interval.AvgLength(cols...)
	shapes := []func(query.Env) *query.Query{query.Qbb, query.Qom, query.Qsm, query.Qsfm}
	for _, shape := range shapes {
		for pi, params := range []scoring.PairParams{scoring.P1, scoring.P2, scoring.P3} {
			q := shape(query.Env{Params: params, Avg: avg})
			for _, k := range []int{1, 10, 100, 1000} {
				tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range algorithms {
					got, err := Assign(alg, tb.Selected, 24)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameAssignment(got, refAssign(alg, tb.Selected, 24)); err != nil {
						t.Fatalf("%s P%d k=%d %s: %v", q.Name, pi+1, k, alg, err)
					}
				}
			}
		}
	}
}
