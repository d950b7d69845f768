package topbuckets

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/solver"
	"tkij/internal/stats"
)

// This file keeps a reference implementation of TopBuckets' loose and
// two-phase planning as it stood when combinations were identified by
// a byte-string key and pair bounds lived in per-edge maps keyed by
// bucket identity. The production code works on bucket positions
// instead; the tests below require it to emit exactly the reference's
// plans.

// refKey is the byte-string identity: one (Col, StartG, EndG) record
// per vertex.
func refKey(c *Combo) string {
	k := make([]byte, 0, len(c.Buckets)*6)
	for _, b := range c.Buckets {
		k = append(k, byte(b.Col), byte(b.StartG>>8), byte(b.StartG), byte(b.EndG>>8), byte(b.EndG), '|')
	}
	return string(k)
}

func refSortCombos(cs []Combo, less func(a, b Combo) bool) {
	sort.Slice(cs, func(i, j int) bool {
		if less(cs[i], cs[j]) {
			return true
		}
		if less(cs[j], cs[i]) {
			return false
		}
		return refKey(&cs[i]) < refKey(&cs[j])
	})
}

type refItem struct {
	lb, nbRes float64
	combo     Combo
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].lb < h[j].lb }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

type refCover struct {
	k, total float64
	items    refHeap
}

func (c *refCover) add(cb Combo) {
	heap.Push(&c.items, refItem{lb: cb.LB, nbRes: cb.NbRes, combo: cb})
	c.total += cb.NbRes
	for len(c.items) > 1 && c.total-c.items[0].nbRes >= c.k {
		c.total -= c.items[0].nbRes
		heap.Pop(&c.items)
	}
}

func (c *refCover) threshold() float64 {
	if len(c.items) == 0 {
		return 0
	}
	return c.items[0].lb
}

func (c *refCover) cover() []Combo {
	out := make([]Combo, len(c.items))
	for i, it := range c.items {
		out[i] = it.combo
	}
	refSortCombos(out, func(a, b Combo) bool { return a.LB > b.LB })
	return out
}

func refSelectWithThreshold(k int, combos []Combo) ([]Combo, float64) {
	cover := &refCover{k: float64(k)}
	for _, c := range combos {
		cover.add(c)
	}
	t := cover.threshold()
	var selected []Combo
	seen := make(map[string]bool)
	for _, c := range cover.cover() {
		selected = append(selected, c)
		seen[refKey(&c)] = true
	}
	for _, c := range combos {
		if c.UB > t && !seen[refKey(&c)] {
			selected = append(selected, c)
			seen[refKey(&c)] = true
		}
	}
	refSortCombos(selected, func(a, b Combo) bool { return a.UB > b.UB })
	return selected, t
}

// refEnumerate walks the cartesian product in row-major order, handing
// fn a fresh copy of every bucket tuple.
func refEnumerate(lists [][]stats.Bucket, fn func(buckets []stats.Bucket)) {
	idx := make([]int, len(lists))
	for {
		cur := make([]stats.Bucket, len(lists))
		for i := range lists {
			cur[i] = lists[i][idx[i]]
		}
		fn(cur)
		i := len(lists) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(lists[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

type refPairKey struct{ from, to stats.BucketKey }

// refRun is the loose strategy (refine=false) or two-phase
// (refine=true): map-keyed pair bounds, the first collection's buckets
// split into opts.Workers shards exactly as Run splits them, each shard
// selected on its own, then one selection over the union.
func refRun(q *query.Query, matrices []*stats.Matrix, k int, opts Options, refine bool) *Result {
	opts = opts.withDefaults()
	lists := make([][]stats.Bucket, len(matrices))
	for i, m := range matrices {
		lists[i] = m.Buckets()
	}
	tables := make([]map[refPairKey][2]float64, len(q.Edges))
	for ei, e := range q.Edges {
		tables[ei] = make(map[refPairKey][2]float64)
		for _, bf := range lists[e.From] {
			for _, bt := range lists[e.To] {
				from := boxesFor(matrices[e.From:e.From+1], []stats.Bucket{bf})[0]
				to := boxesFor(matrices[e.To:e.To+1], []stats.Bucket{bt})[0]
				lb, ub := solver.PredicateBounds(e.Pred, from, to, opts.PairSolver)
				tables[ei][refPairKey{bf.Key(), bt.Key()}] = [2]float64{lb, ub}
			}
		}
	}
	bound := func(buckets []stats.Bucket) (float64, float64) {
		lbs := make([]float64, len(q.Edges))
		ubs := make([]float64, len(q.Edges))
		for ei, e := range q.Edges {
			pb := tables[ei][refPairKey{buckets[e.From].Key(), buckets[e.To].Key()}]
			lbs[ei], ubs[ei] = pb[0], pb[1]
		}
		return q.Agg.Aggregate(lbs), q.Agg.Aggregate(ubs)
	}

	shards := opts.Workers
	if shards > len(lists[0]) {
		shards = len(lists[0])
	}
	size := (len(lists[0]) + shards - 1) / shards
	var union []Combo
	for lo := 0; lo < len(lists[0]); lo += size {
		hi := lo + size
		if hi > len(lists[0]) {
			hi = len(lists[0])
		}
		shardLists := append([][]stats.Bucket(nil), lists...)
		shardLists[0] = lists[0][lo:hi]
		var all []Combo
		refEnumerate(shardLists, func(buckets []stats.Bucket) {
			lb, ub := bound(buckets)
			all = append(all, Combo{Buckets: buckets, LB: lb, UB: ub, NbRes: nbRes(buckets)})
		})
		sel, _ := refSelectWithThreshold(k, all)
		union = append(union, sel...)
	}
	res := &Result{}
	res.Selected, res.KthResLB = refSelectWithThreshold(k, union)
	if refine {
		TightenBounds(q, matrices, res.Selected, opts)
		res.Selected, res.KthResLB = refSelectWithThreshold(k, res.Selected)
	}
	return res
}

// sameCombos reports the first difference between two selections:
// buckets in order, LB, UB and NbRes, all compared bit for bit.
func sameCombos(got, want []Combo) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d combinations, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if len(g.Buckets) != len(w.Buckets) {
			return fmt.Errorf("combination %d: %d buckets, want %d", i, len(g.Buckets), len(w.Buckets))
		}
		for v := range g.Buckets {
			if g.Buckets[v] != w.Buckets[v] {
				return fmt.Errorf("combination %d vertex %d: %v, want %v", i, v, g.Buckets[v], w.Buckets[v])
			}
		}
		if math.Float64bits(g.LB) != math.Float64bits(w.LB) ||
			math.Float64bits(g.UB) != math.Float64bits(w.UB) ||
			math.Float64bits(g.NbRes) != math.Float64bits(w.NbRes) {
			return fmt.Errorf("combination %d: (LB %v, UB %v, NbRes %v), want (%v, %v, %v)", i, g.LB, g.UB, g.NbRes, w.LB, w.UB, w.NbRes)
		}
	}
	return nil
}

// identityShapes are the Table-1 shapes the serving benchmark plans.
var identityShapes = []func(query.Env) *query.Query{query.Qbb, query.Qom, query.Qsm, query.Qsfm}

// identityMatrices builds the statistics the plan-identity tests plan
// over: three uniform collections at a granulation small enough to
// enumerate Ω many times over in a test.
func identityMatrices(t *testing.T) ([]*stats.Matrix, float64) {
	cols := make([]*interval.Collection, 3)
	for i := range cols {
		cols[i] = datagen.Uniform(fmt.Sprintf("C%d", i+1), 1500, int64(i+1))
	}
	return matricesFor(t, cols, 10), interval.AvgLength(cols...)
}

func TestRunMatchesReference(t *testing.T) {
	ms, avg := identityMatrices(t)
	// A coarse tight solver keeps two-phase refinement of a thousand or
	// more loose survivors cheap; both sides run with the same options.
	opts := Options{Workers: 3, TightSolver: solver.Options{MaxNodes: 16, Eps: 1e-2}}
	for _, shape := range identityShapes {
		for pi, params := range []scoring.PairParams{scoring.P1, scoring.P2, scoring.P3} {
			q := shape(query.Env{Params: params, Avg: avg})
			for _, k := range []int{1, 10, 100, 1000} {
				for _, strat := range []Strategy{Loose, TwoPhase} {
					opts.Strategy = strat
					got, err := Run(q, ms, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := refRun(q, ms, k, opts, strat == TwoPhase)
					name := fmt.Sprintf("%s P%d k=%d %s", q.Name, pi+1, k, strat)
					if err := sameCombos(got.Selected, want.Selected); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if math.Float64bits(got.KthResLB) != math.Float64bits(want.KthResLB) {
						t.Fatalf("%s: KthResLB %v, want %v", name, got.KthResLB, want.KthResLB)
					}
				}
			}
		}
	}
}

// randomTiedCombos draws combinations with coarse LB/UB, so ties at the
// threshold and in the sort order are the rule, over a small bucket
// pool, so tuples differ in one vertex as often as in all.
func randomTiedCombos(rng *rand.Rand, n int) []Combo {
	seen := make(map[string]bool)
	var all []Combo
	for len(all) < n {
		bs := make([]stats.Bucket, 3)
		for v := range bs {
			s := rng.Intn(4)
			bs[v] = stats.Bucket{Col: v, StartG: s, EndG: s + rng.Intn(3), Count: 1 + rng.Intn(20)}
		}
		ub := float64(rng.Intn(11)) / 10
		c := Combo{Buckets: bs, UB: ub, LB: ub * float64(rng.Intn(11)) / 10, NbRes: nbRes(bs)}
		if key := refKey(&c); !seen[key] {
			seen[key] = true
			all = append(all, c)
		}
	}
	return all
}

func TestSelectWithThresholdMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(200)
		all := randomTiedCombos(rng, 1+rng.Intn(150))
		want, wantT := refSelectWithThreshold(k, all)
		got, gotT := SelectWithThreshold(k, all)
		if err := sameCombos(got, want); err != nil {
			t.Fatalf("trial %d (k=%d, %d combos): %v", trial, k, len(all), err)
		}
		if gotT != wantT {
			t.Fatalf("trial %d: threshold %v, want %v", trial, gotT, wantT)
		}
	}
}
