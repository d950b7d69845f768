package topbuckets

import (
	"tkij/internal/query"
	"tkij/internal/solver"
	"tkij/internal/stats"
)

// LooseBounder memoizes the loose strategy's per-edge bucket-pair solver
// bounds across epochs. Pair bounds depend only on granule boxes — never
// on bucket counts — so under the append-only epoch model a cached bound
// stays valid until its bucket's box changes shape (the bucket is new,
// or a boundary granule widened under an out-of-range append). Callers
// Invalidate exactly those buckets each epoch and keep everything else,
// which makes repeated bounding over a largely-unchanged granulation a
// pure table lookup: the standing layer's per-append re-probe bounds its
// affected combinations this way instead of re-running the tight solver
// over each one. Bounds are loose in the Algorithm-2 sense (per-edge
// bounds aggregated through the monotone scoring function) and therefore
// always safe for pruning. Not safe for concurrent use.
type LooseBounder struct {
	q        *query.Query
	opts     Options
	tables   []map[pairKey]pairBound // one per query edge
	lbs, ubs []float64               // aggregation scratch
	// Solved counts pair-solver calls since construction (cache misses).
	Solved int
}

// pairKey identifies a bucket pair within one edge's memo table. The
// memo outlives an epoch's bucket lists, so it is keyed by bucket
// identity rather than list position.
type pairKey struct {
	from, to stats.BucketKey
}

// NewLooseBounder returns an empty bounder for q; opts supplies the
// pair-solver tuning (the strategy field is ignored — a bounder is
// always loose).
func NewLooseBounder(q *query.Query, opts Options) *LooseBounder {
	b := &LooseBounder{
		q:      q,
		opts:   opts.withDefaults(),
		tables: make([]map[pairKey]pairBound, len(q.Edges)),
		lbs:    make([]float64, len(q.Edges)),
		ubs:    make([]float64, len(q.Edges)),
	}
	for i := range b.tables {
		b.tables[i] = make(map[pairKey]pairBound)
	}
	return b
}

// Invalidate drops every cached pair bound touching a bucket for which
// affected reports true (vertex-indexed, like EpochDiff.ShapeAffected).
// lists are the current per-vertex bucket lists the affected predicate
// is defined over.
func (b *LooseBounder) Invalidate(lists [][]stats.Bucket, affected func(v int, bk stats.Bucket) bool) {
	stale := make([]map[stats.BucketKey]bool, len(lists))
	for v, list := range lists {
		for _, bk := range list {
			if affected(v, bk) {
				if stale[v] == nil {
					stale[v] = make(map[stats.BucketKey]bool)
				}
				stale[v][bk.Key()] = true
			}
		}
	}
	for ei, e := range b.q.Edges {
		from, to := stale[e.From], stale[e.To]
		if from == nil && to == nil {
			continue
		}
		for k := range b.tables[ei] {
			if from[k.from] || to[k.to] {
				delete(b.tables[ei], k)
			}
		}
	}
}

// Reset drops the entire cache — required after any transition outside
// the append-only model (granulation swap, store rebuild), where bucket
// keys may alias entirely different boxes.
func (b *LooseBounder) Reset() {
	for i := range b.tables {
		b.tables[i] = make(map[pairKey]pairBound)
	}
}

// Bound returns loose (lb, ub) for the combination given by buckets
// (indexed by query vertex, like a Combo's), solving and memoizing any
// missing pair bounds against the current matrices.
func (b *LooseBounder) Bound(matrices []*stats.Matrix, buckets []stats.Bucket) (float64, float64) {
	for ei, e := range b.q.Edges {
		key := pairKey{buckets[e.From].Key(), buckets[e.To].Key()}
		pb, ok := b.tables[ei][key]
		if !ok {
			bf, bt := buckets[e.From], buckets[e.To]
			sLo, sHi, eLo, eHi := matrices[e.From].Box(bf.StartG, bf.EndG)
			fromBox := solver.VertexBox{StartLo: sLo, StartHi: sHi, EndLo: eLo, EndHi: eHi}
			sLo, sHi, eLo, eHi = matrices[e.To].Box(bt.StartG, bt.EndG)
			toBox := solver.VertexBox{StartLo: sLo, StartHi: sHi, EndLo: eLo, EndHi: eHi}
			lb, ub := solver.PredicateBounds(e.Pred, fromBox, toBox, b.opts.PairSolver)
			pb = pairBound{lb, ub}
			b.tables[ei][key] = pb
			b.Solved++
		}
		b.lbs[ei], b.ubs[ei] = pb.lb, pb.ub
	}
	return b.q.Agg.Aggregate(b.lbs), b.q.Agg.Aggregate(b.ubs)
}
