package topbuckets

import (
	"fmt"

	"tkij/internal/query"
	"tkij/internal/solver"
	"tkij/internal/stats"
)

// Combo is one bucket combination ω = (b_{1,l1,l1'}, ..., b_{n,ln,ln'})
// with its score bounds and result count ω.nbRes = Π |b_i|.
type Combo struct {
	// Buckets has one bucket per query vertex, Buckets[i] drawn from the
	// matrix of collection i.
	Buckets []stats.Bucket
	// LB and UB bound the aggregate score of every tuple drawn from the
	// combination (Definition 1).
	LB, UB float64
	// NbRes is the number of candidate tuples in the combination. It is
	// kept as float64 because products of bucket cardinalities overflow
	// int64 for large n (the paper reports >1e13 results per combination
	// at §4.2.6 scale).
	NbRes float64
}

// Touches reports whether any of the combination's buckets satisfies
// affected(vertex, bucket) — the per-combination touched-bucket test
// revalidation uses to decide which cached bounds must be recomputed
// after an epoch bump (buckets that gained intervals, or boundary
// granules widened by out-of-range appends).
func (c *Combo) Touches(affected func(v int, b stats.Bucket) bool) bool {
	for v, b := range c.Buckets {
		if affected(v, b) {
			return true
		}
	}
	return false
}

// CountAffected returns the number of combinations in the cartesian
// product of bucketLists that contain at least one affected bucket —
// |Ω| − |Ω restricted to unaffected buckets| — without enumerating
// them. Revalidation uses it to bounce to a full re-plan when the
// affected region is too large to patch incrementally.
func CountAffected(bucketLists [][]stats.Bucket, affected func(v int, b stats.Bucket) bool) float64 {
	total, clean := 1.0, 1.0
	for v, list := range bucketLists {
		nClean := 0
		for _, b := range list {
			if !affected(v, b) {
				nClean++
			}
		}
		total *= float64(len(list))
		clean *= float64(nClean)
	}
	return total - clean
}

// EnumerateAffected walks exactly the combinations of the cartesian
// product that contain at least one affected bucket, in deterministic
// order, invoking fn for each bucket tuple. The decomposition is by
// first affected position: for every vertex v, it enumerates
// (unaffected_0 × ... × unaffected_{v-1}) × affected_v × (full_{v+1} ×
// ... × full_{n-1}), which partitions the affected region with no
// duplicates. Like enumerate, the buckets slice passed to fn is reused
// across calls; fn must copy it to retain it.
func EnumerateAffected(bucketLists [][]stats.Bucket, affected func(v int, b stats.Bucket) bool, fn func(buckets []stats.Bucket) error) error {
	n := len(bucketLists)
	cleanLists := make([][]stats.Bucket, n)
	dirtyLists := make([][]stats.Bucket, n)
	for v, list := range bucketLists {
		for _, b := range list {
			if affected(v, b) {
				dirtyLists[v] = append(dirtyLists[v], b)
			} else {
				cleanLists[v] = append(cleanLists[v], b)
			}
		}
	}
	for v := 0; v < n; v++ {
		if len(dirtyLists[v]) == 0 {
			continue
		}
		sub := make([][]stats.Bucket, n)
		empty := false
		for w := 0; w < n; w++ {
			switch {
			case w < v:
				sub[w] = cleanLists[w]
			case w == v:
				sub[w] = dirtyLists[w]
			default:
				sub[w] = bucketLists[w]
			}
			if len(sub[w]) == 0 {
				empty = true
			}
		}
		if empty {
			continue
		}
		if err := enumerate(sub, func(_ []int, buckets []stats.Bucket) error { return fn(buckets) }); err != nil {
			return err
		}
	}
	return nil
}

// boxesFor converts a combination's buckets into solver vertex boxes.
func boxesFor(matrices []*stats.Matrix, buckets []stats.Bucket) []solver.VertexBox {
	boxes := make([]solver.VertexBox, len(buckets))
	for i, b := range buckets {
		sLo, sHi, eLo, eHi := matrices[i].Box(b.StartG, b.EndG)
		boxes[i] = solver.VertexBox{StartLo: sLo, StartHi: sHi, EndLo: eLo, EndHi: eHi}
	}
	return boxes
}

// enumerate walks the full combination space Ω — the cartesian product
// of each collection's non-empty buckets — in deterministic row-major
// order, invoking fn for each combination's bucket positions (pos[v]
// indexes bucketLists[v]) and bucket tuple. Both slices passed to fn
// are reused across calls; fn must copy them to retain them. enumerate
// returns an error from fn, stopping early.
func enumerate(bucketLists [][]stats.Bucket, fn func(pos []int, buckets []stats.Bucket) error) error {
	return enumerateRange(bucketLists, 0, len(bucketLists[0]), fn)
}

// enumerateRange is enumerate restricted to the combinations whose
// first bucket lies at positions [lo, hi) of bucketLists[0]; positions
// stay those of the full lists.
func enumerateRange(bucketLists [][]stats.Bucket, lo, hi int, fn func(pos []int, buckets []stats.Bucket) error) error {
	n := len(bucketLists)
	idx := make([]int, n)
	idx[0] = lo
	cur := make([]stats.Bucket, n)
	for {
		for i := 0; i < n; i++ {
			cur[i] = bucketLists[i][idx[i]]
		}
		if err := fn(idx, cur); err != nil {
			return err
		}
		// Odometer increment, last position fastest.
		i := n - 1
		for ; i > 0; i-- {
			idx[i]++
			if idx[i] < len(bucketLists[i]) {
				break
			}
			idx[i] = 0
		}
		if i == 0 {
			idx[0]++
			if idx[0] >= hi {
				return nil
			}
		}
	}
}

// comboCount returns |Ω| for the given bucket lists.
func comboCount(bucketLists [][]stats.Bucket) float64 {
	total := 1.0
	for _, bl := range bucketLists {
		total *= float64(len(bl))
	}
	return total
}

// nbRes returns the number of candidate results of a bucket tuple.
func nbRes(buckets []stats.Bucket) float64 {
	n := 1.0
	for _, b := range buckets {
		n *= float64(b.Count)
	}
	return n
}

// validateInputs checks that the query and matrices are mutually
// consistent.
func validateInputs(q *query.Query, matrices []*stats.Matrix, k int) ([][]stats.Bucket, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("topbuckets: k must be >= 1, got %d", k)
	}
	if len(matrices) != q.NumVertices {
		return nil, fmt.Errorf("topbuckets: query %s has %d vertices but %d matrices given", q.Name, q.NumVertices, len(matrices))
	}
	lists := make([][]stats.Bucket, len(matrices))
	for i, m := range matrices {
		if m == nil {
			return nil, fmt.Errorf("topbuckets: matrix %d is nil", i)
		}
		lists[i] = m.Buckets()
		if len(lists[i]) == 0 {
			return nil, fmt.Errorf("topbuckets: collection %d has no data", i)
		}
	}
	return lists, nil
}
