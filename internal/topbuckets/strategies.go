package topbuckets

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tkij/internal/query"
	"tkij/internal/solver"
	"tkij/internal/stats"
)

// Strategy selects how score bounds are computed (§3.3, Algorithm 2).
type Strategy int

// The three TopBuckets strategies.
const (
	// Loose computes solver bounds only for bucket pairs (4 variables,
	// O(|E|·g^4) solver calls) and aggregates them through the monotone
	// scoring function. Bounds may be loose; selection stays correct.
	// The paper's evaluation settles on this strategy (§4.2.3).
	Loose Strategy = iota
	// BruteForce computes tight solver bounds for every combination in
	// Ω (2n variables each); O(g^2n) solver calls.
	BruteForce
	// TwoPhase prunes with loose bounds first, then refines the
	// survivors with tight bounds and selects again.
	TwoPhase
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Loose:
		return "loose"
	case BruteForce:
		return "brute-force"
	case TwoPhase:
		return "two-phase"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configures a TopBuckets run.
type Options struct {
	Strategy Strategy
	// Workers is the number of parallel bound-computation workers
	// (the paper shards TopBuckets over its 6 cluster workers).
	// Defaults to GOMAXPROCS.
	Workers int
	// PairSolver tunes the 4-variable pair optimizations (loose and the
	// first phase of two-phase).
	PairSolver solver.Options
	// TightSolver tunes the 2n-variable combination optimizations
	// (brute-force and the second phase of two-phase).
	TightSolver solver.Options
	// MaxCombos guards materializing paths (brute-force, two-phase
	// survivor refinement) against combinatorial explosion. Defaults to
	// 2e6.
	MaxCombos float64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.PairSolver.MaxNodes == 0 {
		o.PairSolver.MaxNodes = 512
	}
	if o.PairSolver.Eps == 0 {
		o.PairSolver.Eps = 1e-3
	}
	// Tight bounds only drive pruning decisions; 1e-3 accuracy is ample
	// and keeps branch-and-bound off the flat plateaus of equals-based
	// predicates, where 1e-6 convergence costs milliseconds per call.
	if o.TightSolver.MaxNodes == 0 {
		o.TightSolver.MaxNodes = 512
	}
	if o.TightSolver.Eps == 0 {
		o.TightSolver.Eps = 1e-3
	}
	if o.MaxCombos <= 0 {
		o.MaxCombos = 2e6
	}
	return o
}

// Result is the outcome of a TopBuckets run.
type Result struct {
	// Selected is Ω_k,S, sorted by descending score upper bound — the
	// access order the join phase uses.
	Selected []Combo
	// TotalCombos is |Ω|.
	TotalCombos float64
	// TotalResults is the number of candidate tuples in Ω.
	TotalResults float64
	// SelectedResults is the number of candidate tuples in Ω_k,S.
	SelectedResults float64
	// PairSolverCalls and TightSolverCalls count bound optimizations.
	PairSolverCalls  int
	TightSolverCalls int
	// KthResLB is the certified lower bound on the k-th result's score
	// (Algorithm 1's kthResLB). The join phase uses it as a score floor.
	KthResLB float64
	// PairPhase, EnumPhase and RefinePhase time the strategy stages.
	PairPhase, EnumPhase, RefinePhase time.Duration
	// Total is the end-to-end TopBuckets wall time.
	Total time.Duration
}

// PrunedFraction is the share of candidate results eliminated before the
// join phase (the grey curve of Figure 10c).
func (r *Result) PrunedFraction() float64 {
	if r.TotalResults == 0 {
		return 0
	}
	return 1 - r.SelectedResults/r.TotalResults
}

// Run executes the TopBuckets process for query q over the statistics
// matrices, returning Ω_k,S per Definition 2.
func Run(q *query.Query, matrices []*stats.Matrix, k int, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	lists, err := validateInputs(q, matrices, k)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var res *Result
	switch opts.Strategy {
	case Loose:
		res, err = runLoose(q, matrices, lists, k, opts, false)
	case BruteForce:
		res, err = runBruteForce(q, matrices, lists, k, opts)
	case TwoPhase:
		res, err = runLoose(q, matrices, lists, k, opts, true)
	default:
		return nil, fmt.Errorf("topbuckets: unknown strategy %d", int(opts.Strategy))
	}
	if err != nil {
		return nil, err
	}
	res.Total = time.Since(start)
	return res, nil
}

// pairBound holds solver bounds for one bucket pair.
type pairBound struct {
	lb, ub float64
}

// pairTable is one query edge's bound table: the bounds of every pair
// of buckets of its two vertices, indexed by their positions in the
// vertices' bucket lists.
type pairTable struct {
	from, to int // the edge's vertices
	stride   int // len of the to vertex's bucket list
	bounds   []pairBound
}

// computePairBounds builds, for every query edge, the bound table over
// all bucket pairs of its two collections (lines 1-3 of Algorithm 2),
// parallelized across workers.
func computePairBounds(q *query.Query, matrices []*stats.Matrix, lists [][]stats.Bucket, opts Options) ([]pairTable, int) {
	tables := make([]pairTable, len(q.Edges))
	calls := 0
	for ei, e := range q.Edges {
		fromList, toList := lists[e.From], lists[e.To]
		out := make([]pairBound, len(fromList)*len(toList))
		var wg sync.WaitGroup
		chunk := (len(fromList) + opts.Workers - 1) / opts.Workers
		for w := 0; w < opts.Workers; w++ {
			lo := w * chunk
			if lo >= len(fromList) {
				break
			}
			hi := lo + chunk
			if hi > len(fromList) {
				hi = len(fromList)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					bi := fromList[i]
					sLo, sHi, eLo, eHi := matrices[e.From].Box(bi.StartG, bi.EndG)
					fromBox := solver.VertexBox{StartLo: sLo, StartHi: sHi, EndLo: eLo, EndHi: eHi}
					for j, bj := range toList {
						sLo, sHi, eLo, eHi := matrices[e.To].Box(bj.StartG, bj.EndG)
						toBox := solver.VertexBox{StartLo: sLo, StartHi: sHi, EndLo: eLo, EndHi: eHi}
						lb, ub := solver.PredicateBounds(e.Pred, fromBox, toBox, opts.PairSolver)
						out[i*len(toList)+j] = pairBound{lb, ub}
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		calls += len(out)
		tables[ei] = pairTable{from: e.From, to: e.To, stride: len(toList), bounds: out}
	}
	return tables, calls
}

// looseBounds aggregates per-edge pair bounds into combination bounds
// (lines 4-5 of Algorithm 2): by monotonicity of S, aggregating edge
// lower (resp. upper) bounds yields a valid combination lower (resp.
// upper) bound. pos holds the combination's bucket positions.
func looseBounds(q *query.Query, tables []pairTable, pos []int, lbs, ubs []float64) (lb, ub float64) {
	for ei, t := range tables {
		pb := t.bounds[pos[t.from]*t.stride+pos[t.to]]
		lbs[ei], ubs[ei] = pb.lb, pb.ub
	}
	return q.Agg.Aggregate(lbs), q.Agg.Aggregate(ubs)
}

// runLoose implements Algorithm 2. With refine=false it is the loose
// strategy (onePhase=true); with refine=true it is two-phase.
func runLoose(q *query.Query, matrices []*stats.Matrix, lists [][]stats.Bucket, k int, opts Options, refine bool) (*Result, error) {
	res := &Result{TotalCombos: comboCount(lists)}

	pairStart := time.Now()
	tables, calls := computePairBounds(q, matrices, lists, opts)
	res.PairSolverCalls = calls
	res.PairPhase = time.Since(pairStart)

	// The total candidate count is the product of collection sizes:
	// every tuple falls in exactly one bucket combination.
	res.TotalResults = 1
	for _, m := range matrices {
		res.TotalResults *= float64(m.Total())
	}

	// Streaming passes over Ω with cheap table-lookup bounds, sharded by
	// the first collection's buckets exactly as the paper's distributed
	// TopBuckets splits B_1 into worker groups (§4 "Selection of bucket
	// combinations"): each shard selects a locally sufficient set, and a
	// final SelectList over the union returns a globally valid Ω_k,S —
	// every shard's certificate survives into the union.
	enumStart := time.Now()
	shards := opts.Workers
	if shards > len(lists[0]) {
		shards = len(lists[0])
	}
	shardSel := make([][]Combo, shards)
	var wg sync.WaitGroup
	shardSize := (len(lists[0]) + shards - 1) / shards
	for w := 0; w < shards; w++ {
		lo := w * shardSize
		if lo >= len(lists[0]) {
			break
		}
		hi := lo + shardSize
		if hi > len(lists[0]) {
			hi = len(lists[0])
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sel := newStreamSelector(k)
			lbs := make([]float64, len(q.Edges))
			ubs := make([]float64, len(q.Edges))
			// The selector copies the (reused) bucket tuple of what it
			// keeps, so a pass allocates per kept combination only.
			pass := func(fn func(Combo)) {
				_ = enumerateRange(lists, lo, hi, func(pos []int, buckets []stats.Bucket) error {
					lb, ub := looseBounds(q, tables, pos, lbs, ubs)
					fn(Combo{Buckets: buckets, LB: lb, UB: ub, NbRes: nbRes(buckets)})
					return nil
				})
			}
			pass(sel.observe)
			sel.beginPick()
			pass(sel.pick)
			shardSel[w] = sel.finalize()
		}(w, lo, hi)
	}
	wg.Wait()
	var union []Combo
	for _, s := range shardSel {
		union = append(union, s...)
	}
	selected, kthResLB := SelectWithThreshold(k, union)
	res.KthResLB = kthResLB
	res.EnumPhase = time.Since(enumStart)

	if refine {
		refineStart := time.Now()
		if float64(len(selected)) > opts.MaxCombos {
			return nil, fmt.Errorf("topbuckets: two-phase refinement over %d combinations exceeds MaxCombos %g", len(selected), opts.MaxCombos)
		}
		TightenBounds(q, matrices, selected, opts)
		res.TightSolverCalls = len(selected)
		selected, res.KthResLB = SelectWithThreshold(k, selected)
		res.RefinePhase = time.Since(refineStart)
	}

	res.Selected = selected
	for _, c := range selected {
		res.SelectedResults += c.NbRes
	}
	return res, nil
}

// runBruteForce materializes Ω with tight solver bounds for every
// combination, then selects.
func runBruteForce(q *query.Query, matrices []*stats.Matrix, lists [][]stats.Bucket, k int, opts Options) (*Result, error) {
	res := &Result{TotalCombos: comboCount(lists)}
	if res.TotalCombos > opts.MaxCombos {
		return nil, fmt.Errorf("topbuckets: brute-force over %g combinations exceeds MaxCombos %g (reduce g or use the loose strategy)", res.TotalCombos, opts.MaxCombos)
	}
	var combos []Combo
	if err := enumerate(lists, func(_ []int, buckets []stats.Bucket) error {
		combos = append(combos, Combo{
			Buckets: append([]stats.Bucket(nil), buckets...),
			NbRes:   nbRes(buckets),
		})
		return nil
	}); err != nil {
		return nil, err
	}
	for _, c := range combos {
		res.TotalResults += c.NbRes
	}
	refineStart := time.Now()
	TightenBounds(q, matrices, combos, opts)
	res.TightSolverCalls = len(combos)
	res.RefinePhase = time.Since(refineStart)

	selStart := time.Now()
	res.Selected, res.KthResLB = SelectWithThreshold(k, combos)
	res.EnumPhase = time.Since(selStart)
	for _, c := range res.Selected {
		res.SelectedResults += c.NbRes
	}
	return res, nil
}

// TightenBounds recomputes tight solver bounds for every combination in
// place, in parallel, and returns the total branch-and-bound nodes
// opened (the solver-work certificate of the recomputation). It is the
// second phase of the two-phase strategy, the whole of brute-force —
// and the unit of work plan-cache revalidation applies to the
// combinations an epoch bump touched.
func TightenBounds(q *query.Query, matrices []*stats.Matrix, combos []Combo, opts Options) int {
	opts = opts.withDefaults()
	var wg sync.WaitGroup
	var nodes atomic.Int64
	chunk := (len(combos) + opts.Workers - 1) / opts.Workers
	for w := 0; w < opts.Workers; w++ {
		lo := w * chunk
		if lo >= len(combos) {
			break
		}
		hi := lo + chunk
		if hi > len(combos) {
			hi = len(combos)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			local := 0
			for i := lo; i < hi; i++ {
				boxes := boxesFor(matrices, combos[i].Buckets)
				var cert solver.Cert
				combos[i].LB, combos[i].UB, cert = solver.QueryBoundsCert(q, boxes, opts.TightSolver)
				local += cert.Nodes
			}
			nodes.Add(int64(local))
		}(lo, hi)
	}
	wg.Wait()
	return int(nodes.Load())
}
