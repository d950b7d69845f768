package join

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/query"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// Output is the outcome of the distributed join + merge phases.
type Output struct {
	// Results is the final top-k, sorted by descending score. It is
	// never nil: a run that produces no results (every combination
	// pruned, or an empty assignment) yields an empty slice, so callers
	// can range/encode it without a nil check.
	Results []Result
	// Locals reports each reducer's local join statistics, indexed by
	// reducer: Locals[i].Reducer == i for every reducer, idle ones
	// included.
	Locals []LocalStats
	// RoutedBucketEntries is the number of (bucket → reducer) references
	// the assignment routes: Σ over buckets of the number of reducers
	// holding them. Reducers read the referenced interval slices and
	// memoized R-trees in place; no raw interval is copied to them.
	RoutedBucketEntries int
	// RoutedIntervalRecords is the resident-interval weight of those
	// references, Σ|b| × |reducers(b)| — the replication cost DTB
	// minimizes (Assignment.ReplicatedRecords).
	RoutedIntervalRecords float64
	// ShippedBuckets and ShippedRecords count bucket payloads a remote
	// runner shipped to shard workers that did not own them — the
	// network sibling of the replication cost DTB minimizes. Zero for
	// local execution.
	ShippedBuckets int
	ShippedRecords float64
	// FloorFrames counts floor-broadcast frames exchanged with shard
	// workers for this query (zero for local execution).
	FloorFrames int64
	// SharedFloor is the final cross-reducer threshold (0 when pruning
	// was disabled).
	SharedFloor float64
	// JoinDuration and MergeDuration are the wall times of the reducer
	// fan-out and of the merge, each measured around its own phase.
	JoinDuration  time.Duration
	MergeDuration time.Duration
}

// MaxReducerDuration returns the slowest reducer's local join time —
// the join's critical path (Figure 8b).
func (o *Output) MaxReducerDuration() time.Duration {
	var slowest time.Duration
	for _, l := range o.Locals {
		slowest = max(slowest, l.Duration)
	}
	return slowest
}

// Run executes steps (c)-(e) of Figure 5: the reducers evaluate their
// share of the workload assignment in parallel, then their local lists
// merge into the global top-k. srcs[i] serves query vertex i's resident
// bucket data (see Source); grans[i] is the granulation (with observed
// endpoint extent) vertex i's buckets live under. Raw intervals stay
// resident in the store, and reducers prune against a shared
// cross-reducer threshold seeded from opts.Floor. cfg is unused: it
// remains in the signature for callers written against the Map-Reduce
// formulation, and reducer parallelism follows assign.Reducers.
//
// srcs implementations must be safe for concurrent use; store.ColView
// (an epoch-pinned view) is, and is what the engine passes. A raw
// store.ColStore tracks the latest epoch per call, so under concurrent
// Append its BucketItems and SearchBucket can observe different
// epochs — pin a Store.View instead whenever appends may run.
//
// ctx is checked before the join and between join and merge (a
// canceled context aborts with ctx.Err()), and a cancelable ctx is
// polled by the local reducers mid-combination.
func Run(ctx context.Context, q *query.Query, srcs []Source, grans []stats.Grid,
	combos []topbuckets.Combo, assign *distribute.Assignment, k int,
	cfg mapreduce.Config, opts LocalOptions) (*Output, error) {
	return RunWith(ctx, q, srcs, grans, combos, assign, k, cfg, opts, nil, nil)
}

// RunWith is Run with the reduce execution pluggable: runner evaluates
// the reducers (nil selects the in-process local runner) and mapping
// carries the vertex-to-collection mapping remote runners need (nil =
// identity; ignored by the local runner). A runner that aborts on a
// canceled context returns an error wrapping ctx.Err(), which callers
// translate exactly like the between-phase checks here. The merge and
// the routed-reference accounting happen here, identically for every
// runner.
func RunWith(ctx context.Context, q *query.Query, srcs []Source, grans []stats.Grid,
	combos []topbuckets.Combo, assign *distribute.Assignment, k int,
	_ mapreduce.Config, opts LocalOptions, mapping []int, runner Runner) (*Output, error) {

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("join: canceled before join phase: %w", err)
	}
	if len(srcs) != q.NumVertices || len(grans) != q.NumVertices {
		return nil, fmt.Errorf("join: query %s has %d vertices but %d sources / %d granulations",
			q.Name, q.NumVertices, len(srcs), len(grans))
	}
	if k < 1 {
		return nil, fmt.Errorf("join: k must be >= 1, got %d", k)
	}

	// The shared global threshold (§3.4's early-termination payoff):
	// every reducer both consults and raises it. Under admission
	// batching the floor is drawn from the batch-scoped registry
	// instead, so sibling executions with the same plan-identity key
	// raise and consult one floor together. Remote runners broadcast
	// its raises to their workers and fold worker raises back in.
	var shared *SharedFloor
	if !opts.DisablePruning {
		if opts.Share != nil && opts.FloorKey != "" {
			shared = opts.Share.Floor(opts.FloorKey, opts.Floor)
		} else {
			shared = NewSharedFloor(opts.Floor)
		}
	}

	if runner == nil {
		runner = localRunner{}
	}
	req := &ReduceRequest{
		Query:   q,
		Mapping: mapping,
		Srcs:    srcs,
		Grans:   grans,
		Combos:  combos,
		Assign:  assign,
		K:       k,
		Opts:    opts,
		Shared:  shared,
	}
	joinStart := time.Now()
	rout, err := runner.RunReducers(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("join: join phase: %w", err)
	}

	out := &Output{
		Locals:         make([]LocalStats, assign.Reducers),
		ShippedBuckets: rout.ShippedBuckets,
		ShippedRecords: rout.ShippedRecords,
		FloorFrames:    rout.FloorFrames,
		JoinDuration:   time.Since(joinStart),
	}
	lists := make([][]Result, assign.Reducers)
	seen := make([]bool, assign.Reducers)
	for _, ro := range rout.Reducers {
		if ro.Reducer < 0 || ro.Reducer >= assign.Reducers || seen[ro.Reducer] {
			return nil, fmt.Errorf("join: runner returned reducer %d twice or out of [0,%d)", ro.Reducer, assign.Reducers)
		}
		seen[ro.Reducer] = true
		out.Locals[ro.Reducer] = ro.Stats
		lists[ro.Reducer] = ro.Results
	}
	for rj := range out.Locals {
		out.Locals[rj].Reducer = rj
	}
	// Routed-reference accounting, in sorted bucket order so the float
	// sums never depend on map iteration order.
	for _, key := range sortedBucketKeys(assign.BucketReducers) {
		reducers := assign.BucketReducers[key]
		n := float64(len(srcs[key.Col].BucketItems(key.StartG, key.EndG)))
		for _, rj := range reducers {
			out.Locals[rj].BucketRefsRouted++
			out.Locals[rj].RoutedIntervals += n
		}
		out.RoutedBucketEntries += len(reducers)
		out.RoutedIntervalRecords += n * float64(len(reducers))
	}
	if shared != nil {
		out.SharedFloor = shared.Load()
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("join: canceled between join and merge phases: %w", err)
	}

	// Merge phase (Figure 5e): the local lists, in reducer-index order,
	// into the global top-k.
	mergeStart := time.Now()
	topk := NewTopK(k)
	for _, list := range lists {
		for _, r := range list {
			topk.Add(r)
		}
	}
	out.Results = topk.Results()
	out.MergeDuration = time.Since(mergeStart)
	if out.Results == nil {
		// No reducer returned a result: keep the no-results contract —
		// an empty slice, never nil.
		out.Results = []Result{}
	}
	return out, nil
}

// Exhaustive computes the exact top-k by enumerating the full cross
// product in memory — the correctness oracle for tests and the
// score-distribution study of Figure 7. It is exponential in the number
// of collections; use only at test scale.
func Exhaustive(q *query.Query, cols []*interval.Collection, k int) ([]Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(cols) != q.NumVertices {
		return nil, fmt.Errorf("join: %d collections for %d vertices", len(cols), q.NumVertices)
	}
	topk := NewTopK(k)
	tuple := make([]interval.Interval, q.NumVertices)
	var rec func(v int)
	rec = func(v int) {
		if v == q.NumVertices {
			topk.Add(Result{Tuple: append([]interval.Interval(nil), tuple...), Score: q.Score(tuple)})
			return
		}
		for _, iv := range cols[v].Items {
			tuple[v] = iv
			rec(v + 1)
		}
	}
	rec(0)
	return topk.Results(), nil
}

// ScoreMultisetEqual reports whether two result lists carry the same
// multiset of scores (the comparable notion of top-k equality under
// ties), within epsilon.
func ScoreMultisetEqual(a, b []Result, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]float64, len(a))
	bs := make([]float64, len(b))
	for i := range a {
		as[i], bs[i] = a[i].Score, b[i].Score
	}
	sort.Float64s(as)
	sort.Float64s(bs)
	for i := range as {
		if diff := as[i] - bs[i]; diff > eps || diff < -eps {
			return false
		}
	}
	return true
}
