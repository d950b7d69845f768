package join

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"tkij/internal/distribute"
	"tkij/internal/query"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

// ReduceRequest is one query's reduce workload, handed to a Runner: the
// query, its per-vertex sources and granulation grids, the selected
// combinations, and the workload assignment mapping them onto reducers.
// The request is runner-agnostic — the local runner fans it out to
// in-process reducers; the shard coordinator scatters it to remote
// workers over the wire.
type ReduceRequest struct {
	Query *query.Query
	// Mapping maps query vertices to collections (vertex v reads
	// collection Mapping[v]); nil means the identity. The local runner
	// never consults it — Srcs already embody the mapping — but remote
	// runners need it to resolve which shard owns a vertex bucket.
	Mapping []int
	// Srcs serves vertex v's bucket data, pinned at the query's epoch.
	Srcs []Source
	// Grans is vertex v's granulation + observed endpoint extent.
	Grans []stats.Grid
	// Combos is Ω_k,S; Assign.ReducerCombos indexes into it.
	Combos []topbuckets.Combo
	Assign *distribute.Assignment
	K      int
	Opts   LocalOptions
	// Shared is the query's cross-reducer score floor; nil when pruning
	// is disabled. Every reducer — local or remote — must consult and
	// raise it (remote runners mirror it over their floor-broadcast
	// channel).
	Shared *SharedFloor
}

// ReducerTask is one reducer's share of a query: the reducer's index
// and its combinations, as indexes into the query's combination list.
type ReducerTask struct {
	Reducer int
	Combos  []int
}

// ReducerOutput is one reducer's complete output.
type ReducerOutput struct {
	Reducer int
	Results []Result
	Stats   LocalStats
}

// RunnerOutput is a Runner's gathered result: every reducer's output
// plus runner-specific accounting.
type RunnerOutput struct {
	// Reducers holds one output per reducer that ran, in any order;
	// RunWith merges them in reducer-index order.
	Reducers []ReducerOutput
	// ShippedBuckets / ShippedRecords count bucket payloads a remote
	// runner had to ship to workers that did not own them (zero for the
	// local runner, where every bucket is resident).
	ShippedBuckets int
	ShippedRecords float64
	// FloorFrames counts floor-broadcast frames exchanged with workers
	// for this query (zero for the local runner, whose reducers share
	// the floor through memory).
	FloorFrames int64
}

// Runner executes a query's reduce workload. The local implementation
// runs every reducer in-process; internal/shard's coordinator scatters
// reducers to shard workers and gathers their outputs. Both evaluate
// reducers through RunTasks, and RunWith's merge and routed-reference
// accounting are runner-independent, so any Runner that returns each
// reducer's exact local top-k yields byte-identical final results.
type Runner interface {
	RunReducers(ctx context.Context, req *ReduceRequest) (*RunnerOutput, error)
}

// errJoinCanceled reports a reducer abandoned by LocalOptions.Cancel
// when the request context itself carries no error (a caller-supplied
// Cancel hook fired).
var errJoinCanceled = errors.New("join: local reducer canceled")

// localRunner is the default Runner: every reducer of the assignment
// runs in-process against the resident store.
type localRunner struct{}

func (localRunner) RunReducers(ctx context.Context, req *ReduceRequest) (*RunnerOutput, error) {
	tasks := make([]ReducerTask, req.Assign.Reducers)
	for rj := range tasks {
		tasks[rj] = ReducerTask{Reducer: rj, Combos: req.Assign.ReducerCombos[rj]}
	}
	outs, err := RunTasks(ctx, req.Query, req.K, req.Srcs, req.Grans, req.Combos, tasks, req.Opts, req.Shared)
	if err != nil {
		return nil, err
	}
	return &RunnerOutput{Reducers: outs}, nil
}

// RunTasks is the reducer fan-out of steps (c)-(d) of Figure 5: each
// task evaluates its combination share on its own goroutine against
// srcs, and the outputs come back in task order. It is the one
// per-reducer entry every runner shares — the local runner hands it the
// whole assignment, a shard worker the tasks scattered to it.
//
// shared is the live cross-reducer floor: consulted and raised
// throughout the run, so raises arriving mid-query (from sibling
// reducers or a floor broadcast) early-terminate a reducer. nil
// disables sharing. grans may be nil (trivial per-edge bounds). When
// ctx is cancelable the reducers poll it mid-combination; a canceled
// reducer fails the whole call, so truncated output never reaches a
// merge.
func RunTasks(ctx context.Context, q *query.Query, k int, srcs []Source, grans []stats.Grid,
	combos []topbuckets.Combo, tasks []ReducerTask, opts LocalOptions, shared *SharedFloor) ([]ReducerOutput, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("join: k must be >= 1, got %d", k)
	}
	if len(srcs) != q.NumVertices {
		return nil, fmt.Errorf("join: query %s has %d vertices but %d sources", q.Name, q.NumVertices, len(srcs))
	}
	// Background-like contexts (Done() == nil) keep the hot loop free
	// of the polling branch entirely.
	if opts.Cancel == nil && ctx.Done() != nil {
		opts.Cancel = func() bool { return ctx.Err() != nil }
	}
	plan := newPlan(q)
	if opts.Share != nil {
		plan.computeEdgeSigs()
	}
	outs := make([]ReducerOutput, len(tasks))
	canceled := make([]bool, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t ReducerTask) {
			defer wg.Done()
			own := make([]topbuckets.Combo, len(t.Combos))
			for j, ci := range t.Combos {
				own[j] = combos[ci]
			}
			lj := newLocalJoiner(plan, k, opts, srcs, grans, shared)
			results := lj.Run(own)
			lj.stats.Reducer = t.Reducer
			outs[i] = ReducerOutput{Reducer: t.Reducer, Results: results, Stats: lj.stats}
			canceled[i] = lj.canceled
		}(i, t)
	}
	wg.Wait()
	if slices.Contains(canceled, true) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errJoinCanceled
	}
	return outs, nil
}

// sortedBucketKeys returns an assignment's routed bucket keys in
// deterministic (col, startG, endG) order — the snapshot section order
// — so RunWith's routed-reference accounting never depends on map
// iteration order.
func sortedBucketKeys(m map[stats.BucketKey][]int) []stats.BucketKey {
	keys := make([]stats.BucketKey, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b stats.BucketKey) int {
		if a.Col != b.Col {
			return a.Col - b.Col
		}
		if a.StartG != b.StartG {
			return a.StartG - b.StartG
		}
		return a.EndG - b.EndG
	})
	return keys
}
