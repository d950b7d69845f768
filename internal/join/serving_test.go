package join

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"tkij/internal/distribute"
	"tkij/internal/mapreduce"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
	"tkij/internal/topbuckets"
)

func TestSharedFloorMonotonic(t *testing.T) {
	s := NewSharedFloor(0.3)
	if got := s.Load(); got != 0.3 {
		t.Fatalf("seed = %g, want 0.3", got)
	}
	s.Raise(0.2) // lower: ignored
	s.Raise(math.NaN())
	s.Raise(-1)
	if got := s.Load(); got != 0.3 {
		t.Fatalf("floor regressed to %g", got)
	}
	s.Raise(0.7)
	if got := s.Load(); got != 0.7 {
		t.Fatalf("floor = %g, want 0.7", got)
	}
	var zero SharedFloor
	if zero.Load() != 0 {
		t.Fatal("zero value should start at 0")
	}
}

func TestSharedFloorConcurrentRaise(t *testing.T) {
	s := NewSharedFloor(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				s.Raise(float64(g*1000+i) / 8000)
			}
		}(g)
	}
	wg.Wait()
	if got := s.Load(); got != 1 {
		t.Fatalf("concurrent max = %g, want 1", got)
	}
}

// Routed-reference accounting must agree with the assignment's
// replication metric, and every reducer — idle ones included — must
// report its own index.
func TestRoutedReferenceAccounting(t *testing.T) {
	cols := synthCols(3, 60, 41)
	ms, _, err := stats.Collect(cols, 5, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	env := query.Env{Params: scoring.P1}
	q := query.Qom(env)
	const k = 10
	tb, err := topbuckets.Run(q, ms, k, topbuckets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := distribute.DTB(tb.Selected, 4)
	if err != nil {
		t.Fatal(err)
	}
	srcs, grans := storeSources(t, cols, ms)
	out, err := Run(context.Background(), q, srcs, grans, tb.Selected, assign, k, mapreduce.Config{Mappers: 3}, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantEntries := 0
	for _, rs := range assign.BucketReducers {
		wantEntries += len(rs)
	}
	if out.RoutedBucketEntries != wantEntries {
		t.Fatalf("RoutedBucketEntries = %d, want %d (Σ|reducers(b)|)", out.RoutedBucketEntries, wantEntries)
	}
	// DTB's replication metric is preserved by the reference routing.
	if math.Abs(out.RoutedIntervalRecords-assign.ReplicatedRecords) > 1e-9 {
		t.Fatalf("RoutedIntervalRecords = %g, assignment ReplicatedRecords = %g",
			out.RoutedIntervalRecords, assign.ReplicatedRecords)
	}

	// More reducers than combinations leaves some reducers idle; their
	// Locals entries must still name them.
	wide, err := distribute.DTB(tb.Selected, len(tb.Selected)+3)
	if err != nil {
		t.Fatal(err)
	}
	out, err = Run(context.Background(), q, srcs, grans, tb.Selected, wide, k, mapreduce.Config{}, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Locals) != wide.Reducers {
		t.Fatalf("%d Locals entries for %d reducers", len(out.Locals), wide.Reducers)
	}
	for i, l := range out.Locals {
		if l.Reducer != i {
			t.Fatalf("Locals[%d].Reducer = %d", i, l.Reducer)
		}
	}
}

// The shared cross-reducer threshold must end at a sound value: at
// least the seeded floor, at most the global k-th score (it is a max of
// per-reducer k-th-score lower bounds).
func TestSharedThresholdSoundness(t *testing.T) {
	cols := synthCols(3, 50, 43)
	env := query.Env{Params: scoring.P1}
	q := query.Qbb(env)
	const k = 8
	exact, err := Exhaustive(q, cols, k)
	if err != nil {
		t.Fatal(err)
	}
	kth := exact[len(exact)-1].Score
	out := pipeline(t, q, cols, 5, k, topbuckets.Loose, distribute.AlgDTB, LocalOptions{})
	if !ScoreMultisetEqual(out.Results, exact, 1e-9) {
		t.Fatal("shared-threshold run inexact")
	}
	if out.SharedFloor > kth+1e-9 {
		t.Fatalf("shared floor %g exceeds global k-th score %g", out.SharedFloor, kth)
	}
	for _, l := range out.Locals {
		if l.SharedFloorFinal > kth+1e-9 {
			t.Fatalf("reducer %d saw unsound shared floor %g (k-th = %g)", l.Reducer, l.SharedFloorFinal, kth)
		}
	}
	// Pruning disabled → no shared floor is established.
	off := pipeline(t, q, cols, 5, k, topbuckets.Loose, distribute.AlgDTB, LocalOptions{DisablePruning: true})
	if off.SharedFloor != 0 {
		t.Fatalf("pruning-disabled run published shared floor %g", off.SharedFloor)
	}
}

// A reducer that returns no results must report MinScore 0 (not NaN) so
// reports survive encoding/json.
func TestLocalStatsJSONSafe(t *testing.T) {
	q := query.MustNew("pair", 2, []query.Edge{{From: 0, To: 1, Pred: scoring.Before(scoring.P1)}}, scoring.Avg{})
	// No data at all: the local join returns zero results.
	srcs := []Source{newMapSource(0, nil), newMapSource(1, nil)}
	outs, err := RunTasks(context.Background(), q, 3, srcs, nil, nil, []ReducerTask{{}}, LocalOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, st := outs[0].Results, outs[0].Stats
	if len(results) != 0 {
		t.Fatalf("expected no results, got %d", len(results))
	}
	if st.ResultsReturned != 0 || st.MinScore != 0 {
		t.Fatalf("zero-result stats = %+v, want MinScore 0", st)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("LocalStats not JSON-safe: %v", err)
	}
}
