package join

import (
	"context"
	"testing"

	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// Regression: an assignment routing nothing gives the merge zero
// results; Run must still return a non-nil (empty) result slice — not
// a nil slice that breaks callers ranging or JSON-encoding the output.
func TestRunEmptyAssignment(t *testing.T) {
	q := query.MustNew("empty", 2, []query.Edge{
		{From: 0, To: 1, Pred: scoring.Meets(scoring.P1)},
	}, scoring.Avg{})
	srcs := []Source{
		newMapSource(0, map[stats.BucketKey][]interval.Interval{}),
		newMapSource(1, map[stats.BucketKey][]interval.Interval{}),
	}
	grans := make([]stats.Grid, 2)
	assign := &distribute.Assignment{
		Algorithm:      "DTB",
		Reducers:       3,
		ReducerCombos:  make([][]int, 3),
		BucketReducers: map[stats.BucketKey][]int{},
		ReducerResults: make([]float64, 3),
	}
	out, err := Run(context.Background(), q, srcs, grans, nil, assign, 5, mapreduce.Config{}, LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results == nil {
		t.Fatal("Results is nil; want an empty non-nil slice")
	}
	if len(out.Results) != 0 {
		t.Fatalf("got %d results from an empty assignment", len(out.Results))
	}
	if len(out.Locals) != assign.Reducers || out.RoutedBucketEntries != 0 {
		t.Fatalf("empty path: %d locals for %d reducers, %d routed refs", len(out.Locals), assign.Reducers, out.RoutedBucketEntries)
	}
	if out.JoinDuration < 0 || out.MergeDuration < 0 {
		t.Fatalf("negative phase durations: join %v, merge %v", out.JoinDuration, out.MergeDuration)
	}
}
