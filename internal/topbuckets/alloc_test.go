//go:build !race

// The race detector's instrumentation changes allocation counts, so
// this gate runs only in non-race builds.

package topbuckets

import (
	"fmt"
	"testing"

	"tkij/internal/datagen"
	"tkij/internal/interval"
	"tkij/internal/mapreduce"
	"tkij/internal/query"
	"tkij/internal/scoring"
	"tkij/internal/stats"
)

// TestRunAllocations bounds the allocations of one cold loose plan of
// Qb,b over the serving benchmark's collections (three 20,000-interval
// uniform collections, g = 40, k = 100): |Ω| = 493,039 combinations, 1
// selected. Planning may allocate per kept combination, per bucket and
// per pair, but not per enumerated combination.
func TestRunAllocations(t *testing.T) {
	cols := make([]*interval.Collection, 3)
	for i := range cols {
		cols[i] = datagen.Uniform(fmt.Sprintf("C%d", i+1), 20000, int64(i+1))
	}
	ms, _, err := stats.Collect(cols, 40, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Qbb(query.Env{Params: scoring.P1, Avg: interval.AvgLength(cols...)})
	var res *Result
	allocs := testing.AllocsPerRun(1, func() {
		if res, err = Run(q, ms, 100, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if res.TotalCombos != 493039 || len(res.Selected) != 1 {
		t.Fatalf("planned |Ω| = %g with %d selected, want 493039 with 1: the inputs changed", res.TotalCombos, len(res.Selected))
	}
	const limit = 150000
	if allocs >= limit {
		t.Fatalf("Run allocated %.0f times, want < %d", allocs, limit)
	}
	t.Logf("Run allocated %.0f times", allocs)
}
