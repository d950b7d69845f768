package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tkij"
	"tkij/internal/join"
)

// scoreEps is the tolerance of the score-multiset comparison. Scores
// are computed by the same predicate code on both sides, so only float
// summation order can differ.
const scoreEps = 1e-9

// answers records every answer a run served, for checking outside the
// timed region. Answers are kept once per distinct (spec, epoch, score
// multiset) with a count, so memory does not grow with the number of
// requests a faster build completes.
type answers struct {
	mu    sync.Mutex
	specs map[int]spec
	recs  map[answerKey]*answerRec
}

type answerKey struct {
	spec  int
	epoch int64
	hash  uint64
}

type answerRec struct {
	results []tkij.Result
	count   int
}

func newAnswers() *answers {
	return &answers{specs: map[int]spec{}, recs: map[answerKey]*answerRec{}}
}

// add records one answer of sp served at epoch.
func (a *answers) add(sp spec, epoch int64, results []tkij.Result) {
	key := answerKey{spec: sp.id, epoch: epoch, hash: scoreHash(results)}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.specs[sp.id] = sp
	if r := a.recs[key]; r != nil {
		r.count++
		return
	}
	a.recs[key] = &answerRec{results: slices.Clone(results), count: 1}
}

// scoreHash hashes the sorted score multiset of results.
func scoreHash(results []tkij.Result) uint64 {
	scores := make([]float64, len(results))
	for i, r := range results {
		scores[i] = r.Score
	}
	sort.Float64s(scores)
	h := fnv.New64a()
	var b [8]byte
	for _, s := range scores {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
		h.Write(b[:])
	}
	return h.Sum64()
}

// referenceOptions configures the engine reference answers come from.
// It shares no planning state with the engines under test: another
// granulation (so other buckets, bounds and pruning), the plan cache
// off, LPT instead of DTB, and fewer reducers. Score multisets are the
// answer contract that holds under k-th-score ties, so that is what is
// compared.
func referenceOptions(k int) tkij.Options {
	return tkij.Options{
		K:            k,
		Granules:     20,
		Reducers:     8,
		Distribution: tkij.LPT,
		PlanCache:    tkij.PlanCacheOptions{Disabled: true},
	}
}

// checkResult is the outcome of checking a run's answers.
type checkResult struct {
	// answers and failed count served answers (with multiplicity) and
	// those whose score multiset differs from the reference.
	answers, failed int
	// canaryCaught reports that a deliberately corrupted copy of one
	// answer was flagged, so the comparison above is live.
	canaryCaught bool
}

// check replays appendLog on a reference engine built from base and
// compares every recorded answer with the reference top-k answer of its
// spec at its epoch (epoch e = the first e batches of the log applied).
func (a *answers) check(ctx context.Context, base []*tkij.Collection, appendLog []batch, k int) (checkResult, error) {
	var res checkResult
	need := map[int64][]int{}
	for key, r := range a.recs {
		if key.epoch < 0 || key.epoch > int64(len(appendLog)) {
			return res, fmt.Errorf("answer of spec %d at epoch %d outside the %d appends made", key.spec, key.epoch, len(appendLog))
		}
		need[key.epoch] = append(need[key.epoch], key.spec)
		res.answers += r.count
	}
	ref, err := tkij.NewEngine(copyCols(base), referenceOptions(k))
	if err != nil {
		return res, err
	}
	defer ref.Close()
	refs := map[answerKey][]tkij.Result{}
	for e := int64(0); e <= int64(len(appendLog)); e++ {
		ids := need[e]
		slices.Sort(ids)
		ids = slices.Compact(ids)
		results := make([][]tkij.Result, len(ids))
		errs := make([]error, len(ids))
		// Two goroutines, one per core: the reference executions are
		// independent within an epoch and each leaves a core idle at
		// times.
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(ids); i = int(next.Add(1) - 1) {
					sp := a.specs[ids[i]]
					rep, err := ref.ExecuteMapped(ctx, sp.q, sp.mapping)
					if err != nil {
						errs[i] = fmt.Errorf("reference %s %v at epoch %d: %w", sp.q.Name, sp.mapping, e, err)
						continue
					}
					results[i] = rep.Results
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return res, err
		}
		for i, id := range ids {
			refs[answerKey{spec: id, epoch: e}] = results[i]
		}
		if e < int64(len(appendLog)) {
			b := appendLog[e]
			if _, err := ref.Append(b.col, b.items); err != nil {
				return res, fmt.Errorf("reference append %d: %w", e, err)
			}
		}
	}
	var canary *answerRec
	var canaryRef []tkij.Result
	for key, r := range a.recs {
		want := refs[answerKey{spec: key.spec, epoch: key.epoch}]
		if !join.ScoreMultisetEqual(r.results, want, scoreEps) {
			res.failed += r.count
		}
		if canary == nil && len(r.results) > 0 {
			canary, canaryRef = r, want
		}
	}
	if canary != nil {
		res.canaryCaught = !join.ScoreMultisetEqual(corrupt(canary.results), canaryRef, scoreEps)
	}
	return res, nil
}

// corrupt returns a copy of results with the last score moved by far
// more than scoreEps — the wrong answer the canary check feeds the
// comparison.
func corrupt(results []tkij.Result) []tkij.Result {
	out := slices.Clone(results)
	out[len(out)-1].Score += 1e-3
	return out
}
