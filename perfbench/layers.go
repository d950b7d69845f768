package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tkij"
	"tkij/internal/core"
	"tkij/internal/distribute"
	"tkij/internal/join"
	"tkij/internal/mapreduce"
	"tkij/internal/mmapstore"
	"tkij/internal/obs"
	"tkij/internal/rtree"
	"tkij/internal/shard"
	"tkij/internal/standing"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

// submitEvery sends every submitEvery-th request of a traced run
// through the admission server, so the admission layer is measured too;
// the others are issued as the engine's layer calls.
const submitEvery = 4

// probeRepeats is how often the traced run's single-goroutine probes
// repeat a timed call; the median is reported.
const probeRepeats = 3

// layers collects the traced run's per-layer samples. Every span is
// recorded from the benchmark's own code around a call into one layer.
type layers struct {
	tr *obs.Tracer
	// planMu serializes PlanPinned calls, so the plan-cache counters
	// read around one call attribute its outcome.
	planMu sync.Mutex

	mu       sync.Mutex
	samples  map[string][]float64
	outcomes map[string]int
	// replayFailed counts replayed plans or scatters whose answer
	// differed from the served one.
	replayFailed int
	// values holds per-layer metrics read once rather than sampled.
	values map[string]float64
}

func newLayers(tr *obs.Tracer) *layers {
	return &layers{
		tr:       tr,
		samples:  map[string][]float64{},
		outcomes: map[string]int{},
		values:   map[string]float64{},
	}
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// request issues request i of the schedule in a traced run: through
// Submit for every submitEvery-th request, otherwise as the layer calls
// Pin → PlanPinned → ExecutePinned → Release. A plan that was not a hit
// is also replayed with direct topbuckets.Run and distribute.Assign
// calls, and the replayed plan's answer must equal the served one.
func (l *layers) request(ctx context.Context, in *instance, i int, sp spec, rec *answers) (time.Duration, error) {
	root := l.tr.Root("request")
	root.SetInt("req", int64(i))
	root.SetStr("query", sp.q.Name)
	defer root.Finish()
	if i%submitEvery == 0 {
		c := root.Child("admission.submit")
		defer c.Finish()
		return submit(ctx, in, sp, rec, func(rep *tkij.Report, lat time.Duration) {
			l.add("admission.wait_ms", ms(lat-rep.Total))
			l.add("admission.batch_size", float64(rep.BatchSize))
			l.observe(rep)
		})
	}

	eng := in.eng
	start := time.Now()
	c := root.Child("core.pin")
	pin, err := eng.Pin()
	c.Finish()
	if err != nil {
		return 0, err
	}
	defer func() {
		c := root.Child("core.release")
		pin.Release()
		c.Finish()
	}()
	outcome, planTook, err := l.plan(ctx, root, eng, sp, pin)
	if err != nil {
		return 0, err
	}
	c = root.Child("join.execute")
	began := time.Now()
	rep, err := eng.ExecutePinned(ctx, sp.q, sp.mapping, pin, nil, "")
	took := time.Since(began)
	c.Finish()
	if err != nil {
		return 0, err
	}
	lat := time.Since(start)
	rec.add(sp, rep.Epoch, rep.Results)
	l.mu.Lock()
	l.outcomes[outcome]++
	l.mu.Unlock()
	l.observePlan(outcome, planTook)
	if outcome == "hit" {
		l.add("join.run_ms", ms(took))
	}
	l.observe(rep)
	if outcome != "hit" {
		if err := l.replay(ctx, root, eng, sp, pin, rep); err != nil {
			return 0, err
		}
	}
	return lat, nil
}

// plan times one PlanPinned call and classifies it by the plan-cache
// counters around it.
func (l *layers) plan(ctx context.Context, parent *obs.Span, eng *tkij.Engine, sp spec, pin *core.Pin) (string, time.Duration, error) {
	l.planMu.Lock()
	defer l.planMu.Unlock()
	before := eng.PlanCacheStats()
	c := parent.Child("plancache.plan")
	began := time.Now()
	err := eng.PlanPinned(ctx, sp.q, sp.mapping, pin)
	took := time.Since(began)
	after := eng.PlanCacheStats()
	outcome := "hit"
	switch {
	case after.Misses > before.Misses:
		outcome = "miss"
	case after.Revalidations > before.Revalidations:
		outcome = "revalidated"
	}
	c.SetStr("outcome", outcome)
	c.Finish()
	return outcome, took, err
}

func (l *layers) observePlan(outcome string, took time.Duration) {
	switch outcome {
	case "hit":
		l.add("plancache.hit_us", float64(took)/float64(time.Microsecond))
	case "revalidated":
		l.add("plancache.revalidate_ms", ms(took))
	}
}

// observe records the join-layer counts of one served execution.
func (l *layers) observe(rep *tkij.Report) {
	if rep.Join == nil {
		return
	}
	var examined, pruned int64
	var assigned, skipped int
	var maxDur, sumDur time.Duration
	for _, s := range rep.Join.Locals {
		examined += s.TuplesExamined
		pruned += s.PartialsPruned
		assigned += s.CombosAssigned
		skipped += s.CombosSkipped
		maxDur = max(maxDur, s.Duration)
		sumDur += s.Duration
	}
	l.add("join.merge_ms", ms(rep.MergeTime))
	l.add("join.tuples_examined", float64(examined))
	l.add("join.partials_pruned", float64(pruned))
	l.add("join.routed_refs", float64(rep.Join.RoutedBucketEntries))
	if assigned > 0 {
		l.add("join.combos_skipped_frac", float64(skipped)/float64(assigned))
	}
	if n := len(rep.Join.Locals); n > 0 && sumDur > 0 {
		l.add("join.reducer_skew", float64(maxDur)/(float64(sumDur)/float64(n)))
	}
}

// plannerInputs are the per-vertex planning and join inputs of a
// request at a pin's epoch, assembled the way the engine does.
type plannerInputs struct {
	matrices []*stats.Matrix
	grids    []stats.Grid
}

func inputsAt(pin *core.Pin, sp spec) plannerInputs {
	var in plannerInputs
	for v, ci := range sp.mapping {
		m := pin.Matrices()[ci]
		in.matrices = append(in.matrices, m.WithCol(v))
		in.grids = append(in.grids, m.Grid())
	}
	return in
}

// sources pins a store view at the pin's epoch and returns it with the
// per-vertex join sources. Nothing appends while requests and probes
// run, so the store's current epoch is the pin's.
func sources(eng *tkij.Engine, pin *core.Pin, sp spec) (*store.View, []join.Source, error) {
	view := eng.Store().View()
	if view.Epoch() != pin.Epoch() {
		view.Release()
		return nil, nil, fmt.Errorf("store at epoch %d, pin at %d", view.Epoch(), pin.Epoch())
	}
	var srcs []join.Source
	for _, ci := range sp.mapping {
		srcs = append(srcs, view.Col(ci))
	}
	return view, srcs, nil
}

// replay re-plans a request with direct TopBuckets and distribution
// calls and joins the replayed plan locally; its answer must equal the
// served one.
func (l *layers) replay(ctx context.Context, parent *obs.Span, eng *tkij.Engine, sp spec, pin *core.Pin, served *tkij.Report) error {
	in := inputsAt(pin, sp)
	tb, as, err := l.planDirect(parent, eng, sp.q, in, false)
	if err != nil {
		return err
	}
	view, srcs, err := sources(eng, pin, sp)
	if err != nil {
		return err
	}
	defer view.Release()
	c := parent.Child("check.replay_join")
	out, err := join.Run(ctx, sp.q, srcs, in.grids, tb.Selected, as, eng.Options().K,
		mapreduce.Config{Reducers: eng.Options().Reducers}, join.LocalOptions{Floor: tb.KthResLB})
	c.Finish()
	if err != nil {
		return err
	}
	if !join.ScoreMultisetEqual(out.Results, served.Results, scoreEps) {
		l.mu.Lock()
		l.replayFailed++
		l.mu.Unlock()
	}
	return nil
}

// planDirect runs topbuckets.Run and distribute.Assign under the
// engine's options, timing each. countAllocs also records the
// allocations of topbuckets.Run; set it only where no other goroutine
// is working.
func (l *layers) planDirect(parent *obs.Span, eng *tkij.Engine, q *tkij.Query, in plannerInputs, countAllocs bool) (*topbuckets.Result, *distribute.Assignment, error) {
	opts := eng.Options()
	tbOpts := opts.TopBuckets
	tbOpts.Strategy = opts.Strategy
	c := parent.Child("topbuckets.run")
	var tb *topbuckets.Result
	var err error
	took, allocs := measure(func() { tb, err = topbuckets.Run(q, in.matrices, opts.K, tbOpts) })
	c.Finish()
	if err != nil {
		return nil, nil, err
	}
	l.add("topbuckets.run_ms", ms(took))
	if countAllocs {
		l.add("topbuckets.allocs", float64(allocs))
	}
	l.add("topbuckets.solver_calls", float64(tb.PairSolverCalls+tb.TightSolverCalls))
	l.add("topbuckets.selected_combos", float64(len(tb.Selected)))
	l.add("topbuckets.pruned_frac", tb.PrunedFraction())
	c = parent.Child("distribute.assign")
	began := time.Now()
	as, err := distribute.Assign(opts.Distribution, tb.Selected, opts.Reducers)
	took = time.Since(began)
	c.Finish()
	if err != nil {
		return nil, nil, err
	}
	l.add("distribute.assign_ms", ms(took))
	l.add("distribute.replicated_records", as.ReplicatedRecords)
	l.add("distribute.result_imbalance", as.ResultImbalance())
	return tb, as, nil
}

// window records the per-layer readings taken over the timed window and
// the push phase.
func (l *layers) window(cs *clientStats, ps pushStats, st, stBefore standing.Stats, storeBefore, storeAfter store.Stats, gcCycles uint32, rejected int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, v := range ps.appendMs {
		l.samples["core.append_ms"] = append(l.samples["core.append_ms"], v)
	}
	affected := float64(st.AffectedCombos - stBefore.AffectedCombos)
	probed := float64(st.ProbedCombos - stBefore.ProbedCombos)
	l.values["standing.affected_combos"] = affected
	l.values["standing.probed_combos"] = probed
	if affected > 0 {
		l.values["standing.probe_ratio"] = probed / affected
	}
	l.values["standing.resyncs"] = float64(st.Resyncs - stBefore.Resyncs)
	l.values["standing.dropped_deltas"] = float64(st.DroppedDeltas - stBefore.DroppedDeltas)
	l.values["store.trees_built"] = float64(storeAfter.TreesBuilt - storeBefore.TreesBuilt)
	l.values["store.tree_hits"] = float64(storeAfter.TreeHits - storeBefore.TreeHits)
	l.values["store.delta_items"] = float64(storeAfter.DeltaItems)
	l.values["store.compactions"] = float64(storeAfter.Compactions - storeBefore.Compactions)
	l.values["store.flat_indexes_built"] = float64(storeAfter.FlatIndexesBuilt - storeBefore.FlatIndexesBuilt)
	l.values["runtime.gc_cycles"] = float64(gcCycles)
	l.values["admission.rejected"] = float64(rejected)
	total := 0
	for _, n := range l.outcomes {
		total += n
	}
	if total > 0 {
		l.values["plancache.hit_ratio"] = float64(l.outcomes["hit"]) / float64(total)
	}
	l.values["traced.query_p50_ms"] = ms(quantile(cs.latencies, 0.5))
	l.values["traced.qps"] = float64(len(cs.latencies)) / cs.elapsed.Seconds()
	l.values["traced.push_p50_ms"] = ms(quantile(ps.latencies, 0.5))
}

// probe runs the traced run's single-goroutine layer probes after the
// window, on the engine the workload left behind: a bucket-store probe
// sweep, per shape a direct plan, a plan-cache hit, a join and a shard
// scatter, then one more append and the revalidations it causes, and
// finally the set-up layers (statistics, snapshot restore, mapped-file
// verification) on a fresh engine.
func (l *layers) probe(ctx context.Context, in *instance, d *dataset, appendLog *[]batch, rec *answers, dir string) error {
	root := l.tr.Root("probe")
	defer root.Finish()
	eng := in.eng
	pin, err := eng.Pin()
	if err != nil {
		return err
	}
	defer pin.Release()

	view, _, err := sources(eng, pin, d.shapes[0])
	if err != nil {
		return err
	}
	sweep := func() {
		for c, m := range pin.Matrices() {
			cv := view.Col(c)
			for _, b := range m.Buckets() {
				cv.SearchBucket(b.StartG, b.EndG, rtree.Everything(), func(int32) bool { return true })
			}
		}
	}
	for i := 0; i < probeRepeats; i++ {
		c := root.Child("store.probe_sweep")
		took, allocs := measure(sweep)
		c.Finish()
		l.add("store.probe_sweep_us", float64(took)/float64(time.Microsecond))
		l.values["store.probe_sweep_allocs"] = float64(allocs)
	}
	view.Release()

	cluster, _, err := shard.InProcess(2, shard.ClusterOptions{})
	if err != nil {
		return err
	}
	defer cluster.Close()
	if err := cluster.LoadStore(eng.Store()); err != nil {
		return err
	}
	for _, sp := range d.shapes {
		if err := l.probeShape(ctx, root, eng, pin, sp, cluster, rec); err != nil {
			return err
		}
	}
	pin.Release()

	// One more forward append: every cached plan now revalidates.
	b := d.batches[len(*appendLog)]
	c := root.Child("core.append")
	began := time.Now()
	epoch, err := eng.Append(b.col, b.items)
	l.add("core.append_ms", ms(time.Since(began)))
	c.Finish()
	if err != nil {
		return err
	}
	if want := int64(len(*appendLog)) + 1; epoch != want {
		return fmt.Errorf("probe append published epoch %d, want %d", epoch, want)
	}
	*appendLog = append(*appendLog, b)
	for _, sp := range d.shapes {
		pin, err := eng.Pin()
		if err != nil {
			return err
		}
		outcome, took, err := l.plan(ctx, root, eng, sp, pin)
		if err == nil {
			l.observePlan(outcome, took)
			var rep *tkij.Report
			if rep, err = eng.ExecutePinned(ctx, sp.q, sp.mapping, pin, nil, ""); err == nil {
				rec.add(sp, rep.Epoch, rep.Results)
			}
		}
		pin.Release()
		if err != nil {
			return err
		}
	}
	return l.probeSetup(root, d, filepath.Join(dir, "probe.tkij"))
}

// probeShape times, for one shape at the pin's epoch: a direct plan, a
// plan-cache hit, the join right after it, and the same join scattered
// over an in-process two-shard cluster against the local one.
func (l *layers) probeShape(ctx context.Context, root *obs.Span, eng *tkij.Engine, pin *core.Pin, sp spec, cluster *shard.Cluster, rec *answers) error {
	parent := root.Child("probe.shape")
	parent.SetStr("query", sp.q.Name)
	defer parent.Finish()
	in := inputsAt(pin, sp)
	tb, as, err := l.planDirect(parent, eng, sp.q, in, true)
	if err != nil {
		return err
	}

	if _, _, err := l.plan(ctx, parent, eng, sp, pin); err != nil {
		return err
	}
	outcome, took, err := l.plan(ctx, parent, eng, sp, pin)
	if err != nil {
		return err
	}
	l.observePlan(outcome, took)
	var rep *tkij.Report
	c := parent.Child("join.execute")
	took, allocs := measure(func() { rep, err = eng.ExecutePinned(ctx, sp.q, sp.mapping, pin, nil, "") })
	c.Finish()
	if err != nil {
		return err
	}
	rec.add(sp, rep.Epoch, rep.Results)
	l.observe(rep)
	if outcome == "hit" {
		l.add("join.run_ms", ms(took))
	}
	l.add("join.allocs_per_query", float64(allocs))
	if k := eng.Options().K; len(rep.Results) >= k && rep.TopBuckets.KthResLB > 0 {
		l.add("topbuckets.bound_tightness", rep.Results[k-1].Score/rep.TopBuckets.KthResLB)
	}

	view, srcs, err := sources(eng, pin, sp)
	if err != nil {
		return err
	}
	defer view.Release()
	cfg := mapreduce.Config{Reducers: eng.Options().Reducers}
	local := join.LocalOptions{Floor: tb.KthResLB}
	c = parent.Child("join.local")
	began := time.Now()
	lo, err := join.Run(ctx, sp.q, srcs, in.grids, tb.Selected, as, eng.Options().K, cfg, local)
	localTook := time.Since(began)
	c.Finish()
	if err != nil {
		return err
	}
	c = parent.Child("shard.scatter")
	began = time.Now()
	ro, err := join.RunWith(ctx, sp.q, srcs, in.grids, tb.Selected, as, eng.Options().K, cfg, local, sp.mapping, cluster)
	remoteTook := time.Since(began)
	c.Finish()
	if err != nil {
		return err
	}
	l.add("shard.scatter_ms", ms(remoteTook-localTook))
	l.add("shard.shipped_buckets", float64(ro.ShippedBuckets))
	l.add("shard.shipped_records", ro.ShippedRecords)
	l.add("shard.floor_frames", float64(ro.FloorFrames))
	if !join.ScoreMultisetEqual(lo.Results, rep.Results, scoreEps) || !join.ScoreMultisetEqual(ro.Results, rep.Results, scoreEps) {
		l.mu.Lock()
		l.replayFailed++
		l.mu.Unlock()
	}
	return nil
}

// probeSetup times the set-up layers on a fresh engine over the base
// data: the offline statistics and store build, a snapshot restore, and
// the mapped file's open and content verification.
func (l *layers) probeSetup(root *obs.Span, d *dataset, path string) error {
	for i := 0; i < probeRepeats; i++ {
		eng, err := tkij.NewEngine(copyCols(d.base), tkij.Options{})
		if err != nil {
			return err
		}
		c := root.Child("core.prepare")
		began := time.Now()
		err = eng.PrepareStats()
		l.add("core.prepare_ms", ms(time.Since(began)))
		c.Finish()
		if err == nil {
			err = eng.SaveSnapshot(path)
		}
		eng.Close()
		if err != nil {
			return err
		}
		c = root.Child("snapshot.open")
		began = time.Now()
		restored, err := tkij.OpenEngine(copyCols(d.base), path, tkij.Options{Mmap: true, Shards: 2})
		l.add("snapshot.open_ms", ms(time.Since(began)))
		c.Finish()
		if err != nil {
			return err
		}
		restored.Close()
		c = root.Child("mmapstore.verify")
		began = time.Now()
		r, err := mmapstore.Open(path)
		if err == nil {
			err = r.Verify()
			r.Close()
		}
		l.add("mmapstore.verify_ms", ms(time.Since(began)))
		c.Finish()
		if err != nil {
			return err
		}
	}
	return nil
}

// measure times f and counts the heap allocations it makes. The probes
// run on one goroutine with no traffic, so the count is the call's own.
func measure(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	f()
	took := time.Since(began)
	runtime.ReadMemStats(&after)
	return took, after.Mallocs - before.Mallocs
}

// perLayer lists every per-layer metric with its unit and how its
// samples reduce to one value.
var perLayer = []struct {
	name, unit string
	reduce     func([]float64) float64
}{
	{"admission.wait_ms", "ms", median},
	{"admission.batch_size_mean", "count", nil},
	{"admission.rejected", "count", nil},
	{"plancache.hit_ratio", "ratio", nil},
	{"plancache.hit_us", "us", median},
	{"plancache.revalidate_ms", "ms", median},
	{"topbuckets.run_ms", "ms", median},
	{"topbuckets.solver_calls", "count", mean},
	{"topbuckets.selected_combos", "count", mean},
	{"topbuckets.pruned_frac", "ratio", mean},
	{"topbuckets.allocs", "count", mean},
	{"topbuckets.bound_tightness", "ratio", mean},
	{"distribute.assign_ms", "ms", median},
	{"distribute.replicated_records", "count", mean},
	{"distribute.result_imbalance", "ratio", mean},
	{"join.run_ms", "ms", median},
	{"join.merge_ms", "ms", median},
	{"join.tuples_examined", "count", mean},
	{"join.partials_pruned", "count", mean},
	{"join.combos_skipped_frac", "ratio", mean},
	{"join.routed_refs", "count", mean},
	{"join.reducer_skew", "ratio", mean},
	{"join.allocs_per_query", "count", mean},
	{"store.probe_sweep_us", "us", median},
	{"store.probe_sweep_allocs", "count", nil},
	{"store.trees_built", "count", nil},
	{"store.tree_hits", "count", nil},
	{"store.delta_items", "count", nil},
	{"store.compactions", "count", nil},
	{"store.flat_indexes_built", "count", nil},
	{"core.prepare_ms", "ms", median},
	{"core.append_ms", "ms", median},
	{"standing.affected_combos", "count", nil},
	{"standing.probed_combos", "count", nil},
	{"standing.probe_ratio", "ratio", nil},
	{"standing.resyncs", "count", nil},
	{"standing.dropped_deltas", "count", nil},
	{"shard.scatter_ms", "ms", median},
	{"shard.shipped_buckets", "count", mean},
	{"shard.shipped_records", "count", mean},
	{"shard.floor_frames", "count", mean},
	{"snapshot.open_ms", "ms", median},
	{"mmapstore.verify_ms", "ms", median},
	{"runtime.gc_cycles", "count", nil},
	{"traced.setup_s", "s", nil},
	{"traced.query_p50_ms", "ms", nil},
	{"traced.qps", "1/s", nil},
	{"traced.push_p50_ms", "ms", nil},
}

// metrics reduces the samples to the per-layer metrics.
func (l *layers) metrics(setups []float64) map[string]metric {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.values["traced.setup_s"] = median(setups)
	l.values["admission.batch_size_mean"] = mean(l.samples["admission.batch_size"])
	out := map[string]metric{}
	for _, m := range perLayer {
		v := l.values[m.name]
		if m.reduce != nil {
			v = m.reduce(l.samples[m.name])
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// export writes the spans as Chrome trace JSON to path and returns each
// span name's self time in milliseconds: its spans' durations minus the
// time their child spans cover.
func (l *layers) export(path string) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := l.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := l.tr.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	type row struct {
		Name  string `json:"name"`
		Depth int    `json:"depth"`
		DurUS int64  `json:"dur_us"`
	}
	self := map[string]float64{}
	// stack[i] is the open span at depth i and the child time it covers.
	type open struct {
		name          string
		dur, children int64
	}
	var stack []open
	flush := func(depth int) {
		for len(stack) > depth {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			self[top.name] += float64(top.dur-min(top.children, top.dur)) / 1000
		}
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		flush(r.Depth)
		if r.Depth > 0 && len(stack) == r.Depth {
			stack[r.Depth-1].children += r.DurUS
		}
		stack = append(stack, open{name: r.Name, dur: r.DurUS})
	}
	flush(0)
	return self, sc.Err()
}
