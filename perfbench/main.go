// Command perfbench is the repository benchmark. It runs one serving
// workload over the TKIJ engine through its public entry points, checks
// every answer against an independent reference engine, and prints the
// workload's metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 612, "failed": 0, "metrics": {"qps": {"value": 30.8, "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run is timed around the calls into each layer and
// the metrics are the per-layer metrics, and a Chrome trace of the run
// is written under -out. The line before the result is a JSON object of
// run metadata (machine, sample counts, work-count guards).
//
// Run it through run.sh from the root of the checkout, which builds it:
//
//	bash perfbench/run.sh --workload hot-shapes --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"tkij/internal/obs"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: hot-shapes or cold-shapes")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request schedule")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the snapshot file and the Chrome trace")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r, meta, err := execute(context.Background(), o, w, dir)
	if err != nil {
		return err
	}
	meta["machine"] = machine()
	meta["workload"], meta["seed"], meta["seconds"], meta["trace"] = o.workload, o.seed, o.seconds, o.trace
	meta["attempted"], meta["failed"] = r.Attempted, r.Failed
	for _, v := range []any{map[string]any{"meta": meta}, r} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// execute runs one workload: set-up (several times), the timed query
// window, the push phase, the end-of-run heap reading, then — untimed —
// the layer probes of a traced run and the answer checks.
func execute(ctx context.Context, o options, w workload, dir string) (*result, map[string]any, error) {
	d, err := newDataset(o.seed, pushAppends+1)
	if err != nil {
		return nil, nil, err
	}
	var tr *obs.Tracer
	var lay *layers
	if o.trace == 1 {
		tr = obs.NewTracer()
		lay = newLayers(tr)
	}
	rec := newAnswers()
	meta := map[string]any{}
	// phases is the wall time of each part of the run, in seconds.
	phases := map[string]float64{}
	meta["phase_s"] = phases
	mark := time.Now()
	phase := func(name string) {
		phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}

	var in *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.close()
		}
		var took time.Duration
		if in, took, err = setup(ctx, d, rec, tr); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer in.close()
	meta["setup_s_samples"] = setups
	// The resident memory of the warm engine: bucket store, memoized
	// indexes and the warm-up's plans. Read here rather than at the end,
	// where cold-shapes holds one cached plan per request served, so the
	// reading would grow with throughput; the end-of-run reading is in
	// meta.
	heap := liveHeapMiB()
	phase("setup")

	issue := func(i int, sp spec) (time.Duration, error) {
		return submit(ctx, in, sp, rec, nil)
	}
	if lay != nil {
		issue = func(i int, sp spec) (time.Duration, error) {
			return lay.request(ctx, in, i, sp, rec)
		}
	}
	planBefore, storeBefore := in.eng.PlanCacheStats(), in.eng.StoreStats()
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	cs, err := runClients(w, d, time.Duration(o.seconds)*time.Second, issue)
	if err != nil {
		return nil, nil, err
	}
	planAfter := in.eng.PlanCacheStats()
	phase("window")

	// The push phase: standing subscriptions, one per shape, and an
	// open-loop writer whose appends move time forward, on the engine
	// the window's traffic left behind.
	var appendLog []batch
	if in.subs, err = subscribe(ctx, in.srv, d, rec); err != nil {
		return nil, nil, err
	}
	if err := in.subs.waitEpoch(0); err != nil {
		return nil, nil, err
	}
	standingBefore := in.srv.StandingStats()
	if err := in.subs.write(in.eng, d.batches[:pushAppends], &appendLog, tr); err != nil {
		return nil, nil, err
	}
	ps := in.subs.stats()
	standing := in.srv.StandingStats()
	meta["heap_end_mb"] = liveHeapMiB()
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	storeAfter := in.eng.StoreStats()
	in.subs.close()
	in.subs = nil
	phase("push")

	// Work-count guards: counts that must repeat exactly for a seed.
	misses := planAfter.Misses - planBefore.Misses
	guardOK := misses == 0
	if w.cold {
		guardOK = misses == int64(len(cs.latencies))
	}
	meta["guards"] = map[string]any{
		"plan_misses":              misses,
		"completed_requests":       len(cs.latencies),
		"standing.affected_combos": standing.AffectedCombos - standingBefore.AffectedCombos,
		"standing.probed_combos":   standing.ProbedCombos - standingBefore.ProbedCombos,
	}
	meta["guards_hold"] = guardOK
	meta["query_samples"] = len(cs.latencies)
	// Push latencies are reported here, not as end-to-end metrics: with
	// identical inputs, two runs' medians differ by 30% or more.
	meta["push_ms"] = map[string]any{
		"samples":   len(ps.latencies),
		"p50":       ms(quantile(ps.latencies, 0.5)),
		"p90":       ms(quantile(ps.latencies, 0.9)),
		"by_append": ps.byAppend,
	}
	meta["writer_lateness_ms"] = map[string]float64{
		"p50": ms(quantile(ps.lateness, 0.5)), "max": ms(quantile(ps.lateness, 1)),
	}

	failed := cs.failed + ps.failed
	var metrics map[string]metric
	if lay == nil {
		metrics = endToEnd(setups, cs, heap)
	} else {
		lay.window(cs, ps, standing, standingBefore, storeBefore, storeAfter, gcAfter.NumGC-gcBefore.NumGC, in.srv.Stats().Rejected)
		if err := lay.probe(ctx, in, d, &appendLog, rec, dir); err != nil {
			return nil, nil, err
		}
		phase("probe")
		metrics = lay.metrics(setups)
		failed += lay.replayFailed
		tracePath := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		self, err := lay.export(tracePath)
		if err != nil {
			return nil, nil, err
		}
		meta["trace_file"], meta["self_ms_by_span"] = tracePath, self
	}

	in.close()
	chk, err := rec.check(ctx, d.base, appendLog, resultK)
	if err != nil {
		return nil, nil, fmt.Errorf("checking answers: %w", err)
	}
	failed += chk.failed
	phase("check")
	meta["answers_checked"], meta["canary_caught"] = chk.answers, chk.canaryCaught
	return &result{
		Correct:   failed == 0 && chk.canaryCaught && guardOK,
		Attempted: cs.attempted + ps.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, meta, nil
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(setups []float64, cs *clientStats, heap float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"query_p50_ms": {ms(quantile(cs.latencies, 0.5)), "ms"},
		"query_p90_ms": {ms(quantile(cs.latencies, 0.9)), "ms"},
		"qps":          {float64(len(cs.latencies)) / cs.elapsed.Seconds(), "1/s"},
		"heap_live_mb": {heap, "MiB"},
	}
}

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// machine describes where the run happened.
func machine() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}
