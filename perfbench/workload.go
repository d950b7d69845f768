package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tkij"
	"tkij/internal/obs"
)

// workload is one traffic mix over the common setup. Every workload
// runs its query window and then the same push phase.
type workload struct {
	// cold draws every request from the never-repeating cold schedule.
	cold bool
}

var workloads = map[string]workload{
	"hot-shapes":  {},
	"cold-shapes": {cold: true},
}

const (
	// setupRepeats is how many times a run sets up; setup_s is their
	// median and the last instance serves the timed window.
	setupRepeats = 3
	// clients is the number of closed-loop query clients.
	clients = 2
	// pushAppends and pushPeriod are the push phase's open-loop writer:
	// one forward append per collection, due one second apart.
	pushAppends = 3
	pushPeriod  = time.Second
	// resultK is the k of every query: the engine default of the zero
	// Options, and every standing subscription's.
	resultK = 100
	// deliveryTimeout bounds the wait for a push after the last append.
	deliveryTimeout = 60 * time.Second
)

// instance is one set-up engine with its admission server.
type instance struct {
	eng *tkij.Engine
	srv *tkij.Server
	// subs is set when subscriptions are registered.
	subs   *pushPhase
	closed bool
}

func (in *instance) close() {
	if in.closed {
		return
	}
	in.closed = true
	if in.subs != nil {
		in.subs.close()
	}
	in.srv.Close()
	in.eng.Close()
}

// setup builds one instance from the data in hand: the engine (offline
// statistics and bucket store), the server, and one warm-up pass that
// serves every shape once.
func setup(ctx context.Context, d *dataset, rec *answers, tr *obs.Tracer) (*instance, time.Duration, error) {
	root := tr.Root("setup")
	defer root.Finish()
	start := time.Now()
	eng, err := tkij.NewEngine(copyCols(d.base), tkij.Options{})
	if err != nil {
		return nil, 0, err
	}
	sp := root.Child("core.prepare")
	err = eng.PrepareStats()
	sp.Finish()
	if err != nil {
		eng.Close()
		return nil, 0, err
	}
	in := &instance{eng: eng, srv: tkij.NewServer(eng, tkij.ServerOptions{})}
	sp = root.Child("warmup")
	for _, s := range d.shapes {
		var rep *tkij.Report
		if rep, err = in.srv.Submit(ctx, s.q, s.mapping); err != nil {
			break
		}
		rec.add(s, rep.Epoch, rep.Results)
	}
	sp.Finish()
	if err != nil {
		in.close()
		return nil, 0, err
	}
	return in, time.Since(start), nil
}

// clientStats are the closed-loop clients' outcome over one window.
type clientStats struct {
	latencies []time.Duration
	attempted int
	failed    int
	elapsed   time.Duration
}

// runClients runs the closed-loop clients until seconds have
// passed, each issuing the next request of the seeded schedule as soon
// as its previous one returns. Requests started before the deadline run
// to completion. issue performs one request and returns its latency.
func runClients(w workload, d *dataset, seconds time.Duration, issue func(i int, sp spec) (time.Duration, error)) (*clientStats, error) {
	var next atomic.Int64
	var mu sync.Mutex
	st := &clientStats{}
	var firstErr error
	start := time.Now()
	deadline := start.Add(seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []time.Duration
			attempted, failed := 0, 0
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				sp, err := d.request(w.cold, i)
				if err != nil {
					mu.Lock()
					firstErr = errors.Join(firstErr, err)
					mu.Unlock()
					return
				}
				attempted++
				lat, err := issue(i, sp)
				if err != nil {
					failed++
					continue
				}
				lats = append(lats, lat)
			}
			mu.Lock()
			st.latencies = append(st.latencies, lats...)
			st.attempted += attempted
			st.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st, firstErr
}

// submit issues one request through the admission server and records
// its answer.
func submit(ctx context.Context, in *instance, sp spec, rec *answers, onReport func(*tkij.Report, time.Duration)) (time.Duration, error) {
	start := time.Now()
	rep, err := in.srv.Submit(ctx, sp.q, sp.mapping)
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	rec.add(sp, rep.Epoch, rep.Results)
	if onReport != nil {
		onReport(rep, lat)
	}
	return lat, nil
}

// pushPhase is a set of standing subscriptions, one per shape, with a
// consumer goroutine each that materializes the deltas and records when
// each epoch arrived.
type pushPhase struct {
	watches []*watch
	// appends is the log of appends made while the subscriptions were
	// registered.
	appends []appendRec
}

type watch struct {
	sp   spec
	sub  *tkij.Subscription
	done chan struct{}

	mu       sync.Mutex
	arrivals []arrival
	// failed counts deltas the materializer rejected.
	failed int
	// pending are push spans of a traced run, finished when a delta
	// at or past their epoch arrives.
	pending map[int64]*obs.Span
}

type arrival struct {
	epoch int64
	at    time.Time
}

type appendRec struct {
	due, start time.Time
	took       time.Duration
	epoch      int64
}

// subscribe registers one subscription per shape at k = resultK.
func subscribe(ctx context.Context, srv *tkij.Server, d *dataset, rec *answers) (*pushPhase, error) {
	p := &pushPhase{}
	for _, sp := range d.shapes {
		sub, err := srv.Subscribe(ctx, sp.q, resultK, tkij.SubscribeOptions{})
		if err != nil {
			p.close()
			return nil, err
		}
		w := &watch{sp: sp, sub: sub, done: make(chan struct{}), pending: map[int64]*obs.Span{}}
		p.watches = append(p.watches, w)
		go w.consume(rec)
	}
	return p, nil
}

// consume folds every delta into a client-side top-k and records the
// materialized state at the delta's epoch for checking.
func (w *watch) consume(rec *answers) {
	defer close(w.done)
	tk := tkij.NewSubscriptionTopK(resultK)
	for d := range w.sub.Deltas() {
		at := time.Now()
		err := tk.Apply(d)
		w.mu.Lock()
		if err != nil {
			w.failed++
		} else {
			w.arrivals = append(w.arrivals, arrival{epoch: d.Epoch, at: at})
			for e, sp := range w.pending {
				if e <= d.Epoch {
					sp.Finish()
					delete(w.pending, e)
				}
			}
		}
		w.mu.Unlock()
		if err == nil {
			rec.add(w.sp, d.Epoch, tk.Results)
		}
	}
}

// reached reports whether a delta at or past epoch has arrived, and
// when the first one did.
func (w *watch) reached(epoch int64) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, a := range w.arrivals {
		if a.epoch >= epoch {
			return a.at, true
		}
	}
	return time.Time{}, false
}

// waitEpoch waits until every subscription has materialized epoch.
func (p *pushPhase) waitEpoch(epoch int64) error {
	limit := time.Now().Add(deliveryTimeout)
	for _, w := range p.watches {
		for {
			if _, ok := w.reached(epoch); ok {
				break
			}
			if time.Now().After(limit) {
				return fmt.Errorf("subscription %s: epoch %d not delivered within %s (%v)", w.sp.q.Name, epoch, deliveryTimeout, w.sub.Err())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func (p *pushPhase) close() {
	for _, w := range p.watches {
		w.sub.Close()
		<-w.done
	}
}

// write is the open-loop writer: batch j is due pushPeriod/2 + j·pushPeriod
// after the call whether or not earlier pushes have finished, and its
// push latency is timed from when it was due. The engine must be at
// epoch 0, and each append must publish the next epoch; the batches are
// appended to appendLog in order.
func (p *pushPhase) write(eng *tkij.Engine, batches []batch, appendLog *[]batch, tr *obs.Tracer) error {
	start := time.Now()
	for j, b := range batches {
		due := start.Add(pushPeriod/2 + time.Duration(j)*pushPeriod)
		time.Sleep(time.Until(due))
		root := tr.Root("ingest")
		want := int64(j) + 1
		if tr != nil {
			root.SetInt("epoch", want)
			for _, w := range p.watches {
				sp := root.Child("standing.push")
				sp.SetStr("query", w.sp.q.Name)
				w.mu.Lock()
				w.pending[want] = sp
				w.mu.Unlock()
			}
		}
		sp := root.Child("core.append")
		began := time.Now()
		epoch, err := eng.Append(b.col, b.items)
		took := time.Since(began)
		sp.Finish()
		if err != nil {
			return fmt.Errorf("append %d: %w", j, err)
		}
		if epoch != want {
			return fmt.Errorf("append %d published epoch %d, want %d", j, epoch, want)
		}
		*appendLog = append(*appendLog, b)
		p.appends = append(p.appends, appendRec{due: due, start: began, took: took, epoch: epoch})
		root.Finish()
	}
	if len(p.appends) == 0 {
		return nil
	}
	return p.waitEpoch(p.appends[len(p.appends)-1].epoch)
}

// pushStats are the push latencies of every (append, subscription)
// pair, timed from the append's due time, and the writer's lateness.
type pushStats struct {
	latencies []time.Duration
	// byAppend holds the pair latencies in milliseconds, one row per
	// append in subscription order.
	byAppend  [][]float64
	lateness  []time.Duration
	appendMs  []float64
	attempted int
	failed    int
}

func (p *pushPhase) stats() pushStats {
	var st pushStats
	for _, a := range p.appends {
		st.lateness = append(st.lateness, a.start.Sub(a.due))
		st.appendMs = append(st.appendMs, ms(a.took))
		var row []float64
		for _, w := range p.watches {
			st.attempted++
			at, ok := w.reached(a.epoch)
			if !ok {
				st.failed++
				continue
			}
			st.latencies = append(st.latencies, at.Sub(a.due))
			row = append(row, ms(at.Sub(a.due)))
		}
		st.byAppend = append(st.byAppend, row)
	}
	for _, w := range p.watches {
		w.mu.Lock()
		st.failed += w.failed
		w.mu.Unlock()
	}
	return st
}

// liveHeapMiB is the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
