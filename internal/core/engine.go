package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tkij/internal/distribute"
	"tkij/internal/interval"
	"tkij/internal/join"
	"tkij/internal/mapreduce"
	"tkij/internal/mmapstore"
	"tkij/internal/obs"
	"tkij/internal/plancache"
	"tkij/internal/query"
	"tkij/internal/shard"
	"tkij/internal/snapshot"
	"tkij/internal/stats"
	"tkij/internal/store"
	"tkij/internal/topbuckets"
)

// Options configures an Engine. The zero value maps to the paper's
// defaults: g = 40 granules (§4.2.4's sweet spot), k = 100, 24 reducers,
// the loose TopBuckets strategy, and DTB workload distribution.
type Options struct {
	// Granules is g, the number of granules per collection.
	Granules int
	// K is the number of results to return.
	K int
	// Reducers is the number of reduce partitions r.
	Reducers int
	// Mappers is the number of parallel map tasks of the offline
	// statistics job (0 = GOMAXPROCS).
	Mappers int
	// Strategy selects the TopBuckets bound-computation strategy.
	Strategy topbuckets.Strategy
	// Distribution selects the workload-assignment algorithm.
	Distribution distribute.Algorithm
	// TopBuckets carries advanced TopBuckets tuning; its Strategy field
	// is overridden by Strategy above.
	TopBuckets topbuckets.Options
	// Local carries the per-reducer join ablation switches.
	Local join.LocalOptions
	// CompactLimit is the store's per-bucket delta compaction threshold
	// for streaming appends (0 = store.DefaultCompactLimit).
	CompactLimit int
	// PlanCache tunes the query-plan cache (the zero value enables it
	// with default bounds; set PlanCache.Disabled to plan every query
	// cold). Repeated query shapes hit the cache and skip the
	// TopBuckets + distribution phases entirely; epoch bumps from
	// Append revalidate cached plans incrementally.
	PlanCache plancache.Options
	// Mmap selects the zero-copy restore path in OpenEngine: the
	// snapshot file is mapped read-only and its sealed buckets are
	// served straight from the mapping through the flat sorted-endpoint
	// kernel — no interval is decoded into the heap and the first query
	// runs with no store materialization. The O(dataset) content
	// verification (checksum, per-record checks) runs in the background;
	// a damaged file fails the first query admission after discovery
	// instead of the open. Ignored by NewEngine (a cold build has no
	// file to map).
	Mmap bool
	// Shards > 1 runs the join phase across that many shard workers: the
	// resident bucket partition is split over the workers by the shard
	// manifest, DTB reducer tasks scatter to the shards over the wire
	// protocol, and the cross-reducer score floor is broadcast so remote
	// reducers early-terminate like local ones. 0 or 1 keeps the
	// single-process local runner. With ShardAddrs empty the workers run
	// in-process (net.Pipe transport, full wire protocol).
	Shards int
	// ShardAddrs connects to external tkij-worker processes over TCP
	// instead of in-process workers; its length overrides Shards.
	ShardAddrs []string
	// ShardNoFloorBroadcast keeps each worker's score floor local — the
	// floor-broadcast ablation. Results are identical (the floor is a
	// certified lower bound either way); remote reducers just prune
	// less.
	ShardNoFloorBroadcast bool
	// Tracer, when set, collects a span tree per query/append/push cycle
	// for JSONL or Chrome trace-event export (tkijrun -trace-out). Nil
	// keeps tracing fully detached: span calls collapse to nil-receiver
	// no-ops and the execute path performs zero tracing allocations.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Granules <= 0 {
		o.Granules = 40
	}
	if o.K <= 0 {
		o.K = 100
	}
	if o.Reducers <= 0 {
		o.Reducers = 24
	}
	return o
}

// Engine evaluates RTJ queries over a fixed set of collections. It is
// safe for concurrent use: the offline preparation is single-flighted,
// and Execute may be called from any number of goroutines once (or
// while) it completes.
type Engine struct {
	opts  Options
	cols  []*interval.Collection
	plans *plancache.Cache

	// mu single-flights the offline preparation and guards the fields
	// below until it completes.
	mu       sync.Mutex
	matrices []*stats.Matrix
	store    *store.Store
	restored bool
	// mapped is the snapshot mapping backing a zero-copy restored store
	// (Options.Mmap); nil for heap-built and heap-restored engines. Its
	// background verification outcome gates query admission in prepared.
	mapped *mmapstore.Reader

	// cluster is the shard coordinator when Options.Shards > 1, created
	// lazily with the store and replica-loaded from it. shardWorkers
	// holds the in-process workers (nil for a TCP cluster) — test
	// introspection and nothing else.
	cluster      *shard.Cluster
	shardWorkers []*shard.Worker
	// shardGate serializes Append against in-flight pins when a cluster
	// is active: a Pin holds the read side until Release, Append takes
	// the write side while forwarding the batch to the worker replicas.
	// This keeps every scattered query's epoch equal to the worker
	// replica epoch — the coordinator cannot grow the replicas while a
	// pinned query might still scatter against the old epoch.
	shardGate sync.RWMutex

	// gen counts store generations: 0 for the initial build, +1 per
	// InvalidateStore. The epoch sequence restarts at 0 inside each
	// generation, so consumers holding epoch-derived state across
	// rebuilds (standing subscriptions) compare generations to detect
	// that their diff base is void. Guarded by mu.
	gen int64
	// ingestHook, when set, is invoked after Append publishes a new
	// store epoch and after InvalidateStore discards the partition —
	// outside the engine lock, so the hook may pin and execute. It must
	// return quickly and never block (the standing manager's hook is a
	// non-blocking channel nudge); Append latency includes it.
	ingestHook func()

	// StatsMetrics describes the statistics-collection job after
	// PrepareStats (or the first Execute) has run. Like StatsDuration
	// and StoreBuildDuration, read it only after PrepareStats returns.
	// An engine restored from a snapshot (OpenEngine) never runs the
	// statistics job, so StatsMetrics stays nil until something forces a
	// re-collection.
	StatsMetrics *mapreduce.Metrics
	// StatsDuration is the offline pre-processing wall time: statistics
	// job + bucket-store build, accumulated across store rebuilds
	// (InvalidateStore). For a restored engine it is the snapshot
	// restore time — the cost that replaced the offline phase.
	StatsDuration time.Duration
	// StoreBuildDuration is the share of StatsDuration spent
	// partitioning intervals into the resident bucket store (zero for a
	// restored engine, whose partition came from the snapshot).
	StoreBuildDuration time.Duration
}

// NewEngine validates the collections and returns an engine. Statistics
// and the bucket store are built lazily on first use (or eagerly via
// PrepareStats).
func NewEngine(cols []*interval.Collection, opts Options) (*Engine, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: no collections")
	}
	for i, c := range cols {
		if c == nil || c.Len() == 0 {
			return nil, fmt.Errorf("core: collection %d is empty", i)
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	opts = opts.withDefaults()
	return &Engine{opts: opts, cols: cols, plans: plancache.New(opts.PlanCache)}, nil
}

// OpenEngine restores a warm engine from a snapshot previously written
// by SaveSnapshot: the bucket matrices and the resident bucket
// partition are loaded from the file, so the engine's first Execute
// runs zero statistics work — no statistics job, no shuffle, no
// partitioning; R-trees are still memoized lazily on demand. cols must
// be the same dataset the snapshot was built from (same collection
// count, sizes and contents — the cheap invariants are verified here,
// content identity is the caller's contract, as the point of a snapshot
// is not re-reading the data to prove it). The snapshot's granulation
// wins over opts.Granules; it is what the persisted partition was built
// under.
func OpenEngine(cols []*interval.Collection, snapshotPath string, opts Options) (*Engine, error) {
	e, err := NewEngine(cols, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		st *store.Store
		ms []*stats.Matrix
	)
	if opts.Mmap {
		st, ms, err = e.openMapped(snapshotPath)
	} else {
		st, ms, err = snapshot.Load(snapshotPath)
	}
	if err != nil {
		return nil, err
	}
	if err := adoptChecks(cols, snapshotPath, ms); err != nil {
		if opts.Mmap {
			st.Close() // drop the store's mapping reference
			e.mapped = nil
		}
		return nil, err
	}
	e.matrices = ms
	e.store = st
	// Delta sections were replayed (inside snapshot.Load, or by
	// openMapped) under the store's default compaction threshold; the
	// engine's limit governs appends from here on. Bucket sealing
	// structure may therefore differ from the live engine that wrote the
	// deltas under a custom CompactLimit — answers are identical either
	// way, sealing only decides which probes pay a lazy rebuild.
	st.SetCompactLimit(e.opts.CompactLimit)
	e.restored = true
	// The snapshot's granulation is what the persisted partition was
	// built under; reflect it in the engine's options so Options()
	// reports the g actually in effect, not a conflicting flag value.
	e.opts.Granules = ms[0].Gran.G
	e.StatsDuration = time.Since(start)
	return e, nil
}

// adoptChecks verifies a restored (matrices, store) pair against the
// live collections and widens the matrix extents from them — the cheap
// dataset-identity invariants shared by both restore paths.
func adoptChecks(cols []*interval.Collection, snapshotPath string, ms []*stats.Matrix) error {
	if len(ms) != len(cols) {
		return fmt.Errorf("core: snapshot %s holds %d collections, engine has %d", snapshotPath, len(ms), len(cols))
	}
	for i, m := range ms {
		if m.Total() != cols[i].Len() {
			return fmt.Errorf("core: snapshot %s collection %d has %d intervals, dataset has %d — snapshot is for a different dataset",
				snapshotPath, i, m.Total(), cols[i].Len())
		}
		// The snapshot does not persist endpoint extents; re-derive them
		// from the live collections so bounds over the boundary granules
		// stay sound when the snapshot holds clamped (out-of-range)
		// appends.
		cs := cols[i].ComputeStats()
		m.Widen(cs.MinStart, cs.MaxEnd)
	}
	return nil
}

// openMapped is the zero-copy restore: the snapshot is mapped
// read-only and structurally validated (O(buckets), not O(intervals)),
// the sealed partition is assembled over the mapping with the flat
// sorted-endpoint kernel instead of R-trees, delta sections are
// replayed through the ordinary append path (copying just the deltas to
// the heap, exactly as live ingest would have), and the O(dataset)
// content verification is left running in the background — prepareLocked
// surfaces its failure at the next query admission.
func (e *Engine) openMapped(path string) (*store.Store, []*stats.Matrix, error) {
	rd, err := mmapstore.Open(path)
	if err != nil {
		return nil, nil, err
	}
	cols := rd.Cols()
	mcols := make([]store.MappedCol, len(cols))
	for i, c := range cols {
		mb := make([]store.MappedBucket, len(c.Buckets))
		for j, b := range c.Buckets {
			mb[j] = store.MappedBucket{StartG: b.StartG, EndG: b.EndG, Items: b.Items}
		}
		mcols[i] = store.MappedCol{Col: c.Col, Gran: c.Gran, Buckets: mb}
	}
	st, err := store.BuildMapped(mcols, rd)
	if err != nil {
		rd.Close()
		return nil, nil, err
	}
	ms := rd.Matrices()
	for _, d := range rd.Deltas() {
		// Mirror the heap decoder's replay: matrices incrementally, the
		// store through Append (which validates each record — delta
		// payloads are the one content slice checked on the open path,
		// and they are O(batch), not O(dataset)).
		if _, err := st.Append(d.Col, d.Items); err != nil {
			st.Close()
			rd.Close()
			return nil, nil, fmt.Errorf("core: snapshot %s: replaying delta epoch %d: %w", path, d.Epoch, err)
		}
		for _, iv := range d.Items {
			ms[d.Col].Add(iv)
		}
	}
	if len(rd.Deltas()) > 0 {
		for i, m := range ms {
			if err := m.Validate(); err != nil {
				st.Close()
				rd.Close()
				return nil, nil, fmt.Errorf("core: snapshot %s: matrix %d after delta replay: %w", path, i, err)
			}
		}
	}
	rd.VerifyAsync()
	e.mapped = rd
	// Drop the opener reference: the store (plus any pinned views and
	// the background verifier) now carries the mapping.
	rd.Close()
	return st, ms, nil
}

// SaveSnapshot persists the offline phase (matrices + bucket
// partition) to path as one versioned, checksummed snapshot file,
// preparing the engine first if needed. OpenEngine restores it. Any
// bucket deltas accumulated by Append are folded into the image (the
// restored store starts fully sealed at epoch 0); the encode runs under
// the engine lock so a concurrent Append cannot tear the image, and
// snapshot.AppendDelta can extend the file later without rewriting it.
func (e *Engine) SaveSnapshot(path string) error {
	if err := e.PrepareStats(); err != nil {
		return err
	}
	e.mu.Lock()
	img, err := snapshot.Encode(e.store, e.matrices)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return snapshot.WriteImage(path, img)
}

// Close releases the engine's resources beyond the GC's reach — today
// that is the snapshot mapping behind a zero-copy restore
// (OpenEngine with Options.Mmap). The mapping is actually unmapped
// only once in-flight pinned views release too. Heap-built and
// heap-restored engines have nothing to release; Close is a no-op for
// them, and idempotent everywhere. Executing queries after Close is a
// programming error on a mapped engine (the store's bucket memory may
// be gone).
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store != nil {
		e.store.Close()
	}
	e.mapped = nil
	e.closeClusterLocked()
}

// Mapped reports whether this engine serves sealed buckets straight
// from a snapshot mapping (a zero-copy OpenEngine restore).
func (e *Engine) Mapped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mapped != nil
}

// Restored reports whether this engine was opened from a snapshot
// (OpenEngine) rather than built by running the offline phase.
func (e *Engine) Restored() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restored
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Collections returns the engine's collections.
func (e *Engine) Collections() []*interval.Collection { return e.cols }

// AvgLength returns the average interval length over all collections —
// the avg parameter of the justBefore and shiftMeets predicates.
func (e *Engine) AvgLength() float64 { return interval.AvgLength(e.cols...) }

// PrepareStats runs the offline, query-independent phase: the
// statistics-collection job (§3.2) plus the bucket-store build that
// makes every interval dataset-resident. It is idempotent and
// single-flighted — concurrent callers block until the one build
// finishes; Execute calls it automatically when needed.
func (e *Engine) PrepareStats() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.prepareLocked()
}

func (e *Engine) prepareLocked() error {
	if e.store != nil {
		if e.mapped != nil {
			// A zero-copy restore defers the O(dataset) content checks to
			// a background verifier; once it finds damage, every admission
			// from then on refuses rather than serving corrupt buckets.
			if err := e.mapped.Err(); err != nil {
				return fmt.Errorf("core: mapped snapshot failed verification: %w", err)
			}
		}
		return e.startClusterLocked()
	}
	start := time.Now()
	if e.matrices == nil {
		ms, metrics, err := stats.Collect(e.cols, e.opts.Granules, mapreduce.Config{
			Mappers:  e.opts.Mappers,
			Reducers: len(e.cols),
		})
		if err != nil {
			return err
		}
		e.matrices = ms
		e.StatsMetrics = metrics
	}
	// The matrices may outlive the store: InvalidateStore (after a
	// stats.ApplyUpdate) clears only the partition, so the rebuild here
	// reuses the incrementally maintained matrices instead of re-running
	// the statistics job.
	buildStart := time.Now()
	st, err := store.Build(e.cols, e.matrices)
	if err != nil {
		return err
	}
	st.SetCompactLimit(e.opts.CompactLimit)
	e.store = st
	e.StoreBuildDuration += time.Since(buildStart)
	e.StatsDuration += time.Since(start)
	return e.startClusterLocked()
}

// startClusterLocked brings up the shard cluster (once) when the
// options ask for distributed execution: in-process workers by default,
// TCP workers when ShardAddrs names them, replica-loaded from the
// store's current epoch. Callers hold e.mu. A cluster that faulted
// (worker lost, protocol violation) stays poisoned — every execution
// fails fast with the original cause — until InvalidateStore tears it
// down and the next preparation builds a fresh one.
func (e *Engine) startClusterLocked() error {
	if e.cluster != nil || (e.opts.Shards <= 1 && len(e.opts.ShardAddrs) == 0) {
		return nil
	}
	copts := shard.ClusterOptions{NoFloorBroadcast: e.opts.ShardNoFloorBroadcast}
	if len(e.opts.ShardAddrs) > 0 {
		//tkij:ignore ctxflow -- the cluster is engine-scoped, not request-scoped: dialing happens inside ctx-less preparation (Pin) and the connections outlive whichever query triggered them, so no caller context exists to derive from
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c, err := shard.Dial(ctx, e.opts.ShardAddrs, copts)
		if err != nil {
			return err
		}
		e.cluster = c
	} else {
		c, workers, err := shard.InProcess(e.opts.Shards, copts)
		if err != nil {
			return err
		}
		e.cluster = c
		e.shardWorkers = workers
	}
	if err := e.cluster.LoadStore(e.store); err != nil {
		e.cluster.Close()
		e.cluster, e.shardWorkers = nil, nil
		return err
	}
	return nil
}

// closeClusterLocked tears the shard cluster down (idempotent).
func (e *Engine) closeClusterLocked() {
	if e.cluster != nil {
		e.cluster.Close()
	}
	e.cluster, e.shardWorkers = nil, nil
}

// Sharded reports whether the engine currently runs joins across a
// shard cluster.
func (e *Engine) Sharded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cluster != nil
}

// ShardWorkers exposes the in-process shard workers for test
// introspection (replica epochs, pin accounting); nil before the
// cluster starts or when the cluster is TCP-backed.
func (e *Engine) ShardWorkers() []*shard.Worker {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shardWorkers
}

// InvalidateStore discards the resident bucket partition (and its
// memoized R-trees) so the next Execute or PrepareStats rebuilds it
// from the engine's collections and current matrices. It is the
// full-rebuild escape hatch for mutations the epoch-delta append path
// cannot express — use Append for insertions; use ApplyUpdate +
// InvalidateStore after deletions or in-place edits, where the resident
// buckets still hold the removed intervals and only a rebuild can drop
// them. The matrices themselves are kept: the rebuild runs zero
// statistics-job work. The rebuild also resets the ingest epoch
// coherently: the fresh store seals everything as epoch 0, so a
// subsequent Append starts the delta layer from scratch and
// Report.Epoch restarts from zero.
//
// Do not call it concurrently with in-flight Execute calls on data that
// changed underneath them: quiesce queries, apply the update, then
// invalidate. (Append needs no such quiescing — in-flight queries keep
// their pinned epoch.)
func (e *Engine) InvalidateStore() {
	e.mu.Lock()
	if e.store != nil {
		// A zero-copy store holds a reference on its snapshot mapping;
		// dropping the store must drop that too or the rebuild leaks the
		// mapping for the process lifetime. (Pinned in-flight views keep
		// their own references, so this never unmaps under a probe.)
		e.store.Close()
	}
	e.store = nil
	e.mapped = nil
	// A shard cluster replicates the partition being discarded (and may
	// be poisoned by a worker fault); drop it with the store so the next
	// preparation loads fresh replicas from the rebuilt partition.
	e.closeClusterLocked()
	// The rebuild restarts the epoch sequence at 0, and the mutation
	// that prompted it may have shrunk buckets — both outside the plan
	// cache's append-only revalidation model, so cached plans must go.
	e.plans.Purge()
	// Standing subscriptions hold epoch-derived diff bases; the
	// generation bump (observed through pins) forces them to resync
	// instead of diffing across unrelated epoch sequences.
	e.gen++
	hook := e.ingestHook
	e.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// SetIngestHook registers fn to be called after every successful Append
// that publishes a new store epoch, and after every InvalidateStore —
// in both cases outside the engine lock, so fn may pin and execute. fn
// must return quickly and never block; it is a change notification, not
// a callback to do work in (the standing manager's hook nudges its
// dispatcher and returns). One hook is supported; nil clears it.
func (e *Engine) SetIngestHook(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ingestHook = fn
}

// StoreGeneration returns the store-generation counter: 0 for the
// initial build, +1 per InvalidateStore. Epochs are comparable only
// within one generation.
func (e *Engine) StoreGeneration() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// Append routes a batch of new intervals for collection col through the
// streaming-ingest path and returns the store epoch at which the batch
// became visible: the collection grows, the collection's bucket matrix
// is maintained incrementally (stats.ApplyUpdate semantics — endpoints
// outside the original granulation clamp to the boundary granules, the
// granulation itself is kept fixed), and the bucket store publishes a
// new epoch whose untouched buckets keep their memoized R-trees. No
// statistics job runs and no store rebuild happens.
//
// It is safe to call concurrently with Execute: in-flight queries pin
// their epoch at admission and never observe a partial batch. Appends
// themselves serialize. On an engine whose offline phase has not run
// yet, the batch simply extends the collection (epoch 0) and is picked
// up by the first preparation.
func (e *Engine) Append(col int, ivs []interval.Interval) (int64, error) {
	if col < 0 || col >= len(e.cols) {
		return 0, fmt.Errorf("core: append to collection %d of %d", col, len(e.cols))
	}
	for _, iv := range ivs {
		if !iv.Valid() {
			return 0, fmt.Errorf("core: appending invalid interval %v", iv)
		}
	}
	span := e.opts.Tracer.Root("append")
	start := time.Now()
	epoch, hook, err := e.appendLocked(col, ivs)
	if err != nil {
		if span != nil {
			span.SetStr("error", err.Error())
			span.Finish()
		}
		return 0, err
	}
	// The hook fires after the epoch is published and the engine lock
	// is released, so it may pin the fresh epoch immediately. The
	// standing manager's push cycles run from this nudge, so the append
	// span (and latency histogram) deliberately includes it.
	if hook != nil {
		hook()
	}
	mAppends.Inc()
	mAppendIntervals.Add(int64(len(ivs)))
	mAppendSeconds.ObserveDuration(time.Since(start))
	if span != nil {
		span.SetInt("col", int64(col))
		span.SetInt("intervals", int64(len(ivs)))
		span.SetInt("epoch", epoch)
		span.Finish()
	}
	return epoch, nil
}

// appendLocked is Append's critical section; it returns the ingest hook
// to fire (nil when no new epoch was published) alongside the epoch.
func (e *Engine) appendLocked(col int, ivs []interval.Interval) (int64, func(), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(ivs) == 0 {
		if e.store != nil {
			return e.store.Epoch(), nil, nil
		}
		return 0, nil, nil
	}
	e.cols[col].Items = append(e.cols[col].Items, ivs...)
	if e.matrices != nil {
		// Copy-on-write: queries in flight captured the old matrices
		// slice and must keep reading the pre-append counts their pinned
		// store epoch corresponds to.
		m := e.matrices[col].Clone()
		if err := stats.ApplyUpdate(m, ivs, nil); err != nil {
			return 0, nil, err
		}
		ms := slices.Clone(e.matrices)
		ms[col] = m
		e.matrices = ms
	}
	if e.store == nil {
		return 0, nil, nil
	}
	if e.cluster == nil {
		epoch, err := e.store.Append(col, ivs)
		if err != nil {
			return 0, nil, err
		}
		return epoch, e.ingestHook, nil
	}
	// Grow the coordinator store and the worker replicas in lockstep,
	// with no pinned query in flight: pins hold the gate's read side, so
	// the epoch a query scattered at is always the epoch the replicas
	// serve. (Lock order is e.mu then shardGate everywhere; pin Release
	// needs neither, so waiting here cannot deadlock.)
	e.shardGate.Lock()
	defer e.shardGate.Unlock()
	epoch, err := e.store.Append(col, ivs)
	if err != nil {
		return 0, nil, err
	}
	if err := e.cluster.Append(col, ivs); err != nil {
		// The replicas are now behind the coordinator; the cluster has
		// poisoned itself, so distributed executions fail fast rather
		// than serve a stale epoch. InvalidateStore recovers.
		return 0, nil, fmt.Errorf("core: shard replicas lost append epoch %d: %w", epoch, err)
	}
	return epoch, e.ingestHook, nil
}

// Epoch returns the store's current ingest epoch: 0 until the first
// Append after preparation (or after an InvalidateStore rebuild), +1
// per applied batch.
func (e *Engine) Epoch() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return 0
	}
	return e.store.Epoch()
}

// PlanCacheStats returns a snapshot of the engine's plan-cache
// activity: hits, revalidations, misses, evictions, and the retained
// solver-work cost.
func (e *Engine) PlanCacheStats() plancache.Stats {
	return e.plans.Stats()
}

// Tracer returns the engine's attached span tracer (nil when tracing
// is detached).
func (e *Engine) Tracer() *obs.Tracer {
	return e.opts.Tracer
}

// StoreViewStats snapshots the bucket store's live-view accounting
// (zero value before preparation).
func (e *Engine) StoreViewStats() store.ViewStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return store.ViewStats{}
	}
	return e.store.ViewStats()
}

// StoreStats snapshots the bucket store's structural counters (zero
// value before preparation).
func (e *Engine) StoreStats() store.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return store.Stats{}
	}
	return e.store.Snapshot()
}

// Health reports whether the engine can currently admit queries: nil
// when healthy, otherwise the condition poisoning admission — a mapped
// snapshot whose background verification found damage, or a faulted
// shard cluster. obs.Serve's /healthz endpoint surfaces it.
func (e *Engine) Health() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mapped != nil {
		if err := e.mapped.Err(); err != nil {
			return fmt.Errorf("mapped snapshot failed verification: %w", err)
		}
	}
	if e.cluster != nil {
		if err := e.cluster.Health(); err != nil {
			return fmt.Errorf("shard cluster faulted: %w", err)
		}
	}
	return nil
}

// ErrCanceled marks an execution aborted between phases because its
// context was canceled or its deadline expired. Errors returned for
// such executions satisfy errors.Is for both ErrCanceled and the
// context's own error (context.Canceled / context.DeadlineExceeded).
var ErrCanceled = errors.New("execution canceled")

// checkCtx translates a done context into the engine's distinct
// cancellation error; nil while the context is live.
func checkCtx(ctx context.Context, phase string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %w before %s: %w", ErrCanceled, phase, err)
	}
	return nil
}

// Pin is one pinned execution context: the bucket matrices and the
// epoch-pinned store view captured as a single consistent unit. The
// engine pins one per Execute; the admission layer pins one per batch,
// so every batch member shares one epoch (and the store's live-view
// count grows with in-flight batches, not with in-flight queries).
// Release it when the executions using it have completed; Release is
// idempotent.
type Pin struct {
	e        *Engine
	matrices []*stats.Matrix
	store    *store.Store
	view     *store.View
	// runner is the shard cluster the pin's executions scatter to; nil
	// runs the local in-process runner. gated marks that the pin holds
	// the engine's scatter gate (read side) and must give it back on
	// Release.
	runner   join.Runner
	gated    bool
	gen      int64
	released atomic.Bool
}

// Pin captures (matrices, store view) at the current epoch, running
// the offline preparation first if needed. When a shard cluster is
// active the pin also holds the scatter gate until Release, so worker
// replicas stay at the pinned epoch for the pin's whole lifetime.
func (e *Engine) Pin() (*Pin, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.prepareLocked(); err != nil {
		return nil, err
	}
	p := &Pin{e: e, matrices: e.matrices, store: e.store, gen: e.gen}
	if e.cluster != nil {
		e.shardGate.RLock()
		p.runner = e.cluster
		p.gated = true
	}
	view := e.store.View()
	p.view = view
	return p, nil
}

// Epoch returns the store epoch the pin captured.
func (p *Pin) Epoch() int64 { return p.view.Epoch() }

// Generation returns the store generation the pin captured (see
// Engine.StoreGeneration); the pin's epoch is meaningful only within
// it.
func (p *Pin) Generation() int64 { return p.gen }

// Matrices returns the collection-indexed bucket matrices captured at
// pin time. They are shared with every execution on this pin — treat
// them as read-only.
func (p *Pin) Matrices() []*stats.Matrix { return p.matrices }

// Release retires the pin's store view from the live-view accounting
// and, on a sharded engine, reopens the scatter gate for appends.
func (p *Pin) Release() {
	if p != nil && !p.released.Swap(true) {
		p.view.Release()
		if p.gated {
			p.e.shardGate.RUnlock()
		}
	}
}

// PlanKey returns the canonical plan-identity key of (q, mapping) under
// the pin's granulation and the engine's k — the key the plan cache
// files the shape under, and the key the admission layer groups batch
// members by: members sharing it share one TopBuckets solve and one
// cross-reducer floor.
func (p *Pin) PlanKey(q *query.Query, mapping []int) (string, error) {
	return p.PlanKeyK(q, mapping, p.e.opts.K)
}

// PlanKeyK is PlanKey under an explicit result count k — k is part of
// plan identity, and standing subscriptions run at their own k.
func (p *Pin) PlanKeyK(q *query.Query, mapping []int, k int) (string, error) {
	if err := p.e.validateMapping(q, mapping); err != nil {
		return "", err
	}
	grans := make([]stats.Granulation, q.NumVertices)
	for v, ci := range mapping {
		grans[v] = p.matrices[ci].Gran
	}
	return plancache.Key(q, mapping, k, grans), nil
}

// validateMapping checks q and its vertex-to-collection mapping against
// the engine's dataset — the single source of the input contract every
// execution entry point (Execute, PlanKey, pinned execution) enforces.
func (e *Engine) validateMapping(q *query.Query, mapping []int) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if len(mapping) != q.NumVertices {
		return fmt.Errorf("core: mapping has %d entries for %d vertices", len(mapping), q.NumVertices)
	}
	for v, ci := range mapping {
		if ci < 0 || ci >= len(e.cols) {
			return fmt.Errorf("core: vertex %d mapped to collection %d of %d", v, ci, len(e.cols))
		}
	}
	return nil
}

// Matrices exposes the collected bucket matrices (after PrepareStats).
// Callers that mutate a matrix in place (stats.ApplyUpdate) must call
// InvalidateStore afterwards, or the engine keeps serving the bucket
// partition built from the pre-update counts.
func (e *Engine) Matrices() []*stats.Matrix {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.matrices
}

// Store exposes the dataset-resident bucket store (after PrepareStats).
func (e *Engine) Store() *store.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store
}

// Report describes one query execution end to end. The four phase
// durations are measured as disjoint sub-windows of Total — each phase
// is timed around exactly one thing, nothing is counted twice — so
// TopBucketsTime + DistributeTime + JoinTime + MergeTime never exceeds
// Total (the remainder is per-query setup: validation, epoch pinning,
// report assembly).
type Report struct {
	// Query is the executed query.
	Query *query.Query
	// Results is the final top-k, sorted by descending score; never nil
	// (an execution with no results yields an empty slice).
	Results []join.Result

	// TopBuckets is the pruning phase's outcome: Ω_k,S with its score
	// bounds and the certified kthResLB floor. On a plan-cache hit it is
	// the shared cached result — treat it as read-only.
	TopBuckets *topbuckets.Result
	// Assignment maps Ω_k,S onto reducers. Shared and read-only on a
	// plan-cache hit, like TopBuckets.
	Assignment *distribute.Assignment
	// Join is the join + merge phases' full output (per-reducer local
	// statistics, routed-reference accounting, the final shared floor).
	Join *join.Output

	// TreesBuilt and TreesReused attribute bucket-store R-tree activity
	// to this execution (store counter deltas; under concurrent Execute
	// calls activity is attributed to whichever query observed it).
	// A warm engine re-running a query reports TreesBuilt == 0.
	// TreesBuilt counts sealed-tree builds only; small delta trees over
	// freshly appended intervals are counted in DeltaTreesBuilt.
	TreesBuilt      int64
	TreesReused     int64
	DeltaTreesBuilt int64

	// Epoch is the store epoch the query was pinned at on admission:
	// exactly the append batches with epoch <= Epoch were visible, no
	// matter how many landed while the query ran.
	Epoch int64

	// Standing reports the execution served a standing subscription (the
	// initial snapshot at Subscribe, or a revalidation-fallback resync)
	// rather than a one-shot caller query. Filled by internal/standing.
	Standing bool

	// Batched reports the execution went through the admission layer's
	// batching path (a Server/Batcher Submit) rather than a direct
	// Execute. The three fields below are filled by that layer.
	Batched bool
	// BatchSize is the number of queries admitted into this execution's
	// batch (including this one); they all shared one pinned epoch.
	BatchSize int
	// QueueWait is the time between admission (Submit) and the start of
	// this query's execution: the batching window plus any queueing
	// behind earlier batches.
	QueueWait time.Duration

	// ShardCount is the number of shard workers the join scattered to
	// (0 for a local, single-process execution). The three fields below
	// are meaningful only when it is non-zero.
	ShardCount int
	// ShardShippedBuckets and ShardShippedRecords count foreign bucket
	// payloads the coordinator shipped to shards that needed buckets
	// they do not own (the distributed replication cost DTB minimizes).
	ShardShippedBuckets int
	ShardShippedRecords float64
	// ShardFloorFrames counts floor-broadcast frames exchanged with the
	// workers in both directions (0 under ShardNoFloorBroadcast).
	ShardFloorFrames int64

	// PlanCacheHit reports that the planning phases were skipped
	// entirely: a cached plan for this query shape at this exact epoch
	// was served, and TopBucketsTime is just the cache lookup.
	PlanCacheHit bool
	// PlanRevalidated reports that a cached plan from an earlier epoch
	// was carried forward across Append epoch bumps — promoted verbatim
	// when no bucket the plan depends on changed shape, or patched by
	// re-bounding only the affected combinations. TopBucketsTime is the
	// revalidation cost.
	PlanRevalidated bool
	// PlanSavedTime is the wall time the original full plan cost when it
	// was first computed — the planning work a Hit or Revalidated
	// execution did not repeat. Zero when the plan was computed cold.
	PlanSavedTime time.Duration

	// TopBucketsTime is the wall time of phase 1 (TopBuckets pruning),
	// or of the plan-cache lookup / revalidation that replaced it.
	TopBucketsTime time.Duration
	// DistributeTime is the wall time of phase 2 (reducer assignment);
	// zero when a cached assignment was reused.
	DistributeTime time.Duration
	// JoinTime is the wall time of the reducer fan-out, measured
	// independently around it (see join.Output.JoinDuration).
	JoinTime time.Duration
	// MergeTime is the wall time of the merge, measured the same way.
	MergeTime time.Duration
	// Total is the end-to-end wall time of Execute after admission
	// (query-time only; the offline statistics phase is reported on the
	// Engine as StatsDuration).
	Total time.Duration
}

// PlanOutcome renders how the planning phases were served — "hit",
// "revalidated", or "miss" — in the plan cache's own terminology
// (plancache.Outcome).
func (r *Report) PlanOutcome() string {
	switch {
	case r.PlanCacheHit:
		return plancache.Hit.String()
	case r.PlanRevalidated:
		return plancache.Revalidated.String()
	}
	return plancache.Miss.String()
}

// Imbalance returns the join phase's reducer imbalance (Figure 10b):
// the slowest reducer's local join time over the mean across all
// reducers, idle ones included; 0 when no reducer recorded any time.
func (r *Report) Imbalance() float64 {
	if r.Join == nil {
		return 0
	}
	var sum time.Duration
	for _, l := range r.Join.Locals {
		sum += l.Duration
	}
	if sum == 0 {
		return 0
	}
	return float64(r.Join.MaxReducerDuration()) / (float64(sum) / float64(len(r.Join.Locals)))
}

// Execute evaluates q with vertex i reading collection i. It is safe to
// call concurrently with other Execute calls on the same engine. ctx
// cancellation (or deadline expiry) aborts the execution between
// phases — after planning, and between the join and merge phases — with
// an error satisfying errors.Is(err, ErrCanceled).
func (e *Engine) Execute(ctx context.Context, q *query.Query) (*Report, error) {
	mapping := make([]int, q.NumVertices)
	for i := range mapping {
		mapping[i] = i
	}
	return e.ExecuteMapped(ctx, q, mapping)
}

// ExecuteMapped evaluates q with vertex i reading collection
// mapping[i]. Several vertices may share one collection — the paper's
// network-traffic experiments copy one connection list three times and
// run 3-way queries over it (§4.3.1).
func (e *Engine) ExecuteMapped(ctx context.Context, q *query.Query, mapping []int) (*Report, error) {
	// Reject invalid input before paying for the offline preparation a
	// Pin may trigger on a cold engine.
	if err := e.validateMapping(q, mapping); err != nil {
		return nil, err
	}
	pin, err := e.Pin()
	if err != nil {
		return nil, err
	}
	defer pin.Release()
	return e.ExecutePinned(ctx, q, mapping, pin, nil, "")
}

// pinnedInputs validates the mapping and assembles the per-vertex
// planning and join inputs from a pin.
func (e *Engine) pinnedInputs(q *query.Query, mapping []int, pin *Pin) ([]*stats.Matrix, []join.Source, []stats.Grid, error) {
	if err := e.validateMapping(q, mapping); err != nil {
		return nil, nil, nil, err
	}
	vertexMs := make([]*stats.Matrix, q.NumVertices)
	srcs := make([]join.Source, q.NumVertices)
	grans := make([]stats.Grid, q.NumVertices)
	for v, ci := range mapping {
		vertexMs[v] = pin.matrices[ci].WithCol(v)
		srcs[v] = pin.view.Col(ci)
		grans[v] = pin.matrices[ci].Grid()
	}
	return vertexMs, srcs, grans, nil
}

// planRequest assembles the plan-cache request for (q, mapping) at the
// pin's epoch, planning for k results.
func (e *Engine) planRequest(q *query.Query, mapping []int, vertexMs []*stats.Matrix, pin *Pin, k int) plancache.Request {
	tbOpts := e.opts.TopBuckets
	tbOpts.Strategy = e.opts.Strategy
	return plancache.Request{
		Query:        q,
		Matrices:     vertexMs,
		VertexCols:   mapping,
		K:            k,
		Epoch:        pin.Epoch(),
		TopBuckets:   tbOpts,
		Distribution: e.opts.Distribution,
		Reducers:     e.opts.Reducers,
	}
}

// PlanPinned runs (or revalidates, or simply looks up) the planning
// phases for (q, mapping) at the pin's epoch, warming the plan cache
// without running the join. The admission layer calls it once per
// distinct plan key in a batch, so N concurrent misses on one shape
// pay for one TopBuckets solve and every other batch member's
// ExecutePinned is a pure cache hit.
func (e *Engine) PlanPinned(ctx context.Context, q *query.Query, mapping []int, pin *Pin) error {
	if err := checkCtx(ctx, "planning"); err != nil {
		return err
	}
	vertexMs, _, _, err := e.pinnedInputs(q, mapping, pin)
	if err != nil {
		return err
	}
	_, err = e.plans.Plan(e.planRequest(q, mapping, vertexMs, pin, e.opts.K))
	return err
}

// ExecutePinned evaluates q against a pre-pinned epoch instead of
// pinning its own: the admission layer executes every member of one
// batch against a single Pin. share, when non-nil, is the batch-scoped
// sharing registry (see join.BatchShare); floorKey, when additionally
// non-empty, shares the cross-reducer score floor with sibling
// executions under the same plan-identity key — callers must pass the
// pin's PlanKey (or empty to keep the floor private). The pin stays
// valid after the call; releasing it is the caller's responsibility.
func (e *Engine) ExecutePinned(ctx context.Context, q *query.Query, mapping []int, pin *Pin,
	share *join.BatchShare, floorKey string) (*Report, error) {
	return e.executePinned(ctx, q, mapping, pin, share, floorKey, e.opts.K)
}

// ExecutePinnedK is ExecutePinned with an explicit result count k
// overriding Options.K (and no batch sharing): the standing layer
// serves each subscription at its own k. k is part of plan-cache
// identity, so plans at different k never alias.
func (e *Engine) ExecutePinnedK(ctx context.Context, q *query.Query, mapping []int, pin *Pin, k int) (*Report, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	return e.executePinned(ctx, q, mapping, pin, nil, "", k)
}

func (e *Engine) executePinned(ctx context.Context, q *query.Query, mapping []int, pin *Pin,
	share *join.BatchShare, floorKey string, k int) (*Report, error) {

	// Span selection: under admission each member's context carries its
	// member span, so the execution nests there; a direct call roots a
	// fresh query span on the engine tracer. Both are nil (free) when no
	// tracer is attached.
	span := obs.SpanFrom(ctx)
	if span != nil {
		span = span.Child("execute")
	} else {
		span = e.opts.Tracer.Root("query")
	}
	report, err := e.executePinnedSpanned(obs.WithSpan(ctx, span), q, mapping, pin, share, floorKey, k)
	if err != nil {
		mQueryErrors.Inc()
		if span != nil {
			span.SetStr("error", err.Error())
		}
	} else {
		mQueries.Inc()
		mQuerySeconds.ObserveDuration(report.Total)
		mPhaseTopBuckets.ObserveDuration(report.TopBucketsTime)
		mPhaseDistribute.ObserveDuration(report.DistributeTime)
		mPhaseJoin.ObserveDuration(report.JoinTime)
		mPhaseMerge.ObserveDuration(report.MergeTime)
		if span != nil {
			span.SetInt("epoch", report.Epoch)
			span.SetInt("k", int64(k))
			span.SetInt("results", int64(len(report.Results)))
		}
	}
	span.Finish()
	return report, err
}

func (e *Engine) executePinnedSpanned(ctx context.Context, q *query.Query, mapping []int, pin *Pin,
	share *join.BatchShare, floorKey string, k int) (*Report, error) {

	if err := checkCtx(ctx, "planning"); err != nil {
		return nil, err
	}
	vertexMs, srcs, grans, err := e.pinnedInputs(q, mapping, pin)
	if err != nil {
		return nil, err
	}
	st, view := pin.store, pin.view

	report := &Report{Query: q, Epoch: view.Epoch()}
	total := time.Now()

	// Phases 1+2 (online): TopBuckets + workload distribution, through
	// the plan cache. The plan is a pure function of (query shape, k,
	// granulation, matrices epoch) — a repeated shape at an unchanged
	// epoch skips both phases, and an epoch bump revalidates the cached
	// plan incrementally instead of replanning from scratch. Batched
	// executions usually hit here outright: their batch's plan leader
	// already warmed the entry at this exact epoch (PlanPinned).
	planSpan := obs.SpanFrom(ctx).Child("plan")
	planned, err := e.plans.Plan(e.planRequest(q, mapping, vertexMs, pin, k))
	if err != nil {
		planSpan.Finish()
		return nil, err
	}
	switch planned.Outcome {
	case plancache.Hit:
		mPlanHit.Inc()
	case plancache.Revalidated:
		mPlanRevalidated.Inc()
	default:
		mPlanMiss.Inc()
	}
	if planSpan != nil {
		planSpan.SetStr("outcome", planned.Outcome.String())
		planSpan.Finish()
	}
	tb := planned.TopBuckets
	assign := planned.Assignment
	report.TopBuckets = tb
	report.Assignment = assign
	report.TopBucketsTime = planned.TopBucketsTime
	report.DistributeTime = planned.DistributeTime
	report.PlanCacheHit = planned.Outcome == plancache.Hit
	report.PlanRevalidated = planned.Outcome == plancache.Revalidated
	report.PlanSavedTime = planned.SavedPlanTime

	if err := checkCtx(ctx, "join"); err != nil {
		return nil, err
	}

	// Phase 3+4: distributed join and merge over the resident store.
	// TopBuckets' kthResLB seeds the shared cross-reducer threshold as a
	// certified score floor; under batching the floor (and the per-edge
	// bound memo) is shared through the batch registry instead.
	localOpts := e.opts.Local
	if localOpts.Floor < tb.KthResLB {
		localOpts.Floor = tb.KthResLB
	}
	localOpts.Share = share
	localOpts.FloorKey = floorKey
	storeBefore := st.Snapshot()
	// The join span rides the context into the runner, so a shard
	// cluster hangs its scatter/gather children under it.
	joinSpan := obs.SpanFrom(ctx).Child("join")
	out, err := join.RunWith(obs.WithSpan(ctx, joinSpan), q, srcs, grans, tb.Selected, assign, k,
		mapreduce.Config{}, localOpts,
		mapping, pin.runner)
	joinSpan.Finish()
	if err != nil {
		// Translate only genuine cancellation aborts; a real join
		// failure that merely races a deadline must surface as itself.
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return nil, fmt.Errorf("core: %w during join: %w", ErrCanceled, cerr)
		}
		return nil, err
	}
	storeAfter := st.Snapshot()
	report.TreesBuilt = storeAfter.TreesBuilt - storeBefore.TreesBuilt
	report.TreesReused = storeAfter.TreeHits - storeBefore.TreeHits
	report.DeltaTreesBuilt = storeAfter.DeltaTreesBuilt - storeBefore.DeltaTreesBuilt
	report.Join = out
	report.Results = out.Results
	if c, ok := pin.runner.(*shard.Cluster); ok {
		report.ShardCount = c.Shards()
		report.ShardShippedBuckets = out.ShippedBuckets
		report.ShardShippedRecords = out.ShippedRecords
		report.ShardFloorFrames = out.FloorFrames
	}
	// The two phases are timed independently inside join.RunWith, so
	// neither is derived by subtracting from an outer window (which can
	// go negative under scheduler contention).
	report.JoinTime = out.JoinDuration
	report.MergeTime = out.MergeDuration
	report.Total = time.Since(total)
	return report, nil
}

// ProbePinned runs the join + merge phases over an explicit combination
// list at a pre-pinned epoch, bypassing the planning phases entirely:
// the standing layer re-probes exactly the bucket combinations an epoch
// bump affected, instead of re-planning and re-joining the full
// selection. combos must carry sound LB/UB bounds over the pin's
// matrices (topbuckets.TightenBounds); floor seeds the cross-reducer
// score threshold — pass a certified lower bound on the k-th result
// score, or 0 to disable seeding. The probe runs through the pin's
// runner, so on a sharded engine it scatters to the same shard workers
// (with the same floor broadcast) a fresh execution would use.
func (e *Engine) ProbePinned(ctx context.Context, q *query.Query, mapping []int, pin *Pin,
	combos []topbuckets.Combo, k int, floor float64) (*join.Output, error) {

	if err := checkCtx(ctx, "probe"); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	_, srcs, grans, err := e.pinnedInputs(q, mapping, pin)
	if err != nil {
		return nil, err
	}
	if len(combos) == 0 {
		return &join.Output{Results: []join.Result{}}, nil
	}
	assign, err := distribute.Assign(e.opts.Distribution, combos, e.opts.Reducers)
	if err != nil {
		return nil, err
	}
	localOpts := e.opts.Local
	if localOpts.Floor < floor {
		localOpts.Floor = floor
	}
	probeSpan := obs.SpanFrom(ctx).Child("probe")
	if probeSpan != nil {
		probeSpan.SetInt("combos", int64(len(combos)))
	}
	out, err := join.RunWith(obs.WithSpan(ctx, probeSpan), q, srcs, grans, combos, assign, k,
		mapreduce.Config{}, localOpts,
		mapping, pin.runner)
	probeSpan.Finish()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return nil, fmt.Errorf("core: %w during probe: %w", ErrCanceled, cerr)
		}
		return nil, err
	}
	mProbes.Inc()
	return out, nil
}
