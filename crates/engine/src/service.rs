//! Concurrent lookup service with RCU-style table swap.
//!
//! The cycle-level [`PipelineEngine`](crate::PipelineEngine) models the
//! paper's hardware; this module is the *production* datapath the ROADMAP
//! asks for: N worker threads, each draining packet batches from its own
//! order-preserving FIFO channel and resolving them against an
//! [`Arc`]-shared immutable [`JumpTrie`].
//!
//! **Route updates publish incrementally.** [`LookupService::apply_updates`]
//! keeps an incremental plant — the live [`MergedTrie`] plus its per-/16
//! [`JumpSlabs`] decomposition — applies announce/withdraw deltas in
//! place, re-derives only the dirty buckets, and assembles a fresh
//! [`JumpTrie`] for the RCU swap. Past
//! [`ServiceConfig::dirty_rebuild_threshold`] dirty buckets (or with
//! [`ServiceConfig::full_rebuild`] set for A/B comparison) it falls back
//! to the from-scratch clone-and-rebuild path.
//!
//! **Reconfiguration never stalls the datapath.** Virtualized platforms
//! (the Terabit hybrid FPGA-ASIC switch-virtualization work in PAPERS.md)
//! pair a fast lookup plane with non-blocking table reloads; we reproduce
//! that with an RCU-style swap. The live table sits in a vr-sync
//! [`Publish`] slot: workers — and any [`LookupReader`] handed out by
//! [`LookupService::reader`] — pin the current snapshot — one lock + one
//! refcount increment — **once per batch**, then resolve the whole batch
//! against that pinned [`SyncArc`]. A route update builds a complete new
//! [`JumpTrie`] *outside* the slot and publishes it with
//! [`Publish::update`], deriving `generation + 1` atomically with the
//! swap. Consequences, which the integration tests assert and the
//! `vr-sync` model checker proves over every bounded interleaving
//! (`programs::publish_vs_lookup`):
//!
//! * readers never block on writers (the slot is held for a handle clone
//!   or a handle store, never across a lookup or a rebuild);
//! * every batch resolves against exactly one generation — old or new,
//!   never a torn mix;
//! * the old table is freed by the last reader's refcount drop, the
//!   grace period RCU gets from epochs and we get from `SyncArc`.
//!
//! Per-worker counters (lookups, misses, batch latencies, generations
//! observed) ride back with each completed batch and aggregate into a
//! [`ServiceReport`].
//!
//! **Publishing is audited.** In debug builds (and in release with the
//! `audit-on-publish` feature) every candidate snapshot runs through
//! `vr-audit`'s structural verifier *before* the swap: a trie with a
//! corrupt tag, an out-of-slab child base, or a truncated NHI vector is
//! rejected with [`EngineError::AuditRejected`] and the live generation
//! keeps serving. A malformed table misroutes silently — the only cheap
//! place to catch it is the publish boundary.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread::JoinHandle;
use vr_sync::{
    spsc_bounded, spsc_unbounded, Publish, SpscReceiver, SpscSender, SyncArc, TrySendError,
};
use vr_audit::AuditMetrics;
use vr_net::table::{NextHop, RoutingTable};
use vr_net::{RouteUpdate, VnId};
use vr_net::Ipv4Prefix;
use vr_obs::{Stage, TraceBuilder, Tracer, DEFAULT_TRACE_CAPACITY};
use vr_telemetry::{Counter, EventKind, Gauge, Histogram, MetricsRegistry, Stopwatch, TelemetrySnapshot};
use vr_trie::{DirtyBuckets, JumpSlabs, JumpTrie, MergedTrie};

use crate::cache::{CacheStats, LpmCache};
use crate::EngineError;

/// An immutable routing snapshot: one [`JumpTrie`] plus the generation
/// that published it. Workers pin a snapshot per batch; publishers swap
/// whole snapshots, so trie and generation can never tear apart.
#[derive(Debug)]
pub struct TableSnapshot {
    /// The lookup structure (K-wide for merged virtual networks).
    pub trie: JumpTrie,
    /// Monotonic publish counter; 0 is the table the service started with.
    pub generation: u64,
}

/// Default [`ServiceConfig::batch_width`]: wide enough that a batch's
/// fixed costs (two SPSC hops, one snapshot pin, two histogram records)
/// stay small next to its walks.
pub const DEFAULT_BATCH_WIDTH: usize = 256;

/// Tuning knobs of a [`LookupService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Worker threads. Each owns an order-preserving input FIFO.
    pub workers: usize,
    /// Packets per batch when [`LookupService::process`] splits work
    /// across the worker pool. The walk is per packet, so this only
    /// sets how far each batch's fixed costs amortise; it must be
    /// positive.
    pub batch_width: usize,
    /// Depth of each worker's input queue, in batches; producers block
    /// (backpressure) once a worker is this far behind.
    pub queue_depth: usize,
    /// Whether to run the service with a live [`MetricsRegistry`]:
    /// per-worker sharded counters, batch/lookup latency histograms, the
    /// structured-event ring, and publish/audit spans. The record path
    /// is a handful of relaxed atomics per *batch*, so this defaults on;
    /// `false` drops the service back to report-only accounting (used by
    /// the bench to measure the overhead delta).
    pub telemetry: bool,
    /// Route updates rebuild the whole table family from a clone instead
    /// of patching dirty sub-slabs. Off by default; kept as the A/B
    /// baseline for the `control_churn` study and as the semantics
    /// oracle for the incremental path.
    pub full_rebuild: bool,
    /// Dirty-bucket count beyond which an incremental update batch stops
    /// patching per-bucket and re-derives every sub-slab from the merged
    /// trie in one pass. 4096 of 65536 buckets (~6 %) keeps the patch
    /// path ahead of a full decomposition on edge-style tables.
    pub dirty_rebuild_threshold: usize,
    /// Slot count of the per-worker LPM result cache
    /// ([`crate::cache::LpmCache`]), rounded up to a power of two;
    /// `None` disables caching. Every worker owns its own private
    /// cache; slots are tagged with the publish generation, so route
    /// updates invalidate them in O(1) without any flush. Worth turning
    /// on whenever traffic repeats destinations (skewed/Zipf mixes);
    /// pure one-shot random traffic pays a small probe+fill overhead
    /// for no hits, which is why the default is off. Applies to batches
    /// run by the worker pool ([`LookupService::submit`] /
    /// [`LookupService::process`]), not to lookups through a
    /// [`LookupReader`] (the wire serving path).
    pub lookup_cache: Option<usize>,
    /// 1-in-N batch-trace sampling rate (`Some(64)` traces every 64th
    /// submitted batch); `None` disables tracing entirely. Sampled
    /// batches carry an owned [`vr_obs::TraceBuilder`] through the
    /// queue and close stage spans (enqueue → dequeue → cache probe →
    /// walk → scatter → complete) into the service's
    /// [`vr_obs::Tracer`] ring; unsampled batches pay one modulo on
    /// submit and an `Option` check per stage. The
    /// `service_jump_traced` bench row holds the sampled hot path
    /// within 5% of the untraced one at the default 1-in-64. Like
    /// `lookup_cache`, it applies to [`LookupService::submit`] /
    /// [`LookupService::process`] batches, not to [`LookupReader`]
    /// lookups; publish and apply-updates spans are recorded either way.
    pub trace_sample: Option<u32>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            batch_width: DEFAULT_BATCH_WIDTH,
            queue_depth: 64,
            telemetry: true,
            full_rebuild: false,
            dirty_rebuild_threshold: 4096,
            lookup_cache: None,
            trace_sample: None,
        }
    }
}

/// One resolved batch leaving a worker.
#[derive(Debug, Clone)]
pub struct CompletedBatch {
    /// Submission sequence number (global, monotonically increasing).
    pub seq: u64,
    /// Per-packet results, in submission order.
    pub results: Vec<Option<NextHop>>,
    /// Generation of the snapshot the whole batch resolved against.
    pub generation: u64,
    /// Wall time the worker spent resolving the batch, in nanoseconds.
    pub elapsed_ns: u64,
    /// Worker that served the batch.
    pub worker: usize,
}

struct Job {
    seq: u64,
    packets: Vec<(VnId, u32)>,
    /// `Some` on sampled batches: the owned stage recorder riding with
    /// the job (see [`ServiceConfig::trace_sample`]).
    trace: Option<TraceBuilder>,
}

/// Registry handles owned by the service's control plane. Workers get
/// their own cloned [`WorkerMetrics`]; these cover publish/audit
/// paths that run on the caller's thread.
struct ServiceTelemetry {
    registry: Arc<MetricsRegistry>,
    swaps: Counter,
    audit_rejections: Counter,
    queue_stalls: Counter,
    updates: Counter,
    incremental_publishes: Counter,
    full_rebuilds: Counter,
    update_ns: Histogram,
    generation: Gauge,
    generation_lag: Gauge,
    batch_width: Gauge,
    dirty_buckets: Gauge,
    audit: AuditMetrics,
}

impl ServiceTelemetry {
    fn new(workers: usize) -> Self {
        let registry = Arc::new(MetricsRegistry::new(workers));
        Self {
            swaps: registry.counter("vr_service_swaps_total"),
            audit_rejections: registry.counter("vr_service_audit_rejections_total"),
            queue_stalls: registry.counter("vr_service_queue_stalls_total"),
            updates: registry.counter("vr_service_updates_total"),
            incremental_publishes: registry.counter("vr_service_incremental_publishes_total"),
            full_rebuilds: registry.counter("vr_service_full_rebuilds_total"),
            update_ns: registry.histogram("vr_service_update_ns"),
            generation: registry.gauge("vr_service_generation"),
            generation_lag: registry.gauge("vr_service_generation_lag"),
            batch_width: registry.gauge("vr_service_batch_width"),
            dirty_buckets: registry.gauge("vr_service_dirty_buckets"),
            audit: AuditMetrics::register(&registry),
            registry,
        }
    }

    fn worker_metrics(&self) -> WorkerMetrics {
        WorkerMetrics::for_registry(&self.registry)
    }
}

/// Per-worker handles cloned into each worker's thread. Counters are
/// sharded by worker id, so the hot path never contends on a cache
/// line; histograms record once per *batch* (batch wall time and mean
/// ns/lookup at batch granularity), keeping the per-packet overhead at
/// a fraction of an atomic op.
#[derive(Clone)]
struct WorkerMetrics {
    lookups: Counter,
    misses: Counter,
    batches: Counter,
    batch_ns: Histogram,
    lookup_ns: Histogram,
}

impl WorkerMetrics {
    /// Binds the standard worker metric names against `registry`.
    fn for_registry(registry: &MetricsRegistry) -> Self {
        Self {
            lookups: registry.counter("vr_service_lookups_total"),
            misses: registry.counter("vr_service_misses_total"),
            batches: registry.counter("vr_service_batches_total"),
            batch_ns: registry.histogram("vr_service_batch_ns"),
            lookup_ns: registry.histogram("vr_service_lookup_ns"),
        }
    }

    fn observe_batch(&self, worker: usize, results: &[Option<NextHop>], elapsed_ns: u64) {
        let n = results.len() as u64;
        self.lookups.add(worker, n);
        self.misses
            .add(worker, results.iter().filter(|nh| nh.is_none()).count() as u64);
        self.batches.inc(worker);
        self.batch_ns.record(elapsed_ns);
        self.lookup_ns.record(elapsed_ns / n.max(1));
    }
}

/// Per-worker handles for the LPM result-cache counters, cloned into
/// each worker thread alongside [`WorkerMetrics`]. The worker
/// flushes its cache's stat delta once per batch — a few sharded
/// `add`s, never per packet. The hit-rate gauge is set from the
/// worker's *cumulative* stats in per-mille; workers overwrite each
/// other, but under steady traffic every worker converges on the same
/// rate, so the gauge reads as the service-wide figure.
#[derive(Clone)]
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    fills: Counter,
    hit_rate_permille: Gauge,
}

impl CacheMetrics {
    /// Binds the `vr_cache_*` metric names against `registry`.
    fn for_registry(registry: &MetricsRegistry) -> Self {
        Self {
            hits: registry.counter("vr_cache_hits_total"),
            misses: registry.counter("vr_cache_misses_total"),
            fills: registry.counter("vr_cache_fills_total"),
            hit_rate_permille: registry.gauge("vr_cache_hit_rate_permille"),
        }
    }

    fn observe(&self, worker: usize, delta: CacheStats, cumulative: CacheStats) {
        if delta.hits == 0 && delta.misses == 0 && delta.fills == 0 {
            return;
        }
        self.hits.add(worker, delta.hits);
        self.misses.add(worker, delta.misses);
        self.fills.add(worker, delta.fills);
        let probes = cumulative.hits + cumulative.misses;
        if let Some(permille) = (cumulative.hits * 1000).checked_div(probes) {
            self.hit_rate_permille.set(permille);
        }
    }
}

struct Worker {
    /// `None` once the worker has been disconnected during shutdown.
    job_tx: Option<SpscSender<Job>>,
    done_rx: SpscReceiver<CompletedBatch>,
    handle: Option<JoinHandle<()>>,
}

/// Aggregated service counters, serializable for experiment reports.
///
/// `Deserialize` is hand-written so artifacts produced before the
/// telemetry fields existed (`generation_min`, `generation_max`,
/// `audit_rejections`) still parse — missing fields default to zero.
/// `generations_seen` is retained as the legacy alias of the
/// generations-observed span.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServiceReport {
    /// Worker threads the service ran with.
    pub workers: usize,
    /// Batch width in effect ([`ServiceConfig::batch_width`]).
    pub batch_width: usize,
    /// Lookups resolved.
    pub lookups: u64,
    /// Lookups that matched no route.
    pub misses: u64,
    /// Batches completed.
    pub batches: u64,
    /// Tables published over the service's lifetime (generation swaps).
    pub swaps: u64,
    /// Distinct snapshot generations batches were observed resolving
    /// against, sorted ascending.
    pub generations_seen: Vec<u64>,
    /// Histogram of per-lookup worker latency: bucket `i` counts batches
    /// whose mean ns/lookup fell in `[2^i, 2^(i+1))`.
    pub latency_histogram_ns: Vec<u64>,
    /// Total worker-side busy time across all batches, in nanoseconds.
    pub busy_ns: u64,
    /// Lowest snapshot generation any collected batch resolved against.
    pub generation_min: u64,
    /// Highest snapshot generation any collected batch resolved against.
    pub generation_max: u64,
    /// Publishes rejected by the structural audit gate. With telemetry
    /// enabled this is read back from the registry's
    /// `vr_service_audit_rejections_total` counter rather than threaded
    /// by hand.
    pub audit_rejections: u64,
    /// Route updates applied through [`LookupService::apply_updates`].
    pub updates_applied: u64,
    /// Publishes that went through the incremental dirty-bucket patch
    /// path.
    pub incremental_publishes: u64,
    /// Publishes that rebuilt the whole structure: the
    /// [`ServiceConfig::full_rebuild`] baseline plus dirty-threshold
    /// fallbacks of the incremental path.
    pub full_rebuilds: u64,
}

impl<'de> Deserialize<'de> for ServiceReport {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        fn field_or_default<'de, T, E>(
            map: &mut Vec<(String, serde::Value)>,
            field: &str,
        ) -> Result<T, E>
        where
            T: Deserialize<'de> + Default,
            E: serde::de::Error,
        {
            match map.iter().position(|(k, _)| k == field) {
                Some(idx) => serde::de::from_value(map.swap_remove(idx).1),
                None => Ok(T::default()),
            }
        }
        let mut map =
            serde::__priv::expect_map::<D::Error>(deserializer.take_value()?, "ServiceReport")?;
        let ty = "ServiceReport";
        Ok(Self {
            workers: serde::__priv::take_field(&mut map, ty, "workers")?,
            batch_width: serde::__priv::take_field(&mut map, ty, "batch_width")?,
            lookups: serde::__priv::take_field(&mut map, ty, "lookups")?,
            misses: serde::__priv::take_field(&mut map, ty, "misses")?,
            batches: serde::__priv::take_field(&mut map, ty, "batches")?,
            swaps: serde::__priv::take_field(&mut map, ty, "swaps")?,
            generations_seen: serde::__priv::take_field(&mut map, ty, "generations_seen")?,
            latency_histogram_ns: serde::__priv::take_field(&mut map, ty, "latency_histogram_ns")?,
            busy_ns: serde::__priv::take_field(&mut map, ty, "busy_ns")?,
            generation_min: field_or_default(&mut map, "generation_min")?,
            generation_max: field_or_default(&mut map, "generation_max")?,
            audit_rejections: field_or_default(&mut map, "audit_rejections")?,
            updates_applied: field_or_default(&mut map, "updates_applied")?,
            incremental_publishes: field_or_default(&mut map, "incremental_publishes")?,
            full_rebuilds: field_or_default(&mut map, "full_rebuilds")?,
        })
    }
}

impl ServiceReport {
    fn new(workers: usize, batch_width: usize) -> Self {
        Self {
            workers,
            batch_width,
            latency_histogram_ns: vec![0; 32],
            ..Self::default()
        }
    }

    fn observe(&mut self, done: &CompletedBatch) {
        let n = done.results.len() as u64;
        self.lookups += n;
        self.misses += done.results.iter().filter(|nh| nh.is_none()).count() as u64;
        self.batches += 1;
        if let Some(per_lookup) = done.elapsed_ns.checked_div(n) {
            let bucket = (63 - u64::leading_zeros(per_lookup.max(1))).min(31) as usize;
            self.latency_histogram_ns[bucket] += 1;
        }
        self.busy_ns += done.elapsed_ns;
        if let Err(pos) = self.generations_seen.binary_search(&done.generation) {
            self.generations_seen.insert(pos, done.generation);
        }
        self.generation_min = self.generations_seen.first().copied().unwrap_or(0);
        self.generation_max = self.generations_seen.last().copied().unwrap_or(0);
    }

    /// Mean worker-side ns per lookup (0 when nothing ran).
    #[must_use]
    pub fn mean_ns_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / self.lookups as f64
    }
}

/// The incremental update plant: the live [`MergedTrie`] and its
/// per-/16-bucket [`JumpSlabs`] decomposition, kept in lockstep with the
/// mirrored tables. Dropped (and lazily rebuilt) whenever the tables are
/// replaced wholesale via [`LookupService::publish_tables`].
struct IncrementalPlant {
    merged: MergedTrie,
    slabs: JumpSlabs,
}

/// A read-only handle on a service's live snapshot, handed out by
/// [`LookupService::reader`]. Any number of threads may share one: each
/// [`lookup`](Self::lookup) pins the published [`TableSnapshot`] once,
/// walks the whole batch against it, and counts the batch in the
/// service's `vr_service_*` worker metrics. Results and generation come
/// from that one pin, so a batch never straddles a publish. This is the
/// same pin → walk → count path the worker pool's uncached branch runs;
/// the per-worker result cache and batch tracing are worker-only.
#[derive(Clone)]
pub struct LookupReader {
    current: Publish<TableSnapshot>,
    metrics: Option<WorkerMetrics>,
    networks: usize,
}

impl LookupReader {
    /// Virtual networks the service hosts; fixed for its lifetime, since
    /// a publish may not change the table count.
    #[must_use]
    pub fn networks(&self) -> usize {
        self.networks
    }

    /// Resolves `packets` against the live snapshot; returns per-packet
    /// next hops in input order and the generation they came from. Every
    /// VN id must be below [`networks`](Self::networks).
    #[must_use]
    pub fn lookup(&self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
        let (results, generation, _) = self.resolve(0, packets);
        (results, generation)
    }

    /// Pin, walk, count: returns `(results, generation, elapsed_ns)`.
    /// `worker` picks the metric counter shard.
    fn resolve(&self, worker: usize, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64, u64) {
        // RCU read-side critical section: pin the snapshot with one
        // refcount bump; the slot is never held across the walk.
        let snapshot: SyncArc<TableSnapshot> = self.current.read();
        let watch = Stopwatch::start();
        let mut results = vec![None; packets.len()];
        lookup_batch_mixed(&snapshot.trie, packets, &mut results);
        let elapsed_ns = watch.elapsed_ns();
        if let Some(m) = &self.metrics {
            m.observe_batch(worker, &results, elapsed_ns);
        }
        (results, snapshot.generation, elapsed_ns)
    }
}

/// Resolves a possibly mixed-VN batch against one trie: element `i` of
/// `out` receives `trie.lookup_vn(packets[i].0, packets[i].1)`. One
/// scalar walk per packet, no grouping and no allocation; independent
/// walks already overlap in an out-of-order core. Public so the bench
/// can measure it as the uncached baseline the result cache is compared
/// against.
///
/// # Panics
/// If `packets` and `out` differ in length.
pub fn lookup_batch_mixed(
    trie: &JumpTrie,
    packets: &[(VnId, u32)],
    out: &mut [Option<NextHop>],
) {
    assert_eq!(
        packets.len(),
        out.len(),
        "batch destination and output slices must match"
    );
    for (slot, &(vn, dst)) in out.iter_mut().zip(packets) {
        *slot = trie.lookup_vn(usize::from(vn), dst);
    }
}

/// N-worker concurrent lookup service over an immutable, atomically
/// swappable [`JumpTrie`].
///
/// ```
/// use vr_engine::service::{LookupService, ServiceConfig};
/// use vr_net::RoutingTable;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let cfg = ServiceConfig { workers: 2, ..ServiceConfig::default() };
/// let mut service = LookupService::new(vec![table], cfg).unwrap();
///
/// let packets = vec![(0, 0x0A01_0103), (0, 0x0A02_0000), (0, 0x0B00_0000)];
/// assert_eq!(service.process(&packets), vec![Some(2), Some(1), None]);
///
/// // Publish a route change: in-flight lookups keep their snapshot.
/// let updated: RoutingTable = "10.0.0.0/8 5\n".parse().unwrap();
/// service.publish_tables(vec![updated]).unwrap();
/// assert_eq!(service.process(&[(0, 0x0A01_0103)]), vec![Some(5)]);
/// let report = service.shutdown();
/// assert_eq!(report.swaps, 1);
/// ```
pub struct LookupService {
    /// The publish slot plus the worker metrics every reader counts in.
    reader: LookupReader,
    /// Control-plane mirror of the per-VN tables, fed by
    /// [`apply_updates`](Self::apply_updates).
    tables: Vec<RoutingTable>,
    workers: Vec<Worker>,
    batch_width: usize,
    next_seq: u64,
    /// Batches submitted but not yet collected, per worker.
    in_flight: Vec<u64>,
    report: ServiceReport,
    /// `None` when [`ServiceConfig::telemetry`] is off.
    telemetry: Option<ServiceTelemetry>,
    /// `None` when [`ServiceConfig::trace_sample`] is off.
    tracer: Option<Tracer>,
    /// Route updates clone-and-rebuild instead of patching sub-slabs.
    full_rebuild: bool,
    /// Dirty-bucket fallback threshold of the incremental path.
    dirty_threshold: usize,
    /// Lazily materialized incremental update state.
    plant: Option<IncrementalPlant>,
}

impl LookupService {
    /// Builds the jump trie and spawns the worker threads.
    ///
    /// # Errors
    /// Rejects an empty table set, zero workers, a zero batch width, and
    /// merge failures (more than 64 virtual networks).
    pub fn new(tables: Vec<RoutingTable>, cfg: ServiceConfig) -> Result<Self, EngineError> {
        if tables.is_empty() {
            return Err(EngineError::InvalidParameter("need at least one table"));
        }
        if cfg.workers == 0 {
            return Err(EngineError::InvalidParameter("need at least one worker"));
        }
        if cfg.batch_width == 0 {
            return Err(EngineError::InvalidParameter("batch width must be positive"));
        }
        if cfg.lookup_cache == Some(0) {
            return Err(EngineError::InvalidParameter(
                "cache capacity must be at least 1 slot",
            ));
        }
        if cfg.trace_sample == Some(0) {
            return Err(EngineError::InvalidParameter(
                "trace sample rate must be at least 1",
            ));
        }
        let telemetry = cfg.telemetry.then(|| ServiceTelemetry::new(cfg.workers));
        let tracer = cfg
            .trace_sample
            .map(|sample| Tracer::new(sample, DEFAULT_TRACE_CAPACITY));
        let trie = Self::build_trie(&tables)?;
        Self::audit_snapshot(&trie, telemetry.as_ref().map(|t| &t.audit))?;
        if let Some(t) = &telemetry {
            t.batch_width.set(cfg.batch_width as u64);
            t.generation.set(0);
        }
        let reader = LookupReader {
            current: Publish::new(TableSnapshot {
                trie,
                generation: 0,
            }),
            metrics: telemetry.as_ref().map(ServiceTelemetry::worker_metrics),
            networks: tables.len(),
        };
        let workers = (0..cfg.workers)
            .map(|id| {
                Self::spawn_worker(
                    id,
                    reader.clone(),
                    cfg.queue_depth,
                    cfg.lookup_cache,
                    telemetry
                        .as_ref()
                        .map(|t| CacheMetrics::for_registry(&t.registry)),
                    tracer.clone(),
                )
            })
            .collect();
        Ok(Self {
            reader,
            tables,
            workers,
            batch_width: cfg.batch_width,
            next_seq: 0,
            in_flight: vec![0; cfg.workers],
            report: ServiceReport::new(cfg.workers, cfg.batch_width),
            telemetry,
            tracer,
            full_rebuild: cfg.full_rebuild,
            dirty_threshold: cfg.dirty_rebuild_threshold,
            plant: None,
        })
    }

    fn build_trie(tables: &[RoutingTable]) -> Result<JumpTrie, EngineError> {
        Ok(JumpTrie::from_merged(&MergedTrie::from_tables(tables)?))
    }

    /// Structural audit gate for candidate snapshots: active in debug
    /// builds and under the `audit-on-publish` feature, a no-op otherwise.
    /// With `metrics` attached, each run's duration and violation count
    /// land in the registry (`vr_audit_*`).
    #[cfg(any(debug_assertions, feature = "audit-on-publish"))]
    fn audit_snapshot(
        trie: &JumpTrie,
        metrics: Option<&AuditMetrics>,
    ) -> Result<(), EngineError> {
        let watch = Stopwatch::start();
        let report = vr_audit::audit_jump(trie);
        if let Some(m) = metrics {
            m.observe(&report, watch.elapsed_ns());
        }
        if report.is_clean() {
            Ok(())
        } else {
            Err(EngineError::AuditRejected(report.summary()))
        }
    }

    #[cfg(not(any(debug_assertions, feature = "audit-on-publish")))]
    #[allow(clippy::unnecessary_wraps)]
    fn audit_snapshot(
        _trie: &JumpTrie,
        _metrics: Option<&AuditMetrics>,
    ) -> Result<(), EngineError> {
        Ok(())
    }

    fn spawn_worker(
        id: usize,
        reader: LookupReader,
        queue_depth: usize,
        cache_slots: Option<usize>,
        cache_metrics: Option<CacheMetrics>,
        tracer: Option<Tracer>,
    ) -> Worker {
        let (job_tx, job_rx) = spsc_bounded::<Job>(queue_depth);
        // Results must never backpressure the submitter: a bounded done
        // queue would let a worker block mid-send while the dispatcher is
        // still fanning out jobs — a submit/drain deadlock.
        let (done_tx, done_rx) = spsc_unbounded::<CompletedBatch>();
        let handle = std::thread::spawn(move || {
            // Worker-private result cache (capacity validated in `new`);
            // nothing about it is shared, so probes and fills are plain
            // loads and stores.
            let mut cache = cache_slots.and_then(|slots| LpmCache::new(slots).ok());
            while let Ok(mut job) = job_rx.recv() {
                // Close the queue-residency span the moment the job is
                // picked up (sampled batches only).
                if let Some(tb) = job.trace.as_mut() {
                    tb.mark(Stage::Dequeue);
                }
                let (results, generation, elapsed_ns) = match cache.as_mut() {
                    None => {
                        let resolved = reader.resolve(id, &job.packets);
                        if let Some(tb) = job.trace.as_mut() {
                            tb.mark(Stage::Walk);
                        }
                        resolved
                    }
                    // Cached path: probe, walk only the misses,
                    // scatter + fill. The snapshot's generation doubles
                    // as the slot tag, so a publish that happened since
                    // the last batch invalidates every slot for free.
                    Some(c) => {
                        let snapshot: SyncArc<TableSnapshot> = reader.current.read();
                        let watch = Stopwatch::start();
                        let mut results = vec![None; job.packets.len()];
                        let (trie, generation) = (&snapshot.trie, snapshot.generation);
                        match job.trace.as_mut() {
                            Some(tb) => c.lookup_batch_traced(
                                trie,
                                generation,
                                &job.packets,
                                &mut results,
                                tb,
                            ),
                            None => c.lookup_batch(trie, generation, &job.packets, &mut results),
                        }
                        let elapsed_ns = watch.elapsed_ns();
                        if let Some(m) = &reader.metrics {
                            m.observe_batch(id, &results, elapsed_ns);
                        }
                        if let Some(cm) = &cache_metrics {
                            cm.observe(id, c.take_delta(), c.stats());
                        }
                        (results, generation, elapsed_ns)
                    }
                };
                if let (Some(mut tb), Some(tr)) = (job.trace.take(), tracer.as_ref()) {
                    tb.set_worker(id as u64);
                    tb.set_generation(generation);
                    tb.mark(Stage::Complete);
                    tr.record(tb.finish());
                }
                let done = CompletedBatch {
                    seq: job.seq,
                    results,
                    generation,
                    elapsed_ns,
                    worker: id,
                };
                if done_tx.send(done).is_err() {
                    break; // service dropped the receiving half
                }
            }
        });
        Worker {
            job_tx: Some(job_tx),
            done_rx,
            handle: Some(handle),
        }
    }

    /// Worker thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Batch width in effect ([`ServiceConfig::batch_width`]).
    #[must_use]
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Generation of the currently published snapshot.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.reader.current.peek(|s| s.generation)
    }

    /// The control-plane view of the per-VN tables.
    #[must_use]
    pub fn tables(&self) -> &[RoutingTable] {
        &self.tables
    }

    /// Enqueues one batch on the next worker (round-robin) and returns its
    /// sequence number. Blocks only when that worker's queue is full; the
    /// stall is counted (`vr_service_queue_stalls_total`) and ringed as a
    /// [`EventKind::WorkerStall`] before the blocking send, so
    /// backpressure is observable while it is happening.
    pub fn submit(&mut self, packets: Vec<(VnId, u32)>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let worker = (seq % self.workers.len() as u64) as usize;
        self.in_flight[worker] += 1;
        // Sampled batches get a trace builder; the enqueue span closes
        // just before the send, so a blocking (backpressured) send shows
        // up as queue residency in the dequeue span.
        let mut trace = self
            .tracer
            .as_ref()
            .filter(|tr| tr.should_sample(seq))
            .map(|tr| tr.begin(seq, packets.len()));
        if let Some(tb) = trace.as_mut() {
            tb.mark(Stage::Enqueue);
        }
        let tx = self.workers[worker]
            .job_tx
            .as_ref()
            .expect("submit after shutdown");
        let blocked = match tx.try_send(Job { seq, packets, trace }) {
            Ok(()) => None,
            Err(TrySendError::Full(job)) => {
                if let Some(t) = &self.telemetry {
                    t.queue_stalls.inc(worker);
                    t.registry.events().publish(EventKind::WorkerStall {
                        worker: worker as u64,
                    });
                }
                Some(job)
            }
            // Let the blocking send below surface the disconnect.
            Err(TrySendError::Disconnected(job)) => Some(job),
        };
        if let Some(job) = blocked {
            tx.send(job)
                .expect("worker thread alive while service exists");
        }
        seq
    }

    /// Waits for every submitted batch, aggregates counters, and returns
    /// the batches sorted by submission sequence. Updates the
    /// `vr_service_generation_lag` gauge to the widest gap between the
    /// published generation and a collected batch's pinned generation —
    /// the software analogue of table-reload latency: how far behind the
    /// freshest table the datapath was still serving.
    pub fn collect_all(&mut self) -> Vec<CompletedBatch> {
        let published = self.reader.current.peek(|s| s.generation);
        let mut max_lag = 0u64;
        let mut done: Vec<CompletedBatch> = Vec::new();
        for (worker, pending) in self.in_flight.iter_mut().enumerate() {
            while *pending > 0 {
                let batch = self.workers[worker]
                    .done_rx
                    .recv()
                    .expect("worker thread alive while service exists");
                self.report.observe(&batch);
                max_lag = max_lag.max(published.saturating_sub(batch.generation));
                done.push(batch);
                *pending -= 1;
            }
        }
        if let Some(t) = &self.telemetry {
            if !done.is_empty() {
                t.generation_lag.set(max_lag);
            }
        }
        done.sort_by_key(|b| b.seq);
        done
    }

    /// Resolves a packet stream end to end: splits it into batches of the
    /// service width, fans them out, and returns per-packet results in
    /// input order.
    pub fn process(&mut self, packets: &[(VnId, u32)]) -> Vec<Option<NextHop>> {
        let first_seq = self.next_seq;
        for chunk in packets.chunks(self.batch_width) {
            self.submit(chunk.to_vec());
        }
        let mut out = Vec::with_capacity(packets.len());
        for batch in self.collect_all() {
            debug_assert!(batch.seq >= first_seq, "stale batch left uncollected");
            out.extend(batch.results);
        }
        out
    }

    /// Publishes a fresh snapshot built from `tables`, replacing the
    /// control-plane mirror. The build runs outside the swap lock;
    /// in-flight batches finish on their pinned snapshot. Returns the new
    /// generation.
    ///
    /// # Errors
    /// Propagates trie construction failures (the live table is untouched
    /// on error). The VN count must not change — workers' batches carry
    /// VN ids that must stay valid across swaps.
    pub fn publish_tables(&mut self, tables: Vec<RoutingTable>) -> Result<u64, EngineError> {
        if tables.len() != self.tables.len() {
            return Err(EngineError::InvalidParameter(
                "table count must not change across a swap",
            ));
        }
        let trie = Self::build_trie(&tables)?;
        self.tables = tables;
        // The wholesale replacement invalidates the incremental plant; it
        // is rebuilt lazily on the next incremental update or α read.
        self.plant = None;
        self.publish_trie(trie)
    }

    /// Atomically swaps in an already-built trie (the RCU write side) and
    /// returns the new generation.
    ///
    /// # Errors
    /// In audited builds (debug, or release with `audit-on-publish`),
    /// rejects a structurally invalid trie with
    /// [`EngineError::AuditRejected`]; the live snapshot is untouched.
    pub fn publish_trie(&mut self, trie: JumpTrie) -> Result<u64, EngineError> {
        // Guard-style span: audit + swap both land in vr_service_publish_ns
        // (recorded on every exit path, including the rejection return).
        let _span = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.span("vr_service_publish_ns"));
        let trace_start = self.tracer.as_ref().map(Tracer::now_ns);
        if let Err(err) = Self::audit_snapshot(&trie, self.telemetry.as_ref().map(|t| &t.audit)) {
            if let Some(t) = &self.telemetry {
                t.audit_rejections.inc(0);
                let generation = self.reader.current.peek(|s| s.generation) + 1;
                t.registry
                    .events()
                    .publish(EventKind::AuditRejected { generation });
                // Report field sourced from the registry, per contract.
                self.report.audit_rejections = t.audit_rejections.value();
            } else {
                self.report.audit_rejections += 1;
            }
            return Err(err);
        }
        // Read-modify-publish in one critical section: the new generation
        // is derived from the outgoing snapshot atomically with the swap.
        let generation = self.reader.current.update(|cur| {
            let generation = cur.generation + 1;
            (SyncArc::new(TableSnapshot { trie, generation }), generation)
        });
        self.report.swaps += 1;
        if let Some(t) = &self.telemetry {
            t.swaps.inc(0);
            t.generation.set(generation);
            t.registry
                .events()
                .publish(EventKind::GenerationSwap { generation });
        }
        if let (Some(tr), Some(start)) = (self.tracer.as_ref(), trace_start) {
            tr.record_span(Stage::Publish, start, generation);
        }
        Ok(generation)
    }

    /// Applies a route-update stream (`vr_net::update`) to the mirrored
    /// tables and publishes a fresh snapshot — announce/withdraw never
    /// stalls in-flight lookups. Returns the new generation.
    ///
    /// Updates are applied in slice order, so a batch carrying several
    /// updates for the same (VN, prefix) resolves last-writer-wins (the
    /// `vr-control` coalescer enforces this deterministically upstream).
    /// By default the batch goes through the incremental path: deltas
    /// land in the live [`MergedTrie`], only the dirty /16 buckets are
    /// re-derived, and the publishable [`JumpTrie`] is assembled by a
    /// straight copy. Past [`ServiceConfig::dirty_rebuild_threshold`]
    /// dirty buckets every sub-slab is re-derived in one pass; with
    /// [`ServiceConfig::full_rebuild`] set the legacy clone-and-rebuild
    /// baseline runs instead. If the audit gate rejects the assembled
    /// snapshot, the batch is rolled back and the mirrored tables, the
    /// plant, and the live generation are all left untouched.
    ///
    /// # Errors
    /// Rejects updates addressing a VN the service does not host (checked
    /// up front — nothing is applied), and propagates
    /// [`EngineError::AuditRejected`] from the publish gate.
    pub fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, EngineError> {
        let watch = Stopwatch::start();
        let trace_start = self.tracer.as_ref().map(Tracer::now_ns);
        for update in updates {
            if usize::from(update.vnid()) >= self.tables.len() {
                return Err(EngineError::InvalidParameter("update for unknown VN"));
            }
        }
        let (generation, dirty, patched) = if self.full_rebuild {
            (self.apply_updates_full(updates)?, 0, false)
        } else {
            self.apply_updates_incremental(updates)?
        };
        self.report.updates_applied += updates.len() as u64;
        if patched {
            self.report.incremental_publishes += 1;
        } else {
            self.report.full_rebuilds += 1;
        }
        if let Some(t) = &self.telemetry {
            t.updates.add(0, updates.len() as u64);
            if patched {
                t.incremental_publishes.inc(0);
            } else {
                t.full_rebuilds.inc(0);
            }
            t.dirty_buckets.set(dirty as u64);
            t.update_ns.record(watch.elapsed_ns());
        }
        if let (Some(tr), Some(start)) = (self.tracer.as_ref(), trace_start) {
            tr.record_span(Stage::ApplyUpdates, start, generation);
        }
        Ok(generation)
    }

    /// Legacy baseline: clone the table family, apply the batch, rebuild
    /// everything. Kept behind [`ServiceConfig::full_rebuild`] for A/B
    /// benchmarking and as the semantics oracle of the incremental path.
    fn apply_updates_full(&mut self, updates: &[RouteUpdate]) -> Result<u64, EngineError> {
        // Sanctioned full-rebuild fallback — the one clone of the table
        // family the `no-tables-clone` lint permits in this file.
        let mut staged = self.tables.clone();
        for update in updates {
            match *update {
                RouteUpdate::Announce {
                    vnid,
                    prefix,
                    next_hop,
                } => {
                    staged[usize::from(vnid)].insert(prefix, next_hop);
                }
                RouteUpdate::Withdraw { vnid, prefix } => {
                    staged[usize::from(vnid)].remove(&prefix);
                }
            }
        }
        self.publish_tables(staged)
    }

    /// Incremental path: delta-apply to the merged trie, patch dirty
    /// buckets (or re-derive all sub-slabs past the threshold), assemble,
    /// publish. Returns `(generation, dirty buckets, patched?)`; on a
    /// publish rejection the deltas are rolled back in reverse order.
    fn apply_updates_incremental(
        &mut self,
        updates: &[RouteUpdate],
    ) -> Result<(u64, usize, bool), EngineError> {
        self.ensure_plant()?;
        let Some(mut plant) = self.plant.take() else {
            return Err(EngineError::InvalidParameter("incremental plant missing"));
        };
        let mut dirty = DirtyBuckets::new();
        // Undo log: pre-update next hop per (VN, prefix), in apply order.
        let mut applied: Vec<(usize, Ipv4Prefix, Option<NextHop>)> =
            Vec::with_capacity(updates.len());
        for update in updates {
            match *update {
                RouteUpdate::Announce {
                    vnid,
                    prefix,
                    next_hop,
                } => {
                    let vn = usize::from(vnid);
                    let prev = plant.merged.insert(vn, prefix, next_hop);
                    self.tables[vn].insert(prefix, next_hop);
                    applied.push((vn, prefix, prev));
                    dirty.mark_prefix(&prefix);
                }
                RouteUpdate::Withdraw { vnid, prefix } => {
                    let vn = usize::from(vnid);
                    let prev = plant.merged.remove(vn, &prefix);
                    self.tables[vn].remove(&prefix);
                    applied.push((vn, prefix, prev));
                    dirty.mark_prefix(&prefix);
                }
            }
        }
        let patched = dirty.len() <= self.dirty_threshold;
        if patched {
            for bucket in dirty.iter() {
                plant.slabs.rebuild_bucket(&plant.merged, bucket);
            }
        } else {
            plant.slabs = JumpSlabs::from_merged(&plant.merged);
        }
        let trie = plant.slabs.assemble();
        match self.publish_trie(trie) {
            Ok(generation) => {
                self.plant = Some(plant);
                Ok((generation, dirty.len(), patched))
            }
            Err(err) => {
                // Restore tables and merged trie to the pre-batch state
                // (reverse order handles repeated keys), then re-derive
                // the touched buckets so the plant matches again.
                for (vn, prefix, prev) in applied.into_iter().rev() {
                    match prev {
                        Some(nh) => {
                            plant.merged.insert(vn, prefix, nh);
                            self.tables[vn].insert(prefix, nh);
                        }
                        None => {
                            plant.merged.remove(vn, &prefix);
                            self.tables[vn].remove(&prefix);
                        }
                    }
                }
                for bucket in dirty.iter() {
                    plant.slabs.rebuild_bucket(&plant.merged, bucket);
                }
                self.plant = Some(plant);
                Err(err)
            }
        }
    }

    /// Materializes the incremental plant from the mirrored tables if it
    /// is not already live.
    fn ensure_plant(&mut self) -> Result<(), EngineError> {
        if self.plant.is_none() {
            let merged = MergedTrie::from_tables(&self.tables)?;
            let slabs = JumpSlabs::from_merged(&merged);
            self.plant = Some(IncrementalPlant { merged, slabs });
        }
        Ok(())
    }

    /// Rebuilds the canonical merged structure from the mirrored tables,
    /// publishes it, and replaces the incremental plant — the re-merge
    /// endpoint `vr-control` triggers on α drift. Returns the new
    /// generation; on rejection the old plant and generation stay live.
    ///
    /// # Errors
    /// Propagates merge failures and audit rejections.
    pub fn remerge_publish(&mut self) -> Result<u64, EngineError> {
        let merged = MergedTrie::from_tables(&self.tables)?;
        let mut slabs = JumpSlabs::from_merged(&merged);
        let trie = slabs.assemble();
        let generation = self.publish_trie(trie)?;
        self.plant = Some(IncrementalPlant { merged, slabs });
        Ok(generation)
    }

    /// Measured merging efficiency α of the live table family, O(1) when
    /// the incremental plant is warm (it is materialized on first use).
    ///
    /// # Errors
    /// Propagates merge failures when the plant must be (re)built.
    pub fn alpha(&mut self) -> Result<f64, EngineError> {
        self.ensure_plant()?;
        Ok(self
            .plant
            .as_ref()
            .map_or(0.0, |p| p.merged.merging_efficiency()))
    }

    /// The currently published snapshot (one refcount bump) — lets the
    /// control plane size the live structure without re-building it.
    #[must_use]
    pub fn snapshot(&self) -> SyncArc<TableSnapshot> {
        self.reader.current.read()
    }

    /// A read-only handle on the live snapshot for threads that resolve
    /// lookups themselves instead of submitting to the worker pool (the
    /// `vr-wire` connection threads). Lookups through it count in the
    /// same `vr_service_*` worker metrics; they do not enter
    /// [`report`](Self::report), which aggregates collected batches.
    #[must_use]
    pub fn reader(&self) -> LookupReader {
        self.reader.clone()
    }

    /// Counters aggregated from every batch collected so far.
    #[must_use]
    pub fn report(&self) -> &ServiceReport {
        &self.report
    }

    /// The live metrics registry, when the service was configured with
    /// [`ServiceConfig::telemetry`]. Clone the `Arc` to scrape from
    /// another thread while the service keeps running.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// The live batch tracer, when the service was configured with
    /// [`ServiceConfig::trace_sample`]. Clone it to read completed
    /// traces (or export them over the vr-obs HTTP plane) from another
    /// thread while the service keeps running.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Captures a [`TelemetrySnapshot`] of every registered metric plus
    /// the event ring; `None` with telemetry off.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.registry.snapshot())
    }

    /// Drains outstanding batches, stops the workers, and returns the
    /// final report.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceReport {
        let _ = self.collect_all();
        for worker in &mut self.workers {
            // Dropping the sender disconnects the worker's FIFO; the
            // worker exits its recv loop.
            drop(worker.job_tx.take());
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
        std::mem::take(&mut self.report)
    }
}

impl std::fmt::Debug for LookupService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupService")
            .field("workers", &self.workers.len())
            .field("batch_width", &self.batch_width)
            .field("generation", &self.generation())
            .field("tables", &self.tables.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_net::synth::TableSpec;

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    fn small_cfg(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            batch_width: 16,
            queue_depth: 8,
            telemetry: true,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn resolves_like_the_oracle_across_shards() {
        let t = TableSpec::paper_worst_case(21).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t
            .prefixes()
            .flat_map(|p| [(0, p.addr()), (0, p.addr() | 0xFF)])
            .collect();
        for workers in [1, 2, 4] {
            let mut service = LookupService::new(vec![t.clone()], small_cfg(workers)).unwrap();
            let results = service.process(&packets);
            assert_eq!(results.len(), packets.len());
            for (&(_, dst), nh) in packets.iter().zip(&results) {
                assert_eq!(*nh, t.lookup(dst), "dst {dst:#010x}");
            }
            let report = service.shutdown();
            assert_eq!(report.lookups, packets.len() as u64);
            assert_eq!(report.generations_seen, vec![0]);
            assert_eq!(report.workers, workers);
        }
    }

    #[test]
    fn serves_merged_vns_and_mixed_batches() {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n"),
        ];
        let mut service = LookupService::new(tables.clone(), small_cfg(2)).unwrap();
        // Deliberately interleave VNs inside each batch.
        let packets: Vec<(VnId, u32)> = (0..200)
            .map(|i| {
                let vn = (i % 2) as VnId;
                let dst = if i % 3 == 0 { 0x0A01_0103 } else { 0xAC10_0001 };
                (vn, dst)
            })
            .collect();
        let results = service.process(&packets);
        for (&(vn, dst), nh) in packets.iter().zip(&results) {
            assert_eq!(*nh, tables[usize::from(vn)].lookup(dst), "vn {vn} dst {dst:#010x}");
        }
        let _ = service.shutdown();
    }

    #[test]
    fn cached_service_matches_uncached_and_counts_hits() {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.0.0/16 2\n"),
            table("172.16.0.0/12 3\n"),
        ];
        let cached_cfg = ServiceConfig {
            lookup_cache: Some(512),
            ..small_cfg(2)
        };
        let mut cached = LookupService::new(tables.clone(), cached_cfg).unwrap();
        let mut plain = LookupService::new(tables, small_cfg(2)).unwrap();
        let packets: Vec<(VnId, u32)> = (0..256)
            .map(|i| {
                let vn = (i % 2) as VnId;
                let dst = if i % 4 == 0 { 0x0A01_0103 } else { 0xAC10_0001 };
                (vn, dst)
            })
            .collect();
        // Two passes: pass 2 is answered almost entirely from the cache
        // and must still be bit-identical.
        for _ in 0..2 {
            assert_eq!(cached.process(&packets), plain.process(&packets));
        }
        let snap = cached.telemetry_snapshot().unwrap();
        let hits = snap.counter("vr_cache_hits_total").unwrap_or(0);
        let misses = snap.counter("vr_cache_misses_total").unwrap_or(0);
        let fills = snap.counter("vr_cache_fills_total").unwrap_or(0);
        assert_eq!(hits + misses, 512, "every probe counted");
        assert!(hits > 0, "repeat traffic must hit");
        assert_eq!(misses, fills, "every miss walk fills its slot");
        // A publish bumps the generation; the next pass must re-walk
        // (no stale hits) yet still agree with the uncached service.
        let new_tables = vec![
            table("10.0.0.0/8 9\n10.1.0.0/16 2\n"),
            table("172.16.0.0/12 3\n"),
        ];
        cached.publish_tables(new_tables.clone()).unwrap();
        plain.publish_tables(new_tables).unwrap();
        assert_eq!(cached.process(&packets), plain.process(&packets));
        let _ = cached.shutdown();
        let _ = plain.shutdown();
    }

    #[test]
    fn traced_service_records_validating_stage_chains() {
        let tables = vec![table("10.0.0.0/8 1\n10.1.0.0/16 2\n")];
        // Sample every batch so this test is deterministic; exercise
        // both the cached and uncached worker paths.
        for cache in [None, Some(256)] {
            let cfg = ServiceConfig {
                trace_sample: Some(1),
                lookup_cache: cache,
                ..small_cfg(2)
            };
            let mut service = LookupService::new(tables.clone(), cfg).unwrap();
            let packets: Vec<(VnId, u32)> =
                (0..64u32).map(|i| (0, 0x0A01_0000 | i)).collect();
            let _ = service.process(&packets);
            let _ = service
                .apply_updates(&[RouteUpdate::Announce {
                    vnid: 0,
                    prefix: "10.2.0.0/16".parse().unwrap(),
                    next_hop: 5,
                }])
                .unwrap();
            let _ = service.process(&packets);
            let snap = service.tracer().expect("tracer on").snapshot();
            assert!(snap.recorded >= 8, "every batch sampled");
            assert_eq!(snap.sample, 1);
            for trace in &snap.traces {
                trace.validate().unwrap();
            }
            // The worker batches carry worker attribution and the
            // post-publish ones observed the bumped generation.
            assert!(snap.traces.iter().any(|t| t.worker.is_some()));
            assert!(snap
                .traces
                .iter()
                .any(|t| t.worker.is_some() && t.generation == 1));
            // Control-plane spans: the apply_updates call plus the
            // publish nested inside it.
            assert!(snap
                .traces
                .iter()
                .any(|t| t.stages[0].stage == Stage::Publish && t.generation == 1));
            assert!(snap
                .traces
                .iter()
                .any(|t| t.stages[0].stage == Stage::ApplyUpdates));
            let _ = service.shutdown();
        }
    }

    #[test]
    fn trace_sampling_is_one_in_n_and_zero_rate_is_rejected() {
        let cfg = ServiceConfig {
            trace_sample: Some(4),
            ..small_cfg(1)
        };
        let mut service = LookupService::new(vec![table("10.0.0.0/8 1\n")], cfg).unwrap();
        let packets: Vec<(VnId, u32)> = (0..16u32).map(|i| (0, 0x0A00_0000 | i)).collect();
        for _ in 0..16 {
            service.submit(packets.clone());
        }
        let _ = service.collect_all();
        let snap = service.tracer().unwrap().snapshot();
        assert_eq!(snap.recorded, 4, "every 4th of 16 batches");
        assert!(snap.traces.iter().all(|t| t.seq % 4 == 0));
        let _ = service.shutdown();

        let bad = ServiceConfig {
            trace_sample: Some(0),
            ..small_cfg(1)
        };
        assert!(LookupService::new(vec![table("10.0.0.0/8 1\n")], bad).is_err());
    }

    #[test]
    fn cache_config_rejects_zero_slots() {
        let cfg = ServiceConfig {
            lookup_cache: Some(0),
            ..small_cfg(1)
        };
        assert!(LookupService::new(vec![table("10.0.0.0/8 1\n")], cfg).is_err());
    }

    #[test]
    fn updates_swap_without_changing_vn_count() {
        let mut service =
            LookupService::new(vec![table("10.0.0.0/8 1\n")], small_cfg(2)).unwrap();
        assert_eq!(service.generation(), 0);
        let gen = service
            .apply_updates(&[
                RouteUpdate::Announce {
                    vnid: 0,
                    prefix: "10.1.1.0/24".parse().unwrap(),
                    next_hop: 9,
                },
                RouteUpdate::Withdraw {
                    vnid: 0,
                    prefix: "10.0.0.0/8".parse().unwrap(),
                },
            ])
            .unwrap();
        assert_eq!(gen, 1);
        assert_eq!(service.generation(), 1);
        assert_eq!(
            service.process(&[(0, 0x0A01_0101), (0, 0x0A02_0000)]),
            vec![Some(9), None]
        );
        // Updates for a VN we do not host are rejected, table untouched.
        assert!(service
            .apply_updates(&[RouteUpdate::Withdraw {
                vnid: 7,
                prefix: "10.1.1.0/24".parse().unwrap(),
            }])
            .is_err());
        assert_eq!(service.generation(), 1);
        let report = service.shutdown();
        assert_eq!(report.swaps, 1);
        assert!(report.generations_seen.contains(&1));
    }

    #[test]
    fn audit_gate_rejects_corrupt_trie_and_keeps_serving() {
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t], small_cfg(1)).unwrap();
        // A structurally corrupt trie: NHI slab truncated to nothing while
        // the root still points leaf entries at vector slot 1.
        let good = JumpTrie::from_table(&table("10.0.0.0/8 1\n"));
        let p = good.raw_parts();
        let corrupt = JumpTrie::from_raw_parts(
            p.root.to_vec(),
            p.words.to_vec(),
            p.level_offsets.to_vec(),
            Vec::new(),
            p.k,
        );
        let err = service.publish_trie(corrupt).unwrap_err();
        assert!(matches!(err, EngineError::AuditRejected(_)));
        assert!(err.to_string().contains("structural audit"));
        // The rejected generation never went live; lookups still resolve.
        assert_eq!(service.generation(), 0);
        assert_eq!(service.process(&[(0, 0x0A00_0001)]), vec![Some(1)]);
        let report = service.shutdown();
        assert_eq!(report.swaps, 0);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(LookupService::new(vec![], small_cfg(1)).is_err());
        let t = table("10.0.0.0/8 1\n");
        assert!(LookupService::new(vec![t.clone()], small_cfg(0)).is_err());
        let zero_width = ServiceConfig {
            workers: 1,
            batch_width: 0,
            queue_depth: 4,
            ..ServiceConfig::default()
        };
        assert!(LookupService::new(vec![t.clone()], zero_width).is_err());
        let mut service = LookupService::new(vec![t], small_cfg(1)).unwrap();
        assert!(service
            .publish_tables(vec![RoutingTable::new(), RoutingTable::new()])
            .is_err());
        let _ = service.shutdown();
    }

    #[test]
    fn default_width_is_the_fixed_constant() {
        let t = TableSpec::paper_worst_case(5).generate().unwrap();
        let cfg = ServiceConfig {
            workers: 1,
            queue_depth: 4,
            ..ServiceConfig::default()
        };
        let service = LookupService::new(vec![t], cfg).unwrap();
        assert_eq!(service.batch_width(), DEFAULT_BATCH_WIDTH);
        let report = service.shutdown();
        assert_eq!(report.batch_width, DEFAULT_BATCH_WIDTH);
    }

    #[test]
    fn mixed_batch_walks_each_packet_in_its_own_vn() {
        let tables = [
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.5.0/26 9\n"),
            table(""),
        ];
        let trie = LookupService::build_trie(&tables).unwrap();
        let dsts = [0x0A01_0103, 0x0A02_0000, 0xAC10_0501, 0xC000_0001];
        let packets: Vec<(VnId, u32)> = dsts
            .iter()
            .enumerate()
            .flat_map(|(i, &dst)| (0..3).map(move |vn| ((vn + i as VnId) % 3, dst)))
            .collect();
        // Poisoned output: a packet the loop skipped would keep Some(0xEE).
        let mut out = vec![Some(0xEE); packets.len()];
        lookup_batch_mixed(&trie, &packets, &mut out);
        for (&(vn, dst), got) in packets.iter().zip(&out) {
            assert_eq!(*got, tables[usize::from(vn)].lookup(dst), "vn {vn} ip {dst:#010x}");
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let trie = JumpTrie::from_table(&table("10.0.0.0/8 1\n"));
        lookup_batch_mixed(&trie, &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "batch destination and output slices must match")]
    fn mismatched_batch_lengths_panic() {
        let trie = JumpTrie::from_table(&table("10.0.0.0/8 1\n"));
        let mut out = [None; 2];
        lookup_batch_mixed(&trie, &[(0, 1), (0, 2), (0, 3)], &mut out);
    }

    #[test]
    fn registry_counters_match_the_report() {
        let t = TableSpec::paper_worst_case(31).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t.prefixes().map(|p| (0, p.addr())).take(320).collect();
        let mut service = LookupService::new(vec![t], small_cfg(2)).unwrap();
        let _ = service.process(&packets);
        let snap = service.telemetry_snapshot().unwrap();
        let report = service.report().clone();
        assert_eq!(snap.counter("vr_service_lookups_total"), Some(report.lookups));
        assert_eq!(snap.counter("vr_service_misses_total"), Some(report.misses));
        assert_eq!(snap.counter("vr_service_batches_total"), Some(report.batches));
        assert_eq!(snap.gauge("vr_service_batch_width"), Some(16));
        assert_eq!(snap.gauge("vr_service_generation"), Some(0));
        let batch_hist = snap.histogram("vr_service_batch_ns").unwrap();
        assert_eq!(batch_hist.count, report.batches);
        assert_eq!(
            snap.histogram("vr_service_lookup_ns").unwrap().count,
            report.batches
        );
        assert_eq!(report.generation_min, 0);
        assert_eq!(report.generation_max, 0);
        let _ = service.shutdown();
    }

    #[test]
    fn telemetry_off_disables_the_registry() {
        let t = table("10.0.0.0/8 1\n");
        let cfg = ServiceConfig {
            telemetry: false,
            ..small_cfg(1)
        };
        let mut service = LookupService::new(vec![t], cfg).unwrap();
        assert!(service.metrics().is_none());
        assert!(service.telemetry_snapshot().is_none());
        assert_eq!(service.process(&[(0, 0x0A00_0001)]), vec![Some(1)]);
        let _ = service.shutdown();
    }

    #[test]
    fn swaps_and_rejections_reach_events_and_counters() {
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t.clone()], small_cfg(1)).unwrap();
        service
            .publish_tables(vec![table("10.0.0.0/8 2\n")])
            .unwrap();
        // A corrupt candidate: rejected, counted, ringed.
        let good = JumpTrie::from_table(&t);
        let p = good.raw_parts();
        let corrupt = JumpTrie::from_raw_parts(
            p.root.to_vec(),
            p.words.to_vec(),
            p.level_offsets.to_vec(),
            Vec::new(),
            p.k,
        );
        assert!(service.publish_trie(corrupt).is_err());
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_service_swaps_total"), Some(1));
        assert_eq!(snap.counter("vr_service_audit_rejections_total"), Some(1));
        assert_eq!(snap.gauge("vr_service_generation"), Some(1));
        // Debug builds audit on construction + both publishes.
        assert!(snap.counter("vr_audit_runs_total").unwrap() >= 2);
        assert!(snap.counter("vr_audit_violations_total").unwrap() > 0);
        assert!(snap.histogram("vr_service_publish_ns").unwrap().count >= 2);
        let kinds: Vec<&EventKind> = snap.events.events.iter().map(|e| &e.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::GenerationSwap { generation: 1 })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::AuditRejected { generation: 2 })));
        let report = service.shutdown();
        assert_eq!(report.audit_rejections, 1);
        assert_eq!(report.swaps, 1);
    }

    #[test]
    fn queue_stalls_are_counted_when_a_shard_backs_up() {
        let t = TableSpec::paper_worst_case(17).generate().unwrap();
        let cfg = ServiceConfig {
            workers: 1,
            batch_width: 64,
            queue_depth: 1,
            ..ServiceConfig::default()
        };
        let base: Vec<(VnId, u32)> = t.prefixes().map(|p| (0, p.addr())).collect();
        let packets: Vec<(VnId, u32)> = base.iter().copied().cycle().take(64 * 256).collect();
        let mut service = LookupService::new(vec![t], cfg).unwrap();
        let _ = service.process(&packets);
        let snap = service.telemetry_snapshot().unwrap();
        // With one worker, depth-1 queue, and 256 batches, the submitter
        // must have outrun the worker at least once.
        assert!(snap.counter("vr_service_queue_stalls_total").unwrap() > 0);
        assert!(snap
            .events
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerStall { worker: 0 })));
        let _ = service.shutdown();
    }

    #[test]
    fn old_report_json_without_telemetry_fields_still_parses() {
        let report = ServiceReport {
            workers: 2,
            batch_width: 16,
            lookups: 100,
            misses: 3,
            batches: 7,
            swaps: 1,
            generations_seen: vec![0, 1],
            latency_histogram_ns: vec![0; 32],
            busy_ns: 12345,
            generation_min: 0,
            generation_max: 1,
            audit_rejections: 0,
            updates_applied: 0,
            incremental_publishes: 0,
            full_rebuilds: 0,
        };
        let mut json = serde_json::to_string(&report).unwrap();
        // Simulate a pre-telemetry artifact: strip every later-added field.
        for field in [
            "generation_min",
            "generation_max",
            "audit_rejections",
            "updates_applied",
            "incremental_publishes",
            "full_rebuilds",
        ] {
            json = json.replace(&format!(",\"{field}\":0"), "");
            json = json.replace(&format!(",\"{field}\":1"), "");
        }
        assert!(!json.contains("generation_min"), "{json}");
        let parsed: ServiceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.lookups, 100);
        assert_eq!(parsed.generations_seen, vec![0, 1]);
        assert_eq!(parsed.generation_min, 0);
        assert_eq!(parsed.generation_max, 0); // defaulted, not present
        assert_eq!(parsed.audit_rejections, 0);
        // A current round trip is lossless.
        let full: ServiceReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(full, report);
    }

    fn churn_family(seed: u64, k: usize) -> Vec<vr_net::RoutingTable> {
        vr_net::synth::FamilySpec {
            k,
            prefixes_per_table: 300,
            shared_fraction: 0.6,
            seed,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 12,
        }
        .generate()
        .unwrap()
    }

    fn churn_batches(
        tables: Vec<vr_net::RoutingTable>,
        seed: u64,
        batches: usize,
        per_batch: usize,
    ) -> Vec<Vec<RouteUpdate>> {
        let mut stream = vr_net::update::UpdateStream::new(
            tables,
            vr_net::update::UpdateMix::default(),
            12,
            seed ^ 0xABCD,
        )
        .unwrap();
        (0..batches).map(|_| stream.batch(per_batch)).collect()
    }

    #[test]
    fn incremental_updates_match_the_full_rebuild_baseline() {
        let tables = churn_family(61, 3);
        let mut inc = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        let full_cfg = ServiceConfig {
            full_rebuild: true,
            ..small_cfg(1)
        };
        let mut full = LookupService::new(tables.clone(), full_cfg).unwrap();
        for batch in churn_batches(tables, 61, 6, 40) {
            let g1 = inc.apply_updates(&batch).unwrap();
            let g2 = full.apply_updates(&batch).unwrap();
            assert_eq!(g1, g2);
            assert_eq!(inc.tables(), full.tables());
            // Interleaved mid-churn lookups resolve identically.
            let probes: Vec<(VnId, u32)> = inc
                .tables()
                .iter()
                .enumerate()
                .flat_map(|(vn, t)| {
                    t.prefixes()
                        .take(40)
                        .map(move |p| (vn as VnId, p.addr() | 1))
                })
                .collect();
            assert_eq!(inc.process(&probes), full.process(&probes));
        }
        let inc_report = inc.shutdown();
        assert_eq!(inc_report.updates_applied, 6 * 40);
        assert_eq!(inc_report.incremental_publishes, 6);
        assert_eq!(inc_report.full_rebuilds, 0);
        let full_report = full.shutdown();
        assert_eq!(full_report.full_rebuilds, 6);
        assert_eq!(full_report.incremental_publishes, 0);
    }

    #[test]
    fn zero_dirty_threshold_falls_back_to_full_slab_rebuild() {
        let t = table("10.0.0.0/8 1\n10.1.1.0/24 2\n");
        let cfg = ServiceConfig {
            dirty_rebuild_threshold: 0,
            ..small_cfg(1)
        };
        let mut service = LookupService::new(vec![t], cfg).unwrap();
        let generation = service
            .apply_updates(&[RouteUpdate::Announce {
                vnid: 0,
                prefix: "192.0.2.0/24".parse().unwrap(),
                next_hop: 5,
            }])
            .unwrap();
        assert_eq!(generation, 1);
        assert_eq!(service.process(&[(0, 0xC000_0201)]), vec![Some(5)]);
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_service_full_rebuilds_total"), Some(1));
        assert_eq!(
            snap.counter("vr_service_incremental_publishes_total"),
            Some(0)
        );
        assert_eq!(snap.gauge("vr_service_dirty_buckets"), Some(1));
        let report = service.shutdown();
        assert_eq!(report.full_rebuilds, 1);
        assert_eq!(report.incremental_publishes, 0);
    }

    #[test]
    fn update_telemetry_tracks_each_batch() {
        let t = table("10.0.0.0/8 1\n");
        let mut service = LookupService::new(vec![t], small_cfg(1)).unwrap();
        let updates = [
            RouteUpdate::Announce {
                vnid: 0,
                prefix: "10.1.1.0/24".parse().unwrap(),
                next_hop: 9,
            },
            RouteUpdate::Withdraw {
                vnid: 0,
                prefix: "10.0.0.0/8".parse().unwrap(),
            },
        ];
        let generation = service.apply_updates(&updates).unwrap();
        assert_eq!(generation, 1);
        let snap = service.telemetry_snapshot().unwrap();
        assert_eq!(snap.counter("vr_service_updates_total"), Some(2));
        assert_eq!(
            snap.counter("vr_service_incremental_publishes_total"),
            Some(1)
        );
        assert_eq!(snap.counter("vr_service_full_rebuilds_total"), Some(0));
        // Withdrawing the /8 dirties its whole 256-bucket run; the
        // announced /24 falls inside it and dedupes.
        assert_eq!(snap.gauge("vr_service_dirty_buckets"), Some(256));
        assert_eq!(snap.histogram("vr_service_update_ns").unwrap().count, 1);
        let report = service.report();
        assert_eq!(report.updates_applied, 2);
        assert_eq!(report.incremental_publishes, 1);
        assert_eq!(report.full_rebuilds, 0);
        let _ = service.shutdown();
    }

    #[test]
    fn remerge_publish_bumps_generation_and_keeps_lookups() {
        let tables = vec![
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n"),
        ];
        let mut service = LookupService::new(tables.clone(), small_cfg(1)).unwrap();
        let generation = service.remerge_publish().unwrap();
        assert_eq!(generation, 1);
        for (vn, t) in tables.iter().enumerate() {
            for probe in [0x0A01_0103u32, 0xAC10_0001, 0x0B00_0000] {
                assert_eq!(
                    service.process(&[(vn as VnId, probe)]),
                    vec![t.lookup(probe)]
                );
            }
        }
        let _ = service.shutdown();
    }

    #[test]
    fn alpha_is_live_and_survives_publish_tables() {
        let t = table("10.0.0.0/8 1\n10.1.1.0/24 2\n");
        let mut service =
            LookupService::new(vec![t.clone(), t.clone()], small_cfg(1)).unwrap();
        assert!((service.alpha().unwrap() - 1.0).abs() < 1e-12);
        // Withdrawing everything from VN 1 collapses the common set.
        let withdrawals: Vec<RouteUpdate> = t
            .prefixes()
            .map(|prefix| RouteUpdate::Withdraw { vnid: 1, prefix })
            .collect();
        service.apply_updates(&withdrawals).unwrap();
        assert!(service.alpha().unwrap() < 1e-12);
        // publish_tables invalidates the plant; α rebuilds lazily.
        service.publish_tables(vec![t.clone(), t]).unwrap();
        assert!((service.alpha().unwrap() - 1.0).abs() < 1e-12);
        let _ = service.shutdown();
    }

    #[test]
    fn report_histogram_buckets_every_batch() {
        let t = TableSpec::paper_worst_case(9).generate().unwrap();
        let packets: Vec<(VnId, u32)> = t.prefixes().map(|p| (0, p.addr())).take(640).collect();
        let mut service = LookupService::new(vec![t], small_cfg(2)).unwrap();
        let _ = service.process(&packets);
        let report = service.shutdown();
        assert_eq!(report.batches, 640 / 16);
        let bucketed: u64 = report.latency_histogram_ns.iter().sum();
        assert_eq!(bucketed, report.batches);
        assert!(report.mean_ns_per_lookup() > 0.0);
    }
}
