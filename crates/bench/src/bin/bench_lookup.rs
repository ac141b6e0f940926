//! Lookup datapath microbenchmark: scalar pointer-chasing vs the
//! stage-lockstep `lookup_batch` path, per trie variant and batch size,
//! on a paper-scale table — plus the DIR-16 `JumpTrie` front end and
//! the per-VN (`lookup_vn`) datapath on merged tries (scalar only: the
//! served walk has no batch path), the result-cache rows against the
//! uncached `lookup_batch_mixed` loop, and the concurrent
//! `LookupService` worker pool (mode `"service"`). Writes
//! `BENCH_lookup.json` at the workspace root (packets/sec and ns/lookup
//! per row) so the numbers travel with the repo.
//!
//! `cargo run --release -p vr-bench --bin bench_lookup` (accepts
//! `--quick` / `VR_QUICK=1` for a reduced probe set, and `--smoke` for a
//! tiny single-scale run that still covers every variant/mode pair and
//! writes `BENCH_lookup_smoke.json` — used by CI to keep the harness
//! honest without paying for a full measurement). The smoke run also
//! enforces the bench-regression gate: gated datapath rows are compared
//! against the checked-in `crates/bench/bench_gate_baseline.json` and a
//! regression past `VR_BENCH_GATE_TOLERANCE` (default 1.5×) fails the
//! run; `VR_BENCH_GATE=0` disables the gate.
//!
//! Latency **distribution** columns (`p50_ns`/`p99_ns`) ride along for
//! every row except the deliberately registry-free service control:
//! single-threaded rows run a separate chunk-granularity instrumented
//! pass through a detached `vr-telemetry` histogram, service rows read
//! the live `vr_service_lookup_ns` histogram the workers feed. Service
//! mode is measured three ways — registry attached (`service_jump`),
//! detached (`service_jump_notel`), and attached with 1-in-64 batch
//! tracing (`service_jump_traced`) — so the record-path and trace-path
//! overheads are visible deltas in the artifact, not guesses. Under
//! `--smoke` (and the `telemetry` cargo feature, on by default) the run
//! also scrapes a live registry twice, validates the Prometheus
//! exposition, checks counter monotonicity between scrapes, and writes
//! `results/TELEMETRY_smoke.prom` / `.json`.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::time::Instant;
use vr_bench::results_dir;
use vr_control::{ControlConfig, ControlPlane};
use vr_engine::service::lookup_batch_mixed;
use vr_engine::{LookupService, LpmCache, ServiceConfig};
use vr_telemetry::{Histogram, Stopwatch};
use vr_net::synth::{FamilySpec, TableSpec};
use vr_net::table::NextHop;
use vr_net::{SkewedSpec, SkewedTraffic, VnId};
use vr_power::report::write_json;
use vr_wire::{replay, ReplayConfig, ServerConfig, TrafficModel, WireClient, WireServer};
use vr_trie::{
    FlatStrideTrie, FlatTrie, JumpTrie, LeafPushedTrie, MergedTrie, StrideTrie, UnibitTrie,
};

/// Number of virtual networks in the merged/per-VN and service rows.
const FAMILY_K: usize = 4;

/// One measured configuration.
#[derive(Debug, Serialize)]
struct Row {
    /// `"paper"` (3,725-prefix edge table, cache-resident),
    /// `"backbone"` (262,144 prefixes — slabs exceed L2, where the
    /// stage-lockstep batch path earns its keep), or `"smoke"` (tiny
    /// CI-only table).
    scale: &'static str,
    table_prefixes: usize,
    variant: &'static str,
    /// `"scalar"`, `"batch"`, `"service"`, or `"wire"` (the end-to-end
    /// socket path through `vr-wire`).
    mode: &'static str,
    /// Batch width driven through `lookup_batch` (`null` for scalar;
    /// the chunk width for the result-cache rows; the configured
    /// `ServiceConfig::batch_width` for service rows).
    batch_size: Option<usize>,
    /// Worker-thread count (`null` for the single-threaded modes).
    workers: Option<usize>,
    ns_per_lookup: f64,
    packets_per_sec: f64,
    /// Speedup over the reference scalar row (1.0 for scalar): batch
    /// rows compare against their own trie's scalar walk, cached rows
    /// against the uncached `jump_mixed` row of the same stream, service
    /// rows against the merged jump scalar walk — the same datapath the
    /// workers run, minus threads and channels.
    speedup_vs_scalar: f64,
    /// Median ns/lookup from the instrumented pass. Single-threaded
    /// rows: chunk-granularity wall time through a detached histogram.
    /// Registry-attached service rows: the workers' live
    /// `vr_service_lookup_ns` histogram. The registry-free
    /// `service_jump_notel` control: a separate detached
    /// chunk-granularity pass over `process` — timer-free during the
    /// throughput measurement, so the control stays honest.
    p50_ns: Option<f64>,
    /// 99th-percentile ns/lookup from the same histogram.
    p99_ns: Option<f64>,
    /// Traffic model driving the row: `null` for the synthetic
    /// perturbed-prefix probe cycle, `"uniform"` / `"zipf"` for the
    /// result-cache rows driven by `vr_net::SkewedTraffic`.
    traffic: Option<&'static str>,
    /// Steady-state LPM-cache hit rate (cached rows only), measured
    /// over a stream drawn independently of the warmup stream.
    cache_hit_rate: Option<f64>,
}

/// Times `work` (which must process `per_iter` lookups) and returns ns
/// per lookup of the **fastest** iteration. The minimum estimates the
/// uncontended cost: scheduler preemption and noisy neighbours only ever
/// add time, so on shared single-core runners the mean drifts tens of
/// percent between runs while the min stays reproducible.
fn time_ns_per_lookup(per_iter: usize, iters: usize, mut work: impl FnMut() -> usize) -> f64 {
    // Warm-up: populate caches and fault in the slabs.
    let mut sink = 0usize;
    for _ in 0..iters.div_ceil(4).max(1) {
        sink = sink.wrapping_add(work());
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        sink = sink.wrapping_add(work());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    // Keep the accumulated hit count observable so the loop is not elided.
    assert!(sink != usize::MAX);
    best / per_iter as f64
}

/// Chunk width of the scalar-mode instrumented pass: wide enough that
/// the two timer reads (~25 ns each) stay an order of magnitude below
/// the measured chunk, narrow enough that the percentiles still resolve
/// per-probe variation.
const PCTL_SCALAR_CHUNK: usize = 32;

/// Shared core of every detached chunk-granularity percentile pass:
/// times each chunk with a [`Stopwatch`], scales partial tail chunks up
/// to full `width` before bucketing (so the tail never masquerades as a
/// fast chunk), folds the wall time into a detached log₂ histogram, and
/// reads back `(p50, p99)` as ns/lookup. Always run *separately* from
/// the throughput timing so the per-chunk timer reads never contaminate
/// the `ns_per_lookup` columns.
struct PercentileSampler {
    width: usize,
    hist: Histogram,
    sink: usize,
}

impl PercentileSampler {
    fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
            hist: Histogram::detached(),
            sink: 0,
        }
    }

    /// Times one `work` call covering `len` lookups (`len <= width`;
    /// shorter for the tail chunk) and buckets the scaled wall time.
    fn time_chunk(&mut self, len: usize, work: impl FnOnce() -> usize) {
        let watch = Stopwatch::start();
        self.sink = self.sink.wrapping_add(work());
        let ns = watch.elapsed_ns() * self.width as u64 / len.max(1) as u64;
        self.hist.record(ns);
    }

    fn finish(self, label: &'static str) -> (Option<f64>, Option<f64>) {
        // Keep the accumulated hit count observable so the timed work is
        // not elided.
        assert!(self.sink != usize::MAX);
        let snap = self.hist.snapshot(label);
        let per_lookup = |v: u64| Some(v as f64 / self.width as f64);
        (per_lookup(snap.p50), per_lookup(snap.p99))
    }
}

/// Instrumented pass over a flat probe set: walks `probes` in chunks of
/// `width` through a [`PercentileSampler`].
fn percentile_pass(
    width: usize,
    probes: &[u32],
    mut work: impl FnMut(&[u32]) -> usize,
) -> (Option<f64>, Option<f64>) {
    let mut pass = PercentileSampler::new(width);
    for chunk in probes.chunks(width.max(1)) {
        pass.time_chunk(chunk.len(), || work(std::hint::black_box(chunk)));
    }
    pass.finish("percentile_pass")
}

/// Measures the scalar walk of one variant and returns its ns/lookup
/// (the reference for derived rows such as service mode).
fn push_scalar(
    rows: &mut Vec<Row>,
    scale: &'static str,
    table_prefixes: usize,
    variant: &'static str,
    probes: &[u32],
    iters: usize,
    scalar: impl Fn(u32) -> Option<NextHop>,
) -> f64 {
    let scalar_ns = time_ns_per_lookup(probes.len(), iters, || {
        probes
            .iter()
            .filter(|&&ip| scalar(std::hint::black_box(ip)).is_some())
            .count()
    });
    let (p50_ns, p99_ns) = percentile_pass(PCTL_SCALAR_CHUNK, probes, |chunk| {
        chunk.iter().filter(|&&ip| scalar(ip).is_some()).count()
    });
    rows.push(Row {
        scale,
        table_prefixes,
        variant,
        mode: "scalar",
        batch_size: None,
        workers: None,
        ns_per_lookup: scalar_ns,
        packets_per_sec: 1e9 / scalar_ns,
        speedup_vs_scalar: 1.0,
        p50_ns,
        p99_ns,
        traffic: None,
        cache_hit_rate: None,
    });
    eprintln!("[bench_lookup] {scale}/{variant} scalar done");
    scalar_ns
}

/// Measures the scalar and batched paths of one variant.
#[allow(clippy::too_many_arguments)]
fn push_variant(
    rows: &mut Vec<Row>,
    scale: &'static str,
    table_prefixes: usize,
    variant: &'static str,
    probes: &[u32],
    iters: usize,
    batch_sizes: &[usize],
    scalar: impl Fn(u32) -> Option<NextHop>,
    batch: impl Fn(&[u32], &mut [Option<NextHop>]),
) {
    let scalar_ns = push_scalar(rows, scale, table_prefixes, variant, probes, iters, scalar);
    let mut out = vec![None; probes.len()];
    for &width in batch_sizes {
        let ns = time_ns_per_lookup(probes.len(), iters, || {
            let mut hits = 0usize;
            for chunk in probes.chunks(width) {
                let slot = &mut out[..chunk.len()];
                batch(std::hint::black_box(chunk), slot);
                hits += slot.iter().filter(|nh| nh.is_some()).count();
            }
            hits
        });
        let (p50_ns, p99_ns) = percentile_pass(width, probes, |chunk| {
            let slot = &mut out[..chunk.len()];
            batch(chunk, slot);
            slot.iter().filter(|nh| nh.is_some()).count()
        });
        rows.push(Row {
            scale,
            table_prefixes,
            variant,
            mode: "batch",
            batch_size: Some(width),
            workers: None,
            ns_per_lookup: ns,
            packets_per_sec: 1e9 / ns,
            speedup_vs_scalar: scalar_ns / ns,
            p50_ns,
            p99_ns,
            traffic: None,
            cache_hit_rate: None,
        });
    }
    eprintln!("[bench_lookup] {scale}/{variant} done");
}

/// Measures `LookupService::process` end to end (channel hops, snapshot
/// clone, scatter/gather) at each worker count.
#[allow(clippy::too_many_arguments)]
fn push_service(
    rows: &mut Vec<Row>,
    scale: &'static str,
    table_prefixes: usize,
    tables: &[vr_net::RoutingTable],
    probes: &[u32],
    iters: usize,
    worker_counts: &[usize],
    scalar_ref_ns: f64,
) {
    let packets: Vec<(VnId, u32)> = probes
        .iter()
        .enumerate()
        .map(|(i, &ip)| ((i % FAMILY_K) as VnId, ip))
        .collect();
    // Each worker count is measured three times: registry attached
    // (`service_jump`), detached (`service_jump_notel`), and attached
    // with 1-in-64 batch tracing (`service_jump_traced`). The triple
    // makes both observability costs first-class numbers in the
    // artifact — the acceptance budgets are the attached row staying
    // within 5% of the detached one, and the traced row within 5% of
    // the detached one as well. Every service runs the default
    // `ServiceConfig::batch_width`, so paired rows differ in exactly one
    // thing — the record or trace path.
    //
    // Service rows get an iteration floor: they carry the overhead
    // acceptance budget, and min-of-N only sees through scheduler noise
    // on multi-threaded runs with enough samples.
    let iters = iters.max(16);
    for &workers in worker_counts {
        for &(variant, telemetry, trace_sample) in &[
            ("service_jump", true, None),
            ("service_jump_notel", false, None),
            ("service_jump_traced", true, Some(vr_obs::DEFAULT_SAMPLE)),
        ] {
            let cfg = ServiceConfig {
                workers,
                telemetry,
                trace_sample,
                ..ServiceConfig::default()
            };
            let mut service =
                LookupService::new(tables.to_vec(), cfg).expect("service construction");
            let width = service.batch_width();
            // One process() call spans only tens of µs — below the
            // scheduler jitter of a multi-threaded path. Time runs of
            // `repeat` back-to-back calls so each sample covers
            // milliseconds and the min converges on steady state
            // instead of on wakeup luck.
            let repeat = (1usize << 16).div_ceil(packets.len().max(1));
            let ns = time_ns_per_lookup(packets.len() * repeat, iters, || {
                let mut hits = 0usize;
                for _ in 0..repeat {
                    hits += service
                        .process(std::hint::black_box(&packets))
                        .iter()
                        .filter(|nh| nh.is_some())
                        .count();
                }
                hits
            });
            // Attached rows: the workers have been feeding
            // vr_service_lookup_ns the whole run; its quantiles are the
            // service's real per-lookup distribution, timer-free on this
            // thread. The registry-free control has no histogram to
            // read, so it gets a *separate* detached chunk-granularity
            // pass — run after the throughput timing above, so the
            // per-chunk timer reads never touch the ns_per_lookup
            // column that carries the overhead budget.
            let (p50_ns, p99_ns) = if telemetry {
                service
                    .telemetry_snapshot()
                    .and_then(|s| {
                        s.histogram("vr_service_lookup_ns")
                            .map(|h| (Some(h.p50 as f64), Some(h.p99 as f64)))
                    })
                    .unwrap_or((None, None))
            } else {
                service_percentile_pass(&mut service, &packets, repeat)
            };
            let _ = service.shutdown();
            rows.push(Row {
                scale,
                table_prefixes,
                variant,
                mode: "service",
                batch_size: Some(width),
                workers: Some(workers),
                ns_per_lookup: ns,
                packets_per_sec: 1e9 / ns,
                speedup_vs_scalar: scalar_ref_ns / ns,
                p50_ns,
                p99_ns,
                traffic: None,
                cache_hit_rate: None,
            });
            eprintln!("[bench_lookup] {scale}/{variant} workers={workers} done");
        }
    }
}

/// Chunk width of the registry-free service control's percentile pass.
const PCTL_SERVICE_CHUNK: usize = 512;

/// Detached percentile pass for the registry-free service control:
/// drives `process` in [`PCTL_SERVICE_CHUNK`]-wide chunks through a
/// [`PercentileSampler`]. The chunk spans the whole channel round trip,
/// so these quantiles sit above the workers' live
/// `vr_service_lookup_ns` numbers — they bound the dispatch latency the
/// attached rows' worker-side histogram cannot see.
fn service_percentile_pass(
    service: &mut LookupService,
    packets: &[(VnId, u32)],
    repeat: usize,
) -> (Option<f64>, Option<f64>) {
    let mut pass = PercentileSampler::new(PCTL_SERVICE_CHUNK);
    for _ in 0..repeat.max(1) {
        for chunk in packets.chunks(PCTL_SERVICE_CHUNK) {
            pass.time_chunk(chunk.len(), || {
                service
                    .process(std::hint::black_box(chunk))
                    .iter()
                    .filter(|nh| nh.is_some())
                    .count()
            });
        }
    }
    pass.finish("service_notel_pctl")
}

/// Maps a derived row's variant to the scalar row its speedup compares
/// against: batch rows against their own trie's scalar walk, service
/// rows against the merged jump scalar walk — the datapath the workers
/// run, minus threads and channels.
fn scalar_base(variant: &str) -> &str {
    match variant {
        "service_jump" | "service_jump_notel" | "service_jump_traced" => "merged_jump_vn",
        v => v,
    }
}

fn run_scale(
    rows: &mut Vec<Row>,
    scale: &'static str,
    spec: &TableSpec,
    probe_count: usize,
    iters: usize,
    worker_counts: &[usize],
    reps: usize,
) {
    let table = spec.generate().unwrap();
    let unibit = UnibitTrie::from_table(&table);
    let pushed = LeafPushedTrie::from_unibit(&unibit);
    let flat = FlatTrie::from_leaf_pushed(&pushed);
    let stride = StrideTrie::from_table(&table, &[8, 8, 8, 8]).unwrap();
    let flat_stride = FlatStrideTrie::from_stride(&stride);
    let jump = JumpTrie::from_leaf_pushed(&pushed);

    // Per-VN datapath inputs: a K-way merged family resolved through
    // `lookup_vn` / `lookup_batch_vn`, cycling the VNID so every
    // NHI-vector column is exercised.
    let family = FamilySpec {
        prefixes_per_table: spec.prefixes,
        ..FamilySpec::paper_worst_case(FAMILY_K, 0.5, 2012)
    }
    .generate()
    .unwrap();
    let merged = MergedTrie::from_tables(&family).unwrap();
    let merged_flat = FlatTrie::from_merged(&merged.leaf_pushed());
    let merged_jump = JumpTrie::from_merged(&merged);

    // Probe set: perturbed prefix addresses cycled to `probe_count`, so
    // walks reach realistic depths instead of missing at the root.
    let seeds: Vec<u32> = table.prefixes().map(|p| p.addr()).collect();
    let probes: Vec<u32> = (0..probe_count)
        .map(|i| seeds[i % seeds.len()] ^ (i as u32).wrapping_mul(0x9E37_79B9) >> 24)
        .collect();

    let n = spec.prefixes;
    let batch_sizes = [8usize, 32, 128, 512];

    // The whole measurement sequence runs `reps` times, minutes apart in
    // wall-clock, and each row keeps its fastest repetition. On shared
    // runners the noise arrives in multi-second bursts that inflate every
    // sample of whichever variant is being timed; repetitions separated
    // by the rest of the sequence are the only way min-timing can see
    // through a burst longer than one row's measurement window.
    let mut best: Vec<Row> = Vec::new();
    for rep in 0..reps.max(1) {
        let mut pass: Vec<Row> = Vec::new();
        measure_scale(
            &mut pass,
            scale,
            n,
            &probes,
            iters,
            &batch_sizes,
            worker_counts,
            &unibit,
            &pushed,
            &flat,
            &stride,
            &flat_stride,
            &jump,
            &merged_flat,
            &merged_jump,
            &family,
        );
        if best.is_empty() {
            best = pass;
        } else {
            for (b, p) in best.iter_mut().zip(pass) {
                if p.ns_per_lookup < b.ns_per_lookup {
                    *b = p;
                }
            }
        }
        eprintln!("[bench_lookup] {scale} rep {}/{} done", rep + 1, reps.max(1));
    }

    // Re-derive throughput and speedups from the merged minima so each
    // ratio compares rows from a consistent timing floor.
    let scalar_ns: Vec<(&'static str, f64)> = best
        .iter()
        .filter(|r| r.mode == "scalar")
        .map(|r| (r.variant, r.ns_per_lookup))
        .collect();
    let lookup_scalar = |variant: &str| {
        scalar_ns
            .iter()
            .find(|(v, _)| *v == variant)
            .map(|&(_, ns)| ns)
    };
    for row in &mut best {
        let reference = if row.mode == "scalar" {
            Some(row.ns_per_lookup)
        } else {
            lookup_scalar(scalar_base(row.variant))
        };
        row.packets_per_sec = 1e9 / row.ns_per_lookup;
        if let Some(ns) = reference {
            row.speedup_vs_scalar = ns / row.ns_per_lookup;
        }
    }
    rows.append(&mut best);
}

#[allow(clippy::too_many_arguments)]
fn measure_scale(
    rows: &mut Vec<Row>,
    scale: &'static str,
    n: usize,
    probes: &[u32],
    iters: usize,
    batch_sizes: &[usize],
    worker_counts: &[usize],
    unibit: &UnibitTrie,
    pushed: &LeafPushedTrie,
    flat: &FlatTrie,
    stride: &StrideTrie,
    flat_stride: &FlatStrideTrie,
    jump: &JumpTrie,
    merged_flat: &FlatTrie,
    merged_jump: &JumpTrie,
    family: &[vr_net::RoutingTable],
) {
    push_variant(
        rows,
        scale,
        n,
        "unibit",
        probes,
        iters,
        batch_sizes,
        |ip| unibit.lookup(ip),
        |d, o| unibit.lookup_batch(d, o),
    );
    push_variant(
        rows,
        scale,
        n,
        "leaf_pushed",
        probes,
        iters,
        batch_sizes,
        |ip| pushed.lookup(ip),
        |d, o| pushed.lookup_batch(d, o),
    );
    push_variant(
        rows,
        scale,
        n,
        "flat",
        probes,
        iters,
        batch_sizes,
        |ip| flat.lookup(ip),
        |d, o| flat.lookup_batch(d, o),
    );
    push_variant(
        rows,
        scale,
        n,
        "stride_8888",
        probes,
        iters,
        batch_sizes,
        |ip| stride.lookup(ip),
        |d, o| stride.lookup_batch(d, o),
    );
    push_variant(
        rows,
        scale,
        n,
        "flat_stride_8888",
        probes,
        iters,
        batch_sizes,
        |ip| flat_stride.lookup(ip),
        |d, o| flat_stride.lookup_batch(d, o),
    );
    push_scalar(rows, scale, n, "jump", probes, iters, |ip| jump.lookup(ip));

    let vn_scalar = Cell::new(0usize);
    let vn_batch = Cell::new(0usize);
    push_variant(
        rows,
        scale,
        n,
        "merged_flat_vn",
        probes,
        iters,
        batch_sizes,
        |ip| {
            let vn = vn_scalar.get();
            vn_scalar.set((vn + 1) % FAMILY_K);
            merged_flat.lookup_vn(vn, ip)
        },
        |d, o| {
            let vn = vn_batch.get();
            vn_batch.set((vn + 1) % FAMILY_K);
            merged_flat.lookup_batch_vn(vn, d, o)
        },
    );
    let vn_scalar = Cell::new(0usize);
    let jump_vn_scalar_ns = push_scalar(rows, scale, n, "merged_jump_vn", probes, iters, |ip| {
        let vn = vn_scalar.get();
        vn_scalar.set((vn + 1) % FAMILY_K);
        merged_jump.lookup_vn(vn, ip)
    });

    push_service(
        rows,
        scale,
        n,
        family,
        probes,
        iters,
        worker_counts,
        jump_vn_scalar_ns,
    );
}

/// K of the result-cache rows: the paper's 15-network worst case, so
/// the cached/uncached comparison runs at the scale the ISSUE's
/// acceptance numbers are quoted at (15 × 3,725 prefixes).
const CACHE_K: usize = 15;

/// Chunk width the cached/uncached rows drive batches at.
const CACHE_CHUNK: usize = 512;

/// Slot count of the benchmarked LPM cache: 2× the engine default, so
/// the ~56k-destination paper-scale working set keeps the direct-mapped
/// collision rate low enough for the ≥ 0.90 Zipf hit-rate promise.
const CACHE_ROW_SLOTS: usize = vr_engine::DEFAULT_CACHE_SLOTS * 2;

/// Result-cache rows at paper scale: a K=15 merged family driven by
/// `vr_net::SkewedTraffic` (uniform and Zipf s = 1.0), each stream
/// measured twice — `jump_mixed` walks every packet through
/// `lookup_batch_mixed` (the scalar walk); `cached_jump` probes the
/// generation-tagged [`LpmCache`] first and walks only the misses.
///
/// The recorded hit rate is honest: the cache is warmed on one stream
/// from the distribution, stats are reset, and the rate is taken from a
/// single pass over an independently drawn stream — neither cold misses
/// nor a literal replay of the warmup contaminate it. (The throughput
/// loop then re-runs that second stream, as every row in this file
/// does; only the separately measured rate is reported.)
fn run_cached_rows(rows: &mut Vec<Row>, iters: usize) {
    let family = FamilySpec::paper_worst_case(CACHE_K, 0.5, 2012)
        .generate()
        .unwrap();
    let n = family[0].prefixes().count();
    let jump = JumpTrie::from_merged(&MergedTrie::from_tables(&family).unwrap());
    // Any fixed generation works when driving the trie directly; the
    // services tag slots with the live RCU publish generation instead.
    const GENERATION: u64 = 1;
    for &(traffic, zipf_s) in &[("uniform", 0.0f64), ("zipf", 1.0)] {
        let spec = if zipf_s > 0.0 {
            SkewedSpec::zipf(CACHE_K, zipf_s, 2012)
        } else {
            SkewedSpec::uniform(CACHE_K, 2012)
        };
        let mut stream = SkewedTraffic::new(spec, &family).expect("skewed traffic");
        // Long enough that even rank-tail destinations are expected at
        // least once per virtual network — the hit rate then measures
        // the steady state, not a half-warmed cache.
        let warm = stream.pairs(1 << 19);
        let packets = stream.pairs(1 << 16);
        let mut out = vec![None; CACHE_CHUNK];

        let uncached_ns = time_ns_per_lookup(packets.len(), iters, || {
            let mut hits = 0usize;
            for chunk in packets.chunks(CACHE_CHUNK) {
                let slot = &mut out[..chunk.len()];
                lookup_batch_mixed(&jump, std::hint::black_box(chunk), slot);
                hits += slot.iter().filter(|nh| nh.is_some()).count();
            }
            hits
        });
        rows.push(Row {
            scale: "paper",
            table_prefixes: n,
            variant: "jump_mixed",
            mode: "batch",
            batch_size: Some(CACHE_CHUNK),
            workers: None,
            ns_per_lookup: uncached_ns,
            packets_per_sec: 1e9 / uncached_ns,
            speedup_vs_scalar: 1.0,
            p50_ns: None,
            p99_ns: None,
            traffic: Some(traffic),
            cache_hit_rate: None,
        });

        let mut cache = LpmCache::new(CACHE_ROW_SLOTS).expect("cache construction");
        for chunk in warm.chunks(CACHE_CHUNK) {
            cache.lookup_batch(&jump, GENERATION, chunk, &mut out[..chunk.len()]);
        }
        cache.reset_stats();
        let mut cold = 0usize;
        for chunk in packets.chunks(CACHE_CHUNK) {
            cache.lookup_batch(&jump, GENERATION, chunk, &mut out[..chunk.len()]);
            cold = cold.wrapping_add(out.iter().filter(|nh| nh.is_some()).count());
        }
        assert!(cold != usize::MAX);
        let hit_rate = cache.stats().hit_rate();
        let cached_ns = time_ns_per_lookup(packets.len(), iters, || {
            let mut hits = 0usize;
            for chunk in packets.chunks(CACHE_CHUNK) {
                let slot = &mut out[..chunk.len()];
                cache.lookup_batch(&jump, GENERATION, std::hint::black_box(chunk), slot);
                hits += slot.iter().filter(|nh| nh.is_some()).count();
            }
            hits
        });
        rows.push(Row {
            scale: "paper",
            table_prefixes: n,
            variant: "cached_jump",
            mode: "batch",
            batch_size: Some(CACHE_CHUNK),
            workers: None,
            ns_per_lookup: cached_ns,
            packets_per_sec: 1e9 / cached_ns,
            speedup_vs_scalar: uncached_ns / cached_ns,
            p50_ns: None,
            p99_ns: None,
            traffic: Some(traffic),
            cache_hit_rate: Some(hit_rate),
        });
        eprintln!(
            "[bench_lookup] paper/cached_jump {traffic}: hit rate {hit_rate:.3}, \
             {uncached_ns:.2} -> {cached_ns:.2} ns/lookup"
        );
    }
}

/// Packets per `LookupRequest` frame in the wire rows.
const WIRE_BATCH: usize = 64;

/// End-to-end serving-tier rows: the same merged-jump datapath the
/// `service_jump` rows measure, but reached through the `vr-wire`
/// loopback socket, served by a `ControlPlane` like every other wire
/// caller — codec, CRC, syscalls, and the connection thread's snapshot
/// pin all included. `ns_per_lookup` here is offered-load throughput
/// seen by a serial client (one frame in flight); the p50/p99 columns
/// carry the frame round-trip time amortized per packet, which is
/// transport latency rather than walk time — compare against service
/// rows' worker-side histograms with that in mind.
fn run_wire_rows(rows: &mut Vec<Row>, scale: &'static str, prefixes: usize, batches: usize) {
    let family = FamilySpec {
        prefixes_per_table: prefixes,
        ..FamilySpec::paper_worst_case(FAMILY_K, 0.5, 2012)
    }
    .generate()
    .unwrap();
    let n = family[0].prefixes().count();
    for &(traffic, model) in &[
        ("uniform", TrafficModel::Uniform),
        ("zipf", TrafficModel::Zipf { s: 1.0 }),
    ] {
        let service = LookupService::new(family.clone(), ServiceConfig::default())
            .expect("service construction");
        let plane = ControlPlane::new(service, ControlConfig::default()).expect("control plane");
        let server = WireServer::serve_tcp("127.0.0.1:0", plane, ServerConfig::default(), None)
            .expect("wire server");
        let addr = server.local_addr().expect("tcp addr");
        let mut client = WireClient::connect_tcp(addr).expect("wire client");
        let cfg = ReplayConfig {
            model,
            batch_size: WIRE_BATCH,
            batches,
            hot_k: 4096,
            seed: 2012,
        };
        let (stats, _) = replay(&mut client, &family, &cfg).expect("wire replay");
        drop(client);
        drop(server);
        let pps = stats.packets_per_sec();
        let ns = 1e9 / pps.max(f64::MIN_POSITIVE);
        rows.push(Row {
            scale,
            table_prefixes: n,
            variant: "wire_jump",
            mode: "wire",
            batch_size: Some(cfg.batch_size),
            workers: None,
            ns_per_lookup: ns,
            packets_per_sec: pps,
            speedup_vs_scalar: 1.0,
            p50_ns: Some(stats.p50_rtt_ns as f64 / cfg.batch_size as f64),
            p99_ns: Some(stats.p99_rtt_ns as f64 / cfg.batch_size as f64),
            traffic: Some(traffic),
            cache_hit_rate: None,
        });
        eprintln!("[bench_lookup] {scale}/wire_jump {traffic}: {pps:.0} packets/sec end to end");
    }
}

/// `--smoke` cache gate: enforces the result-cache acceptance numbers
/// on the paper-scale rows [`run_cached_rows`] just measured — Zipf
/// s = 1.0 must hit ≥ 90% and run ≥ 2× the uncached scalar walk
/// (`jump_mixed`), and uniform traffic (the cache's worst case) must
/// cost ≤ 10% overhead.
/// `VR_CACHE_GATE=0` disables it, mirroring `VR_BENCH_GATE`.
fn cache_gate(rows: &[Row]) {
    if std::env::var("VR_CACHE_GATE").is_ok_and(|v| v == "0") {
        eprintln!("[bench_lookup] cache gate disabled (VR_CACHE_GATE=0)");
        return;
    }
    let find = |variant: &str, traffic: &str| {
        rows.iter()
            .find(|r| r.variant == variant && r.traffic == Some(traffic))
            .unwrap_or_else(|| {
                panic!("[bench_lookup] cache gate: missing row {variant}/{traffic}")
            })
    };
    let zipf_cached = find("cached_jump", "zipf");
    let zipf_uncached = find("jump_mixed", "zipf");
    let uni_cached = find("cached_jump", "uniform");
    let uni_uncached = find("jump_mixed", "uniform");
    let hit_rate = zipf_cached.cache_hit_rate.unwrap_or(0.0);
    assert!(
        hit_rate >= 0.90,
        "[bench_lookup] cache gate: Zipf s=1.0 hit rate {hit_rate:.3} below 0.90"
    );
    assert!(
        zipf_cached.packets_per_sec >= 2.0 * zipf_uncached.packets_per_sec,
        "[bench_lookup] cache gate: Zipf cached {:.0} pps is not 2x uncached {:.0} pps",
        zipf_cached.packets_per_sec,
        zipf_uncached.packets_per_sec
    );
    assert!(
        uni_cached.ns_per_lookup <= uni_uncached.ns_per_lookup * 1.1,
        "[bench_lookup] cache gate: uniform cached {:.2} ns exceeds 1.1x uncached {:.2} ns",
        uni_cached.ns_per_lookup,
        uni_uncached.ns_per_lookup
    );
    eprintln!(
        "[bench_lookup] cache gate ok: zipf hit {:.3}, speedup {:.2}x, uniform overhead {:.2}x",
        hit_rate,
        zipf_cached.packets_per_sec / zipf_uncached.packets_per_sec,
        uni_cached.ns_per_lookup / uni_uncached.ns_per_lookup
    );
}

/// `--smoke` telemetry check: runs a small service with the registry
/// attached, scrapes it twice, and fails loudly unless (a) the
/// Prometheus exposition passes structural validation — one `# TYPE`
/// line per family, cumulative buckets, `+Inf == _count` — and (b) no
/// counter moved backwards between the scrapes. The final scrape is
/// written out as `results/TELEMETRY_smoke.prom` / `.json` so the CI
/// telemetry job can upload real exporter output as artifacts alongside
/// the other generated results.
#[cfg(feature = "telemetry")]
fn telemetry_smoke() {
    use vr_telemetry::export::{check_prometheus, to_prometheus};
    let family = FamilySpec {
        prefixes_per_table: 256,
        ..FamilySpec::paper_worst_case(FAMILY_K, 0.5, 2012)
    }
    .generate()
    .unwrap();
    let mut service = LookupService::new(
        family.clone(),
        ServiceConfig {
            workers: 2,
            // Cache on, so the vr_cache_* counter families land in the
            // exposition the CI telemetry job validates.
            lookup_cache: Some(vr_engine::DEFAULT_CACHE_SLOTS),
            ..ServiceConfig::default()
        },
    )
    .expect("smoke service construction");
    // One publish before any traffic, so the event ring the CI telemetry
    // job inspects holds a `GenerationSwap` and the cache passes below
    // both run against generation 1.
    service.publish_tables(family).expect("smoke publish");
    let packets: Vec<(VnId, u32)> = (0..512u32)
        .map(|i| ((i as usize % FAMILY_K) as VnId, i.wrapping_mul(0x9E37_79B9)))
        .collect();
    service.process(&packets);
    let first = service.telemetry_snapshot().expect("telemetry on by default");
    service.process(&packets);
    let second = service.telemetry_snapshot().expect("telemetry on by default");
    let _ = service.shutdown();
    // The second pass replays the first pass's packets, so the cache
    // must have both filled (misses) and answered (hits) by now.
    for name in ["vr_cache_hits_total", "vr_cache_misses_total", "vr_cache_fills_total"] {
        let v = second.counter(name);
        assert!(
            v.is_some(),
            "[bench_lookup] telemetry smoke: missing cache counter {name}"
        );
    }
    assert!(
        second.counter("vr_cache_hits_total").unwrap_or(0) > 0,
        "[bench_lookup] telemetry smoke: replayed packets produced no cache hits"
    );

    let text = to_prometheus(&second);
    if let Err(e) = check_prometheus(&text) {
        panic!("[bench_lookup] telemetry smoke: invalid Prometheus exposition: {e}");
    }
    if let Some(name) = second.first_counter_regression(&first) {
        panic!("[bench_lookup] telemetry smoke: counter {name} regressed between scrapes");
    }
    let out = results_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("[bench_lookup] could not create {}: {e}", out.display());
    }
    if let Err(e) = std::fs::write(out.join("TELEMETRY_smoke.prom"), &text) {
        eprintln!("[bench_lookup] could not write TELEMETRY_smoke.prom: {e}");
    }
    match second.to_json_pretty() {
        Ok(json) => {
            if let Err(e) = std::fs::write(out.join("TELEMETRY_smoke.json"), json) {
                eprintln!("[bench_lookup] could not write TELEMETRY_smoke.json: {e}");
            }
        }
        Err(e) => eprintln!("[bench_lookup] could not serialize telemetry snapshot: {e}"),
    }
    eprintln!(
        "[bench_lookup] telemetry smoke ok: {} counters, {} gauges, {} histograms, {} events",
        second.counters.len(),
        second.gauges.len(),
        second.histograms.len(),
        second.events.events.len(),
    );
}

/// A row of the checked-in regression baseline — the same schema as
/// [`Row`], minus the derived columns the gate never compares.
#[derive(Debug, Deserialize)]
struct BaselineRow {
    scale: String,
    variant: String,
    mode: String,
    batch_size: Option<usize>,
    workers: Option<usize>,
    ns_per_lookup: f64,
    /// Traffic model of the row (`"uniform"` / `"zipf"` for the cache
    /// rows) — a matrix axis: the same variant is measured under more
    /// than one stream, so the gate must match on it.
    traffic: Option<String>,
}

/// Datapaths the smoke gate defends: the DIR-16 walk (single and
/// merged), the uncached and cached mixed-VN loops, and the channel
/// service. The slower pedagogical tries (unibit, stride, …) are
/// deliberately ungated — they exist for the trajectory narrative, not
/// as performance promises.
const GATED_VARIANTS: [&str; 5] = [
    "jump",
    "jump_mixed",
    "cached_jump",
    "merged_jump_vn",
    "service_jump",
];

/// `--smoke` regression gate: compares the fresh smoke rows for the
/// gated datapaths against the checked-in baseline
/// (`crates/bench/bench_gate_baseline.json`, recorded by this same
/// binary in `--smoke` mode) and fails the run when any gated row
/// regresses past the tolerance. `VR_BENCH_GATE=0` disables the gate;
/// `VR_BENCH_GATE_TOLERANCE` (default 1.5) rescales it — generous on
/// purpose, because the gate exists to catch datapath regressions, not
/// scheduler noise.
///
/// Absolute ns/lookup varies several-fold between runners (and between
/// minutes on a noisy-neighbour VM), so each comparison is normalized
/// by a machine-speed factor: the geometric-mean drift of the two
/// scalar reference walks vs their baseline rows. A uniformly slow
/// runner inflates scalar and derived rows alike and cancels out; a
/// datapath regression moves its row against the scalar yardstick and
/// fails. The trade is explicit: a regression in *both* scalar walks
/// reads as runner drift — the scalar rows are each other's only gate.
fn bench_gate(rows: &[Row]) {
    if std::env::var("VR_BENCH_GATE").is_ok_and(|v| v == "0") {
        eprintln!("[bench_lookup] bench gate disabled (VR_BENCH_GATE=0)");
        return;
    }
    let tolerance = std::env::var("VR_BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1.5);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench_gate_baseline.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("[bench_lookup] bench gate baseline missing at {path}: {e}"));
    let baseline: Vec<BaselineRow> =
        serde_json::from_str(&text).expect("bench gate baseline parses as bench rows");
    let scalar_drift = |variant: &str| -> Option<f64> {
        let b = baseline
            .iter()
            .find(|b| b.variant == variant && b.mode == "scalar")?;
        let r = rows
            .iter()
            .find(|r| r.variant == variant && r.mode == "scalar")?;
        Some(r.ns_per_lookup / b.ns_per_lookup)
    };
    // Clamped at 1: a faster runner gates against the raw baseline
    // instead of tightening the budget below what was ever promised.
    let machine = match (scalar_drift("jump"), scalar_drift("merged_jump_vn")) {
        (Some(a), Some(b)) => (a * b).sqrt().max(1.0),
        _ => 1.0,
    };
    eprintln!("[bench_lookup] bench gate machine-speed factor {machine:.2} vs baseline");
    let mut checked = 0usize;
    let mut regressions = Vec::new();
    for b in baseline
        .iter()
        .filter(|b| GATED_VARIANTS.contains(&b.variant.as_str()))
    {
        // A baseline row with no counterpart means the harness matrix
        // changed without regenerating the baseline — fail loudly
        // rather than silently gating less than before.
        let row = rows
            .iter()
            .find(|r| {
                r.scale == b.scale
                    && r.variant == b.variant
                    && r.mode == b.mode
                    && r.batch_size == b.batch_size
                    && r.workers == b.workers
                    && r.traffic == b.traffic.as_deref()
            })
            .unwrap_or_else(|| {
                panic!(
                    "[bench_lookup] bench gate: baseline row {}/{} batch={:?} workers={:?} has \
                     no counterpart — regenerate crates/bench/bench_gate_baseline.json",
                    b.variant, b.mode, b.batch_size, b.workers
                )
            });
        checked += 1;
        // Service rows cross thread boundaries, so on a small runner
        // they measure the scheduler as much as the datapath; their
        // run-to-run spread is several-fold wider than the in-process
        // walks and they get double the budget.
        let mode_slack = if row.mode == "service" { 2.0 } else { 1.0 };
        let limit = b.ns_per_lookup * machine * tolerance * mode_slack;
        if row.ns_per_lookup > limit {
            regressions.push(format!(
                "{}/{} batch={:?} workers={:?}: {:.2} ns/lookup exceeds {:.2} ns \
                 ({tolerance}x machine-adjusted baseline {:.2} ns x {machine:.2})",
                row.variant, row.mode, row.batch_size, row.workers, row.ns_per_lookup, limit,
                b.ns_per_lookup
            ));
        }
    }
    assert!(checked > 0, "bench gate compared no rows — empty baseline?");
    if regressions.is_empty() {
        eprintln!("[bench_lookup] bench gate ok: {checked} rows within {tolerance}x of baseline");
    } else {
        for r in &regressions {
            eprintln!("[bench_lookup] bench gate REGRESSION: {r}");
        }
        panic!(
            "[bench_lookup] bench gate: {} row(s) regressed past {tolerance}x of baseline",
            regressions.len()
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("VR_QUICK").is_ok_and(|v| v == "1");

    let mut rows = Vec::new();
    if smoke {
        // CI harness check: a tiny table and a handful of timed
        // iterations, but the full variant/mode matrix — enough to prove
        // every datapath still builds, runs, and serializes, and enough
        // min-of-N samples for the regression gate to be meaningful.
        let tiny = TableSpec {
            prefixes: 512,
            ..TableSpec::paper_worst_case(2012)
        };
        run_scale(&mut rows, "smoke", &tiny, 256, 4, &[1, 2], 1);
        // The cache acceptance numbers are quoted at paper scale, so
        // even the smoke run measures the cached rows there — the K=15
        // family builds in well under a second.
        run_cached_rows(&mut rows, 4);
        // Wire rows ride the smoke matrix at the same tiny scale: they
        // prove the socket path serializes into the artifact, not that
        // it is fast.
        run_wire_rows(&mut rows, "smoke", 512, 100);
        bench_gate(&rows);
        cache_gate(&rows);
        #[cfg(feature = "telemetry")]
        telemetry_smoke();
    } else {
        let (probe_count, iters, reps) = if quick {
            (2_048, 4, 2)
        } else {
            (16_384, 40, 3)
        };
        run_scale(
            &mut rows,
            "paper",
            &TableSpec::paper_worst_case(2012),
            probe_count,
            iters,
            &[1, 2, 4],
            reps,
        );
        // A backbone-scale table whose per-level slabs exceed L2: the
        // dependent loads of a scalar walk miss, and the batch path's B
        // independent loads per level pay off. The full iteration count is
        // kept — min-of-N timing needs samples to find a preemption-free
        // window, and measurement is cheap next to trie construction.
        let backbone = TableSpec {
            prefixes: 262_144,
            ..TableSpec::paper_worst_case(2012)
        };
        run_scale(
            &mut rows,
            "backbone",
            &backbone,
            probe_count * 4,
            iters,
            &[1, 2, 4],
            reps,
        );
        run_cached_rows(&mut rows, iters);
        run_wire_rows(
            &mut rows,
            "paper",
            3725,
            if quick { 200 } else { 2000 },
        );
        cache_gate(&rows);
    }

    println!(
        "{:<9} {:<18} {:>8} {:>8} {:>8} {:>12} {:>16} {:>8} {:>9} {:>9}",
        "scale",
        "variant",
        "mode",
        "batch",
        "workers",
        "ns/lookup",
        "packets/sec",
        "speedup",
        "p50_ns",
        "p99_ns"
    );
    let pctl = |v: Option<f64>| v.map_or_else(|| "-".into(), |p| format!("{p:.1}"));
    for r in &rows {
        println!(
            "{:<9} {:<18} {:>8} {:>8} {:>8} {:>12.2} {:>16.0} {:>7.2}x {:>9} {:>9}",
            r.scale,
            r.variant,
            r.mode,
            r.batch_size.map_or_else(|| "-".into(), |b| b.to_string()),
            r.workers.map_or_else(|| "-".into(), |w| w.to_string()),
            r.ns_per_lookup,
            r.packets_per_sec,
            r.speedup_vs_scalar,
            pctl(r.p50_ns),
            pctl(r.p99_ns),
        );
    }

    // BENCH_lookup.json lives at the workspace root, next to README.md.
    // Smoke runs write a separate file so CI can never clobber the
    // committed measurement.
    let file = if smoke {
        "BENCH_lookup_smoke.json"
    } else {
        "BENCH_lookup.json"
    };
    let path = results_dir()
        .parent()
        .map_or_else(|| file.into(), |p| p.join(file));
    match write_json(&path, &rows) {
        Ok(()) => eprintln!("[bench_lookup] wrote {}", path.display()),
        Err(e) => eprintln!("[bench_lookup] could not write {}: {e}", path.display()),
    }
}
