//! The three workloads and the closed/open-loop clients that drive them.
//!
//! Each run sets the stack up several times. The timed phase is split
//! into one equal segment per set-up, each served by a fresh stack, so a
//! run samples several of the batch widths the service's construction
//! sweep picks instead of resting on one draw. The lookup client
//! alternates blocks of frames between the stack and a reference relay
//! (see [`crate::relay`]), so every segment also times the host's own
//! socket-and-thread round trip under the same conditions.

use std::time::{Duration, Instant};

use crate::oracle::{results_hash, spot_check, verify, AckRecord, LookupRecord, Reference};
use crate::relay::{Relay, RelayClient};
use crate::spans::{Lane, Spans};
use crate::stats::{median, percentile, sorted};
use crate::system::{
    decode, encode_request, encode_response, family, Client, Packet, Plane, Reply, RouteUpdate,
    RoutingTable, Served, Service, Stack, Traffic, Updates, PAPER_PREFIXES,
};

/// Prefixes per table of the backbone-scale family.
const BACKBONE_PREFIXES: usize = 262_144;
/// Updates per churn batch.
const UPDATE_BATCH: usize = 16;
/// Churn schedule: one batch due every 20 ms (50 batches/s).
const UPDATE_PERIOD: Duration = Duration::from_millis(20);
/// Update batches replayed in-process when the run sent none.
const REPLAY_BATCHES: usize = 24;
/// Upper bound on frames replayed in-process per layer.
const REPLAY_FRAMES: usize = 2048;
/// Packets drawn from the pool to spot-check the reference.
const SPOT_CHECKS: usize = 256;
/// In a traced run, one block of this many frames in `TRACE_EVERY`
/// carries spans; the rest measure the untraced baseline.
const TRACE_BLOCK: u64 = 64;
const TRACE_EVERY: u64 = 8;
/// The lookup client sends this many frames to the stack, then as many
/// to the reference relay, and so on.
const RELAY_BLOCK: u64 = 32;

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub why: &'static str,
    /// Prefixes per table of the K = 4 family.
    pub prefixes: usize,
    /// Packets per lookup frame.
    pub frame_len: usize,
    /// Zipf exponent of the destination draw (0 = uniform).
    pub zipf_s: f64,
    /// Distinct frames generated before timing; the client cycles them.
    pub pool_frames: usize,
    /// Whether a second connection streams route updates.
    pub churn: bool,
    /// Stack set-ups (and timed segments) per run.
    pub setups: usize,
}

pub const SHAPES: [Shape; 3] = [
    Shape {
        name: "lookup_small",
        why: "8-packet frames, paper-scale tables, one connection: sockets, codec and thread hand-offs dominate the round trip; a serving-path change shows here, a walk change should not",
        prefixes: PAPER_PREFIXES,
        frame_len: 8,
        zipf_s: 0.0,
        pool_frames: 16_384,
        churn: false,
        setups: 10,
    },
    // Runnable, but left out of BENCHMARK.json: on a shared 2-vCPU VM its
    // round-trip p50 spread 0.35 (IQR over median) across ten seeds,
    // because every frame spans the backend and both workers, so host
    // CPU steal and the width picks both land on the median.
    Shape {
        name: "lookup_large",
        why: "1024-packet frames uniform over a 262144-prefix/VN family: the service fan-out and the trie walk dominate; a walk, trie-layout or batch-width change shows here",
        prefixes: BACKBONE_PREFIXES,
        frame_len: 1024,
        zipf_s: 0.0,
        pool_frames: 1024,
        churn: false,
        setups: 32,
    },
    Shape {
        name: "churn",
        why: "64-packet Zipf lookups beside 16-update batches offered open loop at 50/s on the same backend: a change that trades read cost for publish cost shows here",
        prefixes: PAPER_PREFIXES,
        frame_len: 64,
        zipf_s: 1.0,
        pool_frames: 4096,
        churn: true,
        setups: 10,
    },
];

/// Operations that went wrong, by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub overloaded: u64,
    pub error_replies: u64,
    pub transport: u64,
    /// Frames whose answers differ from the reference.
    pub wrong_answers: u64,
    /// Replies whose generation went backwards on their connection.
    pub generation_regressions: u64,
    /// Read-only workloads: lookups served from a generation other than 0.
    pub generation_moved: u64,
}

impl Failures {
    #[must_use]
    pub fn total(&self) -> u64 {
        self.overloaded
            + self.error_replies
            + self.transport
            + self.wrong_answers
            + self.generation_regressions
            + self.generation_moved
    }

    fn add(&mut self, other: &Failures) {
        self.overloaded += other.overloaded;
        self.error_replies += other.error_replies;
        self.transport += other.transport;
        self.wrong_answers += other.wrong_answers;
        self.generation_regressions += other.generation_regressions;
        self.generation_moved += other.generation_moved;
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub family_s: f64,
    pub gen_ns_per_frame: f64,
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub segments: Vec<Segment>,
    pub frames_attempted: u64,
    pub frames_answered: u64,
    pub batches_attempted: u64,
    pub ack_ms: Vec<f64>,
    pub sched_late_ms: Vec<f64>,
    pub failures: Failures,
    pub reference_disagreements: usize,
    pub peak_rss_mib: f64,
    pub shed_frames: u64,
    pub worker_batches: u64,
    /// Per-frame in-process codec cost, ns: encode + decode of request
    /// and response.
    pub codec_ns: Vec<f64>,
    /// The client's half of `codec_ns`: encode request, decode response.
    pub client_codec_ns: Vec<f64>,
    pub bytes_per_frame: f64,
    pub layers: Option<Layers>,
}

/// One timed segment, served by its own freshly set-up stack.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Batch width the stack's construction sweep picked.
    pub batch_width: usize,
    /// Resolved packets per second of the segment's time spent waiting
    /// on the stack (the relay's turns left out): the closed-loop rate.
    pub pps: f64,
    /// Exact percentiles of the untraced lookup round trips, µs.
    pub rtt_p50_us: f64,
    pub rtt_p99_us: f64,
    /// Untraced round trips measured.
    pub rtt_n: usize,
    /// Median round trip of the frames that carried spans, µs.
    pub traced_p50_us: f64,
    pub traced_n: usize,
    /// Median round trip of the reference relay in the same segment, µs.
    pub relay_p50_us: f64,
    /// Relay round trips measured.
    pub relay_n: usize,
    /// Share of CPU time the host stole during the segment (NaN when
    /// `/proc/stat` is unreadable); reported so noisy runs can be told apart.
    pub host_steal_frac: f64,
}

/// Per-layer timings from the in-process replays of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub process_ns: f64,
    pub walk_ns_per_packet: f64,
    pub scalar_ns_per_packet: f64,
    pub trie_memory_mib: f64,
    pub apply_batch_ms: f64,
    pub apply_updates_ms: f64,
    pub remerges: u64,
    pub incremental_frac: f64,
    pub replayed_batches: usize,
    pub spans_written: usize,
    pub span_file: String,
}

/// Reads the process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `(steal, total)` CPU ticks so far, from `/proc/stat`. Steal is time
/// the host ran something else while this machine's vCPUs were runnable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time stolen by the host between two `cpu_ticks` readings.
fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

fn micros(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64 / 1000.0
}

/// What one timed segment's lookup client saw.
#[derive(Default)]
struct LookupSide {
    records: Vec<LookupRecord>,
    rtt_us: Vec<f64>,
    traced_rtt_us: Vec<f64>,
    relay_rtt_us: Vec<f64>,
    /// Why the relay failed; the run then has no result, since the fault
    /// lies with the benchmark, not the system.
    relay_error: Option<String>,
    /// Time spent waiting on the stack's replies, s.
    stack_s: f64,
    packets: u64,
    attempted: u64,
    failures: Failures,
    spans: Spans,
}

/// What one timed segment's update client saw.
#[derive(Default)]
struct UpdateSide {
    acks: Vec<AckRecord>,
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failures: Failures,
    spans: Spans,
}

/// Closed loop: one frame in flight, the next sent when the reply lands.
/// With a `relay`, blocks of `RELAY_BLOCK` frames alternate between the
/// stack and the relay; the relay gets the request the stack gets next.
fn drive_lookups(
    connect: &dyn Fn() -> Result<Client, String>,
    mut relay: Option<RelayClient>,
    frames: &[Vec<Packet>],
    next_frame: &mut u64,
    deadline: Instant,
    read_only: bool,
    trace: bool,
) -> LookupSide {
    let mut side = LookupSide::default();
    let mut client = match connect() {
        Ok(c) => c,
        Err(_) => {
            side.attempted = 1;
            side.failures.transport = 1;
            return side;
        }
    };
    let mut last_generation = 0;
    let mut turn = 0u64;
    while Instant::now() < deadline {
        turn += 1;
        if let Some(relay) = relay.as_mut().filter(|_| (turn / RELAY_BLOCK) % 2 == 1) {
            let n = *next_frame;
            let sent = Instant::now();
            let request = encode_request(n, &frames[(n % frames.len() as u64) as usize]);
            if let Err(e) = relay.round_trip(&request) {
                side.relay_error = Some(e);
                break;
            }
            side.relay_rtt_us.push(micros(sent, Instant::now()));
            continue;
        }
        let n = *next_frame;
        *next_frame += 1;
        let traced = trace && (n / TRACE_BLOCK).is_multiple_of(TRACE_EVERY);
        let idx = (n % frames.len() as u64) as usize;
        let packets = &frames[idx];
        side.attempted += 1;
        let sent = Instant::now();
        let reply = client.lookup(packets);
        let received = Instant::now();
        side.stack_s += secs(sent, received);
        match reply {
            Ok(Reply::Lookup {
                generation,
                results,
            }) => {
                let rtt = micros(sent, received);
                if traced {
                    side.traced_rtt_us.push(rtt);
                } else {
                    side.rtt_us.push(rtt);
                }
                side.packets += results.len() as u64;
                if generation < last_generation {
                    side.failures.generation_regressions += 1;
                }
                last_generation = generation;
                if read_only && generation != 0 {
                    side.failures.generation_moved += 1;
                }
                side.records.push(LookupRecord {
                    frame: idx as u32,
                    generation,
                    hash: results_hash(&results),
                });
                if traced {
                    let done = Instant::now();
                    let frame =
                        side.spans
                            .push("client.frame", (sent, done), n, None, Lane::Lookups);
                    side.spans.push(
                        "wire.lookup",
                        (sent, received),
                        n,
                        Some(frame),
                        Lane::Lookups,
                    );
                }
            }
            Ok(Reply::Overloaded) => side.failures.overloaded += 1,
            Ok(Reply::Ack { .. } | Reply::Error(_)) => side.failures.error_replies += 1,
            Err(_) => {
                side.failures.transport += 1;
                break;
            }
        }
    }
    side
}

/// Open loop: batch `k` is due at `start + k × UPDATE_PERIOD` whatever
/// happened to earlier batches; its ack latency runs from the due time.
fn drive_updates(
    connect: &dyn Fn() -> Result<Client, String>,
    tables: &[RoutingTable],
    seed: u64,
    start: Instant,
    deadline: Instant,
    trace: bool,
) -> UpdateSide {
    let mut side = UpdateSide::default();
    let (mut client, mut stream) = match (connect(), Updates::new(tables, seed)) {
        (Ok(c), Ok(s)) => (c, s),
        _ => {
            side.attempted = 1;
            side.failures.transport = 1;
            return side;
        }
    };
    let mut last_generation = 0;
    for k in 0u32.. {
        let due = start + UPDATE_PERIOD * k;
        if due >= deadline {
            break;
        }
        let batch: Vec<RouteUpdate> = stream.batch(UPDATE_BATCH);
        let ready = Instant::now();
        if let Some(wait) = due.checked_duration_since(ready) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        side.late_ms.push(secs(due, sent) * 1e3);
        side.attempted += 1;
        let reply = client.apply(&batch);
        let acked = Instant::now();
        match reply {
            Ok(Reply::Ack { generation }) => {
                side.ack_ms.push(secs(due, acked) * 1e3);
                if generation < last_generation {
                    side.failures.generation_regressions += 1;
                }
                last_generation = generation;
                side.acks.push(AckRecord {
                    generation,
                    updates: batch,
                });
                if trace {
                    let id = u64::from(k);
                    let parent = side.spans.push(
                        "client.update_batch",
                        (due, acked),
                        id,
                        None,
                        Lane::Updates,
                    );
                    side.spans.push(
                        "client.sched_wait",
                        (ready, sent),
                        id,
                        Some(parent),
                        Lane::Updates,
                    );
                    side.spans.push(
                        "wire.update",
                        (sent, acked),
                        id,
                        Some(parent),
                        Lane::Updates,
                    );
                }
            }
            Ok(Reply::Overloaded) => side.failures.overloaded += 1,
            Ok(Reply::Lookup { .. } | Reply::Error(_)) => side.failures.error_replies += 1,
            Err(_) => {
                side.failures.transport += 1;
                break;
            }
        }
    }
    side
}

/// Runs `shape` for `seconds` of timed traffic. With `trace`, also
/// replays the run's frames and batches in-process, layer by layer, and
/// writes the spans to `out_dir`.
///
/// # Errors
/// A set-up step failed; the run has no result.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &str,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut spans = Spans::default();

    let t = Instant::now();
    let tables = family(shape.prefixes, seed)?;
    out.family_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut traffic = Traffic::new(&tables, shape.zipf_s, seed ^ 0x7AFF_1C00)?;
    let frames: Vec<Vec<Packet>> = (0..shape.pool_frames)
        .map(|_| traffic.frame(shape.frame_len))
        .collect();
    out.gen_ns_per_frame = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    drop(traffic);

    let segment = Duration::from_secs(seconds) / shape.setups as u32;
    let mut next_frame = 0u64;
    let mut last_served: Option<Served> = None;
    let mut last_acks: Vec<AckRecord> = Vec::new();
    // Read-only segments all serve generation 0 of the same tables, so
    // they share one reference and its cached frame answers.
    let mut read_only = Reference::new(&tables);
    let relay = Relay::start()?;
    for seg in 0..shape.setups {
        // Drop the previous backend before building the next one so two
        // tries never share memory.
        drop(last_served.take());
        let copy = tables.clone();
        let (stack, stamps) = Stack::start(copy)?;
        out.setup_s.push(secs(stamps.start, stamps.ponged));
        out.build_s.push(secs(stamps.start, stamps.built));
        let stack_width = stack.batch_width();
        if trace {
            let id = seg as u64;
            let p = spans.push(
                "setup",
                (stamps.start, stamps.ponged),
                id,
                None,
                Lane::Setup,
            );
            for (name, range) in [
                ("engine.build", (stamps.start, stamps.built)),
                ("control.new", (stamps.built, stamps.planed)),
                ("wire.serve_tcp", (stamps.planed, stamps.serving)),
                ("wire.first_pong", (stamps.serving, stamps.ponged)),
            ] {
                spans.push(name, range, id, Some(p), Lane::Setup);
            }
        }

        let relay_client = relay.connect()?;
        let ticks = cpu_ticks();
        let start = Instant::now();
        let deadline = start + segment;
        let update_seed = seed ^ 0x5EED_0000 ^ seg as u64;
        let (lookups, updates) = std::thread::scope(|scope| {
            let updater = shape.churn.then(|| {
                let (stack, tables) = (&stack, &tables);
                scope.spawn(move || {
                    drive_updates(
                        &|| stack.connect(),
                        tables,
                        update_seed,
                        start,
                        deadline,
                        trace,
                    )
                })
            });
            let lookups = drive_lookups(
                &|| stack.connect(),
                Some(relay_client),
                &frames,
                &mut next_frame,
                deadline,
                !shape.churn,
                trace,
            );
            let updates = updater.map(|h| {
                h.join().unwrap_or_else(|_| UpdateSide {
                    attempted: 1,
                    failures: Failures {
                        transport: 1,
                        ..Failures::default()
                    },
                    ..UpdateSide::default()
                })
            });
            (lookups, updates.unwrap_or_default())
        });
        let host_steal_frac = steal_frac(ticks, cpu_ticks());
        // Read while the first stack is still up and serving. Later
        // segments tear a stack down and build the next; the allocator
        // keeps some freed pages, so their readings would add the
        // benchmark's own teardown debris.
        if seg == 0 {
            out.peak_rss_mib = peak_rss_mib();
        }

        let served = stack.shutdown()?;
        if let Some(e) = lookups.relay_error {
            return Err(e);
        }
        out.shed_frames += served.shed_frames();
        out.worker_batches += served.counts().batches;

        out.frames_attempted += lookups.attempted;
        out.frames_answered += lookups.records.len() as u64;
        out.batches_attempted += updates.attempted;
        let rtt = sorted(&lookups.rtt_us);
        out.segments.push(Segment {
            batch_width: stack_width,
            pps: lookups.packets as f64 / lookups.stack_s,
            rtt_p50_us: percentile(&rtt, 0.5).unwrap_or(f64::NAN),
            rtt_p99_us: percentile(&rtt, 0.99).unwrap_or(f64::NAN),
            rtt_n: rtt.len(),
            traced_p50_us: median(&lookups.traced_rtt_us).unwrap_or(f64::NAN),
            traced_n: lookups.traced_rtt_us.len(),
            relay_p50_us: median(&lookups.relay_rtt_us).unwrap_or(f64::NAN),
            relay_n: lookups.relay_rtt_us.len(),
            host_steal_frac,
        });

        out.ack_ms.extend(&updates.ack_ms);
        out.sched_late_ms.extend(&updates.late_ms);
        out.failures.add(&lookups.failures);
        out.failures.add(&updates.failures);
        spans.absorb(lookups.spans);
        spans.absorb(updates.spans);

        let wrong = if shape.churn {
            verify(
                &mut Reference::new(&tables),
                &frames,
                &lookups.records,
                &updates.acks,
            )
        } else {
            verify(&mut read_only, &frames, &lookups.records, &[])
        };
        out.failures.wrong_answers += wrong as u64;
        last_served = Some(served);
        last_acks = updates.acks;
    }
    drop(read_only);
    let mut served = last_served.ok_or_else(|| "no segment ran".to_string())?;

    let spot: Vec<Packet> = frames
        .iter()
        .flatten()
        .step_by((shape.pool_frames * shape.frame_len / SPOT_CHECKS).max(1))
        .take(SPOT_CHECKS)
        .copied()
        .collect();
    out.reference_disagreements = spot_check(&tables, &spot);

    let replay = &frames[..frames.len().min(REPLAY_FRAMES)];
    codec_replay(&mut served, replay, &mut out, trace.then_some(&mut spans))?;

    if trace {
        let mut layers = layer_replay(served, replay, &tables, &last_acks, seed, &mut spans)?;
        let path = format!("{out_dir}/trace-{}-{seed}.json", shape.name);
        let json = spans.chrome_json(epoch);
        std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        let written = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        layers.spans_written = crate::system::check_chrome_trace(&written)
            .map_err(|e| format!("span file {path} is not a Chrome trace: {e}"))?;
        layers.span_file = path;
        out.layers = Some(layers);
    }
    Ok(out)
}

/// Times `encode` and `FrameDecoder` for each replayed frame's request
/// and response, using the served backend's own answers.
fn codec_replay(
    served: &mut Served,
    frames: &[Vec<Packet>],
    out: &mut Outcome,
    mut spans: Option<&mut Spans>,
) -> Result<(), String> {
    let mut bytes = 0usize;
    for (i, packets) in frames.iter().enumerate() {
        let results = served.process(packets);
        let id = i as u64;
        let t0 = Instant::now();
        let request = encode_request(id, packets);
        let t1 = Instant::now();
        let sent = decode(&request)?;
        let t2 = Instant::now();
        let response = encode_response(id, 0, &results);
        let t3 = Instant::now();
        let answered = decode(&response)?;
        let t4 = Instant::now();
        if sent != packets.len() || answered != results.len() {
            return Err(format!("codec round trip of frame {i} lost items"));
        }
        bytes += request.len() + response.len();
        let ns = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as f64;
        out.codec_ns.push(ns(t0, t4));
        out.client_codec_ns.push(ns(t0, t1) + ns(t3, t4));
        if let Some(spans) = spans.as_deref_mut() {
            let p = spans.push("wire.codec", (t0, t4), id, None, Lane::Replay);
            spans.push("wire.encode_request", (t0, t1), id, Some(p), Lane::Replay);
            spans.push("wire.decode_request", (t1, t2), id, Some(p), Lane::Replay);
            spans.push("wire.encode_response", (t2, t3), id, Some(p), Lane::Replay);
            spans.push("wire.decode_response", (t3, t4), id, Some(p), Lane::Replay);
        }
    }
    out.bytes_per_frame = bytes as f64 / frames.len().max(1) as f64;
    Ok(())
}

/// Replays the run's frames on the served backend (process, walk,
/// scalar loop), then its update batches on fresh planes built from the
/// same tables (or a seeded stream when the run sent none).
fn layer_replay(
    mut served: Served,
    frames: &[Vec<Packet>],
    tables: &[RoutingTable],
    acks: &[AckRecord],
    seed: u64,
    spans: &mut Spans,
) -> Result<Layers, String> {
    let mut layers = Layers {
        trie_memory_mib: served.trie_memory_mib(),
        ..Layers::default()
    };
    let mut process_ns = Vec::new();
    let mut walk_ns = Vec::new();
    let mut scalar_ns = Vec::new();
    let mut buf = Vec::new();
    for (i, packets) in frames.iter().enumerate() {
        let id = i as u64;
        let per_packet = packets.len().max(1) as f64;
        let t0 = Instant::now();
        std::hint::black_box(served.process(std::hint::black_box(packets)));
        let t1 = Instant::now();
        buf.clear();
        buf.resize(packets.len(), None);
        served.walk(std::hint::black_box(packets), &mut buf);
        std::hint::black_box(&buf);
        let t2 = Instant::now();
        served.scalar(std::hint::black_box(packets), &mut buf);
        std::hint::black_box(&buf);
        let t3 = Instant::now();
        let ns = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as f64;
        process_ns.push(ns(t0, t1));
        walk_ns.push(ns(t1, t2) / per_packet);
        scalar_ns.push(ns(t2, t3) / per_packet);
        spans.push("engine.process", (t0, t1), id, None, Lane::Replay);
        spans.push("engine.walk", (t1, t2), id, None, Lane::Replay);
        spans.push("trie.scalar", (t2, t3), id, None, Lane::Replay);
    }
    layers.process_ns = median(&process_ns).unwrap_or(f64::NAN);
    layers.walk_ns_per_packet = median(&walk_ns).unwrap_or(f64::NAN);
    layers.scalar_ns_per_packet = median(&scalar_ns).unwrap_or(f64::NAN);
    drop(served);

    let batches: Vec<Vec<RouteUpdate>> = if acks.is_empty() {
        let mut stream = Updates::new(tables, seed ^ 0x5EED_0000)?;
        (0..REPLAY_BATCHES)
            .map(|_| stream.batch(UPDATE_BATCH))
            .collect()
    } else {
        acks.iter().map(|a| a.updates.clone()).collect()
    };
    layers.replayed_batches = batches.len();
    let mut plane = Plane::new(tables.to_vec())?;
    let mut apply_ms = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let t0 = Instant::now();
        plane.apply_batch(batch)?;
        let t1 = Instant::now();
        apply_ms.push(secs(t0, t1) * 1e3);
        spans.push(
            "control.apply_batch",
            (t0, t1),
            i as u64,
            None,
            Lane::Replay,
        );
    }
    let counts = plane.counts();
    layers.remerges = counts.remerges;
    layers.incremental_frac = counts.incremental as f64 / counts.swaps.max(1) as f64;
    drop(plane);

    let mut service = Service::new(tables.to_vec())?;
    let mut updates_ms = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let t0 = Instant::now();
        service.apply_updates(batch)?;
        let t1 = Instant::now();
        updates_ms.push(secs(t0, t1) * 1e3);
        spans.push(
            "engine.apply_updates",
            (t0, t1),
            i as u64,
            None,
            Lane::Replay,
        );
    }
    layers.apply_batch_ms = median(&apply_ms).unwrap_or(f64::NAN);
    layers.apply_updates_ms = median(&updates_ms).unwrap_or(f64::NAN);
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::canned::{serve, Canned};
    use crate::system::table_from;

    fn drive(canned: Canned) -> (LookupSide, Vec<Vec<Packet>>) {
        let (addr, server) = serve(canned).expect("bind canned server");
        let frames = vec![vec![(0, 0x0A00_0001), (0, 0x0B00_0001)]];
        let mut next = 0;
        let deadline = Instant::now() + Duration::from_millis(50);
        let side = drive_lookups(
            &|| Client::connect(addr),
            None,
            &frames,
            &mut next,
            deadline,
            true,
            false,
        );
        server.join().expect("canned server thread");
        (side, frames)
    }

    #[test]
    fn an_overloaded_reply_counts_as_a_failure() {
        let (side, _) = drive(Canned::Overloaded);
        assert!(side.attempted > 0);
        assert_eq!(side.failures.overloaded, side.attempted);
        assert_eq!(side.failures.total(), side.attempted);
        assert!(side.records.is_empty());
    }

    #[test]
    fn a_wrong_answer_counts_as_a_failure() {
        let tables = vec![table_from(&[(0x0A00_0000, 8, 1)])];
        // The reference answers [Some(1), None]; the stand-in says 7 twice.
        let (side, frames) = drive(Canned::Answer(7));
        assert!(!side.records.is_empty());
        assert_eq!(
            side.failures.total(),
            0,
            "transport-level replies were fine"
        );
        let check =
            |records: &[LookupRecord]| verify(&mut Reference::new(&tables), &frames, records, &[]);
        assert_eq!(check(&side.records), side.records.len());
        // The same path passes a stand-in that happens to be right.
        let right = [LookupRecord {
            frame: 0,
            generation: 0,
            hash: results_hash(&[Some(1), None]),
        }];
        assert_eq!(check(&right), 0);
    }
}
