//! Serving benchmark for the virtual-router lookup stack.
//!
//! Drives the shipped serving path from one process over loopback TCP:
//! `WireServer::serve_tcp` → `ControlPlane` → `LookupService` →
//! `JumpTrie`, every layer at its `Default` config, and checks every
//! answer against an independent reference LPM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lookup_small|lookup_large|churn|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Before its final line the program prints one report line per
//! workload: provenance plus every metric with its unit and sample
//! count. The final line is the summary object
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. A traced run
//! also writes its spans as Chrome trace-event JSON to
//! `perfbench/out/trace-<workload>-<seed>.json`.

#![forbid(unsafe_code)]

mod oracle;
mod relay;
mod spans;
mod stats;
mod system;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use stats::{beyond, median, percentile, sorted};
use workload::{Outcome, Segment, Shape, SHAPES};

struct Args {
    workloads: Vec<Shape>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Where traced runs write their span files, relative to the checkout.
const SPAN_DIR: &str = "perfbench/out";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<Shape> = if workload == "all" {
        SHAPES.to_vec()
    } else {
        SHAPES
            .iter()
            .filter(|s| s.name == workload)
            .copied()
            .collect()
    };
    if workloads.is_empty() {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workloads,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON; `null` when a segment had no samples.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".into()
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(seed: u64) -> String {
    // Only the working directory's own `.git`: an exported tree has none,
    // and git must not pick up an enclosing repository's revision.
    let rev = command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown".into());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".into(), |h| h.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"git_rev\":{},\"host\":{},\"nproc\":{nproc},\"rustc\":{},\"seed\":{seed},\"transport\":\"loopback TCP\"}}",
        json_str(&rev),
        json_str(&host),
        json_str(&rustc)
    )
}

/// Median over the run's segments of one per-segment figure.
fn across_segments(o: &Outcome, figure: impl Fn(&Segment) -> f64) -> f64 {
    median(&o.segments.iter().map(figure).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Every metric of one run: end-to-end, then per-layer.
///
/// Each lookup figure is measured per segment, exactly from that
/// segment's raw samples, and the run reports the median over its
/// segments; `n` counts the raw samples behind all segments.
fn metrics(o: &Outcome) -> (Vec<Metric>, Vec<Metric>) {
    let rtt_n: usize = o.segments.iter().map(|s| s.rtt_n).sum();
    let rtt_p50 = across_segments(o, |s| s.rtt_p50_us);
    let mut e2e = vec![
        Metric {
            name: "lookup_pps",
            value: across_segments(o, |s| s.pps),
            unit: "1/s",
            n: o.frames_answered as usize,
        },
        Metric {
            name: "rtt_p50_us",
            value: rtt_p50,
            unit: "us",
            n: rtt_n,
        },
        Metric {
            name: "rtt_p99_us",
            value: across_segments(o, |s| s.rtt_p99_us),
            unit: "us",
            n: rtt_n,
        },
        Metric {
            name: "relay_rtt_p50_us",
            value: across_segments(o, |s| s.relay_p50_us),
            unit: "us",
            n: o.segments.iter().map(|s| s.relay_n).sum(),
        },
        Metric {
            name: "rtt_p50_vs_relay",
            value: across_segments(o, |s| s.rtt_p50_us / s.relay_p50_us),
            unit: "ratio",
            n: rtt_n,
        },
        Metric {
            name: "setup_s",
            value: median(&o.setup_s).unwrap_or(f64::NAN),
            unit: "s",
            n: o.setup_s.len(),
        },
        Metric {
            name: "peak_rss_mib",
            value: o.peak_rss_mib,
            unit: "MiB",
            n: 1,
        },
    ];
    let codec = median(&o.codec_ns).unwrap_or(f64::NAN);
    let mut layer = vec![
        Metric {
            name: "net.family_s",
            value: o.family_s,
            unit: "s",
            n: 1,
        },
        Metric {
            name: "net.gen_ns_per_frame",
            value: o.gen_ns_per_frame,
            unit: "ns",
            n: 1,
        },
        Metric {
            name: "wire.codec_ns_per_frame",
            value: codec,
            unit: "ns",
            n: o.codec_ns.len(),
        },
        Metric {
            name: "wire.bytes_per_frame",
            value: o.bytes_per_frame,
            unit: "count",
            n: o.codec_ns.len(),
        },
        Metric {
            name: "wire.shed_frames",
            value: o.shed_frames as f64,
            unit: "count",
            n: 1,
        },
        Metric {
            name: "engine.batches_per_frame",
            value: o.worker_batches as f64 / o.frames_answered.max(1) as f64,
            unit: "count",
            n: o.frames_answered as usize,
        },
        Metric {
            name: "engine.batch_width",
            value: across_segments(o, |s| s.batch_width as f64),
            unit: "count",
            n: o.segments.len(),
        },
        Metric {
            name: "engine.build_s",
            value: median(&o.build_s).unwrap_or(f64::NAN),
            unit: "s",
            n: o.build_s.len(),
        },
    ];
    if let Some(l) = &o.layers {
        let traced_n: usize = o.segments.iter().map(|s| s.traced_n).sum();
        layer.extend([
            Metric {
                name: "wire.stack_ns_per_frame",
                value: rtt_p50 * 1e3 - codec - l.process_ns,
                unit: "ns",
                n: rtt_n,
            },
            Metric {
                name: "engine.process_ns_per_frame",
                value: l.process_ns,
                unit: "ns",
                n: o.codec_ns.len(),
            },
            Metric {
                name: "engine.walk_ns_per_packet",
                value: l.walk_ns_per_packet,
                unit: "ns",
                n: o.codec_ns.len(),
            },
            Metric {
                name: "trie.scalar_ns_per_packet",
                value: l.scalar_ns_per_packet,
                unit: "ns",
                n: o.codec_ns.len(),
            },
            Metric {
                name: "trie.memory_mib",
                value: l.trie_memory_mib,
                unit: "MiB",
                n: 1,
            },
            Metric {
                name: "control.apply_batch_ms",
                value: l.apply_batch_ms,
                unit: "ms",
                n: l.replayed_batches,
            },
            Metric {
                name: "engine.apply_updates_ms",
                value: l.apply_updates_ms,
                unit: "ms",
                n: l.replayed_batches,
            },
            Metric {
                name: "control.remerges",
                value: l.remerges as f64,
                unit: "count",
                n: l.replayed_batches,
            },
            Metric {
                name: "engine.incremental_frac",
                value: l.incremental_frac,
                unit: "ratio",
                n: l.replayed_batches,
            },
            Metric {
                name: "trace.overhead_frac",
                value: across_segments(o, |s| s.traced_p50_us / s.rtt_p50_us - 1.0),
                unit: "ratio",
                n: traced_n,
            },
        ]);
    }
    // Reported beside the end-to-end numbers on every run, outside the
    // summary object: the failure share (zero on a healthy stack), the
    // churn-only update acks and schedule slip, and the client's own
    // costs, which must stay small beside the round trip.
    let attempted = o.frames_attempted + o.batches_attempted;
    e2e.push(Metric {
        name: "failed_frac",
        value: o.failures.total() as f64 / attempted.max(1) as f64,
        unit: "ratio",
        n: attempted as usize,
    });
    if !o.ack_ms.is_empty() {
        let acks = sorted(&o.ack_ms);
        e2e.extend([
            Metric {
                name: "update_ack_p50_ms",
                value: percentile(&acks, 0.5).unwrap_or(f64::NAN),
                unit: "ms",
                n: acks.len(),
            },
            Metric {
                name: "update_ack_p99_ms",
                value: percentile(&acks, 0.99).unwrap_or(f64::NAN),
                unit: "ms",
                n: acks.len(),
            },
        ]);
    }
    if !o.sched_late_ms.is_empty() {
        layer.push(Metric {
            name: "client.sched_late_ms",
            value: median(&o.sched_late_ms).unwrap_or(f64::NAN),
            unit: "ms",
            n: o.sched_late_ms.len(),
        });
    }
    layer.push(Metric {
        name: "client.codec_share",
        value: median(&o.client_codec_ns).unwrap_or(f64::NAN) / (rtt_p50 * 1e3),
        unit: "ratio",
        n: o.client_codec_ns.len(),
    });
    (e2e, layer)
}

/// End-to-end names the summary object carries: the figures that hold
/// still on this kind of box. Everything else is printed in the report
/// line only:
///
/// * `rtt_p50_us` and `lookup_pps` follow the cost of waking a thread on
///   another vCPU, which on a shared virtual machine is the host's to
///   set: the same code read 56 to 85 µs from one segment to the next,
///   and a busy neighbour halved it (no vCPU ever idled). The summary
///   carries `rtt_p50_vs_relay` instead: the same p50 over that of a
///   reference relay timed in alternating blocks on the same client,
///   which moves with the host while the ratio stays with the stack;
/// * `rtt_p99_us` follows the round-trip tail, which host CPU steal moves
///   by 2× within minutes while the median holds; on churn it also sits
///   on a knife edge, since each publish stalls exactly one in-flight
///   frame (about 0.6 % of frames);
/// * `failed_frac` is carried by the summary's `attempted`/`failed`;
/// * the update acks and the schedule slip exist on churn only.
const SUMMARY_E2E: [&str; 3] = ["rtt_p50_vs_relay", "setup_s", "peak_rss_mib"];
const REPORT_ONLY: [&str; 9] = [
    "lookup_pps",
    "rtt_p50_us",
    "relay_rtt_p50_us",
    "rtt_p99_us",
    "failed_frac",
    "update_ack_p50_ms",
    "update_ack_p99_ms",
    "client.sched_late_ms",
    "client.codec_share",
];

fn metric_json(m: &Metric, with_n: bool) -> String {
    if with_n {
        format!(
            "{}:{{\"value\":{},\"unit\":{},\"n\":{}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit),
            m.n
        )
    } else {
        format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        )
    }
}

fn report(shape: &Shape, args: &Args, o: &Outcome) -> Result<(String, String), String> {
    let (e2e, layer) = metrics(o);
    let all: Vec<&Metric> = e2e.iter().chain(layer.iter()).collect();
    if let Some(bad) = all.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} could not be computed", bad.name));
    }
    let correct = o.failures.wrong_answers == 0
        && o.failures.generation_regressions == 0
        && o.failures.generation_moved == 0
        && o.reference_disagreements == 0;
    let f = &o.failures;
    let ack_tail = beyond(&sorted(&o.ack_ms), 0.99);
    let segments: Vec<String> = o
        .segments
        .iter()
        .map(|s| {
            format!(
                "{{\"batch_width\":{},\"pps\":{},\"rtt_p50_us\":{},\"rtt_p99_us\":{},\"n\":{},\"relay_p50_us\":{},\"relay_n\":{},\"host_steal_frac\":{}}}",
                s.batch_width,
                json_num(s.pps),
                json_num(s.rtt_p50_us),
                json_num(s.rtt_p99_us),
                s.rtt_n,
                json_num(s.relay_p50_us),
                s.relay_n,
                json_num(s.host_steal_frac)
            )
        })
        .collect();
    let mut line = format!(
        "{{\"workload\":{},\"why\":{},\"trace\":{},\"seconds\":{},\"provenance\":{},",
        json_str(shape.name),
        json_str(shape.why),
        u8::from(args.trace),
        args.seconds,
        provenance(args.seed)
    );
    let _ = write!(
        line,
        "\"segments\":[{}],\"setup_s\":{:?},\"failures\":{{\"overloaded\":{},\"error_replies\":{},\"transport\":{},\"wrong_answers\":{},\"generation_regressions\":{},\"generation_moved\":{},\"reference_disagreements\":{}}},\"update_acks_beyond_p99\":{ack_tail},",
        segments.join(","),
        o.setup_s,
        f.overloaded,
        f.error_replies,
        f.transport,
        f.wrong_answers,
        f.generation_regressions,
        f.generation_moved,
        o.reference_disagreements
    );
    let _ = write!(
        line,
        "\"host_steal_frac\":{},",
        json_num(across_segments(o, |s| s.host_steal_frac))
    );
    if let Some(l) = &o.layers {
        let _ = write!(
            line,
            "\"span_file\":{},\"spans\":{},",
            json_str(&l.span_file),
            l.spans_written
        );
    }
    let body: Vec<String> = all.iter().map(|m| metric_json(m, true)).collect();
    let _ = write!(line, "\"metrics\":{{{}}}}}", body.join(","));

    let summary: Vec<String> = all
        .iter()
        .filter(|m| {
            if args.trace {
                !SUMMARY_E2E.contains(&m.name) && !REPORT_ONLY.contains(&m.name)
            } else {
                SUMMARY_E2E.contains(&m.name)
            }
        })
        .map(|m| metric_json(m, false))
        .collect();
    let attempted = o.frames_attempted + o.batches_attempted;
    let summary = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        f.total(),
        summary.join(",")
    );
    Ok((line, summary))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for shape in &args.workloads {
        eprintln!(
            "perfbench: {} seed={} seconds={} trace={}",
            shape.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let outcome = workload::run(shape, args.seed, args.seconds, args.trace, SPAN_DIR)
            .and_then(|o| report(shape, &args, &o));
        match outcome {
            Ok((line, summary)) => {
                println!("{line}");
                println!("{summary}");
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", shape.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
