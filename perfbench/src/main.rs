//! The RISPP benchmark: drives the workspace crates through their public
//! APIs, checks the outputs, and prints every metric by name and unit.
//!
//! ```text
//! rispp-perfbench --workload stress|live_codec|fleet_capture
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced run. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md` for every metric and workload.

mod affinity;
mod alloc;
mod codec;
mod fleet;
mod harness;
mod stress;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use harness::{measure, median, quantile, Measurement, Workload};
use trace::Name;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// A second seed, not used while tuning, for checking claims.
const HELD_OUT_SEED: u64 = 7919;

/// The quantile of repetition op times `ops_per_s` divides by.
const OPS_QUANTILE: f64 = 0.01;

const WORKLOADS: [&str; 3] = ["stress", "live_codec", "fleet_capture"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: rispp-perfbench --workload {} [--seed N (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let report = match args.workload.as_str() {
        "stress" => run(
            &args,
            &stress::Stress {
                seed,
                platforms: 64,
                steps: 400,
            },
        ),
        "live_codec" => run(
            &args,
            &codec::LiveCodec {
                seed,
                width: 176,
                height: 144,
                frames: 2,
                containers: 6,
            },
        ),
        _ => run(&args, &fleet::FleetCapture::new(seed, 32, 2, 4_000_000)),
    };
    print!("{report}");
    ExitCode::SUCCESS
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run<W: Workload>(args: &Args, w: &W) -> String {
    // The timer's own cost, measured at startup on an idle process.
    let timer_ns = args.trace.then(trace::empty_scope_ns);
    let mut m = measure(w, args.seconds, args.trace);
    let metrics = if let Some(timer_ns) = timer_ns {
        per_layer(&mut m, timer_ns)
    } else {
        end_to_end(&m)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) trace {} on {} host threads",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(
        out,
        "repetitions: {} timed, {} traced; {} ops each; spread over {} pinned CPUs",
        m.op_s.len(),
        m.traced_op_s.len(),
        m.first.ops,
        m.cpus
    );
    let ms = |q: f64| quantile(&m.op_s, q) * 1e3;
    let _ = writeln!(
        out,
        "op phase per repetition: p1 {:.3} ms, p10 {:.3} ms, p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms",
        ms(OPS_QUANTILE),
        ms(0.1),
        ms(0.5),
        ms(0.9),
        ms(1.0)
    );
    for x in &metrics {
        let _ = writeln!(out, "  {:<32} {:>20} {}", x.name, x.value, x.unit);
    }
    let error_rate = m.checks.failed as f64 / m.checks.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  {:<32} {:>20} ratio ({} of {} checks failed)",
        "error_rate", error_rate, m.checks.failed, m.checks.attempted
    );
    match m.first.cycles_per_mb {
        Some(per_mb) => {
            let signed = (per_mb - codec::FIG12_SIX_ATOM_CYCLES_PER_MB)
                / codec::FIG12_SIX_ATOM_CYCLES_PER_MB
                * 100.0;
            let _ = writeln!(
                out,
                "  {:<32} {:>20} % ({per_mb} settled cycles/MB vs the paper's 58,287; signed {signed:+.3} %)",
                "fig12_error_pct",
                signed.abs()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  {:<32} {:>20} (no paper reference: this workload's model is unvalidated)",
                "fig12_error_pct", "n/a"
            );
        }
    }
    for failure in &m.checks.failures {
        let _ = writeln!(out, "CHECK FAILED: {failure}");
    }
    if args.trace {
        let path = format!(
            "{}/out/{}.spans.tsv",
            env!("CARGO_MANIFEST_DIR"),
            args.workload
        );
        match write_spans(&m, &path) {
            Ok(()) => {
                let _ = writeln!(out, "spans written to {path}");
            }
            Err(e) => {
                let _ = writeln!(out, "spans not written ({path}): {e}");
            }
        }
    }

    let fields: Vec<String> = metrics
        .iter()
        .map(|x| {
            // JSON has no NaN or infinity; neither can come from a sound run.
            assert!(x.value.is_finite(), "{} is not finite", x.name);
            // `{}` prints every digit the value has.
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.checks.failed == 0,
        m.checks.attempted,
        m.checks.failed,
        fields.join(", ")
    );
    out
}

fn write_spans(m: &Measurement, path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    m.tracer.write_spans(&mut file)?;
    std::io::Write::flush(&mut file)
}

fn end_to_end(m: &Measurement) -> Vec<Metric> {
    let first = &m.first;
    vec![
        metric("setup_s", median(&m.setup_s), "s"),
        // The lowest percentile of op-phase times: co-tenants on a shared
        // host slow whole stretches of a run by up to 1.6x, and how much of
        // a run they slow changes from run to run, so the median and the
        // deciles flip between a fast and a slow mode.
        metric(
            "ops_per_s",
            first.ops as f64 / quantile(&m.op_s, OPS_QUANTILE),
            "ops/s",
        ),
        metric("sim_cycles", first.sim_cycles as f64, "cycles"),
        metric(
            "hw_fraction",
            first.hw_executions as f64 / first.executions.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The highest whole percentile with at least ten samples beyond it,
/// capped at 99 (reached at 1,000 samples); 0 below ten samples.
fn tail_percentile(n: u64) -> u64 {
    if n < 10 {
        0
    } else {
        (100 - 1000u64.div_ceil(n)).min(99)
    }
}

fn per_layer(m: &mut Measurement, timer_ns: f64) -> Vec<Metric> {
    let tr = &mut m.tracer;
    let reps = tr.reps.max(1) as f64;
    let per_rep_s = |ns: u64| ns as f64 / reps / 1e9;
    let mut out = Vec::new();

    for (name, scale, unit, suffix) in [
        (Name::RtForecast, 1e3, "us", "us"),
        (Name::RtExecuteSi, 1e3, "us", "us"),
        (Name::RtAdvance, 1e3, "us", "us"),
        (Name::H264EncodeMb, 1e3, "us", "us"),
        (Name::SimShard, 1e6, "ms", "ms"),
    ] {
        let label = name.label();
        let (calls, allocs) = tr.first_rep(name);
        let stat = tr.stat(name);
        let pct = tail_percentile(stat.samples());
        let p50 = stat.quantile_ns(0.5) as f64 / scale;
        let tail = if pct == 0 {
            0.0
        } else {
            stat.quantile_ns(pct as f64 / 100.0) as f64 / scale
        };
        if name != Name::SimShard {
            out.push(metric(format!("{label}.calls"), calls as f64, "count"));
            out.push(metric(
                format!("{label}.busy_s"),
                per_rep_s(stat.busy_ns),
                "s",
            ));
            out.push(metric(format!("{label}.allocs"), allocs as f64, "count"));
        }
        out.push(metric(format!("{label}.p50_{suffix}"), p50, unit));
        out.push(metric(format!("{label}.tail_{suffix}"), tail, unit));
        out.push(metric(format!("{label}.tail_pct"), pct as f64, "%"));
    }

    let counts = m.first.counts;
    out.push(metric("rt.reselects", counts.reselects as f64, "count"));
    let lookups = counts.cache_hits + counts.cache_misses;
    out.push(metric(
        "rt.reselect_hit_ratio",
        counts.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));

    for name in [
        Name::ObsMetricsSink,
        Name::ObsCountersSink,
        Name::ObsBinEncode,
        Name::ObsBinDecode,
        Name::ObsReplayFold,
    ] {
        let stat = tr.stat(name);
        let per_event = stat.busy_ns as f64 / stat.events.max(1) as f64;
        out.push(metric(
            format!("{}.ns_per_event", name.label()),
            per_event,
            "ns",
        ));
    }
    out.push(metric(
        "obs.bin.bytes_per_event",
        counts.bin_bytes as f64 / counts.events.max(1) as f64,
        "B",
    ));
    out.push(metric("obs.events", counts.events as f64, "count"));

    out.push(metric(
        "sim.engine_run.busy_s",
        per_rep_s(tr.stat(Name::SimEngineRun).self_ns),
        "s",
    ));
    out.push(metric(
        "sim.fleet.idle_s",
        per_rep_s(tr.stat(Name::SimFleetWorker).self_ns),
        "s",
    ));
    out.push(metric(
        "sim.aggregate.busy_s",
        per_rep_s(tr.stat(Name::SimAggregate).busy_ns),
        "s",
    ));
    out.push(metric(
        "sim.engine_run.allocs",
        tr.first_rep(Name::SimEngineRun).1 as f64,
        "count",
    ));

    out.push(metric("fabric.rotations", counts.rotations as f64, "count"));
    out.push(metric(
        "fabric.rotation_failures",
        counts.rotation_failures as f64,
        "count",
    ));
    out.push(metric(
        "fabric.quarantines",
        counts.quarantines as f64,
        "count",
    ));

    // Layer self times plus the unattributed rest make up the traced wall
    // time (thread time on the fleet's fan-out).
    let mut attributed = 0u64;
    for layer in ["rt", "h264", "obs", "sim"] {
        let ns = tr.layer_self_ns(layer);
        attributed += ns;
        out.push(metric(format!("{layer}.self_s"), per_rep_s(ns), "s"));
    }
    out.push(metric("trace.wall_s", per_rep_s(tr.wall_ns), "s"));
    out.push(metric(
        "trace.unattributed_s",
        (tr.wall_ns as f64 - attributed as f64) / reps / 1e9,
        "s",
    ));
    out.push(metric(
        "trace.overhead",
        median(&m.traced_op_s) / median(&m.op_s) - 1.0,
        "ratio",
    ));
    out.push(metric("trace.timer_ns", timer_ns, "ns"));
    out.push(metric(
        "trace.spans",
        tr.spans_closed() as f64 / reps,
        "count",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs listed under `section` in the repository's
    /// `BENCHMARK.json`, in order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let quoted = |s: &str, key: &str| {
            let s = &s[s.find(key).expect("key present") + key.len()..];
            s[..s.find('"').expect("quoted value")].to_string()
        };
        body.split("{")
            .skip(1)
            .map(|entry| (quoted(entry, "\"name\": \""), quoted(entry, "\"unit\": \"")))
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_declared_ones() {
        let tiny = stress::Stress {
            seed: 3,
            platforms: 2,
            steps: 50,
        };
        let pairs = |metrics: Vec<Metric>| {
            metrics
                .into_iter()
                .map(|x| (x.name, x.unit.to_string()))
                .collect::<Vec<_>>()
        };
        let mut m = measure(&tiny, 0.0, true);
        assert_eq!(m.checks.failed, 0, "{:?}", m.checks.failures);
        assert_eq!(pairs(end_to_end(&m)), declared("end_to_end"));
        assert_eq!(pairs(per_layer(&mut m, 0.0)), declared("per_layer"));
    }

    #[test]
    fn tail_percentile_follows_the_ten_beyond_rule() {
        assert_eq!(tail_percentile(5), 0);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(1_000_000), 99);
        for n in 10..3000u64 {
            let p = tail_percentile(n);
            assert!(n * (100 - p) >= 10 * 100, "n {n} p {p}");
        }
    }
}
