//! The repetition loop shared by every workload: build a repetition's
//! inputs (timed as set-up), run its operations (timed), check that the
//! outputs repeat, and alternate traced repetitions in when tracing.

use std::fmt::Debug;
use std::time::{Duration, Instant};

use rispp_obs::{Event, EventSink};

use crate::affinity;
use crate::trace::Tracer;

/// Fewest timed repetitions of each kind, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Spans kept in memory for the written span file.
const SPAN_CAP: usize = 250_000;

/// Correctness checks: how many were made and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn expect_eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.expect(ok, || format!("{what}: got {got:?}, expected {want:?}"));
    }
}

/// Counts the layers report through the crates' public views.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerCounts {
    pub reselects: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rotations: u64,
    pub rotation_failures: u64,
    pub quarantines: u64,
    pub events: u64,
    pub bin_bytes: u64,
}

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct RepOutput {
    /// Operations the repetition performed.
    pub ops: u64,
    /// Simulated end time, summed over platforms or shards.
    pub sim_cycles: u64,
    /// SI executions, and those a hardware Molecule served.
    pub executions: u64,
    pub hw_executions: u64,
    /// Named values that every repetition must reproduce exactly.
    pub fingerprint: Vec<(&'static str, u64)>,
    pub counts: LayerCounts,
    /// Settled simulated cycles per macroblock (live codec only).
    pub cycles_per_mb: Option<f64>,
}

/// A benchmark workload.
pub trait Workload {
    /// Everything a repetition needs before its first operation.
    type Input;

    /// Whether a repetition runs on the calling thread alone, so that
    /// repetitions can be spread over the CPUs (see [`crate::affinity`]).
    const SINGLE_THREADED: bool;

    fn setup(&self) -> Self::Input;

    fn run(&self, input: &mut Self::Input, tr: &mut Tracer, checks: &mut Checks) -> RepOutput;

    /// Cross-checks the workload's own loop against the program's own
    /// end-to-end paths. Returns the fingerprint every repetition must
    /// reproduce.
    fn reference(&self, checks: &mut Checks) -> Vec<(&'static str, u64)>;
}

/// Everything a run measured.
pub struct Measurement {
    pub setup_s: Vec<f64>,
    pub op_s: Vec<f64>,
    pub traced_op_s: Vec<f64>,
    pub first: RepOutput,
    pub checks: Checks,
    pub tracer: Tracer,
    /// CPUs the repetitions were spread over (0: not pinned).
    pub cpus: usize,
}

/// Runs `w` for about `seconds`: one untraced warm-up repetition, then
/// timed repetitions, each followed by a traced one when `trace` is set.
pub fn measure<W: Workload>(w: &W, seconds: f64, trace: bool) -> Measurement {
    let mut checks = Checks::default();
    let reference = w.reference(&mut checks);
    let mut off = Tracer::off();
    let first = w.run(&mut w.setup(), &mut off, &mut checks);
    checks.expect_eq("warm-up fingerprint", &first.fingerprint, &reference);

    let mut tr = if trace {
        Tracer::on(Instant::now(), 0, SPAN_CAP)
    } else {
        Tracer::off()
    };
    // Single-threaded repetitions rotate over the CPUs, where pinning works.
    let cpus = Some(affinity::allowed_cpus())
        .filter(|cpus| W::SINGLE_THREADED && cpus.len() > 1 && affinity::pin_to(cpus))
        .unwrap_or_default();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let (mut setup_s, mut op_s, mut traced_op_s) = (Vec::new(), Vec::new(), Vec::new());
    while started.elapsed() < budget || op_s.len() < MIN_REPS {
        if let Some(&cpu) = cpus.get(op_s.len() % cpus.len().max(1)) {
            affinity::pin_to(&[cpu]);
        }
        let t0 = Instant::now();
        let mut input = w.setup();
        let t1 = Instant::now();
        let out = w.run(&mut input, &mut off, &mut checks);
        let t2 = Instant::now();
        drop(input);
        setup_s.push((t1 - t0).as_secs_f64());
        op_s.push((t2 - t1).as_secs_f64());
        checks.expect_eq("repetition fingerprint", &out.fingerprint, &reference);

        if trace {
            let mut input = w.setup();
            let t1 = Instant::now();
            let out = w.run(&mut input, &mut tr, &mut checks);
            let dt = t1.elapsed();
            drop(input);
            tr.add_wall(dt.as_nanos() as u64);
            tr.end_rep();
            traced_op_s.push(dt.as_secs_f64());
            checks.expect_eq("traced fingerprint", &out.fingerprint, &reference);
        }
    }
    if !cpus.is_empty() {
        affinity::pin_to(&cpus);
    }
    Measurement {
        setup_s,
        op_s,
        traced_op_s,
        first,
        checks,
        tracer: tr,
        cpus: cpus.len(),
    }
}

/// Nearest-rank quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Counts events without storing them.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub events: u64,
}

impl EventSink for CountingSink {
    fn emit(&mut self, _at: u64, _event: &Event) {
        self.events += 1;
    }
}
