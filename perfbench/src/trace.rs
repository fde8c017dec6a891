//! The outside-in trace: spans recorded by the benchmark around its calls
//! into each crate's public functions.
//!
//! A span has a name, start, end, parent span and an op or shard id. The
//! recorder keeps an open-span stack, so a span's self time (its duration
//! minus the time its children cover) is computed exactly as spans close.
//! Per-event sink calls are too many to keep as spans; their time is
//! charged to the enclosing span as aggregated child time instead
//! ([`Tracer::child_time`]). Closed spans are held in a preallocated
//! buffer and written out when the run ends.
//!
//! Recording also counts heap allocations per span on the span's own
//! thread (see [`crate::alloc`]), children excluded.
//!
//! A disabled tracer costs one branch per call site.

use std::io::{self, Write};
use std::time::Instant;

use crate::alloc::allocations;

/// Every span name the benchmark records. The text before the first `.`
/// of a [`Name::label`] is the workspace crate (layer) the call enters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    RtForecast,
    RtExecuteSi,
    RtAdvance,
    H264EncodeMb,
    ObsCountersSink,
    ObsBinEncode,
    ObsBinDecode,
    ObsReplayFold,
    ObsMetricsSink,
    SimFleetWorker,
    SimShard,
    SimSpecBuild,
    SimEngineRun,
    SimFinish,
    SimAggregate,
}

impl Name {
    pub const ALL: [Name; 15] = [
        Name::RtForecast,
        Name::RtExecuteSi,
        Name::RtAdvance,
        Name::H264EncodeMb,
        Name::ObsCountersSink,
        Name::ObsBinEncode,
        Name::ObsBinDecode,
        Name::ObsReplayFold,
        Name::ObsMetricsSink,
        Name::SimFleetWorker,
        Name::SimShard,
        Name::SimSpecBuild,
        Name::SimEngineRun,
        Name::SimFinish,
        Name::SimAggregate,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::RtForecast => "rt.forecast",
            Name::RtExecuteSi => "rt.execute_si",
            Name::RtAdvance => "rt.advance",
            Name::H264EncodeMb => "h264.encode_mb",
            Name::ObsCountersSink => "obs.counters_sink",
            Name::ObsBinEncode => "obs.bin_encode",
            Name::ObsBinDecode => "obs.bin_decode",
            Name::ObsReplayFold => "obs.replay_fold",
            Name::ObsMetricsSink => "obs.metrics_sink",
            Name::SimFleetWorker => "sim.fleet.worker",
            Name::SimShard => "sim.shard",
            Name::SimSpecBuild => "sim.spec_build",
            Name::SimEngineRun => "sim.engine_run",
            Name::SimFinish => "sim.finish",
            Name::SimAggregate => "sim.aggregate",
        }
    }

    /// The layer (workspace crate) the span's call enters.
    pub fn layer(self) -> &'static str {
        let label = self.label();
        &label[..label.find('.').unwrap_or(label.len())]
    }

    /// Whether every duration is kept for exact quantiles.
    fn sampled(self) -> bool {
        matches!(
            self,
            Name::RtForecast
                | Name::RtExecuteSi
                | Name::RtAdvance
                | Name::H264EncodeMb
                | Name::SimShard
        )
    }
}

/// Durations below this many nanoseconds are counted per nanosecond.
const FINE_NS: usize = 1 << 18;

/// Every duration of one span name, kept exactly: a per-nanosecond count
/// below [`FINE_NS`] and the raw values above it.
#[derive(Clone)]
struct Samples {
    fine: Vec<u32>,
    coarse: Vec<u64>,
    n: u64,
}

impl Samples {
    fn new() -> Self {
        Samples {
            fine: vec![0; FINE_NS],
            coarse: Vec::with_capacity(4096),
            n: 0,
        }
    }

    fn push(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(count) => *count += 1,
            None => self.coarse.push(ns),
        }
        self.n += 1;
    }

    fn merge(&mut self, other: &Samples) {
        for (mine, theirs) in self.fine.iter_mut().zip(&other.fine) {
            *mine += theirs;
        }
        self.coarse.extend_from_slice(&other.coarse);
        self.n += other.n;
    }

    /// Nearest-rank quantile: the smallest sample with at least
    /// `ceil(q * n)` samples at or below it.
    fn quantile(&mut self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &count) in self.fine.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return ns as u64;
            }
        }
        self.coarse.sort_unstable();
        self.coarse[(rank - seen - 1) as usize]
    }
}

/// Aggregates of one span name.
#[derive(Clone, Default)]
pub struct Stat {
    /// Closed spans (or, for aggregated child time, calls charged).
    pub calls: u64,
    /// Sum of durations.
    pub busy_ns: u64,
    /// Sum of durations minus the time children covered.
    pub self_ns: u64,
    /// Heap allocations on the span's thread, children excluded.
    pub allocs: u64,
    /// Events the span processed (obs spans only).
    pub events: u64,
    samples: Option<Samples>,
}

impl Stat {
    fn merge(&mut self, other: &Stat) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.self_ns += other.self_ns;
        self.allocs += other.allocs;
        self.events += other.events;
        match (&mut self.samples, &other.samples) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.samples = Some(theirs.clone()),
            _ => {}
        }
    }

    /// Number of kept durations.
    pub fn samples(&self) -> u64 {
        self.samples.as_ref().map_or(0, |s| s.n)
    }

    /// Exact nearest-rank quantile of the kept durations, in ns.
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        self.samples.as_mut().map_or(0, |s| s.quantile(q))
    }
}

/// One closed span, as written out.
#[derive(Clone, Copy)]
pub struct SpanRecord {
    /// Unique in the run: [`Tracer::merge`] renumbers a worker's spans.
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Op, macroblock or shard id.
    pub key: u32,
    pub name: Name,
    pub thread: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    name: Name,
    id: u64,
    parent: u64,
    key: u32,
    start_ns: u64,
    child_ns: u64,
    allocs_at_open: u64,
    child_allocs: u64,
}

/// Span recorder for one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u8,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    span_cap: usize,
    spans_closed: u64,
    stats: Vec<Stat>,
    /// `(calls, allocs)` per name, frozen at the end of the first traced
    /// repetition.
    first_rep: Option<Vec<(u64, u64)>>,
    /// Traced wall time in thread-nanoseconds (see [`Tracer::add_wall`]).
    pub wall_ns: u64,
    /// Traced repetitions folded in.
    pub reps: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            thread: 0,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            span_cap: 0,
            spans_closed: 0,
            stats: vec![Stat::default(); Name::ALL.len()],
            first_rep: None,
            wall_ns: 0,
            reps: 0,
        }
    }

    /// A recording tracer for thread `thread`, holding at most `span_cap`
    /// spans. The span buffer is allocated here; a name's sample buffer
    /// is allocated when its first span closes, after that span's
    /// allocation count was taken, so recording never inflates the count
    /// of a span with no parent.
    pub fn on(origin: Instant, thread: u8, span_cap: usize) -> Self {
        let mut tr = Tracer::off();
        tr.on = true;
        tr.origin = origin;
        tr.thread = thread;
        tr.stack = Vec::with_capacity(16);
        tr.spans = Vec::with_capacity(span_cap);
        tr.span_cap = span_cap;
        tr
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: Name, key: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open(name, key);
        let out = f();
        self.close();
        out
    }

    pub fn open(&mut self, name: Name, key: u32) {
        if self.on {
            let now = self.now_ns();
            self.open_at(name, key, now);
        }
    }

    /// Opens a span whose start was taken earlier (e.g. on another
    /// thread, before this one was spawned).
    pub fn open_at(&mut self, name: Name, key: u32, start_ns: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            name,
            id,
            parent: self.stack.last().map_or(0, |p| p.id),
            key,
            start_ns,
            child_ns: 0,
            allocs_at_open: allocations(),
            child_allocs: 0,
        });
    }

    pub fn close(&mut self) {
        if self.on {
            let now = self.now_ns();
            self.close_at(now);
        }
    }

    /// Closes the innermost open span at `end_ns`.
    pub fn close_at(&mut self, end_ns: u64) {
        if !self.on {
            return;
        }
        let allocs_now = allocations();
        let open = self.stack.pop().expect("close without open span");
        let dur = end_ns.saturating_sub(open.start_ns);
        let allocs = allocs_now - open.allocs_at_open;
        let stat = &mut self.stats[open.name as usize];
        stat.calls += 1;
        stat.busy_ns += dur;
        stat.self_ns += dur.saturating_sub(open.child_ns);
        stat.allocs += allocs - open.child_allocs;
        if open.name.sampled() {
            stat.samples.get_or_insert_with(Samples::new).push(dur);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += allocs;
        }
        self.spans_closed += 1;
        if self.spans.len() < self.span_cap {
            self.spans.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                key: open.key,
                name: open.name,
                thread: self.thread,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Charges `ns` of time spent in `calls` calls to `name` as child
    /// time of the innermost open span, without recording spans.
    pub fn child_time(&mut self, name: Name, ns: u64, calls: u64, allocs: u64) {
        if !self.on {
            return;
        }
        let stat = &mut self.stats[name as usize];
        stat.calls += calls;
        stat.busy_ns += ns;
        stat.self_ns += ns;
        stat.allocs += allocs;
        stat.events += calls;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
            parent.child_allocs += allocs;
        }
    }

    /// Records that spans of `name` processed `events` events.
    pub fn note_events(&mut self, name: Name, events: u64) {
        if self.on {
            self.stats[name as usize].events += events;
        }
    }

    /// Adds traced wall time. Single-threaded workloads add each traced
    /// repetition's duration; a fan-out adds one duration per thread.
    pub fn add_wall(&mut self, ns: u64) {
        self.wall_ns += ns;
    }

    /// Marks the end of a traced repetition.
    pub fn end_rep(&mut self) {
        self.reps += 1;
        if self.first_rep.is_none() {
            self.first_rep = Some(self.stats.iter().map(|s| (s.calls, s.allocs)).collect());
        }
    }

    /// `(calls, allocs)` of `name` in the first traced repetition.
    pub fn first_rep(&self, name: Name) -> (u64, u64) {
        self.first_rep
            .as_ref()
            .map_or((0, 0), |counts| counts[name as usize])
    }

    /// Folds a worker thread's tracer into this one. Call before
    /// [`Tracer::end_rep`] of the repetition the worker served.
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "merging a tracer with open spans");
        for (mine, theirs) in self.stats.iter_mut().zip(&other.stats) {
            mine.merge(theirs);
        }
        // Both tracers number spans from 1; move the worker's ids past ours.
        let shift = self.next_id - 1;
        self.next_id += other.next_id - 1;
        let room = self.span_cap.saturating_sub(self.spans.len());
        self.spans
            .extend(other.spans.iter().take(room).map(|s| SpanRecord {
                id: s.id + shift,
                parent: if s.parent == 0 { 0 } else { s.parent + shift },
                ..*s
            }));
        self.spans_closed += other.spans_closed;
        self.wall_ns += other.wall_ns;
    }

    pub fn stat(&mut self, name: Name) -> &mut Stat {
        &mut self.stats[name as usize]
    }

    /// Summed self time of every span name of `layer`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        Name::ALL
            .iter()
            .filter(|n| n.layer() == layer)
            .map(|&n| self.stats[n as usize].self_ns)
            .sum()
    }

    /// Spans closed over the run (kept or not).
    pub fn spans_closed(&self) -> u64 {
        self.spans_closed
    }

    /// Writes the kept spans as tab-separated lines:
    /// `id parent thread name key start_ns end_ns`.
    pub fn write_spans(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\tthread\tname\tkey\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.thread,
                s.name.label(),
                s.key,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Cost of one empty timed scope on this host, in ns: the mean over many
/// empty spans on a throwaway recording tracer.
pub fn empty_scope_ns() -> f64 {
    const N: u32 = 200_000;
    let mut tr = Tracer::on(Instant::now(), 0, 0);
    let started = Instant::now();
    for i in 0..N {
        tr.span(Name::SimFinish, i, || ());
    }
    started.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_wall() {
        let mut tr = Tracer::on(Instant::now(), 0, 16);
        tr.open_at(Name::SimShard, 0, 100);
        tr.open_at(Name::SimEngineRun, 0, 110);
        tr.child_time(Name::ObsBinEncode, 30, 3, 0);
        tr.close_at(170);
        tr.close_at(200);
        assert_eq!(tr.stat(Name::SimEngineRun).self_ns, 30);
        assert_eq!(tr.stat(Name::SimShard).self_ns, 40);
        assert_eq!(tr.layer_self_ns("sim") + tr.layer_self_ns("obs"), 100);
        assert_eq!(tr.spans[0].parent, tr.spans[1].id);
    }

    #[test]
    fn merged_spans_keep_unique_ids_and_their_parents() {
        let mut main = Tracer::on(Instant::now(), 0, 16);
        main.open_at(Name::SimAggregate, 0, 0);
        main.close_at(5);
        for thread in [1, 2] {
            let mut worker = Tracer::on(main.origin(), thread, 16);
            worker.open_at(Name::SimShard, 0, 0);
            worker.open_at(Name::SimEngineRun, 0, 1);
            worker.close_at(2);
            worker.close_at(3);
            main.merge(worker);
        }
        let ids: std::collections::BTreeSet<u64> = main.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), main.spans.len());
        for s in main.spans.iter().filter(|s| s.name == Name::SimEngineRun) {
            let parent = main
                .spans
                .iter()
                .find(|p| p.id == s.parent)
                .expect("parent kept");
            assert_eq!((parent.name, parent.thread), (Name::SimShard, s.thread));
        }
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let mut s = Samples::new();
        for ns in [5, 1, 4, 2, 3, 300_000, 400_000] {
            s.push(ns);
        }
        assert_eq!(s.quantile(0.5), 4);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(0.99), 400_000);
        assert_eq!(s.quantile(6.0 / 7.0), 300_000);
    }
}
