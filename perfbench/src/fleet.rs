//! `fleet_capture`: `run_fleet` over faulted Fig. 6 shards on two worker
//! threads, with the fleet-default metrics sinks plus binary capture.
//! Every shard's log is then decoded with `rispp_obs::bin` and folded
//! into a fresh `MetricsSink` and `CountersSink`, which must reproduce the
//! live ones: the read path of `rispp_report` and `rispp_serve`.
//!
//! `run_fleet` is a black box to an outside caller, so a traced
//! repetition runs its own fan-out over the same shard specs, building
//! each engine with `ShardSpec::build_fig6` and timing the attached sinks
//! per event. Its shard outcomes must equal `run_fleet`'s.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rispp_core::si::SiId;
use rispp_h264::si_library::build_library;
use rispp_obs::{
    BinaryReader, BinarySink, CountersSink, Event, EventSink, LatencyHistogram, MetricsSink,
    Record, SinkHandle,
};
use rispp_sim::{
    h264_fabric, run_fleet, FleetAggregate, FleetConfig, Scenario, ScenarioFactory, ShardOutcome,
    ShardSpec, SinkSpec,
};

use crate::alloc::allocations;
use crate::harness::{Checks, LayerCounts, RepOutput, Workload};
use crate::trace::{Name, Tracer};

/// Spans each worker thread keeps.
const WORKER_SPAN_CAP: usize = 50_000;

pub struct FleetCapture {
    pub seed: u64,
    pub shards: u32,
    pub threads: usize,
    /// Cycles over which each shard's seeded fault plan places its faults.
    pub fault_horizon: u64,
    containers: usize,
    utilization: Vec<f64>,
    library_len: usize,
}

pub struct FleetInput {
    factory: ScenarioFactory,
    specs: Vec<ShardSpec>,
}

impl FleetCapture {
    pub fn new(seed: u64, shards: u32, threads: usize, fault_horizon: u64) -> Self {
        let fabric = h264_fabric(Scenario::Fig6.containers());
        FleetCapture {
            seed,
            shards,
            threads,
            fault_horizon,
            containers: fabric.num_containers(),
            utilization: fabric
                .catalog()
                .iter()
                .map(|(_, p)| p.utilization())
                .collect(),
            library_len: build_library().0.len(),
        }
    }

    /// A metrics sink configured like the one a Fig. 6 engine carries,
    /// with nothing folded in yet.
    fn fresh_metrics(&self) -> MetricsSink {
        MetricsSink::new()
            .with_containers(self.containers)
            .with_utilization_weights(self.utilization.clone())
    }

    /// One repetition; also returns the shard outcomes for the reference
    /// checks.
    fn rep(
        &self,
        input: &FleetInput,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> (RepOutput, Vec<ShardOutcome>) {
        let (shards, aggregate) = if tr.is_on() {
            let shards = self.traced_fan_out(&input.specs, tr);
            let aggregate = tr.span(Name::SimAggregate, 0, || {
                FleetAggregate::from_shards(&shards)
            });
            (shards, aggregate)
        } else {
            let fleet = run_fleet(
                &input.factory,
                &FleetConfig::new(self.shards).with_threads(self.threads),
            );
            (fleet.shards, fleet.aggregate)
        };
        let mut out = RepOutput {
            ops: shards.len() as u64,
            sim_cycles: aggregate.sim_cycles,
            executions: aggregate.summary.executions_total,
            ..RepOutput::default()
        };
        let mut counts = LayerCounts::default();
        for (k, shard) in shards.iter().enumerate() {
            checks.expect_eq("shard seed", shard.seed, input.specs[k].seed);
            self.verify_capture(k as u32, shard, tr, checks, &mut counts);
            let live = shard.counters.as_ref().expect("metrics sinks attached");
            out.hw_executions += (0..self.library_len)
                .map(|i| live.si(SiId(i)).hw_executions)
                .sum::<u64>();
            counts.reselects += live.reselects();
            counts.cache_hits += live.selection_cache_hits();
            counts.cache_misses += live.selection_cache_misses();
            counts.rotations += live.rotations_completed();
            counts.rotation_failures += live.rotations_failed();
            counts.quarantines += live.containers_quarantined();
        }
        out.counts = counts;
        out.fingerprint = vec![
            ("sim_cycles", out.sim_cycles),
            ("events", aggregate.events),
            ("executions", out.executions),
            ("hw_executions", out.hw_executions),
            ("rotations", counts.rotations),
            ("rotation_failures", counts.rotation_failures),
            ("bin_bytes", counts.bin_bytes),
        ];
        (out, shards)
    }

    /// Decodes a shard's binary log and folds it into fresh sinks, which
    /// must equal the shard's live summary and counters.
    fn verify_capture(
        &self,
        k: u32,
        shard: &ShardOutcome,
        tr: &mut Tracer,
        checks: &mut Checks,
        counts: &mut LayerCounts,
    ) {
        let Some(bytes) = shard.binary.as_deref() else {
            checks.expect(false, || format!("shard {k}: no binary capture"));
            return;
        };
        let decoded = tr.span(Name::ObsBinDecode, k, || {
            BinaryReader::new(bytes).collect::<std::io::Result<Vec<Record>>>()
        });
        let records = match decoded {
            Ok(records) => records,
            Err(e) => {
                checks.expect(false, || format!("shard {k}: capture does not decode: {e}"));
                return;
            }
        };
        let events = records.len() as u64;
        tr.open(Name::ObsReplayFold, k);
        let mut metrics = self.fresh_metrics();
        tr.span(Name::ObsMetricsSink, k, || fold(&records, &mut metrics));
        let mut counters = CountersSink::new();
        tr.span(Name::ObsCountersSink, k, || fold(&records, &mut counters));
        // Settle at the shard's end, as the live engine does.
        metrics.advance_to(shard.sim_cycles);
        metrics.finish();
        let mut summary = metrics.summary();
        tr.close();
        for name in [
            Name::ObsBinDecode,
            Name::ObsReplayFold,
            Name::ObsMetricsSink,
            Name::ObsCountersSink,
        ] {
            tr.note_events(name, events);
        }
        // Cache invalidations are manager state, never part of the stream.
        summary.selection_cache_invalidations = shard.summary.selection_cache_invalidations;
        checks.expect_eq("live events vs decoded events", shard.events, events);
        checks.expect(summary == shard.summary, || {
            format!(
                "shard {k}: refolded summary differs: {summary:?} vs {:?}",
                shard.summary
            )
        });
        checks.expect(shard.counters.as_ref() == Some(&counters), || {
            format!("shard {k}: refolded counters differ from the live CountersSink")
        });
        counts.events += events;
        counts.bin_bytes += bytes.len() as u64;
    }

    /// The traced fan-out: `threads` workers pull shard indices from a
    /// shared counter, as `run_fleet` does, and record their own spans.
    fn traced_fan_out(&self, specs: &[ShardSpec], tr: &mut Tracer) -> Vec<ShardOutcome> {
        let origin = tr.origin();
        let start = tr.now_ns();
        let next = AtomicU32::new(0);
        let results = Mutex::new(Vec::with_capacity(specs.len()));
        let workers: Vec<Tracer> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| {
                    let (next, results) = (&next, &results);
                    scope.spawn(move || {
                        let mut wt = Tracer::on(origin, t as u8 + 1, WORKER_SPAN_CAP);
                        wt.open_at(Name::SimFleetWorker, t as u32, start);
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = specs.get(k as usize) else {
                                break;
                            };
                            wt.open(Name::SimShard, k);
                            let outcome = run_shard(spec, k, &mut wt);
                            wt.close();
                            results.lock().expect("worker panicked").push((k, outcome));
                        }
                        wt
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        });
        let end = tr.now_ns();
        for mut wt in workers {
            // A worker's root span runs from fan-out to join; its self
            // time is the worker's idle time.
            wt.close_at(end);
            tr.merge(wt);
        }
        // The calling thread's own time counts the fan-out once; each
        // further worker adds its share of thread time.
        tr.add_wall((self.threads as u64).saturating_sub(1) * (end - start));
        let mut results = results.into_inner().expect("worker panicked");
        results.sort_by_key(|&(k, _)| k);
        results.into_iter().map(|(_, outcome)| outcome).collect()
    }
}

fn fold<S: EventSink>(records: &[Record], sink: &mut S) {
    for r in records {
        sink.emit(r.at, &r.event);
    }
}

/// A sink wrapper timing every `emit` it forwards.
struct Timed<S> {
    inner: S,
    ns: u64,
    calls: u64,
    allocs: u64,
}

impl<S> Timed<S> {
    fn new(inner: S) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Timed {
            inner,
            ns: 0,
            calls: 0,
            allocs: 0,
        }))
    }

    fn charge(&self, name: Name, tr: &mut Tracer) {
        tr.child_time(name, self.ns, self.calls, self.allocs);
    }
}

impl<S: EventSink> EventSink for Timed<S> {
    fn emit(&mut self, at: u64, event: &Event) {
        let allocs = allocations();
        let started = Instant::now();
        self.inner.emit(at, event);
        self.ns += started.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.allocs += allocations() - allocs;
    }
}

/// Runs one Fig. 6 shard the way `ShardSpec::run` does under
/// `SinkSpec::Binary` — engine from `build_fig6`, a `CountersSink` and a
/// binary capture attached — with every layer call inside a span.
pub fn run_shard(spec: &ShardSpec, k: u32, tr: &mut Tracer) -> ShardOutcome {
    tr.open(Name::SimSpecBuild, k);
    let (mut engine, _) = spec.build_fig6();
    let counters = Timed::new(CountersSink::new());
    let binary = Timed::new(BinarySink::new(Vec::new()));
    engine.attach_sink(SinkHandle::tee(
        SinkHandle::shared(counters.clone()),
        SinkHandle::shared(binary.clone()),
    ));
    tr.close();

    tr.open(Name::SimEngineRun, k);
    let end = engine.run(100_000);
    counters.borrow().charge(Name::ObsCountersSink, tr);
    binary.borrow().charge(Name::ObsBinEncode, tr);
    tr.close();

    tr.open(Name::SimFinish, k);
    let events = engine.timeline().len() as u64;
    let summary = engine.finish_metrics();
    let library_len = engine.manager().library().len();
    drop(engine);
    let counters = unwrap(counters).inner;
    let binary = unwrap(binary).inner.into_inner();
    let mut latency = LatencyHistogram::default();
    for i in 0..library_len {
        latency.merge(&counters.si(SiId(i)).latency);
    }
    tr.close();
    ShardOutcome {
        scenario: spec.scenario.id(),
        seed: spec.seed,
        events,
        sim_cycles: end,
        summary,
        counters: Some(counters),
        latency,
        binary: Some(binary),
        ..ShardOutcome::default()
    }
}

fn unwrap<S>(rc: Rc<RefCell<S>>) -> S {
    Rc::try_unwrap(rc)
        .ok()
        .expect("engine dropped its sink handles")
        .into_inner()
}

impl Workload for FleetCapture {
    type Input = FleetInput;
    const SINGLE_THREADED: bool = false;

    fn setup(&self) -> FleetInput {
        let factory = ScenarioFactory::new(Scenario::Fig6, self.seed)
            .with_sink(SinkSpec::Binary)
            .with_fault_horizon(Some(self.fault_horizon));
        let specs = (0..self.shards).map(|k| factory.spec_for(k)).collect();
        FleetInput { factory, specs }
    }

    fn run(&self, input: &mut FleetInput, tr: &mut Tracer, checks: &mut Checks) -> RepOutput {
        self.rep(input, tr, checks).0
    }

    fn reference(&self, checks: &mut Checks) -> Vec<(&'static str, u64)> {
        let input = self.setup();
        let (out, shards) = self.rep(&input, &mut Tracer::off(), checks);
        // One sampled shard, re-run standalone from its derived seed, and
        // through the traced path, must equal its fleet outcome.
        let k = (self.seed % u64::from(self.shards)) as u32;
        let spec = input.factory.spec_for(k);
        let fleet = &shards[k as usize];
        checks.expect(&spec.run() == fleet, || {
            format!("shard {k}: standalone re-run differs from its fleet outcome")
        });
        checks.expect(&run_shard(&spec, k, &mut Tracer::off()) == fleet, || {
            format!("shard {k}: traced path differs from its fleet outcome")
        });
        out.fingerprint
    }
}
