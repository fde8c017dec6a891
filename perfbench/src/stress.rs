//! `stress`: random platforms driven through `RisppManager` directly with
//! the forecast / retract / execute / advance op mix of
//! `Scenario::Stress`, one thread, null sink.
//!
//! Platform `i` draws its platform and its ops from one RNG seeded
//! `seed + i`, exactly as `ShardSpec::run` does, so this loop must
//! reproduce that path's events, simulated cycles and hardware executions.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rispp_core::forecast::ForecastValue;
use rispp_core::si::SiId;
use rispp_fabric::fabric::FabricEvent;
use rispp_obs::SinkHandle;
use rispp_rt::manager::{RisppManager, TaskId};
use rispp_sim::{random_platform, Scenario, ShardSpec};

use crate::harness::{Checks, CountingSink, LayerCounts, RepOutput, Workload};
use crate::trace::{Name, Tracer};

/// One manager call of the op mix.
#[derive(Clone)]
enum Op {
    Forecast(TaskId, ForecastValue),
    Retract(TaskId, SiId),
    Execute(TaskId, SiId),
    Advance(u64),
}

pub struct Platform {
    mgr: RisppManager,
    ops: Vec<Op>,
}

pub struct Stress {
    pub seed: u64,
    pub platforms: u64,
    pub steps: u32,
}

impl Stress {
    fn build(&self, sink: Option<&SinkHandle>) -> Vec<Platform> {
        (0..self.platforms)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(i));
                let (lib, fabric) = random_platform(&mut rng);
                // Deterministic event timing, as `ShardSpec` defaults to.
                let mut builder =
                    RisppManager::builder(lib.clone(), fabric).deterministic_timing(true);
                if let Some(sink) = sink {
                    builder = builder.sink(sink.clone());
                }
                let mgr = builder.build();
                // The same draws, in the same order, as the stress scenario.
                let ops = (0..self.steps)
                    .map(|_| {
                        let si = SiId(rng.gen_range(0..lib.len()));
                        match rng.gen_range(0..10) {
                            0..=2 => Op::Forecast(
                                rng.gen_range(0..3),
                                ForecastValue::new(
                                    si,
                                    rng.gen_range(0.05..1.0),
                                    rng.gen_range(1_000.0..1_000_000.0),
                                    rng.gen_range(1.0..500.0),
                                ),
                            ),
                            3 => Op::Retract(rng.gen_range(0..3), si),
                            4..=7 => Op::Execute(rng.gen_range(0..3), si),
                            _ => Op::Advance(rng.gen_range(1..200_000u64)),
                        }
                    })
                    .collect();
                Platform { mgr, ops }
            })
            .collect()
    }
}

impl Workload for Stress {
    type Input = Vec<Platform>;
    const SINGLE_THREADED: bool = true;

    fn setup(&self) -> Vec<Platform> {
        self.build(None)
    }

    fn run(&self, platforms: &mut Vec<Platform>, tr: &mut Tracer, _: &mut Checks) -> RepOutput {
        let mut out = RepOutput::default();
        let mut counts = LayerCounts::default();
        let mut key = 0u32;
        for p in platforms.iter_mut() {
            let mgr = &mut p.mgr;
            for op in &p.ops {
                match *op {
                    Op::Forecast(task, ref value) => {
                        let value = value.clone();
                        tr.span(Name::RtForecast, key, || mgr.forecast(task, value));
                    }
                    Op::Retract(task, si) => {
                        tr.span(Name::RtForecast, key, || mgr.retract_forecast(task, si));
                    }
                    Op::Execute(task, si) => {
                        let rec = tr.span(Name::RtExecuteSi, key, || mgr.execute_si(task, si));
                        out.executions += 1;
                        out.hw_executions += u64::from(rec.hardware);
                    }
                    Op::Advance(dt) => {
                        let t = mgr.now() + dt;
                        let events = tr
                            .span(Name::RtAdvance, key, || mgr.advance_to(t))
                            .expect("monotone time");
                        count_fabric_events(&events, &mut counts);
                    }
                }
                key += 1;
            }
            out.ops += p.ops.len() as u64;
            out.sim_cycles += mgr.now();
            counts.reselects += mgr.reselects();
            let (hits, misses, _) = mgr.selection_cache_stats();
            counts.cache_hits += hits;
            counts.cache_misses += misses;
        }
        out.counts = counts;
        out.fingerprint = vec![
            ("sim_cycles", out.sim_cycles),
            ("executions", out.executions),
            ("hw_executions", out.hw_executions),
            ("reselects", counts.reselects),
            ("rotations", counts.rotations),
        ];
        out
    }

    fn reference(&self, checks: &mut Checks) -> Vec<(&'static str, u64)> {
        let counting = Rc::new(RefCell::new(CountingSink::default()));
        let sink = SinkHandle::shared(counting.clone());
        let mut platforms = self.build(Some(&sink));
        let mine = self.run(&mut platforms, &mut Tracer::off(), checks);
        drop(platforms);
        let events = counting.borrow().events;

        let spec = ShardSpec::new(
            Scenario::Stress {
                platforms: self.platforms,
                steps: self.steps,
            },
            self.seed,
        )
        .run();
        let totals = spec.stress.expect("stress totals");
        checks.expect_eq("stress events vs ShardSpec::run", events, spec.events);
        checks.expect_eq(
            "stress sim_cycles vs ShardSpec::run",
            mine.sim_cycles,
            spec.sim_cycles,
        );
        checks.expect_eq(
            "stress hw executions vs ShardSpec::run",
            mine.hw_executions,
            totals.hw_executions,
        );
        mine.fingerprint
    }
}

/// Tallies the fabric's rotation outcomes from the events `advance_to`
/// hands back.
pub fn count_fabric_events(events: &[FabricEvent], counts: &mut LayerCounts) {
    for event in events {
        match event {
            FabricEvent::RotationCompleted { .. } => counts.rotations += 1,
            FabricEvent::RotationFailed { .. } => counts.rotation_failures += 1,
            FabricEvent::ContainerQuarantined { .. } => counts.quarantines += 1,
            _ => {}
        }
    }
}
