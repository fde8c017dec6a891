//! Twin-comparison properties for the selection fingerprint.
//!
//! Two managers run the same random operation sequence on the same
//! platform under the same deterministic fault plan; one keeps the
//! previous decision while the forecast revision and capacity are
//! unchanged, the other runs every re-selection from scratch (the
//! oracle). The fingerprint is only allowed to change *speed*:
//! selections, rotation plans and the entire event timeline must be
//! identical modulo the `cache_hit` marker on `Reselect` events —
//! across every invalidation interleaving the sequence produces
//! (rotation completions, CRC faults, quarantines, power-mode flips).

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rispp_core::atom::AtomSet;
use rispp_core::energy::EnergyModel;
use rispp_core::forecast::ForecastValue;
use rispp_core::molecule::Molecule;
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::fabric::Fabric;
use rispp_fabric::fault::FaultPlan;
use rispp_obs::{Event, Record, SinkHandle, TimelineSink};
use rispp_rt::manager::{PowerMode, RisppManager};

const SIS: usize = 4;
const CONTAINERS: usize = 4;

/// Three-kind platform with four SIs whose upgrade ladders overlap, so
/// random demand mixes force real selection trade-offs.
fn platform() -> (SiLibrary, Fabric) {
    let atoms = AtomSet::from_names(["A", "B", "C"]);
    let catalog = AtomCatalog::new(vec![
        AtomHwProfile::new("A", 100, 200, 6_920),
        AtomHwProfile::new("B", 100, 200, 6_920),
        AtomHwProfile::new("C", 100, 200, 6_920),
    ]);
    let fabric = Fabric::new(atoms, catalog, CONTAINERS);
    let mut lib = SiLibrary::new(3);
    let sis = [
        SpecialInstruction::new(
            "S0",
            500,
            vec![
                MoleculeImpl::new(Molecule::from_counts([1, 1, 0]), 20),
                MoleculeImpl::new(Molecule::from_counts([2, 1, 0]), 10),
            ],
        ),
        SpecialInstruction::new(
            "S1",
            400,
            vec![MoleculeImpl::new(Molecule::from_counts([0, 2, 0]), 15)],
        ),
        SpecialInstruction::new(
            "S2",
            600,
            vec![
                MoleculeImpl::new(Molecule::from_counts([0, 1, 1]), 30),
                MoleculeImpl::new(Molecule::from_counts([0, 1, 2]), 12),
            ],
        ),
        SpecialInstruction::new(
            "S3",
            300,
            vec![
                MoleculeImpl::new(Molecule::from_counts([1, 0, 1]), 25),
                MoleculeImpl::new(Molecule::from_counts([2, 0, 2]), 8),
            ],
        ),
    ];
    for si in sis {
        lib.insert(si.unwrap()).unwrap();
    }
    (lib, fabric)
}

/// One step of the random driver program.
#[derive(Debug, Clone)]
enum Op {
    Forecast { task: u32, si: usize, execs: u32 },
    Retract { task: u32, si: usize },
    Execute { task: u32, si: usize },
    Advance { delta: u64 },
    Power { energy: bool },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..3, 0usize..SIS, 1u32..200).prop_map(|(task, si, execs)| Op::Forecast {
            task,
            si,
            execs
        }),
        (0u32..3, 0usize..SIS).prop_map(|(task, si)| Op::Retract { task, si }),
        (0u32..3, 0usize..SIS).prop_map(|(task, si)| Op::Execute { task, si }),
        (1u64..150_000).prop_map(|delta| Op::Advance { delta }),
        any::<bool>().prop_map(|energy| Op::Power { energy }),
    ]
}

/// Everything observable a run produces.
struct RunOutcome {
    timeline: Vec<Record>,
    target: Molecule,
    loaded: Molecule,
    rotations_requested: u64,
    cache_stats: (u64, u64, u64),
    /// `Reselect` events marked `cache_hit`, counted before normalising.
    marked_hits: u64,
}

/// Drives `ops` against a fresh platform (faulted per `fault_seed`) and
/// returns the observables, with `cache_hit` markers counted and then
/// normalised away.
fn run(ops: &[Op], fault_seed: u64, cache: bool) -> RunOutcome {
    let (lib, fabric) = platform();
    let fabric = if fault_seed == 0 {
        fabric
    } else {
        fabric.with_faults(FaultPlan::seeded(fault_seed, CONTAINERS, 400_000))
    };
    let sink = Rc::new(RefCell::new(TimelineSink::new()));
    let mut mgr = RisppManager::builder(lib, fabric)
        .sink(SinkHandle::shared(sink.clone()))
        .deterministic_timing(true)
        .selection_cache(cache)
        .build();
    for op in ops {
        match *op {
            Op::Forecast { task, si, execs } => {
                mgr.forecast(
                    task,
                    ForecastValue::new(SiId(si), 1.0, 50_000.0, f64::from(execs)),
                );
            }
            Op::Retract { task, si } => mgr.retract_forecast(task, SiId(si)),
            Op::Execute { task, si } => {
                mgr.execute_si(task, SiId(si));
            }
            Op::Advance { delta } => {
                let t = mgr.now() + delta;
                mgr.advance_to(t).expect("monotone time");
            }
            Op::Power { energy } => mgr.adapt_power_mode(if energy {
                PowerMode::EnergySaving {
                    model: EnergyModel::default(),
                    alpha: 1.5,
                }
            } else {
                PowerMode::Performance
            }),
        }
    }
    let outcome = RunOutcome {
        timeline: Vec::new(),
        target: mgr.target().clone(),
        loaded: mgr.loaded(),
        rotations_requested: mgr.rotations_requested(),
        cache_stats: mgr.selection_cache_stats(),
        marked_hits: 0,
    };
    drop(mgr);
    let mut timeline = Rc::try_unwrap(sink)
        .expect("manager dropped its sink handle")
        .into_inner()
        .into_timeline();
    let mut marked_hits = 0;
    for record in timeline.entries_mut() {
        if let Event::Reselect { cache_hit, .. } = &mut record.event {
            marked_hits += u64::from(*cache_hit);
            *cache_hit = false;
        }
    }
    RunOutcome {
        timeline: timeline.entries().to_vec(),
        marked_hits,
        ..outcome
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cache never changes a decision: same ops, same faults ⇒ the
    /// cached run and the from-scratch oracle agree on every event.
    #[test]
    fn cached_run_matches_from_scratch_oracle(
        ops in proptest::collection::vec(op(), 1..60),
        fault_seed in 0u64..8,
    ) {
        let cached = run(&ops, fault_seed, true);
        let oracle = run(&ops, fault_seed, false);
        prop_assert_eq!(&cached.timeline, &oracle.timeline);
        prop_assert_eq!(&cached.target, &oracle.target);
        prop_assert_eq!(&cached.loaded, &oracle.loaded);
        prop_assert_eq!(cached.rotations_requested, oracle.rotations_requested);
        // The oracle genuinely ran from scratch every time.
        prop_assert_eq!(oracle.cache_stats.0, 0);
        prop_assert_eq!(oracle.cache_stats.2, 0);
        // Every re-selection in the cached run is accounted hit-or-miss.
        let reselects = cached
            .timeline
            .iter()
            .filter(|r| matches!(r.event, Event::Reselect { .. }))
            .count() as u64;
        prop_assert_eq!(cached.cache_stats.0 + cached.cache_stats.1, reselects);
        // The event markers agree with the stage's own hit counter.
        prop_assert_eq!(cached.marked_hits, cached.cache_stats.0);
        prop_assert_eq!(oracle.marked_hits, 0);
    }
}
