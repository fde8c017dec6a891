//! Property tests on the fabric: conservation of Atoms, single-port
//! serialisation, time consistency under arbitrary request/advance
//! interleavings, and the kept loaded Molecule under faults.

use proptest::prelude::*;
use rispp_core::atom::{AtomKind, AtomSet};
use rispp_core::molecule::Molecule;
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::container::{ContainerId, ContainerState};
use rispp_fabric::fabric::{Fabric, FabricError, FabricEvent};
use rispp_fabric::fault::{FaultPlan, StallWindow};

const KINDS: usize = 3;

fn make_fabric(containers: usize) -> Fabric {
    let names = ["X", "Y", "Z"];
    let atoms = AtomSet::from_names(names);
    let catalog = AtomCatalog::new(
        names
            .iter()
            .enumerate()
            .map(|(i, n)| AtomHwProfile::new(*n, 100, 200, 3_000 + 1_000 * i as u64))
            .collect(),
    );
    Fabric::new(atoms, catalog, containers)
}

/// One fuzzing action against the fabric.
#[derive(Debug, Clone, Copy)]
enum Action {
    Request { container: usize, kind: usize },
    Advance { delta: u64 },
    Cancel { container: usize },
}

fn action(containers: usize) -> impl Strategy<Value = Action> {
    let c = containers.max(1);
    prop_oneof![
        (0..c, 0..KINDS).prop_map(|(container, kind)| Action::Request { container, kind }),
        (1u64..100_000).prop_map(|delta| Action::Advance { delta }),
        (0..c).prop_map(|container| Action::Cancel { container }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any action sequence: loaded + loading + queued never exceeds
    /// the container count, and loaded atoms never exceed it either.
    #[test]
    fn capacity_is_conserved(
        containers in 1usize..5,
        actions in proptest::collection::vec(action(4), 1..40),
    ) {
        let mut fabric = make_fabric(containers);
        for a in actions {
            match a {
                Action::Request { container, kind } => {
                    if container < containers {
                        let _ = fabric.request_rotation(
                            ContainerId(container),
                            AtomKind(kind),
                        );
                    }
                }
                Action::Advance { delta } => {
                    let t = fabric.now() + delta;
                    fabric.advance_to(t).unwrap();
                }
                Action::Cancel { container } => {
                    let _ = fabric.cancel_pending(ContainerId(container));
                }
            }
            prop_assert!(
                fabric.loaded_molecule().determinant() as usize <= containers
            );
            prop_assert!(
                fabric.committed_molecule().determinant() as usize <= containers
            );
        }
    }

    /// Rotation events alternate start → complete per container, and the
    /// port never runs two rotations concurrently.
    #[test]
    fn port_serialises_rotations(
        containers in 1usize..5,
        actions in proptest::collection::vec(action(4), 1..40),
    ) {
        let mut fabric = make_fabric(containers);
        let mut events: Vec<FabricEvent> = Vec::new();
        for a in actions {
            match a {
                Action::Request { container, kind } => {
                    if container < containers {
                        let _ = fabric.request_rotation(
                            ContainerId(container),
                            AtomKind(kind),
                        );
                    }
                }
                Action::Advance { delta } => {
                    let t = fabric.now() + delta;
                    events.extend(fabric.advance_to(t).unwrap());
                }
                Action::Cancel { container } => {
                    let _ = fabric.cancel_pending(ContainerId(container));
                }
            }
        }
        // Drain the rest.
        while let Some(t) = fabric.next_completion() {
            events.extend(fabric.advance_to(t).unwrap());
        }
        // Starts and completions alternate globally (single port): every
        // start is followed by its completion before the next start.
        let mut in_flight: Option<ContainerId> = None;
        let mut last_time = 0u64;
        for e in &events {
            prop_assert!(e.at() >= last_time, "events out of order");
            last_time = e.at();
            match *e {
                FabricEvent::RotationStarted { container, .. } => {
                    prop_assert!(in_flight.is_none(), "two rotations in flight");
                    in_flight = Some(container);
                }
                FabricEvent::RotationCompleted { container, .. }
                | FabricEvent::RotationFailed { container, .. } => {
                    prop_assert_eq!(in_flight, Some(container));
                    in_flight = None;
                }
                FabricEvent::PortStalled { .. }
                | FabricEvent::ContainerQuarantined { .. }
                | FabricEvent::ContainerFaulted { .. } => {}
            }
        }
    }

    /// `all_rotations_done_at` is a correct upper bound: advancing there
    /// leaves the fabric idle with everything loaded.
    #[test]
    fn all_done_estimate_is_exact(
        containers in 1usize..5,
        kinds in proptest::collection::vec(0usize..KINDS, 1..5),
    ) {
        let mut fabric = make_fabric(containers);
        let mut expected = 0u32;
        for (i, &k) in kinds.iter().enumerate() {
            let c = ContainerId(i % containers);
            if fabric.request_rotation(c, AtomKind(k)).is_ok() {
                expected += 1;
            }
        }
        if let Some(done) = fabric.all_rotations_done_at() {
            fabric.advance_to(done).unwrap();
            prop_assert!(fabric.is_idle());
            prop_assert_eq!(fabric.loaded_molecule().determinant(), expected.min(containers as u32));
        }
    }

    /// Time never goes backwards; advancing to the current time is a
    /// no-op that produces no events.
    #[test]
    fn advance_is_monotone_and_idempotent(delta in 1u64..1_000_000) {
        let mut fabric = make_fabric(2);
        fabric.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        fabric.advance_to(delta).unwrap();
        let again = fabric.advance_to(delta).unwrap();
        prop_assert!(again.is_empty());
        let earlier = fabric.advance_to(delta.saturating_sub(1));
        let ok = matches!(earlier, Err(FabricError::TimeReversal { .. }) | Ok(_));
        prop_assert!(ok);
    }
}

/// One step against a faulted fabric, including cancellation of the whole
/// queue (the manager's `CancelPending`).
#[derive(Debug, Clone, Copy)]
enum FaultyAction {
    Request { container: usize, kind: usize },
    Advance { delta: u64 },
    Cancel { container: usize },
    CancelAll,
}

fn faulty_action(containers: usize) -> impl Strategy<Value = FaultyAction> {
    prop_oneof![
        (0..containers, 0..KINDS)
            .prop_map(|(container, kind)| FaultyAction::Request { container, kind }),
        (1u64..60_000).prop_map(|delta| FaultyAction::Advance { delta }),
        (0..containers).prop_map(|container| FaultyAction::Cancel { container }),
        Just(FaultyAction::CancelAll),
    ]
}

/// A fault plan over `containers` containers: CRC failures on early
/// rotations, bad (quarantining) containers, transient upsets and port
/// stalls, all within the first few rotation times.
fn fault_plan(containers: usize) -> impl Strategy<Value = FaultPlan> {
    (
        proptest::collection::vec(0u64..10, 0..4),
        proptest::collection::vec(0..containers, 0..2),
        proptest::collection::vec((0u64..400_000, 0..containers), 0..8),
        proptest::collection::vec((0u64..300_000, 1u64..30_000), 0..3),
    )
        .prop_map(|(crc, bad, transient, stalls)| FaultPlan {
            crc_failures: crc,
            bad_containers: bad.into_iter().map(ContainerId).collect(),
            transient_faults: transient
                .into_iter()
                .map(|(at, c)| (at, ContainerId(c)))
                .collect(),
            stall_windows: stalls
                .into_iter()
                .map(|(from, len)| StallWindow {
                    from,
                    until: from + len,
                })
                .collect(),
        })
}

/// A container count with a fault plan and an action sequence for it.
fn faulty_run() -> impl Strategy<Value = (usize, FaultPlan, Vec<FaultyAction>)> {
    (1usize..6).prop_flat_map(|containers| {
        (
            Just(containers),
            fault_plan(containers),
            proptest::collection::vec(faulty_action(containers), 1..60),
        )
    })
}

/// The loaded Molecule recounted from scratch over the containers.
fn recount_loaded(fabric: &Fabric) -> Molecule {
    Molecule::from_pairs(
        KINDS,
        fabric
            .iter_containers()
            .filter_map(|(_, c)| c.loaded_kind().map(|k| (k, 1))),
    )
}

/// `committed_molecule` as it was built from `(kind, 1)` pairs: loaded
/// Atoms not queued for overwrite, the loading one, and every queued
/// target.
fn committed_by_pairs(fabric: &Fabric) -> Molecule {
    let pending_overwrite: Vec<ContainerId> = fabric.pending_rotations().map(|(c, _)| c).collect();
    let mut pairs: Vec<(AtomKind, u32)> = Vec::new();
    for (id, c) in fabric.iter_containers() {
        match c.state() {
            ContainerState::Loaded { kind } if !pending_overwrite.contains(&id) => {
                pairs.push((kind, 1));
            }
            ContainerState::Loading { kind, .. } => pairs.push((kind, 1)),
            _ => {}
        }
    }
    pairs.extend(fabric.pending_rotations().map(|(_, k)| (k, 1)));
    Molecule::from_pairs(KINDS, pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incrementally kept loaded Molecule equals a from-scratch
    /// recount after every operation — through transient faults, CRC
    /// failures, quarantines and cancelled queued overwrites — and the
    /// allocation-free `committed_molecule` equals the pairs-based
    /// construction it replaced.
    #[test]
    fn kept_loaded_molecule_matches_a_recount((containers, plan, actions) in faulty_run()) {
        let mut fabric = make_fabric(containers).with_faults(plan);
        for a in actions {
            match a {
                FaultyAction::Request { container, kind } => {
                    let _ = fabric.request_rotation(ContainerId(container), AtomKind(kind));
                }
                FaultyAction::Advance { delta } => {
                    let t = fabric.now() + delta;
                    fabric.advance_to(t).unwrap();
                }
                FaultyAction::Cancel { container } => {
                    let _ = fabric.cancel_pending(ContainerId(container));
                }
                FaultyAction::CancelAll => {
                    let _ = fabric.cancel_all_pending();
                }
            }
            prop_assert_eq!(fabric.loaded_molecule(), &recount_loaded(&fabric));
            prop_assert_eq!(fabric.committed_molecule(), committed_by_pairs(&fabric));
        }
    }
}
