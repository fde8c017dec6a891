//! Decision identity of the flat greedy kernel.
//!
//! [`select_molecules_into`] scans a flat candidate table of `width`
//! counts per row and refills a caller-owned selection. Its reference is
//! the Molecule-based greedy loop it replaced, kept below as
//! [`reference_greedy`]: per round it prices every upgrade with
//! `Molecule::union_determinant` against the partial target Molecule and
//! takes the first strictly greater ratio, in `(demand, molecule)` order.
//!
//! Libraries are random and span [`Molecule::INLINE_WIDTH`], so both the
//! inline and the heap `Counts` storage are exercised. The generators
//! also produce zero weights, zero capacity, duplicate demands, all-zero
//! (free) Molecules and twin SIs with identical Molecules, which makes
//! ratio ties common. Target, chosen list (order included) and Molecule
//! indices must match exactly.

use proptest::prelude::*;
use rispp_core::molecule::Molecule;
use rispp_core::selection::{
    select_molecules, select_molecules_into, ChosenMolecule, MoleculeSelection, SelectionContext,
};
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};

/// The greedy loop as it stood before the flat kernel: `Molecule`
/// target, `union_determinant` pricing, dense per-demand choice slots.
fn reference_greedy(lib: &SiLibrary, demands: &[(SiId, f64)], capacity: u32) -> MoleculeSelection {
    let mut target = Molecule::zero(lib.width());
    let mut current: Vec<u64> = demands
        .iter()
        .map(|&(si, _)| lib.get(si).sw_cycles())
        .collect();
    let mut chosen: Vec<Option<ChosenMolecule>> = vec![None; demands.len()];
    loop {
        let target_det = target.determinant();
        let mut best: Option<(usize, usize, f64)> = None;
        for (d, &(si, weight)) in demands.iter().enumerate() {
            if weight == 0.0 {
                continue;
            }
            for (mi, m) in lib.get(si).molecules().iter().enumerate() {
                if m.cycles >= current[d] {
                    continue;
                }
                let union_det = target.union_determinant(&m.molecule).unwrap();
                if union_det > capacity {
                    continue;
                }
                let cost = u64::from(union_det - target_det);
                let gain = weight * (current[d] - m.cycles) as f64;
                let ratio = if cost == 0 {
                    f64::INFINITY
                } else {
                    gain / cost as f64
                };
                if best.is_none_or(|(_, _, r)| ratio > r) {
                    best = Some((d, mi, ratio));
                }
            }
        }
        let Some((d, mi, ratio)) = best else { break };
        if ratio <= 0.0 {
            break;
        }
        let (si, _) = demands[d];
        let m = &lib.get(si).molecules()[mi];
        target.union_in_place(&m.molecule).unwrap();
        current[d] = m.cycles;
        chosen[d] = Some(ChosenMolecule {
            si,
            molecule_index: mi,
            cycles: m.cycles,
            molecule: m.molecule.clone(),
        });
    }
    MoleculeSelection {
        target,
        chosen: chosen.into_iter().flatten().collect(),
    }
}

/// One SI of the given width: 1–4 Molecules with small counts (all-zero
/// ones included) and latencies that collide often; software may even be
/// faster than some hardware Molecules.
fn si(width: usize) -> impl Strategy<Value = SpecialInstruction> {
    (
        proptest::collection::vec((proptest::collection::vec(0u32..3, width), 1u64..12), 1..5),
        1u64..16,
    )
        .prop_map(|(mols, sw)| {
            SpecialInstruction::new(
                "si",
                sw,
                mols.into_iter()
                    .map(|(counts, cycles)| {
                        MoleculeImpl::new(Molecule::from_counts(counts), cycles)
                    })
                    .collect(),
            )
            .expect("non-empty, non-zero cycles")
        })
}

/// A library of width 1–12 with 1–6 SIs; an SI flagged as a twin copies
/// its predecessor, so equal-ratio candidates appear in different demand
/// slots.
fn library() -> impl Strategy<Value = SiLibrary> {
    (1usize..13).prop_flat_map(|width| {
        proptest::collection::vec((si(width), any::<bool>()), 1..7).prop_map(move |sis| {
            let mut lib = SiLibrary::new(width);
            let mut previous: Option<SpecialInstruction> = None;
            for (si, twin) in sis {
                let si = match (&previous, twin) {
                    (Some(p), true) => p.clone(),
                    _ => si,
                };
                lib.insert(si.clone()).expect("one width");
                previous = Some(si);
            }
            lib
        })
    })
}

/// Weights from a small set, so ties between demands are frequent.
const WEIGHTS: [f64; 6] = [0.0, 0.5, 1.0, 1.0, 2.0, 3.0];

/// A library plus up to 8 demands on it (duplicates allowed) and a
/// capacity from 0 to 24.
fn instance() -> impl Strategy<Value = (SiLibrary, Vec<(SiId, f64)>, u32)> {
    (
        library(),
        proptest::collection::vec((0usize..64, 0usize..WEIGHTS.len()), 0..9),
        0u32..25,
    )
        .prop_map(|(lib, raw, capacity)| {
            let demands = raw
                .into_iter()
                .map(|(si, w)| (SiId(si % lib.len()), WEIGHTS[w]))
                .collect();
            (lib, demands, capacity)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The fresh-buffer entry point matches the reference loop.
    #[test]
    fn flat_kernel_matches_the_molecule_loop((lib, demands, capacity) in instance()) {
        let expected = reference_greedy(&lib, &demands, capacity);
        let got = select_molecules(&lib, &demands, capacity);
        prop_assert_eq!(&got.target, &expected.target);
        prop_assert_eq!(&got.chosen, &expected.chosen);
        let indices: Vec<usize> = got.chosen.iter().map(|c| c.molecule_index).collect();
        let expected_indices: Vec<usize> =
            expected.chosen.iter().map(|c| c.molecule_index).collect();
        prop_assert_eq!(indices, expected_indices);
    }

    /// Reused context and output buffers carry nothing over: a sequence
    /// of instances of differing widths, demand counts and capacities
    /// decides each instance exactly as the reference does.
    #[test]
    fn reused_buffers_stay_decision_identical(
        instances in proptest::collection::vec(instance(), 1..6),
    ) {
        let mut ctx = SelectionContext::new();
        let mut out = MoleculeSelection::default();
        for (lib, demands, capacity) in &instances {
            select_molecules_into(&mut ctx, lib, demands, *capacity, &mut out);
            let expected = reference_greedy(lib, demands, *capacity);
            prop_assert_eq!(&out, &expected);
        }
    }
}

#[test]
fn ratio_ties_go_to_the_first_candidate_in_demand_order() {
    // Two SIs on a heap-width platform whose Molecules need one Atom of
    // different kinds and save the same cycles: with equal weights their
    // ratios tie, and with room for one Atom only the earlier demand slot
    // may win.
    let mut lib = SiLibrary::new(10);
    let one_atom = |kind: usize| {
        let counts = (0..10).map(move |k| u32::from(k == kind));
        SpecialInstruction::new(
            "tie",
            100,
            vec![MoleculeImpl::new(Molecule::from_counts(counts), 10)],
        )
        .unwrap()
    };
    let a = lib.insert(one_atom(0)).unwrap();
    let b = lib.insert(one_atom(9)).unwrap();
    for demands in [[(a, 1.0), (b, 1.0)], [(b, 1.0), (a, 1.0)]] {
        for capacity in [0, 1, 2] {
            let got = select_molecules(&lib, &demands, capacity);
            assert_eq!(got, reference_greedy(&lib, &demands, capacity));
        }
        let got = select_molecules(&lib, &demands, 1);
        let winners: Vec<SiId> = got.chosen.iter().map(|c| c.si).collect();
        assert_eq!(winners, vec![demands[0].0]);
    }
}
