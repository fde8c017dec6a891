//! Atom-Container replacement policies.
//!
//! When the run-time manager needs to rotate a new Atom in, it must pick a
//! victim container. The paper's scenario (Fig. 6) reallocates containers
//! whose Atoms the current selection no longer needs; among those, the
//! least-recently-used Atom goes first.

use rispp_core::molecule::Molecule;
use rispp_fabric::container::ContainerId;
use rispp_fabric::fabric::Fabric;

/// Strategy for choosing the container a new Atom is rotated into.
pub trait ReplacementPolicy {
    /// Picks a victim container for a new Atom, given the Meta-Molecule
    /// `keep` of Atoms that must stay available. Containers with pending
    /// rotations are never eligible. Returns `None` when every container
    /// is either pending or protected.
    fn choose_victim(&self, fabric: &Fabric, keep: &Molecule) -> Option<ContainerId>;
}

/// Default policy: empty containers first, then loaded containers whose
/// Atom kind has surplus instances relative to `keep`, least-recently-used
/// first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruSurplusPolicy;

impl LruSurplusPolicy {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        LruSurplusPolicy
    }
}

impl ReplacementPolicy for LruSurplusPolicy {
    /// One scan in container order: the first eligible empty container
    /// wins outright; otherwise the least-recently-used eligible container
    /// whose kind is loaded in surplus of `keep` (lowest id on ties).
    fn choose_victim(&self, fabric: &Fabric, keep: &Molecule) -> Option<ContainerId> {
        let loaded = fabric.loaded_molecule();
        let mut lru: Option<(u64, ContainerId)> = None;
        for (id, c) in fabric.iter_containers() {
            // Loading containers and those with a queued-but-unstarted
            // rotation are ineligible: a new Atom is already on the way.
            if c.is_loading() || fabric.pending_rotations().any(|(p, _)| p == id) {
                continue;
            }
            match c.loaded_kind() {
                // Empty containers are free wins. Quarantined containers
                // also report no loaded Atom, but rotating into them is
                // pointless — they reject every request.
                None if !c.is_quarantined() => return Some(id),
                None => {}
                // Surplus: more instances loaded than `keep` requires.
                Some(kind)
                    if loaded.count(kind) > keep.count(kind)
                        && lru.is_none_or(|(used, _)| c.last_used() < used) =>
                {
                    lru = Some((c.last_used(), id));
                }
                Some(_) => {}
            }
        }
        lru.map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::{AtomKind, AtomSet};
    use rispp_fabric::catalog::{table1_profiles, AtomCatalog};

    fn fabric(containers: usize) -> Fabric {
        let atoms = AtomSet::from_names(["Transform", "SATD", "Pack", "QuadSub"]);
        Fabric::new(
            atoms,
            AtomCatalog::new(table1_profiles().to_vec()),
            containers,
        )
    }

    fn load(fabric: &mut Fabric, id: usize, kind: usize) {
        fabric
            .request_rotation(ContainerId(id), AtomKind(kind))
            .unwrap();
        let t = fabric.next_completion().unwrap();
        fabric.advance_to(t).unwrap();
    }

    #[test]
    fn prefers_empty_containers() {
        let mut f = fabric(3);
        load(&mut f, 0, 0);
        let keep = Molecule::zero(4);
        let victim = LruSurplusPolicy.choose_victim(&f, &keep).unwrap();
        assert_ne!(victim, ContainerId(0)); // 0 holds an atom; 1/2 empty
    }

    #[test]
    fn protects_kept_atoms() {
        let mut f = fabric(2);
        load(&mut f, 0, 0);
        load(&mut f, 1, 1);
        // Keep requires one Transform (kind 0): only container 1 (SATD)
        // has surplus.
        let keep = Molecule::from_counts([1, 0, 0, 0]);
        assert_eq!(
            LruSurplusPolicy.choose_victim(&f, &keep),
            Some(ContainerId(1))
        );
    }

    #[test]
    fn evicts_least_recently_used_surplus() {
        let mut f = fabric(2);
        load(&mut f, 0, 0);
        load(&mut f, 1, 0);
        let t = f.now();
        f.advance_to(t + 10).unwrap();
        // Touch kind 0 once: the first matching container gets the newer
        // stamp, so container 1 is the LRU victim.
        f.touch_atoms(&Molecule::from_counts([1, 0, 0, 0]));
        let keep = Molecule::from_counts([1, 0, 0, 0]); // one surplus Transform
        assert_eq!(
            LruSurplusPolicy.choose_victim(&f, &keep),
            Some(ContainerId(1))
        );
    }

    #[test]
    fn returns_none_when_everything_protected() {
        let mut f = fabric(2);
        load(&mut f, 0, 0);
        load(&mut f, 1, 1);
        let keep = Molecule::from_counts([1, 1, 0, 0]);
        assert_eq!(LruSurplusPolicy.choose_victim(&f, &keep), None);
    }

    #[test]
    fn never_picks_quarantined_containers() {
        use rispp_fabric::FaultPlan;
        let mut f = fabric(3).with_faults(FaultPlan {
            bad_containers: vec![ContainerId(1)],
            ..FaultPlan::default()
        });
        // The first rotation into the bad container quarantines it.
        f.request_rotation(ContainerId(1), AtomKind(0)).unwrap();
        let t = f.next_completion().unwrap();
        f.advance_to(t).unwrap();
        assert!(f.container(ContainerId(1)).is_quarantined());
        load(&mut f, 0, 0);
        load(&mut f, 2, 1);
        // Only the surplus SATD in AC2 is evictable — never AC1, even
        // though it reports no loaded Atom.
        let keep = Molecule::from_counts([1, 0, 0, 0]);
        assert_eq!(
            LruSurplusPolicy.choose_victim(&f, &keep),
            Some(ContainerId(2))
        );
        // With every healthy Atom protected there is no victim at all.
        let keep_all = Molecule::from_counts([1, 1, 0, 0]);
        assert_eq!(LruSurplusPolicy.choose_victim(&f, &keep_all), None);
    }

    #[test]
    fn skips_loading_containers() {
        let mut f = fabric(2);
        load(&mut f, 0, 0);
        f.request_rotation(ContainerId(1), AtomKind(2)).unwrap(); // in flight
        let keep = Molecule::zero(4);
        // Only container 0 is eligible (1 is loading).
        assert_eq!(
            LruSurplusPolicy.choose_victim(&f, &keep),
            Some(ContainerId(0))
        );
    }
}
