//! Selection stage: demand weighting and Molecule selection as a pure
//! decision step.
//!
//! This module turns the active forecasts into the paper's run-time task
//! (b), "Selecting Molecules considering the demands of all tasks":
//!
//! 1. [`weigh_demands`] aggregates a benefit weight per SI over all
//!    demanding tasks, under the current adaptation goal ([`PowerMode`]);
//! 2. a [`SelectionPolicy`] maps `(library, weights, capacity)` to a
//!    [`MoleculeSelection`] — the greedy profit heuristic of the paper by
//!    default, the exhaustive oracle for validation;
//! 3. [`SelectionStage`] holds the policy, the mode and the last
//!    selection, so the shell can ask "what is the current target?"
//!    without re-deriving it.
//!
//! Nothing in this module touches the fabric or emits events: given the
//! same inputs, every function returns the same outputs.

pub use rispp_core::selection::{
    select_molecules, select_molecules_exhaustive, select_molecules_into, MoleculeSelection,
    SelectionContext,
};
use rispp_core::si::{SiId, SiLibrary};
use rispp_fabric::catalog::AtomCatalog;

use crate::forecast::ForecastStore;
use crate::rotation::{RotationPlan, RotationSchedulePolicy};
use crate::TaskId;

/// Adaptation goal of the run-time system (the paper's §1 motivation
/// "change in design constraints (system runs out of energy, for
/// example)").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PowerMode {
    /// Maximise speed-up: demands are weighted by expected cycle savings.
    #[default]
    Performance,
    /// Save energy: an SI only earns hardware when its expected execution
    /// count amortises the rotation energy under the given
    /// [`EnergyModel`](rispp_core::energy::EnergyModel) with trade-off
    /// factor α; demand weights become expected energy savings.
    EnergySaving {
        /// The energy model used for amortisation checks.
        model: rispp_core::energy::EnergyModel,
        /// The α trade-off factor of §4.1 (α > 1 = stricter).
        alpha: f64,
    },
}

/// How Molecules are selected from the weighted demands.
///
/// Mirrors [`ReplacementPolicy`](crate::policy::ReplacementPolicy): a
/// small strategy trait with static dispatch, so swapping the selector
/// changes the manager's type parameter instead of adding a branch to the
/// hot path.
pub trait SelectionPolicy {
    /// Chooses hardware Molecules for the weighted `demands` under the
    /// Atom-Container budget `capacity`, overwriting `out`. `ctx` holds
    /// the kernel's reusable scratch buffers; policies that cannot use it
    /// ignore it — results must be identical either way.
    fn select_into(
        &self,
        ctx: &mut SelectionContext,
        lib: &SiLibrary,
        demands: &[(SiId, f64)],
        capacity: u32,
        out: &mut MoleculeSelection,
    );

    /// [`select_into`](Self::select_into) a fresh selection with fresh
    /// scratch.
    fn select(&self, lib: &SiLibrary, demands: &[(SiId, f64)], capacity: u32) -> MoleculeSelection {
        let mut out = MoleculeSelection::default();
        self.select_into(
            &mut SelectionContext::default(),
            lib,
            demands,
            capacity,
            &mut out,
        );
        out
    }
}

/// The paper's greedy profit-driven selection
/// ([`select_molecules`]) — the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedySelection;

impl SelectionPolicy for GreedySelection {
    fn select_into(
        &self,
        ctx: &mut SelectionContext,
        lib: &SiLibrary,
        demands: &[(SiId, f64)],
        capacity: u32,
        out: &mut MoleculeSelection,
    ) {
        select_molecules_into(ctx, lib, demands, capacity, out);
    }
}

/// The exhaustive oracle ([`select_molecules_exhaustive`]) — exponential
/// in the number of demands; for validation runs only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhaustiveSelection;

impl SelectionPolicy for ExhaustiveSelection {
    fn select_into(
        &self,
        _ctx: &mut SelectionContext,
        lib: &SiLibrary,
        demands: &[(SiId, f64)],
        capacity: u32,
        out: &mut MoleculeSelection,
    ) {
        *out = select_molecules_exhaustive(lib, demands, capacity);
    }
}

/// Aggregated benefit weight and owning task per demanded SI, kept as a
/// flat `(si index, weight, owner)` list in ascending SI order — a
/// representation the hot reselect path can refill in place without any
/// per-call node allocation.
///
/// The owner is the first (lowest-id) task that demanded the SI; rotations
/// requested on its behalf are attributed to that task in the event
/// stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DemandWeights(Vec<(usize, f64, TaskId)>);

impl DemandWeights {
    fn get(&self, si: SiId) -> Option<&(usize, f64, TaskId)> {
        self.0
            .binary_search_by_key(&si.index(), |&(i, _, _)| i)
            .ok()
            .map(|at| &self.0[at])
    }

    /// Aggregated weight of `si` (0 when undemanded).
    #[must_use]
    pub fn weight_of(&self, si: SiId) -> f64 {
        self.get(si).map_or(0.0, |&(_, w, _)| w)
    }

    /// Owning task of `si`, `None` when undemanded.
    #[must_use]
    pub fn owner_of(&self, si: SiId) -> Option<TaskId> {
        self.get(si).map(|&(_, _, t)| t)
    }

    /// The weights as the `(si, weight)` demand list the selection
    /// algorithms consume, in ascending SI order.
    #[must_use]
    pub fn as_demands(&self) -> Vec<(SiId, f64)> {
        self.0.iter().map(|&(si, w, _)| (SiId(si), w)).collect()
    }

    /// All `(si, weight, owner)` triples in ascending SI order.
    pub fn iter(&self) -> impl Iterator<Item = (SiId, f64, TaskId)> + '_ {
        self.0.iter().map(|&(si, w, t)| (SiId(si), w, t))
    }
}

/// Bitstream bytes needed to load an SI's minimal Molecule — the
/// energy-rotation cost a forecast must amortise before the SI earns
/// hardware in [`PowerMode::EnergySaving`].
#[must_use]
pub fn minimal_rotation_bytes(lib: &SiLibrary, catalog: &AtomCatalog, si: SiId) -> u64 {
    lib.get(si)
        .minimal()
        .molecule
        .iter_nonzero()
        .map(|(kind, count)| u64::from(count) * catalog.profile(kind).bitstream_bytes)
        .sum()
}

/// Aggregates a benefit weight per SI over all demanding tasks, under the
/// adaptation goal `mode`.
///
/// In [`PowerMode::Performance`] a demand's weight is its expected cycle
/// saving; in [`PowerMode::EnergySaving`] it becomes the expected energy
/// saving in nanojoules, zeroed when the expected executions do not
/// amortise the rotation transfer (§4.1's offset).
#[must_use]
pub fn weigh_demands(
    lib: &SiLibrary,
    catalog: &AtomCatalog,
    mode: PowerMode,
    demands: &ForecastStore,
) -> DemandWeights {
    let mut acc = Vec::new();
    let mut out = DemandWeights::default();
    weigh_demands_into(lib, catalog, mode, demands, &mut acc, &mut out);
    out
}

/// [`weigh_demands`] into caller-owned buffers: `acc` is a dense
/// per-SI accumulator (resized to the library width), `out` is refilled
/// in place. The hot reselect path reuses both across calls, so steady
/// state weighs without allocating.
///
/// Benefits accumulate per SI in forecast-store iteration order and the
/// first demanding task owns the SI — bit-identical to summing into a
/// map keyed by SI index.
pub fn weigh_demands_into(
    lib: &SiLibrary,
    catalog: &AtomCatalog,
    mode: PowerMode,
    demands: &ForecastStore,
    acc: &mut Vec<(f64, TaskId, bool)>,
    out: &mut DemandWeights,
) {
    acc.clear();
    acc.resize(lib.len(), (0.0, 0, false));
    for (task, si, fv) in demands.iter() {
        let def = lib.get(si);
        let benefit = match mode {
            PowerMode::Performance => {
                fv.expected_benefit(def.sw_cycles() as f64, def.fastest().cycles as f64)
            }
            PowerMode::EnergySaving { model, alpha } => {
                // Rotation only pays when the expected executions
                // amortise its transfer energy (§4.1's offset).
                let bytes = minimal_rotation_bytes(lib, catalog, si);
                let needed = model.amortisation_executions(def, bytes, alpha);
                let expected = fv.probability * fv.expected_executions;
                if expected < needed {
                    0.0
                } else {
                    expected * model.per_execution_saving_j(def) * 1e9 // nJ
                }
            }
        };
        let slot = &mut acc[si.index()];
        if !slot.2 {
            slot.1 = task;
            slot.2 = true;
        }
        slot.0 += benefit;
    }
    out.0.clear();
    out.0.extend(
        acc.iter()
            .enumerate()
            .filter(|(_, &(_, _, demanded))| demanded)
            .map(|(si, &(w, t, _))| (si, w, t)),
    );
}

/// The selection stage: policy + adaptation goal + the last selection and
/// its rotation plan, plus a **revision fingerprint** `(forecast revision,
/// capacity)` of the last re-selection. When the fingerprint is unchanged,
/// no input of the decision moved, so the previous selection, weights and
/// plan are reused without re-weighing.
///
/// The fingerprint is *provably* decision-identical: every input of the
/// selection that it does not cover — the committed fabric, failed or
/// dead containers, the power mode — drops it through
/// [`invalidate`](SelectionStage::invalidate). Invalidation therefore only
/// ever costs speed, never correctness.
#[derive(Debug, Clone)]
pub struct SelectionStage<S = GreedySelection> {
    policy: S,
    power_mode: PowerMode,
    selection: MoleculeSelection,
    reselects: u64,
    cache_enabled: bool,
    ctx: SelectionContext,
    /// Dense per-SI accumulator reused by every weigh pass.
    weigh_acc: Vec<(f64, TaskId, bool)>,
    /// `(si, weight)` list handed to the selection policy, reused.
    demand_scratch: Vec<(SiId, f64)>,
    last_weights: DemandWeights,
    /// Rotation plan of the current selection, refilled in place.
    plan: RotationPlan,
    last_fingerprint: Option<(u64, u32)>,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
}

impl<S: SelectionPolicy> SelectionStage<S> {
    /// Creates the stage with an empty selection and the cache enabled.
    #[must_use]
    pub fn new(policy: S, power_mode: PowerMode) -> Self {
        SelectionStage {
            policy,
            power_mode,
            selection: MoleculeSelection::default(),
            reselects: 0,
            cache_enabled: true,
            ctx: SelectionContext::default(),
            weigh_acc: Vec::new(),
            demand_scratch: Vec::new(),
            last_weights: DemandWeights::default(),
            plan: RotationPlan::default(),
            last_fingerprint: None,
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations: 0,
        }
    }

    /// Enables or disables the fingerprint (builder-style). Disabled, the
    /// stage is the from-scratch oracle the cached kernel is validated
    /// against.
    #[must_use]
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self.last_fingerprint = None;
        self
    }

    /// The selection currently in force.
    #[must_use]
    pub fn selection(&self) -> &MoleculeSelection {
        &self.selection
    }

    /// The adaptation goal currently in force.
    #[must_use]
    pub fn power_mode(&self) -> PowerMode {
        self.power_mode
    }

    /// Switches the adaptation goal. The caller decides whether that
    /// warrants a re-selection (it does, at run time). Invalidates the
    /// fingerprint: weights are mode-dependent.
    pub fn set_power_mode(&mut self, mode: PowerMode) {
        self.power_mode = mode;
        self.invalidate();
    }

    /// Number of selection re-evaluations so far — every FC event invokes
    /// one, which is exactly why the compile-time pass trims FC
    /// candidates ("every FC invokes the run-time system to
    /// re-evaluate").
    #[must_use]
    pub fn reselects(&self) -> u64 {
        self.reselects
    }

    /// `(hits, misses, invalidations)` of the fingerprint.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (self.cache_hits, self.cache_misses, self.cache_invalidations)
    }

    /// The weights that drove the last re-selection (cached or fresh).
    #[must_use]
    pub fn last_weights(&self) -> &DemandWeights {
        &self.last_weights
    }

    /// The rotation plan of the current selection, as last computed by
    /// [`replan`](Self::replan).
    #[must_use]
    pub fn last_plan(&self) -> &RotationPlan {
        &self.plan
    }

    /// The rotation plan, mutably: the manager moves it out with
    /// [`std::mem::take`] while it applies the plan to the fabric, then
    /// puts it back so its buffers are reused by the next
    /// [`replan`](Self::replan).
    pub(crate) fn plan_mut(&mut self) -> &mut RotationPlan {
        &mut self.plan
    }

    /// Drops the revision fingerprint.
    ///
    /// Called when state *outside* the fingerprint changes — the committed
    /// fabric moved, a container died, the power mode switched. Counted
    /// only when a fingerprint was held: dropping nothing carries no
    /// information.
    pub fn invalidate(&mut self) {
        if self.last_fingerprint.take().is_some() {
            self.cache_invalidations += 1;
        }
    }

    /// Re-evaluates the selection from the active demands under the
    /// Atom-Container budget `capacity`, and returns whether the
    /// fingerprint hit.
    ///
    /// On a hit — `(demands.revision(), capacity)` matches the previous
    /// call — the previous selection, weights and plan stay in force
    /// without touching the library. On a miss the demands are re-weighed
    /// and the selection policy refills the selection in place; the
    /// caller then plans rotations for it with [`replan`](Self::replan).
    pub fn reselect(
        &mut self,
        lib: &SiLibrary,
        catalog: &AtomCatalog,
        demands: &ForecastStore,
        capacity: u32,
    ) -> bool {
        self.reselects += 1;
        let fingerprint = (demands.revision(), capacity);
        if self.last_fingerprint == Some(fingerprint) {
            self.cache_hits += 1;
            return true;
        }
        self.cache_misses += 1;
        weigh_demands_into(
            lib,
            catalog,
            self.power_mode,
            demands,
            &mut self.weigh_acc,
            &mut self.last_weights,
        );
        self.demand_scratch.clear();
        self.demand_scratch
            .extend(self.last_weights.iter().map(|(si, w, _)| (si, w)));
        self.policy.select_into(
            &mut self.ctx,
            lib,
            &self.demand_scratch,
            capacity,
            &mut self.selection,
        );
        self.last_fingerprint = self.cache_enabled.then_some(fingerprint);
        false
    }

    /// Plans the rotations of the current selection with `scheduler`,
    /// refilling the stored plan in place — the plan a later fingerprint
    /// hit keeps in force.
    pub fn replan<R: RotationSchedulePolicy>(&mut self, scheduler: &R, lib: &SiLibrary) {
        scheduler.plan_into(lib, &self.selection, &self.last_weights, &mut self.plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation::RotationStrategy;
    use rispp_core::forecast::ForecastValue;
    use rispp_core::molecule::Molecule;
    use rispp_core::si::{MoleculeImpl, SpecialInstruction};
    use rispp_fabric::catalog::AtomHwProfile;

    fn platform() -> (SiLibrary, AtomCatalog, SiId, SiId) {
        let catalog = AtomCatalog::new(vec![
            AtomHwProfile::new("A", 100, 200, 6_920),
            AtomHwProfile::new("B", 100, 200, 6_920),
        ]);
        let mut lib = SiLibrary::new(2);
        let s0 = lib
            .insert(
                SpecialInstruction::new(
                    "S0",
                    500,
                    vec![
                        MoleculeImpl::new(Molecule::from_counts([1, 1]), 20),
                        MoleculeImpl::new(Molecule::from_counts([2, 1]), 10),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let s1 = lib
            .insert(
                SpecialInstruction::new(
                    "S1",
                    400,
                    vec![MoleculeImpl::new(Molecule::from_counts([0, 2]), 15)],
                )
                .unwrap(),
            )
            .unwrap();
        (lib, catalog, s0, s1)
    }

    fn fv(si: SiId, execs: f64) -> ForecastValue {
        ForecastValue::new(si, 1.0, 50_000.0, execs)
    }

    #[test]
    fn weights_aggregate_over_tasks_and_keep_first_owner() {
        let (lib, catalog, s0, _) = platform();
        let mut store = ForecastStore::new(0.25);
        store.insert(3, fv(s0, 10.0));
        store.insert(1, fv(s0, 10.0));
        let w = weigh_demands(&lib, &catalog, PowerMode::Performance, &store);
        // 2 tasks × 10 executions × (500 − 10) cycles saved.
        assert!((w.weight_of(s0) - 2.0 * 10.0 * 490.0).abs() < 1e-9);
        // Iteration is (task, si)-ascending, so task 1 owns the SI.
        assert_eq!(w.owner_of(s0), Some(1));
        assert_eq!(w.owner_of(SiId(1)), None);
        assert_eq!(w.weight_of(SiId(1)), 0.0);
    }

    #[test]
    fn energy_mode_zeroes_unamortised_demands() {
        use rispp_core::energy::EnergyModel;
        let (lib, catalog, s0, _) = platform();
        let mode = PowerMode::EnergySaving {
            model: EnergyModel::default(),
            alpha: 1.0,
        };
        let mut few = ForecastStore::new(0.25);
        few.insert(0, fv(s0, 3.0));
        assert_eq!(weigh_demands(&lib, &catalog, mode, &few).weight_of(s0), 0.0);
        let mut many = ForecastStore::new(0.25);
        many.insert(0, fv(s0, 100_000.0));
        assert!(weigh_demands(&lib, &catalog, mode, &many).weight_of(s0) > 0.0);
    }

    #[test]
    fn stage_tracks_selection_and_reselects() {
        let (lib, catalog, s0, s1) = platform();
        let mut stage = SelectionStage::new(GreedySelection, PowerMode::default());
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(s0, 100.0));
        store.insert(1, fv(s1, 1.0));
        assert!(!stage.reselect(&lib, &catalog, &store, 3));
        assert_eq!(stage.reselects(), 1);
        let w = stage.last_weights();
        assert!(w.weight_of(s0) > w.weight_of(s1));
        // S0 dominates: the target covers its fast Molecule.
        assert!(Molecule::from_counts([2, 1]).le(&stage.selection().target));
    }

    #[test]
    fn greedy_and_exhaustive_agree_on_the_small_platform() {
        let (lib, catalog, s0, s1) = platform();
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(s0, 50.0));
        store.insert(1, fv(s1, 50.0));
        let w = weigh_demands(&lib, &catalog, PowerMode::Performance, &store);
        let greedy = GreedySelection.select(&lib, &w.as_demands(), 3);
        let exhaustive = ExhaustiveSelection.select(&lib, &w.as_demands(), 3);
        assert_eq!(greedy.target, exhaustive.target);
    }

    #[test]
    fn fingerprint_hits_only_on_an_unchanged_store() {
        let (lib, catalog, s0, s1) = platform();
        let mut stage = SelectionStage::new(GreedySelection, PowerMode::default());
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(s0, 100.0));
        store.insert(1, fv(s1, 1.0));

        // First reselect: miss; complete it with a plan.
        assert!(!stage.reselect(&lib, &catalog, &store, 3));
        let fresh = stage.selection().clone();
        stage.replan(&RotationStrategy::default(), &lib);
        let plan = stage.last_plan().clone();

        // Unchanged store: hit, and the selection and its plan stay in
        // force.
        assert!(stage.reselect(&lib, &catalog, &store, 3));
        assert_eq!(stage.selection(), &fresh);
        assert_eq!(stage.last_plan(), &plan);

        // Retract-then-restore bumps the revision twice: the restored
        // state misses, yet recomputes the identical selection.
        store.retract(1, s1);
        assert!(!stage.reselect(&lib, &catalog, &store, 3));
        stage.replan(&RotationStrategy::default(), &lib);
        store.insert(1, fv(s1, 1.0));
        assert!(!stage.reselect(&lib, &catalog, &store, 3));
        assert_eq!(stage.selection(), &fresh);
        assert_eq!(stage.cache_stats(), (1, 3, 0));

        // Invalidation forces a recompute of the same decision.
        stage.invalidate();
        assert_eq!(stage.cache_stats().2, 1);
        // Invalidating without a held fingerprint is not counted.
        stage.invalidate();
        assert_eq!(stage.cache_stats().2, 1);
        assert!(!stage.reselect(&lib, &catalog, &store, 3));
        assert_eq!(stage.selection(), &fresh);
        assert_eq!(stage.cache_stats(), (1, 4, 1));
    }

    #[test]
    fn disabled_cache_always_misses() {
        let (lib, catalog, s0, _) = platform();
        let mut stage =
            SelectionStage::new(GreedySelection, PowerMode::default()).with_cache(false);
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(s0, 100.0));
        for _ in 0..3 {
            assert!(!stage.reselect(&lib, &catalog, &store, 3));
            stage.replan(&RotationStrategy::default(), &lib);
        }
        assert_eq!(stage.cache_stats(), (0, 3, 0));
        // A disabled cache holds no fingerprint, so invalidating it is an
        // uncounted no-op.
        stage.invalidate();
        assert_eq!(stage.cache_stats(), (0, 3, 0));
    }

    #[test]
    fn power_mode_switch_drops_the_fingerprint() {
        use rispp_core::energy::EnergyModel;
        let (lib, catalog, s0, _) = platform();
        let mut stage = SelectionStage::new(GreedySelection, PowerMode::default());
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(s0, 3.0));
        assert!(!stage.reselect(&lib, &catalog, &store, 3));
        stage.replan(&RotationStrategy::default(), &lib);
        stage.set_power_mode(PowerMode::EnergySaving {
            model: EnergyModel::default(),
            alpha: 1.0,
        });
        assert_eq!(stage.cache_stats().2, 1);
        // Same store and capacity: must still miss and re-weigh under the
        // new goal.
        assert!(!stage.reselect(&lib, &catalog, &store, 3));
        assert!(stage.last_weights().weight_of(s0).abs() < f64::EPSILON);
    }

    #[test]
    fn minimal_rotation_bytes_counts_the_minimal_molecule() {
        let (lib, catalog, s0, s1) = platform();
        // S0 minimal (1,1): two atoms; S1 minimal (0,2): two atoms.
        assert_eq!(minimal_rotation_bytes(&lib, &catalog, s0), 2 * 6_920);
        assert_eq!(minimal_rotation_bytes(&lib, &catalog, s1), 2 * 6_920);
    }
}
