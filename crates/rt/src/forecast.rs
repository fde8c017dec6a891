//! Forecast stage: the store of active per-task demands and their online
//! fine-tuning (the paper's run-time task (a), "Monitoring FCs and SIs in
//! order to fine-tune the profiling information").
//!
//! The [`ForecastStore`] is a pure value: it holds the forecasts announced
//! by FC instrumentation, keyed by `(task, si)`, and folds observed
//! outcomes into them with exponential smoothing. It never touches the
//! fabric, never emits events and never triggers selection — the
//! imperative shell ([`RisppManager`](crate::manager::RisppManager))
//! decides *when* a change warrants a re-selection; this stage only
//! answers *what* the current demands are.

use rispp_core::forecast::ForecastValue;
use rispp_core::si::SiId;

use crate::TaskId;

/// Active forecasts of all tasks, with the smoothing factor used to
/// fine-tune them from run-time observation.
///
/// Iteration order is deterministic: ascending `(task, si)`. Downstream
/// weighting depends on this — the first (lowest-id) task demanding an SI
/// becomes the owner recorded for its rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastStore {
    /// Active forecasts, sorted by their `(task, si)` key. Inserts and
    /// retracts shift in place, so once the vector has grown to the
    /// high-water mark of concurrent demands no call allocates.
    demands: Vec<((TaskId, usize), ForecastValue)>,
    /// Smoothing factor λ ∈ [0, 1] for online forecast fine-tuning
    /// (weight of each new observation).
    lambda: f64,
    /// Bumped on every *observable* change of the demand set — an insert
    /// that actually changes a value, a retract that actually removes one,
    /// an observation that moves a forecast. Two equal revisions of one
    /// store guarantee equal demand contents, which is what lets the
    /// selection stage skip re-weighing entirely when nothing changed.
    revision: u64,
}

impl ForecastStore {
    /// Creates an empty store with smoothing factor `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda ∈ [0, 1]`.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        ForecastStore {
            demands: Vec::new(),
            lambda,
            revision: 0,
        }
    }

    /// Monotonic change counter: equal revisions imply equal demand
    /// contents (the converse does not hold — a retracted-then-restored
    /// demand bumps the revision twice). No-op mutations (retracting an
    /// absent demand, re-inserting an identical forecast, observing an
    /// untracked pair) leave the revision untouched, which is exactly the
    /// delta that "provably cannot change the winner".
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The smoothing factor λ.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Number of active `(task, si)` demands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// `true` when no demand is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Position of `key` in the sorted demand vector, or where it would
    /// be inserted.
    fn find(&self, key: (TaskId, usize)) -> Result<usize, usize> {
        self.demands.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Stores (or replaces) `task`'s forecast for `value.si`.
    pub fn insert(&mut self, task: TaskId, value: ForecastValue) {
        match self.find((task, value.si.index())) {
            Ok(at) => {
                if self.demands[at].1 != value {
                    self.revision = self.revision.wrapping_add(1);
                }
                self.demands[at].1 = value;
            }
            Err(at) => {
                self.revision = self.revision.wrapping_add(1);
                self.demands.insert(at, ((task, value.si.index()), value));
            }
        }
    }

    /// Drops `task`'s forecast for `si` (a negative FC). Returns the
    /// retracted value, `None` when no such demand was active.
    pub fn retract(&mut self, task: TaskId, si: SiId) -> Option<ForecastValue> {
        let at = self.find((task, si.index())).ok()?;
        self.revision = self.revision.wrapping_add(1);
        Some(self.demands.remove(at).1)
    }

    /// Fine-tunes `task`'s stored forecast for `si` with one observed
    /// outcome (exponential smoothing with factor λ). A no-op when the
    /// demand is not active — monitoring an SI the store no longer tracks
    /// carries no information worth keeping.
    pub fn observe(
        &mut self,
        task: TaskId,
        si: SiId,
        reached: bool,
        observed_distance: f64,
        observed_executions: f64,
    ) {
        let lambda = self.lambda;
        if let Ok(at) = self.find((task, si.index())) {
            let fv = &mut self.demands[at].1;
            let before = fv.clone();
            fv.observe(lambda, reached, observed_distance, observed_executions);
            if *fv != before {
                self.revision = self.revision.wrapping_add(1);
            }
        }
    }

    /// All active demands in ascending `(task, si)` order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, SiId, &ForecastValue)> {
        self.demands
            .iter()
            .map(|((task, si), fv)| (*task, SiId(*si), fv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(si: usize, execs: f64) -> ForecastValue {
        ForecastValue::new(SiId(si), 1.0, 50_000.0, execs)
    }

    #[test]
    fn insert_replaces_per_task_and_si() {
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(1, 10.0));
        store.insert(0, fv(1, 99.0));
        store.insert(1, fv(1, 5.0));
        assert_eq!(store.len(), 2);
        let values: Vec<f64> = store
            .iter()
            .map(|(_, _, f)| f.expected_executions)
            .collect();
        assert_eq!(values, vec![99.0, 5.0]);
    }

    #[test]
    fn iteration_is_task_major_ascending() {
        let mut store = ForecastStore::new(0.25);
        store.insert(1, fv(0, 1.0));
        store.insert(0, fv(2, 2.0));
        store.insert(0, fv(1, 3.0));
        let keys: Vec<(TaskId, usize)> = store.iter().map(|(t, si, _)| (t, si.index())).collect();
        assert_eq!(keys, vec![(0, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn retract_removes_only_that_demand() {
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(1, 10.0));
        store.insert(1, fv(1, 20.0));
        assert!(store.retract(0, SiId(1)).is_some());
        assert!(store.retract(0, SiId(1)).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn observe_smooths_the_stored_value() {
        let mut store = ForecastStore::new(0.5);
        store.insert(0, ForecastValue::new(SiId(0), 0.5, 1_000.0, 10.0));
        store.observe(0, SiId(0), true, 2_000.0, 20.0);
        let (_, _, f) = store.iter().next().unwrap();
        assert!((f.probability - 0.75).abs() < 1e-9);
        assert!((f.expected_executions - 15.0).abs() < 1e-9);
        // An outcome for an unknown demand changes nothing.
        store.observe(7, SiId(0), false, 0.0, 0.0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn lambda_out_of_range_rejected() {
        let _ = ForecastStore::new(1.5);
    }

    #[test]
    fn revision_tracks_only_real_changes() {
        let mut store = ForecastStore::new(0.25);
        assert_eq!(store.revision(), 0);
        store.insert(0, fv(1, 10.0));
        let r1 = store.revision();
        assert_ne!(r1, 0);
        // Re-inserting the identical forecast is a no-op.
        store.insert(0, fv(1, 10.0));
        assert_eq!(store.revision(), r1);
        // Retracting an absent pair is a no-op.
        assert!(store.retract(3, SiId(1)).is_none());
        assert_eq!(store.revision(), r1);
        // Observing an untracked pair is a no-op.
        store.observe(9, SiId(1), true, 1.0, 1.0);
        assert_eq!(store.revision(), r1);
        // A real observation and a real retract both bump.
        store.observe(0, SiId(1), false, 0.0, 0.0);
        let r2 = store.revision();
        assert_ne!(r2, r1);
        assert!(store.retract(0, SiId(1)).is_some());
        assert_ne!(store.revision(), r2);
    }
}
