//! Immutable trained-model snapshots with a deterministic replica pool.

use crate::ServeError;
use nc_core::{FaultPlan, ModelSpec};
use nc_dataset::{Dataset, FitBudget, Model};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// See `MemoryRecorder` in nc-obs for the rationale: a poisoned pool
/// mutex still holds consistent data (each critical section is a single
/// push/pop), and serving must not die because one replica panicked.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a snapshot materializes replicas.
enum Source {
    /// Build the spec, fit it on the pinned training set, then inject
    /// the optional fault plan — all deterministic, so every replica is
    /// bit-identical to the first.
    Trained {
        spec: ModelSpec,
        budget: FitBudget,
        train: Arc<Dataset>,
        faults: Option<FaultPlan>,
    },
    /// An arbitrary factory — the test seam for poison models and other
    /// synthetic behaviors (the factory must itself be deterministic to
    /// keep the serving contract).
    Factory(Box<dyn Fn() -> Box<dyn Model> + Send + Sync>),
}

/// An immutable description of one trained model plus a pool of
/// ready-to-run replicas.
///
/// The `Model` trait takes `&mut self` on inference (scratch buffers,
/// presentation RNG state), so concurrent batches cannot share one
/// instance. Instead each worker job checks a replica out of the pool
/// (or rebuilds one deterministically on a pool miss), runs its batch,
/// and returns it. A replica consumed by a panic simply never comes
/// back — the next checkout rebuilds, and because build → fit → inject
/// is a pure function of the snapshot, the rebuilt replica is
/// bit-identical. Snapshots are shared `Arc`-immutably between the
/// server and every in-flight job.
pub struct ModelSnapshot {
    name: String,
    input_dim: usize,
    num_classes: usize,
    source: Source,
    pool: Mutex<Vec<Box<dyn Model>>>,
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("name", &self.name)
            .field("input_dim", &self.input_dim)
            .field("num_classes", &self.num_classes)
            .field("pooled", &lock_or_recover(&self.pool).len())
            .finish_non_exhaustive()
    }
}

impl ModelSnapshot {
    /// Trains one replica of `spec` on `train` within `budget`
    /// (injecting `faults` afterwards, if any) and pins the recipe so
    /// further replicas rebuild identically. Training eagerly here means
    /// a broken spec fails at preparation time, never inside a serving
    /// job.
    ///
    /// # Errors
    ///
    /// [`ServeError::Build`] when the spec cannot build, fit, or inject.
    pub fn prepare(
        name: impl Into<String>,
        spec: ModelSpec,
        budget: FitBudget,
        train: Arc<Dataset>,
        faults: Option<FaultPlan>,
    ) -> Result<ModelSnapshot, ServeError> {
        let snapshot = ModelSnapshot {
            name: name.into(),
            input_dim: spec.input_dim(),
            num_classes: spec.num_classes(),
            source: Source::Trained {
                spec,
                budget,
                train,
                faults,
            },
            pool: Mutex::new(Vec::new()),
        };
        let replica = snapshot.build_replica()?;
        lock_or_recover(&snapshot.pool).push(replica);
        Ok(snapshot)
    }

    /// A snapshot whose replicas come from `factory` — the test seam
    /// for synthetic models (e.g. one that panics on a poisoned item).
    /// The factory must be deterministic for served results to be.
    pub fn from_factory(
        name: impl Into<String>,
        input_dim: usize,
        num_classes: usize,
        factory: impl Fn() -> Box<dyn Model> + Send + Sync + 'static,
    ) -> ModelSnapshot {
        ModelSnapshot {
            name: name.into(),
            input_dim,
            num_classes,
            source: Source::Factory(Box::new(factory)),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The serving name requests address this snapshot by.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pixels per request image.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Label classes the model predicts over.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn build_replica(&self) -> Result<Box<dyn Model>, ServeError> {
        match &self.source {
            Source::Trained {
                spec,
                budget,
                train,
                faults,
            } => {
                let mut model = spec.build().map_err(|e| ServeError::Build(e.to_string()))?;
                model
                    .fit(train, budget)
                    .map_err(|e| ServeError::Build(e.to_string()))?;
                if let Some(plan) = faults {
                    model
                        .inject(plan)
                        .map_err(|e| ServeError::Build(e.to_string()))?;
                }
                Ok(model)
            }
            Source::Factory(factory) => Ok(factory()),
        }
    }

    /// Checks a replica out of the pool, rebuilding deterministically on
    /// a miss.
    ///
    /// # Errors
    ///
    /// [`ServeError::Build`] when a rebuild fails (never for a pooled
    /// replica).
    pub fn replica(&self) -> Result<Box<dyn Model>, ServeError> {
        if let Some(model) = lock_or_recover(&self.pool).pop() {
            return Ok(model);
        }
        self.build_replica()
    }

    /// Returns a checked-out replica to the pool.
    pub fn release(&self, replica: Box<dyn Model>) {
        lock_or_recover(&self.pool).push(replica);
    }

    /// A one-shot replica for a transient-fault burst: freshly built
    /// from the recipe (bit-identical to a pooled one), then injected
    /// with `faults` on top of the snapshot's own plan. Burst replicas
    /// are *never pooled* — injected faults cannot be removed, so the
    /// caller discards the replica after its batch.
    ///
    /// # Errors
    ///
    /// [`ServeError::Build`] when the build or injection fails.
    pub fn burst_replica(&self, faults: &FaultPlan) -> Result<Box<dyn Model>, ServeError> {
        let mut replica = self.build_replica()?;
        replica
            .inject(faults)
            .map_err(|e| ServeError::Build(e.to_string()))?;
        Ok(replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dataset::model::ModelError;
    use nc_dataset::{digits::DigitsSpec, Difficulty};
    use nc_mlp::Activation;

    /// Replicas currently idle in the pool.
    fn idle(snap: &ModelSnapshot) -> usize {
        lock_or_recover(&snap.pool).len()
    }

    fn tiny_data() -> (Dataset, Dataset) {
        DigitsSpec {
            train: 12,
            test: 6,
            seed: 5,
            difficulty: Difficulty::default(),
        }
        .generate()
    }

    fn quant_spec() -> ModelSpec {
        ModelSpec::QuantizedMlp {
            sizes: vec![784, 6, 10],
            activation: Activation::sigmoid(),
            seed: 11,
        }
    }

    fn tiny_budget() -> FitBudget {
        FitBudget {
            epochs: 1,
            stdp_epochs: 1,
            stdp_delta: 8,
            learning_rate: None,
        }
    }

    #[test]
    fn prepare_pools_one_trained_replica() {
        let (train, _) = tiny_data();
        let snap = ModelSnapshot::prepare("q", quant_spec(), tiny_budget(), Arc::new(train), None)
            .unwrap();
        assert_eq!(snap.name(), "q");
        assert_eq!(snap.input_dim(), 784);
        assert_eq!(snap.num_classes(), 10);
        assert_eq!(idle(&snap), 1);
        let dbg = format!("{snap:?}");
        assert!(dbg.contains("\"q\""), "{dbg}");
    }

    #[test]
    fn rebuilt_replicas_are_bit_identical() {
        let (train, test) = tiny_data();
        let snap = ModelSnapshot::prepare("q", quant_spec(), tiny_budget(), Arc::new(train), None)
            .unwrap();
        let mut pooled = snap.replica().unwrap();
        assert_eq!(idle(&snap), 0);
        // Pool is empty now: this one is rebuilt from the recipe.
        let mut rebuilt = snap.replica().unwrap();
        for (i, s) in test.iter().enumerate() {
            let seed = crate::presentation_seed(u64::try_from(i).unwrap());
            assert_eq!(
                pooled.predict(&s.pixels, seed),
                rebuilt.predict(&s.pixels, seed),
                "item {i}"
            );
        }
        snap.release(pooled);
        snap.release(rebuilt);
        assert_eq!(idle(&snap), 2);
    }

    #[test]
    fn burst_replicas_are_injected_and_never_pooled() {
        use nc_core::FaultModel;
        let (train, test) = tiny_data();
        let snap = ModelSnapshot::prepare("q", quant_spec(), tiny_budget(), Arc::new(train), None)
            .unwrap();
        let storm = FaultPlan {
            model: FaultModel::StuckAt1,
            rate: 0.9,
            seed: 9,
        };
        let mut stormy = snap.burst_replica(&storm).unwrap();
        let mut stormy_twin = snap.burst_replica(&storm).unwrap();
        let mut healthy = snap.replica().unwrap();
        assert_eq!(idle(&snap), 0, "burst builds never touch the pool");
        let mut diverged = false;
        for (i, s) in test.iter().enumerate() {
            let seed = crate::presentation_seed(u64::try_from(i).unwrap());
            // The burst is itself deterministic...
            assert_eq!(
                stormy.predict(&s.pixels, seed),
                stormy_twin.predict(&s.pixels, seed),
                "item {i}"
            );
            // ...and actually corrupts relative to the healthy replica.
            if stormy.predict(&s.pixels, seed) != healthy.predict(&s.pixels, seed) {
                diverged = true;
            }
        }
        assert!(diverged, "a 90% stuck-at-1 burst must disturb something");
        snap.release(healthy);
    }

    #[test]
    fn broken_spec_fails_at_prepare_time() {
        let (train, _) = tiny_data();
        let spec = ModelSpec::Mlp {
            sizes: vec![784],
            activation: Activation::sigmoid(),
            seed: 1,
        };
        let err =
            ModelSnapshot::prepare("bad", spec, tiny_budget(), Arc::new(train), None).unwrap_err();
        assert!(matches!(err, ServeError::Build(_)), "{err}");
    }

    #[test]
    fn factory_snapshots_skip_training() {
        struct Fixed;
        impl Model for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn fit(&mut self, _: &Dataset, _: &FitBudget) -> Result<(), ModelError> {
                Ok(())
            }
            fn predict(&mut self, _: &[u8], _: u64) -> usize {
                1
            }
        }
        let snap = ModelSnapshot::from_factory("fixed", 4, 2, || Box::new(Fixed));
        assert_eq!(idle(&snap), 0);
        let mut replica = snap.replica().unwrap();
        assert_eq!(replica.predict(&[0; 4], 0), 1);
        snap.release(replica);
        assert_eq!(idle(&snap), 1);
    }
}
