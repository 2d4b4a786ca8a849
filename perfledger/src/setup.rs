//! Set-up: the paper's offline stage (profile a training corpus, fit the
//! forest) and the services the workloads run against.

use morpheus::format::{FormatId, FORMAT_COUNT};
use morpheus::DynamicMatrix;
use morpheus_corpus::CorpusSpec;
use morpheus_machine::{analyze, systems, Backend, VirtualEngine};
use morpheus_ml::{Dataset, ForestParams, RandomForest};
use morpheus_oracle::{
    FeatureVector, ObsConfig, Oracle, OracleService, PartitionPolicy, RandomForestTuner, SampleCollector,
    TraceLevel, FEATURE_NAMES, NUM_FEATURES,
};
use std::sync::Arc;

/// Seed of the training corpus. Fixed, so every run serves with the same
/// model — like a shipped model — and the workload seed varies only the
/// traffic. It never equals a stream seed: those are derived from the run
/// seed through [`crate::stats::derive_seed`].
pub const TRAIN_SEED: u64 = 0x7EA1_0B5E_ED00_0001;
const TRAIN_MATRICES: usize = 160;

/// The one (system, backend) pair everything is profiled and served on:
/// Cirrus with the OpenMP backend, whose host execution is the threaded
/// pool, so worker counts are real.
pub fn engine() -> VirtualEngine {
    VirtualEngine::new(systems::cirrus(), Backend::OpenMp)
}

/// Profiles the training corpus on [`engine`] and fits the paper's
/// operating point: a random forest with fixed parameters, no grid search.
pub fn train_tuner() -> RandomForestTuner {
    let spec = CorpusSpec {
        n_matrices: TRAIN_MATRICES,
        seed: TRAIN_SEED,
        min_n: 500,
        max_n: 40_000,
        test_fraction: 0.0,
    };
    let eng = engine();
    let names = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    let mut ds = Dataset::empty(NUM_FEATURES, FORMAT_COUNT, names).expect("feature schema is valid");
    for entry in spec.iter() {
        let m = DynamicMatrix::from(entry.matrix);
        let a = analyze(&m);
        let label: FormatId = eng.profile(&a).optimal;
        ds.push(&FeatureVector::from_stats(&a.stats).0, label.index()).expect("row matches schema");
    }
    let params = ForestParams { n_estimators: 100, seed: TRAIN_SEED, ..Default::default() };
    let forest = RandomForest::fit(&ds, &params).expect("training set is non-empty");
    RandomForestTuner::new(forest).expect("forest matches the feature schema")
}

pub type Service = OracleService<RandomForestTuner>;

/// Registrations at or above this many non-zeros consider sharding.
pub const AUTO_SHARD_NNZ: usize = 150_000;

/// The partition policy of every workload: auto-sharding above
/// [`AUTO_SHARD_NNZ`] with three-regime-sized shards. `cost_gate` lets the
/// engine decline sharding (register-stream) or forces it (the serving
/// workloads, whose pools must hold partitioned handles).
pub fn partition_policy(cost_gate: bool) -> PartitionPolicy {
    PartitionPolicy {
        auto_nnz_threshold: Some(AUTO_SHARD_NNZ),
        max_shards: Some(4),
        target_shard_nnz: Some(64 * 1024),
        cost_gate,
    }
}

pub fn service(
    tuner: RandomForestTuner,
    workers: usize,
    trace: TraceLevel,
    collector: Option<Arc<SampleCollector>>,
    policy: PartitionPolicy,
) -> Arc<Service> {
    let mut b = Oracle::builder()
        .engine(engine())
        .tuner(tuner)
        .workers(workers)
        .partition_policy(policy)
        .observability(ObsConfig { trace, ..Default::default() });
    if let Some(c) = collector {
        b = b.collector(c);
    }
    Arc::new(b.build_service().expect("engine and tuner are set"))
}
