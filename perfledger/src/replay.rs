//! Tune-stage replay: re-runs one registration's pipeline on a clone of
//! its input through the stages' public functions, timing each, and
//! checks that the replay realises the format `OracleService::register`
//! realised. The stage sequence mirrors the service's registration path
//! (decision-cache hit or miss, plan built or reused, sharded or whole).

use crate::setup::Service;
use crate::trace::Tracer;
use morpheus::format::FormatId;
use morpheus::partition::{split_rows, Partition};
use morpheus::{Analysis, DynamicMatrix, ExecPlan};
use morpheus_machine::analyze_from;
use morpheus_oracle::{FeatureVector, FormatTuner, Op, PartitionPolicy};
use std::time::{Duration, Instant};

/// What `register` did for one matrix, as observed from outside.
#[derive(Debug, Clone)]
pub struct Registered {
    /// Index of the input in its workload's cases.
    pub case: usize,
    pub elapsed: Duration,
    pub format: FormatId,
    /// Per-shard formats of a partitioned handle.
    pub shard_formats: Option<Vec<FormatId>>,
    pub cache_hit: bool,
    pub plan_built: bool,
    /// Decision-cache hits the registration caused.
    pub decision_hits: u64,
    /// Span trace and root span of the registration.
    pub trace: u64,
    pub span: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Analysis,
    Features,
    Predict,
    Convert,
    Partition,
    Plan,
}

impl Stage {
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Analysis => "tune.analysis",
            Stage::Features => "tune.features",
            Stage::Predict => "tune.predict",
            Stage::Convert => "tune.convert",
            Stage::Partition => "tune.partition",
            Stage::Plan => "tune.plan",
        }
    }
}

/// Replayed stage times of one registration.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub times: [Duration; 6],
    /// Predicted formats that proved non-viable (fell back to CSR).
    pub fallbacks: u64,
    /// The registration went through the partition path.
    pub partitioned_path: bool,
}

impl Stages {
    pub fn get(&self, s: Stage) -> Duration {
        self.times[s as usize]
    }

    pub fn total(&self) -> Duration {
        self.times.iter().sum()
    }
}

#[derive(Debug, PartialEq)]
enum Realized {
    Whole(FormatId),
    Sharded(Vec<FormatId>),
}

struct Replayer<'a> {
    service: &'a Service,
    policy: PartitionPolicy,
    stages: Stages,
    tracer: &'a mut Tracer,
    trace: u64,
    parent: u64,
}

impl Replayer<'_> {
    fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.stages.times[stage as usize] += t1 - t0;
        self.tracer.span(self.trace, self.parent, stage.span_name(), t0, t1);
        r
    }

    /// Whole-matrix registration: tune (hash, then on a decision-cache
    /// miss analysis, features, prediction), convert, plan.
    fn whole(
        &mut self,
        mut m: DynamicMatrix<f64>,
        threads: usize,
        hit: Option<FormatId>,
        plan_built: bool,
    ) -> DynamicMatrix<f64> {
        let svc = self.service;
        let opts = svc.convert_options();
        let alpha = opts.true_diag_alpha;
        let previous = m.format_id();
        let hash = self.time(Stage::Analysis, || m.structure_hash());
        let (target, analysis) = match hit {
            Some(f) => (f, None),
            None => {
                let a = self.time(Stage::Analysis, || Analysis::of_auto_with_hash(&m, alpha, hash));
                let view = self.time(Stage::Analysis, || analyze_from(&m, &a));
                self.time(Stage::Features, || FeatureVector::from_analysis(&a));
                let f = self.time(Stage::Predict, || {
                    FormatTuner::<f64>::select(svc.tuner(), &m, &view, svc.engine(), Op::Spmv).format
                });
                (f, Some(a))
            }
        };
        if !self.time(Stage::Convert, || m.convert_to_with(target, opts, analysis.as_ref()).is_ok()) {
            self.stages.fallbacks += 1;
            self.time(Stage::Convert, || m.convert_to_with(FormatId::Csr, opts, analysis.as_ref()))
                .expect("CSR holds any matrix");
        }
        let converted = m.format_id() != previous;
        if hit.is_none() && converted {
            // The post-conversion structure is hashed to alias the decision.
            self.time(Stage::Analysis, || m.structure_hash());
        }
        self.time(Stage::Plan, || {
            if !plan_built {
                return;
            }
            let owned;
            let a = match &analysis {
                Some(a) => a,
                None => {
                    owned = Analysis::of_auto_with_hash(&m, alpha, m.structure_hash());
                    &owned
                }
            };
            std::hint::black_box(ExecPlan::build(&m, threads, Some(a)));
        });
        m
    }

    /// One shard of a partitioned registration: tuned, converted and
    /// planned single-threaded, then costed for the sharding gate.
    fn shard(&mut self, sm: DynamicMatrix<f64>, hit: bool) -> (FormatId, f64) {
        let svc = self.service;
        let alpha = svc.convert_options().true_diag_alpha;
        let hit_format = hit.then(|| {
            // A hit reuses the shard's cached decision; the replay
            // recomputes it off the clock to know the target.
            let a = Analysis::of_auto(&sm, alpha);
            FormatTuner::<f64>::select(svc.tuner(), &sm, &analyze_from(&sm, &a), svc.engine(), Op::Spmv)
                .format
        });
        let m = self.whole(sm, 1, hit_format, !hit);
        let t = self.time(Stage::Partition, || {
            let a = Analysis::of_auto(&m, alpha);
            svc.engine().best_shard_spmv_variant(m.format_id(), &analyze_from(&m, &a)).1
        });
        (m.format_id(), t)
    }

    fn registration(&mut self, m: &DynamicMatrix<f64>, reg: &Registered) -> Realized {
        let svc = self.service;
        let threads = svc.workers();
        let whole_hit = reg.cache_hit.then_some(reg.format);
        let over = self.policy.auto_nnz_threshold.is_some_and(|t| m.nnz() >= t);
        if !over {
            return Realized::Whole(self.whole(m.clone(), threads, whole_hit, reg.plan_built).format_id());
        }
        self.stages.partitioned_path = true;
        let alpha = svc.convert_options().true_diag_alpha;
        let hash = self.time(Stage::Analysis, || m.structure_hash());
        let analysis = self.time(Stage::Analysis, || Analysis::of_auto_with_hash(m, alpha, hash));
        let cfg = self.policy.config(threads);
        let part = self.time(Stage::Partition, || Partition::from_analysis(&analysis, &cfg));
        if part.num_shards() <= 1 {
            return Realized::Whole(self.whole(m.clone(), threads, whole_hit, reg.plan_built).format_id());
        }
        let subs =
            self.time(Stage::Partition, || split_rows(m, &part, Some(&analysis))).expect("partition fits");
        let shard_hits = reg.decision_hits as usize >= subs.len();
        let (formats, times): (Vec<FormatId>, Vec<f64>) =
            subs.into_iter().map(|csr| self.shard(DynamicMatrix::from(csr), shard_hits)).unzip();
        if self.policy.cost_gate {
            let declined = self.time(Stage::Partition, || {
                let (_, best_whole) = svc.engine().best_spmv_time_at(&analyze_from(m, &analysis), threads);
                svc.engine().partitioned_spmv_time(&times, threads) >= best_whole
            });
            if declined {
                return Realized::Whole(
                    self.whole(m.clone(), threads, whole_hit, reg.plan_built).format_id(),
                );
            }
        }
        Realized::Sharded(formats)
    }
}

/// Replays `reg` on a clone of `input`; `true` in the second slot when the
/// replay realised what `register` realised.
pub fn replay(
    service: &Service,
    policy: PartitionPolicy,
    input: &DynamicMatrix<f64>,
    reg: &Registered,
    tracer: &mut Tracer,
) -> (Stages, bool) {
    let parent = tracer.id();
    let t0 = Instant::now();
    let mut r = Replayer { service, policy, stages: Stages::default(), tracer, trace: reg.trace, parent };
    let realized = r.registration(input, reg);
    let stages = r.stages;
    tracer.record(parent, reg.trace, reg.span, "tune.replay", t0, Instant::now());
    let expected = match &reg.shard_formats {
        Some(f) => Realized::Sharded(f.clone()),
        None => Realized::Whole(reg.format),
    };
    (stages, realized == expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{register_stream, serving_pool, Vectors};
    use crate::setup;
    use morpheus_oracle::TraceLevel;

    /// Registers matrices on whole, sharded, decision-cache-hit and
    /// plan-reuse paths and checks the replay realises what `register`
    /// realised on each.
    #[test]
    fn replay_realises_the_registered_format() {
        let v = Vectors::new(1);
        let tuner = setup::train_tuner();
        let (stream, _) = register_stream(3, &v);
        let pool = serving_pool(3, &v);
        let mut inputs: Vec<&DynamicMatrix<f64>> = pool.iter().map(|c| &c.matrix).collect();
        inputs.extend(stream.iter().filter(|c| c.name.starts_with("hetero")).map(|c| &c.matrix));
        inputs.push(&pool[0].matrix); // a structural repeat
        let mut paths = (0, 0, 0);
        for gate in [false, true] {
            let policy = setup::partition_policy(gate);
            let service = setup::service(tuner.clone(), 2, TraceLevel::Off, None, policy);
            let mut tracer = Tracer::new(Instant::now(), true, 1);
            for (case, m) in inputs.iter().enumerate() {
                let hits = service.cache_stats().hits;
                let t0 = Instant::now();
                let h = service.register((*m).clone()).expect("registers");
                let reg = Registered {
                    case,
                    elapsed: t0.elapsed(),
                    format: h.format_id(),
                    shard_formats: h.partition().map(|p| p.shards().iter().map(|s| s.format_id()).collect()),
                    cache_hit: h.report().cache_hit,
                    plan_built: h.report().plan == morpheus_oracle::PlanStatus::Built,
                    decision_hits: service.cache_stats().hits - hits,
                    trace: 1,
                    span: 1,
                };
                paths.0 += usize::from(reg.shard_formats.is_some());
                paths.1 += usize::from(reg.cache_hit);
                paths.2 += usize::from(!reg.plan_built);
                let (stages, same) = replay(&service, policy, m, &reg, &mut tracer);
                assert!(same, "case {case}: replay differs from register {reg:?}");
                assert!(stages.total() > Duration::ZERO);
            }
        }
        assert!(paths.0 > 0 && paths.1 > 0 && paths.2 > 0, "paths exercised: {paths:?}");
    }
}
