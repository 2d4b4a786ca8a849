//! Per-layer metrics: before/after deltas of the service's `obs` registry
//! and caches, the tune-stage replay, the kernel sweep and the benchmark's
//! own timers around public calls.

use crate::probe::{Sweep, Triad};
use crate::replay::{Registered, Stage, Stages};
use crate::setup::Service;
use crate::stats::{median, percentile_or_zero, ratio};
use crate::{metric, Metric};
use morpheus::format::{FormatId, ALL_FORMATS, FORMAT_COUNT};
use morpheus_oracle::{HistSummary, MetricsSnapshot};
use std::collections::BTreeMap;

const COUNTERS: [&str; 9] = [
    "serve.requests_served",
    "serve.fallbacks_taken",
    "ingress.requests_submitted",
    "ingress.requests_completed",
    "ingress.coalesced_served",
    "ingress.coalesce_declined",
    "ingress.deadline_shed",
    "ingress.queue_rejected",
    "ingress.quota_rejected",
];
const HISTS: [&str; 4] =
    ["pool.queue_wait_ns", "ingress.queue_wait_ns", "ingress.exec_ns", "ingress.scatter_ns"];

/// Registry, cache and collector readings of one service at one instant.
pub struct Snapshot {
    metrics: MetricsSnapshot,
    decisions: (u64, u64),
    plans: (u64, u64),
    samples: (u64, u64),
}

pub fn snapshot(service: &Service) -> Snapshot {
    let (d, p) = (service.cache_stats(), service.plan_cache_stats());
    let samples = service.collector().map_or((0, 0), |c| {
        let t = c.stats().telemetry;
        (t.recorded, t.dropped)
    });
    Snapshot {
        metrics: service.obs_snapshot().metrics,
        decisions: (d.hits, d.misses),
        plans: (p.hits, p.misses),
        samples,
    }
}

/// Accumulated before/after deltas (one per service a phase used).
#[derive(Default)]
pub struct Delta {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, HistSummary>,
    decisions: (u64, u64),
    plans: (u64, u64),
    samples: (u64, u64),
}

impl Delta {
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for name in COUNTERS {
            let d = after.metrics.counter(name).saturating_sub(before.metrics.counter(name));
            *self.counters.entry(name).or_default() += d;
        }
        for name in HISTS {
            let d = after.metrics.hist(name).delta_since(&before.metrics.hist(name));
            self.hists.entry(name).or_default().merge(&d);
        }
        let sub = |a: (u64, u64), b: (u64, u64)| (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1));
        let add = |acc: &mut (u64, u64), d: (u64, u64)| {
            acc.0 += d.0;
            acc.1 += d.1;
        };
        add(&mut self.decisions, sub(after.decisions, before.decisions));
        add(&mut self.plans, sub(after.plans, before.plans));
        add(&mut self.samples, sub(after.samples, before.samples));
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn hist_us(&self, name: &str, q: f64) -> f64 {
        self.hists.get(name).map_or(0.0, |h| if h.count == 0 { 0.0 } else { h.quantile_ns(q) as f64 / 1e3 })
    }
}

/// Everything the per-layer metrics of one traced run derive from.
#[derive(Default)]
pub struct LayerData {
    /// Replayed registrations: what `register` did, the replayed stage
    /// times, and whether the replay realised the same format.
    pub replays: Vec<(Registered, Stages, bool)>,
    /// Realised (dominant) format of every registration of the traced
    /// phase.
    pub formats: [u64; FORMAT_COUNT],
    pub delta: Delta,
    pub sweep: Sweep,
    pub triad: Option<Triad>,
    /// Benchmark timers around direct handle calls, µs.
    pub serve_spmv_us: Vec<f64>,
    pub serve_spmm_us: Vec<f64>,
    /// Benchmark timer around `Ingress::submit`, µs.
    pub submit_us: Vec<f64>,
    /// Open-loop generator lateness (submit start − due), µs.
    pub lag_us: Vec<f64>,
    /// Traced over untraced cost of the workload's headline figure.
    pub trace_overhead_ratio: f64,
}

impl LayerData {
    pub fn count_format(&mut self, f: FormatId) {
        self.formats[f.index()] += 1;
    }
}

/// The per-layer metrics, in a fixed order and all present on every
/// workload; a layer the workload does not exercise reads 0.
pub fn per_layer(d: &LayerData) -> Vec<Metric> {
    let stage = |s: Stage, scale: f64| -> Vec<f64> {
        d.replays.iter().map(|(_, st, _)| st.get(s).as_secs_f64() * scale).collect()
    };
    let convert_ms = stage(Stage::Convert, 1e3);
    let partition_ms: Vec<f64> = d
        .replays
        .iter()
        .filter(|(_, st, _)| st.partitioned_path)
        .map(|(_, st, _)| st.get(Stage::Partition).as_secs_f64() * 1e3)
        .collect();
    let registered_s: f64 = d.replays.iter().map(|(r, _, _)| r.elapsed.as_secs_f64()).sum();
    let replayed_s: f64 = d.replays.iter().map(|(_, st, _)| st.total().as_secs_f64()).sum();
    let mismatches = d.replays.iter().filter(|(_, _, ok)| !ok).count();
    let registrations: u64 = d.formats.iter().sum();
    let dl = &d.delta;

    let mut m = vec![
        metric("tune.analysis_ms_p50", median(&stage(Stage::Analysis, 1e3)), "ms"),
        metric("tune.features_us_p50", median(&stage(Stage::Features, 1e6)), "us"),
        metric("tune.predict_us_p50", median(&stage(Stage::Predict, 1e6)), "us"),
        metric("tune.plan_ms_p50", median(&stage(Stage::Plan, 1e3)), "ms"),
        metric(
            "tune.decision_cache_hit_ratio",
            ratio(dl.decisions.0 as f64, (dl.decisions.0 + dl.decisions.1) as f64),
            "ratio",
        ),
        metric("tune.convert_ms_p50", median(&convert_ms), "ms"),
        metric("tune.convert_ms_p90", percentile_or_zero(&convert_ms, 0.9), "ms"),
        metric("tune.partition_ms_p50", median(&partition_ms), "ms"),
        metric(
            "tune.convert_fallbacks",
            d.replays.iter().map(|(_, st, _)| st.fallbacks).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "tune.unaccounted_share",
            if registered_s > 0.0 { 1.0 - replayed_s / registered_s } else { 0.0 },
            "ratio",
        ),
        metric("tune.replay_mismatches", mismatches as f64, "count"),
        metric("select.speedup_vs_csr_geomean", d.sweep.speedup_geomean(), "ratio"),
        metric("select.regret_geomean", d.sweep.regret_geomean(), "ratio"),
    ];
    for f in ALL_FORMATS {
        m.push(metric(
            format!("select.format_share.{}", f.name()),
            ratio(d.formats[f.index()] as f64, registrations as f64),
            "ratio",
        ));
    }
    for f in ALL_FORMATS {
        m.push(metric(
            format!("kernel.spmv_gbps.{}", f.name()),
            Sweep::median_gbps(&d.sweep.spmv_gbps, f),
            "GB/s",
        ));
    }
    for f in ALL_FORMATS {
        m.push(metric(
            format!("kernel.spmm_gbps.{}", f.name()),
            Sweep::median_gbps(&d.sweep.spmm_gbps, f),
            "GB/s",
        ));
    }
    let triad = d.triad.map_or(0.0, |t| t.gbps);
    m.extend([
        metric("kernel.spmv_roofline_frac", ratio(median(&d.sweep.chosen_gbps), triad), "ratio"),
        metric("host.triad_gbps", triad, "GB/s"),
        metric(
            "host.triad_array_mb",
            d.triad.map_or(0.0, |t| t.array_bytes as f64 / (1 << 20) as f64),
            "MiB",
        ),
        metric("host.llc_mb", d.triad.map_or(0.0, |t| t.llc_bytes as f64 / (1 << 20) as f64), "MiB"),
        metric("serve.spmv_us_p50", median(&d.serve_spmv_us), "us"),
        metric("serve.spmm_us_p50", median(&d.serve_spmm_us), "us"),
        metric(
            "serve.fallback_ratio",
            ratio(dl.counter("serve.fallbacks_taken"), dl.counter("serve.requests_served")),
            "ratio",
        ),
        metric(
            "serve.plan_cache_hit_ratio",
            ratio(dl.plans.0 as f64, (dl.plans.0 + dl.plans.1) as f64),
            "ratio",
        ),
        metric("pool.queue_wait_p99_us", dl.hist_us("pool.queue_wait_ns", 0.99), "us"),
        metric("ingress.submit_us_p50", median(&d.submit_us), "us"),
        metric("ingress.exec_p50_us", dl.hist_us("ingress.exec_ns", 0.5), "us"),
        metric("ingress.exec_p99_us", dl.hist_us("ingress.exec_ns", 0.99), "us"),
        metric("ingress.queue_wait_p50_us", dl.hist_us("ingress.queue_wait_ns", 0.5), "us"),
        metric("ingress.queue_wait_p99_us", dl.hist_us("ingress.queue_wait_ns", 0.99), "us"),
        metric(
            "ingress.coalescing_ratio",
            ratio(dl.counter("ingress.coalesced_served"), dl.counter("ingress.requests_completed")),
            "ratio",
        ),
        metric("ingress.coalesce_declined", dl.counter("ingress.coalesce_declined"), "count"),
        metric("ingress.scatter_p99_us", dl.hist_us("ingress.scatter_ns", 0.99), "us"),
        metric(
            "ingress.shed_ratio",
            ratio(dl.counter("ingress.deadline_shed"), dl.counter("ingress.requests_submitted")),
            "ratio",
        ),
        metric(
            "ingress.rejected_ratio",
            ratio(
                dl.counter("ingress.queue_rejected") + dl.counter("ingress.quota_rejected"),
                dl.counter("ingress.requests_submitted"),
            ),
            "ratio",
        ),
        metric("adapt.samples_recorded", dl.samples.0 as f64, "count"),
        metric("adapt.samples_dropped", dl.samples.1 as f64, "count"),
        metric("obs.trace_overhead_ratio", d.trace_overhead_ratio, "ratio"),
        metric("gen.lag_p99_us", percentile_or_zero(&d.lag_us, 0.99), "us"),
    ]);
    m
}
