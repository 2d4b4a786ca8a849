//! Traced-run probes below the service: a per-format kernel sweep (the
//! measured truth behind the tuner's choices) and a STREAM-triad ceiling
//! for this host.

use crate::inputs::{matches_reference, Case, Vectors, SPMM_K};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use morpheus::format::{FormatId, ALL_FORMATS, FORMAT_COUNT};
use morpheus::{ConvertOptions, ExecPlan};
use morpheus_parallel::ThreadPool;
use std::time::{Duration, Instant};

/// Minimum measured time per (matrix, format, op).
const KERNEL_BUDGET: Duration = Duration::from_millis(12);

/// Results of the per-format sweep over a sample of a workload's
/// matrices.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Per format: achieved GB/s (computed bytes / median time) on each
    /// sampled matrix the format is viable for.
    pub spmv_gbps: [Vec<f64>; FORMAT_COUNT],
    pub spmm_gbps: [Vec<f64>; FORMAT_COUNT],
    /// Per sampled matrix: SpMV GB/s of the format `register` chose.
    pub chosen_gbps: Vec<f64>,
    /// Per sampled matrix: `t_chosen / t_best` over viable formats.
    pub regrets: Vec<f64>,
    /// Per sampled matrix: `t_csr / t_chosen`.
    pub speedups: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Sweep {
    pub fn regret_geomean(&self) -> f64 {
        geomean(&self.regrets)
    }

    pub fn speedup_geomean(&self) -> f64 {
        geomean(&self.speedups)
    }

    pub fn median_gbps(v: &[Vec<f64>; FORMAT_COUNT], f: FormatId) -> f64 {
        median(&v[f.index()])
    }
}

/// Median seconds of repeated `run` calls (after one warm-up), repeated
/// until [`KERNEL_BUDGET`] is spent (3 to 200 calls).
fn time_kernel(mut run: impl FnMut()) -> f64 {
    run();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 200 && (samples.len() < 3 || start.elapsed() < KERNEL_BUDGET) {
        let t0 = Instant::now();
        run();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Converts each sampled matrix to every viable format, plans it for
/// `pool`, and times planned SpMV and SpMM; every output is checked
/// against the serial-CSR reference. `chosen` is the format registration
/// realised for each sample.
pub fn kernel_sweep(
    samples: &[(&Case, FormatId)],
    v: &Vectors,
    pool: &ThreadPool,
    tracer: &mut Tracer,
) -> Sweep {
    let opts = ConvertOptions::default();
    let mut out = Sweep::default();
    for (case, chosen) in samples {
        let trace = tracer.id();
        let (nr, nc) = (case.nrows(), case.ncols());
        let (x, xk) = (v.x(0, nc), v.xk(nc));
        let mut times = [None; FORMAT_COUNT];
        for f in ALL_FORMATS {
            let Ok(m) = case.matrix.to_format(f, &opts) else { continue };
            let plan = ExecPlan::build(&m, pool.num_threads(), None);
            // Computed bytes: the format's arrays plus the vectors read
            // and written.
            let spmv_bytes = (m.storage_bytes() + (nc + nr) * 8) as f64;
            let spmm_bytes = (m.storage_bytes() + (nc + nr) * 8 * SPMM_K) as f64;
            let mut y = vec![0.0; nr];
            let t0 = Instant::now();
            let t = time_kernel(|| plan.spmv(&m, x, &mut y, pool).expect("planned SpMV on its own matrix"));
            tracer.span(trace, 0, "kernel.spmv", t0, Instant::now());
            out.attempted += 1;
            out.failed += u64::from(!matches_reference(&y, &case.y_ref[0]));
            let mut yk = vec![0.0; nr * SPMM_K];
            let t0 = Instant::now();
            let tk = time_kernel(|| {
                plan.spmm(&m, xk, &mut yk, SPMM_K, pool).expect("planned SpMM on its own matrix")
            });
            tracer.span(trace, 0, "kernel.spmm", t0, Instant::now());
            out.attempted += 1;
            out.failed += u64::from(!matches_reference(&yk, &case.yk_ref));
            out.spmv_gbps[f.index()].push(spmv_bytes / t / 1e9);
            out.spmm_gbps[f.index()].push(spmm_bytes / tk / 1e9);
            times[f.index()] = Some((t, spmv_bytes / t / 1e9));
        }
        let best = times.iter().flatten().map(|&(t, _)| t).fold(f64::INFINITY, f64::min);
        if let (Some((tc, gbps)), Some((tcsr, _))) = (times[chosen.index()], times[FormatId::Csr.index()]) {
            out.regrets.push(tc / best);
            out.speedups.push(tcsr / tc);
            out.chosen_gbps.push(gbps);
        }
    }
    out
}

/// Size of the last-level cache this host reports, bytes.
pub fn llc_bytes() -> Option<usize> {
    let mut best = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Ok(level), Ok(size)) =
            (std::fs::read_to_string(format!("{dir}/level")), std::fs::read_to_string(format!("{dir}/size")))
        else {
            continue;
        };
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1usize << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size, 1),
            },
        };
        if let (Ok(level), Ok(n)) = (level.trim().parse::<u32>(), num.parse::<usize>()) {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, n * mult));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Cap on the triad's total footprint (three arrays). Four times a large
/// reported LLC per array can run to gigabytes; the cap keeps the probe
/// within a shared host's memory while the footprint stays several times
/// the LLC.
const TRIAD_MAX_TOTAL: usize = 1536 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Triad {
    pub gbps: f64,
    /// Bytes of one of the three arrays.
    pub array_bytes: usize,
    pub llc_bytes: usize,
    pub threads: usize,
}

/// STREAM triad `a = b + s * c` over arrays sized to 4x the reported LLC
/// (capped by [`TRIAD_MAX_TOTAL`]), split across `threads`; the best of
/// five passes, counting 24 bytes per element as STREAM does.
pub fn triad(threads: usize) -> Triad {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let array_bytes = (4 * llc).min(TRIAD_MAX_TOTAL / 3);
    let n = array_bytes / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for pass in 0..6 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        let t = t0.elapsed().as_secs_f64();
        // The first pass also faults the output pages in.
        if pass > 0 {
            best = best.min(t);
        }
    }
    assert!(std::hint::black_box(&a).iter().step_by(4096).all(|&v| v == 7.0), "triad result");
    Triad { gbps: (24 * n) as f64 / best / 1e9, array_bytes, llc_bytes: llc, threads }
}
