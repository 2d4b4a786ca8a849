//! The three workloads. Each drives the public stack from outside
//! (`OracleService::register*` → `MatrixHandle` → `OracleService::spmv/spmm`,
//! `Ingress::submit` → `Ticket::wait`) and checks every output against the
//! serial-CSR reference.

use crate::inputs::{self, matches_reference, Case, Vectors, SPMM_K};
use crate::layers::{self, LayerData};
use crate::probe;
use crate::replay::{self, Registered};
use crate::setup::{self, Service};
use crate::stats::{self, derive_seed, median, ms, percentile_or_zero, us, SplitMix, Zipf};
use crate::trace::{self, Span, Tracer};
use crate::{metric, Args, Metric, Report};
use morpheus::format::FormatId;
use morpheus_oracle::{
    CollectorConfig, Ingress, IngressConfig, MatrixHandle, PlanStatus, RandomForestTuner, SampleCollector,
    TraceLevel,
};
use morpheus_parallel::ThreadPool;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Seed purposes (see [`derive_seed`]).
const SEED_VECTORS: u64 = 1;
const SEED_MATRICES: u64 = 2;
const SEED_REQUESTS: u64 = 3;
const SEED_FRESH: u64 = 4;
const SEED_DIRECT: u64 = 5;
/// Matrices per traced run whose every viable format is timed.
const SWEEP_SAMPLES: usize = 10;

/// Trains the tuner and builds the workload's service [`SETUP_REPS`]
/// times; returns the last tuner and the median set-up seconds.
fn timed_setup(build: impl Fn(RandomForestTuner)) -> (RandomForestTuner, f64) {
    let mut times = Vec::new();
    let mut tuner = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let t = setup::train_tuner();
        build(t.clone());
        times.push(t0.elapsed().as_secs_f64());
        tuner = Some(t);
    }
    (tuner.expect("at least one set-up"), median(&times))
}

/// Smallest value (the best window of a time); +∞ for none.
fn lowest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// What one timed phase of a workload observed.
///
/// Observations carry the measurement window they fell in (a register-stream
/// pass, a registration round, or a 2 s stretch of a serving phase). Each
/// end-to-end figure is taken per window and the best window reported — the
/// lowest time, the highest throughput: min-of-reps. The host's speed
/// drifts within seconds (identical register-stream passes take 1.2-2.0 s
/// in one run), interference only ever adds time, and a slower program
/// slows every window, the best one included.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Outputs that disagreed with the reference.
    wrong: u64,
    /// Window new observations are recorded in.
    window: usize,
    /// `(window, ms)` of every registration (+∞ when it failed).
    register_ms: Vec<(usize, f64)>,
    /// Successful registrations, for the replay (register-stream keeps
    /// its first pass only).
    registrations: Vec<Registered>,
    /// `(window, tenant, latency µs)`, +∞ for a failed or wrong request.
    requests: Vec<(usize, usize, f64)>,
    completed: u64,
    /// Seconds each request window's throughput is taken over.
    window_s: Vec<f64>,
    solve_s: f64,
    layer: LayerData,
    spans: Vec<Span>,
}

impl Run {
    fn request(&mut self, tenant: usize, executed: bool, correct: bool, latency_us: f64) {
        self.attempted += 1;
        self.wrong += u64::from(executed && !correct);
        let ok = executed && correct;
        self.completed += u64::from(ok);
        self.failed += u64::from(!ok);
        self.requests.push((self.window, tenant, if ok { latency_us } else { f64::INFINITY }));
    }

    fn registered(&mut self, elapsed: Option<Duration>) {
        self.attempted += 1;
        self.failed += u64::from(elapsed.is_none());
        self.register_ms.push((self.window, elapsed.map_or(f64::INFINITY, ms)));
    }

    fn merge_counts(&mut self, other: &Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// `f` applied to each window's values.
    fn windowed<T: Copy>(items: &[(usize, T)], windows: usize, f: impl Fn(&[T], usize) -> f64) -> Vec<f64> {
        (0..windows.max(1))
            .map(|w| {
                let v: Vec<T> =
                    items.iter().filter(|(iw, _)| *iw == w || windows <= 1).map(|x| x.1).collect();
                f(&v, w)
            })
            .collect()
    }

    fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let reg_windows = self.register_ms.iter().map(|r| r.0 + 1).max().unwrap_or(1);
        let reg =
            |q: f64| lowest(&Self::windowed(&self.register_ms, reg_windows, |v, _| percentile_or_zero(v, q)));
        let reqs: Vec<(usize, (usize, f64))> = self.requests.iter().map(|&(w, t, l)| (w, (t, l))).collect();
        let n = self.window_s.len();
        let lat = |q: f64| {
            lowest(&Self::windowed(&reqs, n, |v, _| {
                percentile_or_zero(&v.iter().map(|x| x.1).collect::<Vec<_>>(), q)
            }))
        };
        let tenants = self.requests.iter().map(|r| r.1).max().map_or(0, |t| t + 1);
        let tenant_p99_max = (0..tenants)
            .map(|t| {
                lowest(&Self::windowed(&reqs, n, |v, _| {
                    percentile_or_zero(&v.iter().filter(|x| x.0 == t).map(|x| x.1).collect::<Vec<_>>(), 0.99)
                }))
            })
            .fold(0.0, f64::max);
        let secs = |w: usize| if n <= 1 { self.window_s.iter().sum() } else { self.window_s[w] };
        let throughput = Self::windowed(&reqs, n, |v, w| {
            stats::ratio(v.iter().filter(|x| x.1.is_finite()).count() as f64, secs(w))
        })
        .into_iter()
        .fold(0.0, f64::max);
        vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
            metric("register_p50_ms", reg(0.5), "ms"),
            metric("register_p90_ms", reg(0.9), "ms"),
            metric("solve_s", self.solve_s, "s"),
            metric("request_p50_us", lat(0.5), "us"),
            metric("request_p99_us", lat(0.99), "us"),
            metric("tenant_p99_max_us", tenant_p99_max, "us"),
            metric("throughput_rps", throughput, "1/s"),
        ]
    }
}

/// The run's report: operations of `runs` plus `extra` probe operations,
/// `extra_wrong` of which were wrong (a wrong operation is also failed).
fn report(runs: &[&Run], extra: u64, extra_wrong: u64, metrics: Vec<Metric>) -> Report {
    let mut total = Run { attempted: extra, failed: extra_wrong, wrong: extra_wrong, ..Run::default() };
    for r in runs {
        total.merge_counts(r);
    }
    eprintln!("perfledger: {} operations, {} failed, {} wrong", total.attempted, total.failed, total.wrong);
    Report { correct: total.wrong == 0, attempted: total.attempted, failed: total.failed, metrics }
}

/// Registers `case` on `service`, timing the call and observing what it
/// realised.
fn register(
    service: &Service,
    ci: usize,
    case: &Case,
    run: &mut Run,
    tracer: &mut Tracer,
) -> Option<(MatrixHandle<f64>, Registered)> {
    let input = case.matrix.clone();
    let (trace, root) = (tracer.id(), tracer.id());
    let hits = service.cache_stats().hits;
    let t0 = Instant::now();
    let res = service.register(input);
    let t1 = Instant::now();
    tracer.span(trace, root, "serve.register", t0, t1);
    match res {
        Ok(h) => {
            run.registered(Some(t1 - t0));
            run.layer.count_format(h.format_id());
            let reg = Registered {
                case: ci,
                elapsed: t1 - t0,
                format: h.format_id(),
                shard_formats: h.partition().map(|p| p.shards().iter().map(|s| s.format_id()).collect()),
                cache_hit: h.report().cache_hit,
                plan_built: h.report().plan == PlanStatus::Built,
                decision_hits: service.cache_stats().hits - hits,
                trace,
                span: root,
            };
            Some((h, reg))
        }
        Err(e) => {
            eprintln!("perfledger: register {} failed: {e}", case.name);
            run.registered(None);
            None
        }
    }
}

/// One direct SpMV through a handle, timed and checked.
#[allow(clippy::too_many_arguments)]
fn direct_spmv(
    service: &Service,
    h: &MatrixHandle<f64>,
    case: &Case,
    which: usize,
    v: &Vectors,
    y: &mut [f64],
    tenant: usize,
    run: &mut Run,
    tracer: &mut Tracer,
    (trace, parent): (u64, u64),
) -> f64 {
    let y = &mut y[..case.nrows()];
    let t0 = Instant::now();
    let res = service.spmv(h, v.x(which, case.ncols()), y);
    let t1 = Instant::now();
    tracer.span(trace, parent, "serve.spmv", t0, t1);
    let took = us(t1 - t0);
    run.layer.serve_spmv_us.push(took);
    run.request(tenant, res.is_ok(), res.is_ok() && matches_reference(y, &case.y_ref[which]), took);
    took
}

/// One direct SpMM through a handle, timed and checked.
#[allow(clippy::too_many_arguments)]
fn direct_spmm(
    service: &Service,
    h: &MatrixHandle<f64>,
    case: &Case,
    v: &Vectors,
    yk: &mut [f64],
    tenant: usize,
    run: &mut Run,
    tracer: &mut Tracer,
    (trace, parent): (u64, u64),
) -> f64 {
    let yk = &mut yk[..case.nrows() * SPMM_K];
    let t0 = Instant::now();
    let res = service.spmm(h, v.xk(case.ncols()), yk, SPMM_K);
    let t1 = Instant::now();
    tracer.span(trace, parent, "serve.spmm", t0, t1);
    let took = us(t1 - t0);
    run.layer.serve_spmm_us.push(took);
    run.request(tenant, res.is_ok(), res.is_ok() && matches_reference(yk, &case.yk_ref), took);
    took
}

/// The traced half of a run: replays registrations, sweeps kernels on a
/// sample, measures the host ceiling, writes the span file and returns
/// the per-layer report.
#[allow(clippy::too_many_arguments)]
fn finish_traced(
    args: &Args,
    untraced: &Run,
    mut traced: Run,
    overhead_ratio: f64,
    service: &Service,
    policy: morpheus_oracle::PartitionPolicy,
    input: &dyn Fn(usize) -> Case,
    v: &Vectors,
    epoch: Instant,
) -> Report {
    let mut tracer = Tracer::new(epoch, true, 9);
    let mut replay_mismatch = 0;
    let registrations = std::mem::take(&mut traced.registrations);
    for reg in &registrations {
        let case = input(reg.case);
        let (stages, same) = replay::replay(service, policy, &case.matrix, reg, &mut tracer);
        if !same {
            eprintln!("perfledger: replay of {} realised a different format than register", case.name);
        }
        replay_mismatch += u64::from(!same);
        traced.layer.replays.push((reg.clone(), stages, same));
    }
    // Kernel sweep on a seeded sample of whole-matrix registrations.
    let mut rng = SplitMix::new(derive_seed(args.seed, SEED_MATRICES ^ 0x5A));
    let mut pool: Vec<&Registered> = registrations.iter().filter(|r| r.shard_formats.is_none()).collect();
    pool.sort_by_key(|r| r.case);
    pool.dedup_by_key(|r| r.case);
    let mut sample = Vec::new();
    while sample.len() < SWEEP_SAMPLES && !pool.is_empty() {
        sample.push(pool.swap_remove(rng.below(pool.len())));
    }
    let cases: Vec<(Case, FormatId)> = sample.iter().map(|r| (input(r.case), r.format)).collect();
    let refs: Vec<(&Case, FormatId)> = cases.iter().map(|(c, f)| (c, *f)).collect();
    let workers = ThreadPool::new(service.workers());
    traced.layer.sweep = probe::kernel_sweep(&refs, v, &workers, &mut tracer);
    drop(workers);
    let triad = probe::triad(std::thread::available_parallelism().map_or(1, |n| n.get()));
    traced.layer.triad = Some(triad);
    traced.layer.trace_overhead_ratio = overhead_ratio;
    traced.spans.extend(tracer.into_spans());

    let path = trace::out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let notes = [
        ("llc_bytes", triad.llc_bytes.to_string()),
        ("triad_array_bytes", triad.array_bytes.to_string()),
        ("triad_threads", triad.threads.to_string()),
    ];
    match trace::write_span_file(&path, &traced.spans, &notes) {
        Ok(()) => eprintln!("perfledger: {} spans -> {}", traced.spans.len(), path.display()),
        Err(e) => eprintln!("perfledger: could not write {}: {e}", path.display()),
    }
    let sweep = &traced.layer.sweep;
    let metrics = layers::per_layer(&traced.layer);
    report(
        &[untraced, &traced],
        sweep.attempted + registrations.len() as u64,
        sweep.failed + replay_mismatch,
        metrics,
    )
}

// ---------------------------------------------------------------------------
// register-stream
// ---------------------------------------------------------------------------

/// SpMVs each registered handle runs before its SpMM.
const SOLVER_SPMVS: usize = 8;

/// Closed loop on one thread over a 2-worker service: registers every
/// stream matrix, runs its solver loop, drops it. Each pass of the stream
/// uses a fresh service (cold caches); passes repeat until `seconds`.
fn stream_phase(
    tuner: &RandomForestTuner,
    cases: &[Case],
    order: &[usize],
    v: &Vectors,
    level: TraceLevel,
    seconds: f64,
    tracer: &mut Tracer,
) -> Run {
    let policy = setup::partition_policy(true);
    let max_rows = cases.iter().map(Case::nrows).max().unwrap_or(0);
    let (mut y, mut yk) = (vec![0.0; max_rows], vec![0.0; max_rows * SPMM_K]);
    let mut run = Run::default();
    let start = Instant::now();
    loop {
        run.window = run.window_s.len();
        let service = setup::service(tuner.clone(), 2, level, None, policy);
        let before = layers::snapshot(&service);
        let mut busy = 0.0;
        for &ci in order {
            let case = &cases[ci];
            let t_reg = Instant::now();
            let Some((h, reg)) = register(&service, ci, case, &mut run, tracer) else { continue };
            busy += reg.elapsed.as_secs_f64();
            let ids = (reg.trace, reg.span);
            if run.window == 0 {
                run.registrations.push(reg);
            }
            for i in 0..SOLVER_SPMVS {
                busy += direct_spmv(&service, &h, case, i % 2, v, &mut y, 0, &mut run, tracer, ids) / 1e6;
            }
            busy += direct_spmm(&service, &h, case, v, &mut yk, 0, &mut run, tracer, ids) / 1e6;
            drop(h);
            tracer.record(ids.1, ids.0, 0, "registration", t_reg, Instant::now());
        }
        run.layer.delta.add(&before, &layers::snapshot(&service));
        run.window_s.push(busy);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run.solve_s = lowest(&run.window_s);
    eprintln!(
        "perfledger: register-stream {} passes, seconds in the stack per pass {:?}",
        run.window_s.len(),
        run.window_s
    );
    run
}

pub fn register_stream(args: &Args) -> Report {
    let policy = setup::partition_policy(true);
    let (tuner, setup_s) = timed_setup(|t| drop(setup::service(t, 2, TraceLevel::Off, None, policy)));
    let v = Vectors::new(derive_seed(args.seed, SEED_VECTORS));
    let (cases, order) = inputs::register_stream(derive_seed(args.seed, SEED_MATRICES), &v);
    let epoch = Instant::now();
    let off = stream_phase(
        &tuner,
        &cases,
        &order,
        &v,
        TraceLevel::Off,
        args.seconds,
        &mut Tracer::new(epoch, false, 1),
    );
    if !args.trace {
        return report(&[&off], 0, 0, off.end_to_end(setup_s));
    }
    let mut tracer = Tracer::new(epoch, true, 1);
    let mut on = stream_phase(&tuner, &cases, &order, &v, TraceLevel::Coarse, args.seconds, &mut tracer);
    on.spans = tracer.into_spans();
    let ratio = stats::ratio(on.solve_s, off.solve_s);
    let service = setup::service(tuner, 2, TraceLevel::Coarse, None, policy);
    let input = |ci: usize| cases[ci].clone();
    finish_traced(args, &off, on, ratio, &service, policy, &input, &v, epoch)
}

// ---------------------------------------------------------------------------
// ingress-open
// ---------------------------------------------------------------------------

/// Poisson arrival rate, requests/s: below the knee of the 1-worker
/// service on the serving pool (its SpMVs take ~40-400 µs).
const OPEN_RATE: f64 = 1000.0;
/// Zipf exponent of handle popularity.
const ZIPF_S: f64 = 1.1;
const OPEN_TENANTS: [&str; 4] = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"];
/// Per-tenant deadline budget from the due time.
const OPEN_SLO_MS: [u64; 4] = [50, 100, 200, 400];

/// Sleeps until `due`. No spinning: on a 2-vCPU host a spinning generator
/// takes the CPU the pump and worker need; its lateness is reported as
/// `gen.lag_p99_us` instead.
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Length of the time windows a serving phase's request figures are
/// split into (each holds over 1000 requests per ingress-open tenant).
const WINDOW_SECONDS: f64 = 2.0;
/// Counted rounds of pool registration on ingress-open before the timed
/// phase (after one uncounted warm-up round) and again after it, each on
/// a fresh service: rounds spread over the run so a short disturbance
/// moves few of them.
const POOL_ROUNDS: usize = 6;

fn serving_windows(seconds: f64) -> usize {
    ((seconds / WINDOW_SECONDS).round() as usize).max(1)
}

/// Window of an observation `offset` into a phase of `seconds`.
fn window_of(offset: Duration, seconds: f64) -> usize {
    let n = serving_windows(seconds);
    ((offset.as_secs_f64() / seconds * n as f64) as usize).min(n - 1)
}

fn window_seconds(seconds: f64) -> Vec<f64> {
    let n = serving_windows(seconds);
    vec![seconds / n as f64; n]
}

/// Registers the serving pool (timed: these are the workload's
/// registrations) and returns its handles.
fn register_pool(
    service: &Service,
    pool: &[Case],
    run: &mut Run,
    tracer: &mut Tracer,
) -> Vec<MatrixHandle<f64>> {
    let mut handles = Vec::new();
    for (ci, case) in pool.iter().enumerate() {
        let (h, reg) = register(service, ci, case, run, tracer).expect("serving pool registers");
        tracer.record(reg.span, reg.trace, 0, "registration", Instant::now() - reg.elapsed, Instant::now());
        run.registrations.push(reg);
        handles.push(h);
    }
    let blocked = handles.iter().filter(|h| matches!(h.format_id(), FormatId::Bsr | FormatId::Bell)).count();
    let parted = handles.iter().filter(|h| h.is_partitioned()).count();
    eprintln!(
        "perfledger: serving pool of {} handles, {blocked} blocked, {parted} partitioned",
        handles.len()
    );
    handles
}

struct Pending {
    ticket: morpheus_oracle::Ticket<f64>,
    due: Instant,
    window: usize,
    tenant: usize,
    case: usize,
    which: usize,
    trace: u64,
    root: u64,
}

/// Open loop against a 1-worker service with no collector: seeded Poisson
/// arrivals of zipf-popular requests from four tenants with deadlines.
/// One generator thread submits at each due time; one waiter thread
/// resolves tickets in submission order. Latency runs from the due time.
fn open_phase(
    args: &Args,
    tuner: &RandomForestTuner,
    pool: &[Case],
    v: &Vectors,
    level: TraceLevel,
    tracer: &mut Tracer,
) -> (Run, Arc<Service>) {
    let policy = setup::partition_policy(false);
    let build = || setup::service(tuner.clone(), 1, level, None, policy);
    let mut run = Run::default();
    register_pool(&build(), pool, &mut Run::default(), &mut Tracer::new(tracer.epoch(), false, 0));
    let mut last = None;
    for round in 0..POOL_ROUNDS {
        run.window = round;
        let service = build();
        let handles = register_pool(&service, pool, &mut run, tracer);
        last = Some((service, handles));
    }
    let (service, handles) = last.expect("at least one registration round");
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());

    let mut rng = SplitMix::new(derive_seed(args.seed, SEED_REQUESTS));
    let zipf = Zipf::new(pool.len(), ZIPF_S, &mut SplitMix::new(inputs::SHAPE_SEED));
    let arrivals = stats::poisson_arrivals(OPEN_RATE, args.seconds, &mut rng);
    let script: Vec<(u64, usize, usize, usize)> = arrivals
        .into_iter()
        .map(|due| (due, zipf.sample(&mut rng), rng.below(OPEN_TENANTS.len()), rng.below(2)))
        .collect();

    let before = layers::snapshot(&service);
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now() + Duration::from_millis(20);
    let (traced, epoch) = (tracer.enabled(), tracer.epoch());
    let (resolved, waiter_spans, last_done) = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut wt = Tracer::new(epoch, traced, 2);
            let mut out: Vec<(usize, usize, bool, bool, f64)> = Vec::new();
            let mut last = start;
            for p in rx {
                let w0 = Instant::now();
                let res = p.ticket.wait();
                let done = Instant::now();
                last = last.max(done);
                wt.span(p.trace, p.root, "ticket.wait", w0, done);
                wt.record(p.root, p.trace, 0, "request", p.due, done);
                let case = &pool[p.case];
                let (executed, correct) = match &res {
                    Ok(y) => (true, matches_reference(y, &case.y_ref[p.which])),
                    Err(_) => (false, false),
                };
                out.push((p.window, p.tenant, executed, correct, us(done.saturating_duration_since(p.due))));
            }
            (out, wt.into_spans(), last)
        });
        for &(due_ns, ci, tenant, which) in &script {
            let case = &pool[ci];
            let x = v.x(which, case.ncols()).to_vec();
            let due = start + Duration::from_nanos(due_ns);
            let deadline = due + Duration::from_millis(OPEN_SLO_MS[tenant]);
            sleep_until(due);
            let window = window_of(Duration::from_nanos(due_ns), args.seconds);
            let (trace, root) = (tracer.id(), tracer.id());
            let s0 = Instant::now();
            let res = ingress.submit_with_deadline(OPEN_TENANTS[tenant], &handles[ci], x, deadline);
            let s1 = Instant::now();
            tracer.span(trace, root, "gen.lag", due, s0);
            tracer.span(trace, root, "ingress.submit", s0, s1);
            run.layer.lag_us.push(us(s0.saturating_duration_since(due)));
            run.layer.submit_us.push(us(s1 - s0));
            match res {
                Ok(ticket) => {
                    let p = Pending { ticket, due, window, tenant, case: ci, which, trace, root };
                    tx.send(p).expect("waiter outlives the generator");
                }
                Err(e) => {
                    eprintln!("perfledger: submit refused: {e}");
                    run.window = window;
                    run.request(tenant, false, false, f64::INFINITY);
                }
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread panicked")
    });
    for (window, tenant, executed, correct, latency) in resolved {
        run.window = window;
        run.request(tenant, executed, correct, latency);
    }
    run.window_s = window_seconds(args.seconds);
    run.spans = waiter_spans;
    drop(ingress);
    run.layer.delta.add(&before, &layers::snapshot(&service));
    let first_due = start + Duration::from_nanos(script.first().map_or(0, |r| r.0));
    run.solve_s = last_done.saturating_duration_since(first_due).as_secs_f64();
    for round in POOL_ROUNDS..2 * POOL_ROUNDS {
        run.window = round;
        register_pool(&build(), pool, &mut run, tracer);
    }
    (run, service)
}

pub fn ingress_open(args: &Args) -> Report {
    let policy = setup::partition_policy(false);
    let (tuner, setup_s) = timed_setup(|t| {
        let s = setup::service(t, 1, TraceLevel::Off, None, policy);
        drop(Ingress::start(s, IngressConfig::default()));
    });
    let v = Vectors::new(derive_seed(args.seed, SEED_VECTORS));
    let pool = inputs::serving_pool(derive_seed(args.seed, SEED_MATRICES), &v);
    let epoch = Instant::now();
    let (off, _) = open_phase(args, &tuner, &pool, &v, TraceLevel::Off, &mut Tracer::new(epoch, false, 1));
    if !args.trace {
        return report(&[&off], 0, 0, off.end_to_end(setup_s));
    }
    let mut tracer = Tracer::new(epoch, true, 1);
    let (mut on, service) = open_phase(args, &tuner, &pool, &v, TraceLevel::Coarse, &mut tracer);
    on.spans.extend(tracer.into_spans());
    // The serving pool is also called directly, for the serve-layer timers.
    probe_direct_calls(&service, &pool, &v, &mut on, epoch);
    let p50 = |r: &Run| median(&r.requests.iter().map(|q| q.2).collect::<Vec<_>>());
    let ratio = stats::ratio(p50(&on), p50(&off));
    let input = |ci: usize| pool[ci].clone();
    finish_traced(args, &off, on, ratio, &service, policy, &input, &v, epoch)
}

/// Direct handle calls on a live pool (re-registered on `service`, whose
/// decision and plan caches already hold them), for workloads whose timed
/// phase makes none.
fn probe_direct_calls(service: &Service, pool: &[Case], v: &Vectors, run: &mut Run, epoch: Instant) {
    let mut tracer = Tracer::new(epoch, true, 3);
    let max_rows = pool.iter().map(Case::nrows).max().unwrap_or(0);
    let (mut y, mut yk) = (vec![0.0; max_rows], vec![0.0; max_rows * SPMM_K]);
    let mut scratch = Run::default();
    for case in pool {
        let h = service.register(case.matrix.clone()).expect("pool matrix registers");
        let ids = (tracer.id(), 0);
        for i in 0..10 {
            direct_spmv(service, &h, case, i % 2, v, &mut y, 0, &mut scratch, &mut tracer, ids);
        }
        for _ in 0..3 {
            direct_spmm(service, &h, case, v, &mut yk, 0, &mut scratch, &mut tracer, ids);
        }
    }
    if run.layer.serve_spmv_us.is_empty() {
        run.layer.serve_spmv_us = std::mem::take(&mut scratch.layer.serve_spmv_us);
    }
    if run.layer.serve_spmm_us.is_empty() {
        run.layer.serve_spmm_us = std::mem::take(&mut scratch.layer.serve_spmm_us);
    }
    run.merge_counts(&scratch);
    run.spans.extend(tracer.into_spans());
}

// ---------------------------------------------------------------------------
// mixed-closed
// ---------------------------------------------------------------------------

/// Ingress requests the generator keeps in flight.
const WINDOW: usize = 8;
/// Longest same-handle SpMV burst.
const BURST_MAX: usize = 6;
/// The direct tenant registers a fresh matrix every this many operations.
const REGISTER_EVERY: u64 = 24;
const MIXED_TENANTS: [&str; 2] = ["burst-a", "burst-b"];
/// Tenant index of the direct SpMM caller.
const DIRECT_TENANT: usize = 2;

struct InFlight {
    ticket: morpheus_oracle::Ticket<f64>,
    sent: Instant,
    window: usize,
    case: usize,
    which: usize,
    tenant: usize,
    trace: u64,
    root: u64,
}

/// Closed loop against a 2-worker service with a `SampleCollector`: one
/// generator thread keeps [`WINDOW`] ingress SpMVs in flight in
/// same-handle bursts (coalescing engages); a second tenant calls
/// `OracleService::spmm` directly and registers a fresh matrix every
/// [`REGISTER_EVERY`] of its operations, so writes happen beside reads.
fn mixed_phase(
    args: &Args,
    tuner: &RandomForestTuner,
    pool: &[Case],
    v: &Vectors,
    level: TraceLevel,
    epoch: Instant,
    traced: bool,
) -> (Run, Arc<Service>) {
    let policy = setup::partition_policy(false);
    let collector = Arc::new(SampleCollector::new(CollectorConfig::default()));
    let service = setup::service(tuner.clone(), 2, level, Some(collector), policy);
    // Pool registration is set-up here: register_* figures of this
    // workload are the fresh registrations made under load.
    let mut setup_run = Run::default();
    let mut tracer = Tracer::new(epoch, traced, 1);
    let handles = register_pool(&service, pool, &mut setup_run, &mut tracer);
    let ingress = Ingress::start(Arc::clone(&service), IngressConfig::default());
    let before = layers::snapshot(&service);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(args.seconds);

    let direct = |mut run: Run| {
        let mut tr = Tracer::new(epoch, traced, 4);
        let mut rng = SplitMix::new(derive_seed(args.seed, SEED_DIRECT));
        let zipf = Zipf::new(pool.len(), ZIPF_S, &mut SplitMix::new(inputs::SHAPE_SEED ^ SEED_DIRECT));
        let mut yk = vec![0.0; pool.iter().map(Case::nrows).max().unwrap_or(0) * SPMM_K];
        let mut ops = 0u64;
        let mut fresh = 0usize;
        while Instant::now() < stop {
            ops += 1;
            run.window = window_of(start.elapsed(), args.seconds);
            if ops.is_multiple_of(REGISTER_EVERY) {
                let case = inputs::fresh_matrix(derive_seed(args.seed, SEED_FRESH), fresh, v);
                yk.resize(yk.len().max(case.nrows() * SPMM_K), 0.0);
                let t0 = Instant::now();
                if let Some((h, reg)) = register(&service, fresh, &case, &mut run, &mut tr) {
                    let ids = (reg.trace, reg.span);
                    run.registrations.push(reg);
                    direct_spmm(&service, &h, &case, v, &mut yk, DIRECT_TENANT, &mut run, &mut tr, ids);
                    tr.record(ids.1, ids.0, 0, "registration", t0, Instant::now());
                }
                fresh += 1;
            } else {
                let ci = zipf.sample(&mut rng);
                let ids = (tr.id(), 0);
                direct_spmm(
                    &service,
                    &handles[ci],
                    &pool[ci],
                    v,
                    &mut yk,
                    DIRECT_TENANT,
                    &mut run,
                    &mut tr,
                    ids,
                );
            }
        }
        run.spans = tr.into_spans();
        run
    };

    let (mut run, direct_run) = std::thread::scope(|s| {
        let b = s.spawn(|| direct(Run::default()));
        let mut run = Run::default();
        let mut rng = SplitMix::new(derive_seed(args.seed, SEED_REQUESTS));
        let zipf = Zipf::new(pool.len(), ZIPF_S, &mut SplitMix::new(inputs::SHAPE_SEED));
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let complete = |f: InFlight, run: &mut Run, tracer: &mut Tracer| {
            let w0 = Instant::now();
            let res = f.ticket.wait();
            let done = Instant::now();
            tracer.span(f.trace, f.root, "ticket.wait", w0, done);
            tracer.record(f.root, f.trace, 0, "request", f.sent, done);
            let (executed, correct) = match &res {
                Ok(y) => (true, matches_reference(y, &pool[f.case].y_ref[f.which])),
                Err(_) => (false, false),
            };
            run.window = f.window;
            run.request(f.tenant, executed, correct, us(done - f.sent));
        };
        let mut bursts = 0usize;
        while Instant::now() < stop {
            let ci = zipf.sample(&mut rng);
            let len = 1 + rng.below(BURST_MAX);
            let tenant = bursts % MIXED_TENANTS.len();
            bursts += 1;
            for _ in 0..len {
                if inflight.len() >= WINDOW {
                    let f = inflight.pop_front().expect("window is full");
                    complete(f, &mut run, &mut tracer);
                }
                let which = rng.below(2);
                let x = v.x(which, pool[ci].ncols()).to_vec();
                let (trace, root) = (tracer.id(), tracer.id());
                let s0 = Instant::now();
                let res = ingress.submit(MIXED_TENANTS[tenant], &handles[ci], x);
                let s1 = Instant::now();
                tracer.span(trace, root, "ingress.submit", s0, s1);
                run.layer.submit_us.push(us(s1 - s0));
                match res {
                    Ok(ticket) => {
                        let window = window_of(s0 - start, args.seconds);
                        inflight.push_back(InFlight {
                            ticket,
                            sent: s0,
                            window,
                            case: ci,
                            which,
                            tenant,
                            trace,
                            root,
                        });
                    }
                    Err(e) => {
                        eprintln!("perfledger: submit refused: {e}");
                        run.window = window_of(s0 - start, args.seconds);
                        run.request(tenant, false, false, f64::INFINITY);
                    }
                }
            }
        }
        while let Some(f) = inflight.pop_front() {
            complete(f, &mut run, &mut tracer);
        }
        (run, b.join().expect("direct tenant panicked"))
    });
    run.solve_s = start.elapsed().as_secs_f64();
    run.window_s = window_seconds(args.seconds);
    drop(ingress);
    run.layer.delta.add(&before, &layers::snapshot(&service));
    // Merge the direct tenant's observations.
    run.merge_counts(&direct_run);
    run.completed += direct_run.completed;
    run.requests.extend(direct_run.requests);
    run.register_ms = direct_run.register_ms;
    run.registrations = direct_run.registrations;
    run.layer.serve_spmm_us = direct_run.layer.serve_spmm_us;
    run.layer.formats = direct_run.layer.formats;
    run.spans = tracer.into_spans();
    run.spans.extend(direct_run.spans);
    // Pool registrations count as operations, not as register figures.
    run.attempted += setup_run.attempted;
    run.failed += setup_run.failed;
    (run, service)
}

pub fn mixed_closed(args: &Args) -> Report {
    let policy = setup::partition_policy(false);
    let (tuner, setup_s) = timed_setup(|t| {
        let c = Arc::new(SampleCollector::new(CollectorConfig::default()));
        let s = setup::service(t, 2, TraceLevel::Off, Some(c), policy);
        drop(Ingress::start(s, IngressConfig::default()));
    });
    let v = Vectors::new(derive_seed(args.seed, SEED_VECTORS));
    let pool = inputs::serving_pool(derive_seed(args.seed, SEED_MATRICES), &v);
    let epoch = Instant::now();
    let (off, _) = mixed_phase(args, &tuner, &pool, &v, TraceLevel::Off, epoch, false);
    if !args.trace {
        return report(&[&off], 0, 0, off.end_to_end(setup_s));
    }
    let (mut on, service) = mixed_phase(args, &tuner, &pool, &v, TraceLevel::Coarse, epoch, true);
    probe_direct_calls(&service, &pool, &v, &mut on, epoch);
    let tput = |r: &Run| stats::ratio(r.completed as f64, r.solve_s);
    let ratio = stats::ratio(tput(&off), tput(&on));
    let fresh_seed = derive_seed(args.seed, SEED_FRESH);
    let input = |k: usize| inputs::fresh_matrix(fresh_seed, k, &v);
    finish_traced(args, &off, on, ratio, &service, policy, &input, &v, epoch)
}
