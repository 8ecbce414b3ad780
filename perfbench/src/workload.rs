//! The three workloads, their set-up and their closed client loops.
//!
//! Every workload drives the real service path: requests go through
//! `sgq_service::Session::execute` and are timed by the client. Each
//! client walks the catalog in its own seeded order and runs each
//! statement in all five configurations back to back, in a seeded
//! rotation, so host drift lands on the five alike and the ratios
//! between configurations cancel it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sgq_common::{Rng, SgqError};
use sgq_service::{QueryOptions, QueryStats, Service, ServiceConfig, Session};

use crate::catalog::{derive_seed, Config, Dataset, Digest, CONFIGS, REFERENCE};
use crate::host;
use crate::stats::median;
use crate::trace::Spans;

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// The name passed as `--workload`.
    pub name: &'static str,
    /// Datasets served, one service each.
    pub datasets: &'static [Dataset],
    /// Closed-loop client threads, each with one request in flight.
    pub clients: usize,
    /// Service worker threads.
    pub workers: usize,
    /// Whether requests use the plan cache (warmed during set-up).
    pub use_cache: bool,
}

/// The workloads. Scales are chosen so every statement completes under
/// the default row budget in every configuration.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ldbc-serve",
        datasets: &[Dataset::Ldbc { sf: 0.3 }],
        clients: 2,
        workers: 2,
        use_cache: true,
    },
    Workload {
        name: "yago-adhoc",
        datasets: &[Dataset::Yago { scale: 0.05 }],
        clients: 1,
        workers: 1,
        use_cache: false,
    },
    Workload {
        name: "paper-catalog",
        datasets: &[Dataset::Ldbc { sf: 0.3 }, Dataset::Yago { scale: 0.25 }],
        clients: 1,
        workers: 1,
        use_cache: true,
    },
];

/// Highest DOP any request asks for; sizes the service's morsel
/// scheduler explicitly rather than from the host's core count.
const MAX_DOP: usize = 2;

/// A catalog statement and the digest of its reference row set.
#[derive(Debug, Clone)]
pub struct Statement {
    /// Index of the dataset (and service) the statement runs on.
    pub dataset: usize,
    /// Catalog label, e.g. `IC13` or `Y7`.
    pub name: &'static str,
    /// Query text as submitted.
    pub text: &'static str,
    /// Digest of the reference configuration's rows; `None` when the
    /// reference itself failed, which fails every response.
    pub reference: Option<Digest>,
}

/// Requests checked against the reference and how many failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    /// Requests whose outcome was checked.
    pub attempted: u64,
    /// Errors plus responses whose rows differ from the reference.
    pub failed: u64,
}

impl Checked {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Time spent in each set-up phase of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset generation.
    pub generate: Duration,
    /// `Service::new`: store load under the advised layout.
    pub load: Duration,
    /// Plan-cache warm-up and the warm-up pass.
    pub warm: Duration,
    /// Everything before the first measured request.
    pub total: Duration,
}

/// A service set up for measurement.
pub struct Setup {
    /// One service per dataset.
    pub services: Vec<Service>,
    /// The catalog, with reference digests.
    pub statements: Vec<Statement>,
    /// Set-up phase times.
    pub times: SetupTimes,
    /// Outcome of the warm-up pass's checks.
    pub checked: Checked,
}

impl Setup {
    /// Shuts every service down, joining its worker threads.
    pub fn shutdown(self) {
        for s in &self.services {
            s.shutdown();
        }
    }
}

/// The options a request in `config` is sent with.
pub fn options(config: &Config, use_cache: bool) -> QueryOptions {
    QueryOptions {
        backend: config.backend,
        approach: config.approach,
        dop: Some(config.dop),
        use_cache,
        ..QueryOptions::default()
    }
}

fn service_config(wl: &Workload) -> ServiceConfig {
    ServiceConfig {
        workers: wl.workers,
        queue_capacity: wl.workers * 8,
        max_dop: MAX_DOP,
        default_dop: 1,
        ..ServiceConfig::default()
    }
}

/// Everything before the first measured request: generate each dataset,
/// build its service, prepare every statement in every configuration
/// into the plan cache (cached workloads), then one warm-up pass that
/// runs every statement in every configuration once. The reference
/// configuration's rows become the statement's digest and every other
/// configuration is checked against it. The warm-up is a fixed amount of
/// work, so the set-up time measures the program, not a timer. With
/// `spans`, records a `setup` span with one child per phase.
pub fn setup(wl: &Workload, seed: u64, spans: Option<(&mut Spans, u64)>) -> Setup {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut phases: Vec<(&'static str, Instant, Instant)> = Vec::new();
    let mut services = Vec::new();
    let mut statements = Vec::new();
    for (d, dataset) in wl.datasets.iter().enumerate() {
        let t = Instant::now();
        let g = dataset
            .generate(seed)
            .expect("the built-in catalogs parse against their schemas");
        phases.push(("generate", t, Instant::now()));
        times.generate += t.elapsed();
        statements.extend(g.queries.iter().map(|q| Statement {
            dataset: d,
            name: q.name,
            text: q.text,
            reference: None,
        }));
        let t = Instant::now();
        services.push(Service::new(
            Arc::new(g.schema),
            Arc::new(g.db),
            service_config(wl),
        ));
        phases.push(("load", t, Instant::now()));
        times.load += t.elapsed();
    }

    let t = Instant::now();
    let sessions: Vec<Session> = services.iter().map(Service::session).collect();
    let mut checked = Checked::default();
    for stmt in &mut statements {
        let session = &sessions[stmt.dataset];
        if wl.use_cache {
            for config in &CONFIGS {
                checked.attempted += 1;
                if let Err(e) = session.prepare(stmt.text, &options(config, true)) {
                    report(stmt, config, &e);
                    checked.failed += 1;
                }
            }
        }
        let reference = &CONFIGS[REFERENCE];
        checked.attempted += 1;
        match session.execute(stmt.text, &options(reference, wl.use_cache)) {
            Ok(resp) => stmt.reference = Some(Digest::of(&resp.rows)),
            Err(e) => {
                report(stmt, reference, &e);
                checked.failed += 1;
            }
        }
        for (c, config) in CONFIGS.iter().enumerate() {
            if c != REFERENCE {
                let outcome = session.execute(stmt.text, &options(config, wl.use_cache));
                checked.add(check(
                    stmt,
                    config,
                    outcome.as_ref().map(|r| r.rows.as_slice()),
                ));
            }
        }
    }
    phases.push(("warm", t, Instant::now()));
    times.warm = t.elapsed();
    times.total = start.elapsed();
    if let Some((spans, request)) = spans {
        let root = spans.push("setup", start, start + times.total, None, request);
        for (name, from, to) in phases {
            spans.push(name, from, to, Some(root), request);
        }
    }
    Setup {
        services,
        statements,
        times,
        checked,
    }
}

/// Checks one outcome against the statement's reference digest. An
/// error, a missing reference or a different row set fails the request
/// and is reported on standard error.
pub fn check(
    stmt: &Statement,
    config: &Config,
    outcome: Result<&[Vec<u32>], &SgqError>,
) -> Checked {
    let failure = match (outcome, stmt.reference) {
        (Err(e), _) => Some(e.to_string()),
        (Ok(_), None) => Some("the reference configuration failed".to_string()),
        (Ok(rows), Some(reference)) => {
            let got = Digest::of(rows);
            (got != reference).then(|| {
                format!(
                    "rows differ from the reference ({} rows, expected {})",
                    got.rows(),
                    reference.rows()
                )
            })
        }
    };
    if let Some(why) = &failure {
        report(stmt, config, why);
    }
    Checked {
        attempted: 1,
        failed: u64::from(failure.is_some()),
    }
}

fn report(stmt: &Statement, config: &Config, why: &dyn std::fmt::Display) {
    eprintln!("check failed: {} in {}: {why}", stmt.name, config.name);
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into [`Setup::statements`].
    pub statement: usize,
    /// Index into [`CONFIGS`].
    pub config: usize,
    /// Client-timed latency around `Session::execute`, in nanoseconds.
    pub latency_ns: u64,
    /// The service's own accounting of the request.
    pub stats: QueryStats,
    /// Calibration segment of the slice the request ran in.
    pub segment: usize,
    /// The host's speed factor over that segment (see
    /// [`host::speed_factor`]).
    pub speed: f64,
}

impl Sample {
    /// The client-timed latency in ms.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6
    }

    /// The latency in ms, scaled to the reference host speed or as
    /// measured.
    pub fn ms(&self, scaled: bool) -> f64 {
        if scaled {
            self.latency_ms() * self.speed
        } else {
            self.latency_ms()
        }
    }
}

/// What one closed-loop slice measured.
pub struct LoopResult {
    /// Successful requests.
    pub samples: Vec<Sample>,
    /// Requests per second of the median pass, summed over the clients:
    /// a pass is every statement in every configuration, so each pass
    /// does the same work, and its median discounts host bursts that a
    /// total over the slice would keep. Each pass's time is scaled by its
    /// speed factor.
    pub qps: f64,
    /// As `qps`, from the pass times as measured.
    pub unscaled_qps: f64,
    /// Outcome of the response checks.
    pub checked: Checked,
    /// Admission rejections that were retried.
    pub busy_retries: u64,
    /// Request spans, when traced.
    pub spans: Option<Spans>,
}

/// How long a closed-loop slice runs and what it records.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Separates the request orders of successive slices of one run.
    pub index: u64,
    /// Measure at least this long...
    pub duration: Duration,
    /// ...and until the clients together completed this many requests.
    pub min_requests: usize,
    /// Record request spans on this clock.
    pub epoch: Option<Instant>,
}

/// How often, at the least, the clients pause between passes to time
/// the calibration loop.
const CALIBRATE_EVERY: Duration = Duration::from_millis(500);

/// What the clients of one slice share.
struct Lockstep {
    barrier: Barrier,
    start: OnceLock<Instant>,
    /// Calibration times taken between passes with every client paused;
    /// segment `i` of the slice lies between entries `i` and `i + 1`.
    calibrations: Mutex<Vec<[f64; 3]>>,
    last_calibration: Mutex<Instant>,
    requests: AtomicU64,
    done: AtomicBool,
}

/// Runs the workload's clients in a closed loop of whole passes over
/// the catalog until the slice's duration and request floor are both
/// reached. Stopping only between passes keeps the mix of statements
/// fixed: every (statement, configuration) has the same number of
/// requests from each client, so the latency percentiles do not move
/// with where the slice's end cuts a pass. The clients pass in
/// lockstep: after each pass they wait for each other, and at least
/// every [`CALIBRATE_EVERY`] one of them times the calibration loop
/// while the services are idle. Each sample's speed factor comes from
/// the calibrations on either side of its pass.
pub fn closed_loop(wl: &Workload, setup: &Setup, seed: u64, slice: Slice) -> LoopResult {
    let shared = Lockstep {
        barrier: Barrier::new(wl.clients),
        start: OnceLock::new(),
        calibrations: Mutex::new(vec![host::calibrate()]),
        last_calibration: Mutex::new(Instant::now()),
        requests: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };
    let clients: Vec<(LoopResult, Vec<(f64, usize)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..wl.clients)
            .map(|client| {
                let shared = &shared;
                scope.spawn(move || run_client(wl, setup, seed, slice, client, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let calibrations = shared
        .calibrations
        .into_inner()
        .expect("no client panicked");
    let speeds: Vec<f64> = calibrations
        .windows(2)
        .map(|w| host::speed_factor(&mut [w[0], w[1]].concat()))
        .collect();
    let mut result = LoopResult {
        samples: Vec::new(),
        qps: 0.0,
        unscaled_qps: 0.0,
        checked: Checked::default(),
        busy_retries: 0,
        spans: slice.epoch.map(Spans::new),
    };
    let per_pass = (setup.statements.len() * CONFIGS.len()) as f64;
    for (client, (mut mine, passes)) in clients.into_iter().enumerate() {
        for sample in &mut mine.samples {
            sample.speed = speeds[sample.segment];
        }
        let (mut scaled, mut raw): (Vec<f64>, Vec<f64>) = passes
            .iter()
            .map(|&(secs, segment)| (secs * speeds[segment], secs))
            .unzip();
        result.qps += per_pass / median(&mut scaled).expect("at least one pass");
        result.unscaled_qps += per_pass / median(&mut raw).expect("at least one pass");
        result.samples.extend(mine.samples);
        result.checked.add(mine.checked);
        result.busy_retries += mine.busy_retries;
        if let (Some(all), Some(mut spans)) = (result.spans.as_mut(), mine.spans) {
            spans.offset_requests((slice.index * 64 + client as u64) << 32);
            all.append(spans);
        }
    }
    result
}

/// One client: walks the catalog in its own seeded order, running each
/// statement in all five configurations in a seeded rotation, with one
/// request in flight. Returns its requests and, per pass, the pass's
/// time in s and its calibration segment.
fn run_client(
    wl: &Workload,
    setup: &Setup,
    seed: u64,
    slice: Slice,
    client: usize,
    shared: &Lockstep,
) -> (LoopResult, Vec<(f64, usize)>) {
    let sessions: Vec<Session> = setup.services.iter().map(Service::session).collect();
    let mut rng = Rng::seed_from_u64(derive_seed(seed, 16 + slice.index * 64 + client as u64));
    let mut out = LoopResult {
        samples: Vec::new(),
        qps: 0.0,
        unscaled_qps: 0.0,
        checked: Checked::default(),
        busy_retries: 0,
        spans: slice.epoch.map(Spans::new),
    };
    let mut order: Vec<usize> = (0..setup.statements.len()).collect();
    let mut configs: Vec<usize> = (0..CONFIGS.len()).collect();
    let mut passes = Vec::new();
    shared.barrier.wait();
    let start = *shared.start.get_or_init(Instant::now);
    loop {
        let segment = shared
            .calibrations
            .lock()
            .expect("no client panicked")
            .len()
            - 1;
        let pass_start = Instant::now();
        let attempted = out.checked.attempted;
        shuffle(&mut order, &mut rng);
        for &s in &order {
            let stmt = &setup.statements[s];
            let session = &sessions[stmt.dataset];
            shuffle(&mut configs, &mut rng);
            for &c in &configs {
                let opts = options(&CONFIGS[c], wl.use_cache);
                let t0 = Instant::now();
                let outcome = loop {
                    match session.execute(stmt.text, &opts) {
                        Err(e) if e.is_busy() => {
                            out.busy_retries += 1;
                            std::thread::yield_now();
                        }
                        other => break other,
                    }
                };
                let t1 = Instant::now();
                let request = out.checked.attempted;
                let verdict = check(
                    stmt,
                    &CONFIGS[c],
                    outcome.as_ref().map(|r| r.rows.as_slice()),
                );
                out.checked.add(verdict);
                if let (0, Ok(resp)) = (verdict.failed, outcome) {
                    if let Some(spans) = out.spans.as_mut() {
                        record_request(spans, t0, t1, &resp.stats, request);
                    }
                    out.samples.push(Sample {
                        statement: s,
                        config: c,
                        latency_ns: (t1 - t0).as_nanos() as u64,
                        stats: resp.stats,
                        segment,
                        speed: 1.0,
                    });
                }
            }
        }
        passes.push((pass_start.elapsed().as_secs_f64(), segment));
        shared
            .requests
            .fetch_add(out.checked.attempted - attempted, Ordering::Relaxed);
        if shared.barrier.wait().is_leader() {
            let done = start.elapsed() >= slice.duration
                && shared.requests.load(Ordering::Relaxed) >= slice.min_requests as u64;
            let mut last = shared.last_calibration.lock().expect("no client panicked");
            if done || last.elapsed() >= CALIBRATE_EVERY {
                let times = host::calibrate();
                shared
                    .calibrations
                    .lock()
                    .expect("no client panicked")
                    .push(times);
                *last = Instant::now();
            }
            shared.done.store(done, Ordering::Relaxed);
        }
        shared.barrier.wait();
        if shared.done.load(Ordering::Relaxed) {
            break;
        }
    }
    (out, passes)
}

/// Records a request span around `Session::execute` and its
/// `service.queue`, `service.prepare` and `service.exec` children placed
/// from the service's accounting:
/// the service's own interval ends when the client's does, less the
/// hand-off, which is split evenly between submission and reply.
fn record_request(spans: &mut Spans, t0: Instant, t1: Instant, st: &QueryStats, request: u64) {
    let (start, end) = (spans.ns(t0), spans.ns(t1));
    let root = spans.push_ns("request", start, end, None, request);
    let total = st.total_micros * 1_000;
    let served = start + (end - start).saturating_sub(total) / 2;
    let queue_end = served + st.queue_micros * 1_000;
    spans.push_ns("service.queue", served, queue_end, Some(root), request);
    if st.prepare_micros > 0 {
        let prepare_end = queue_end + st.prepare_micros * 1_000;
        spans.push_ns(
            "service.prepare",
            queue_end,
            prepare_end,
            Some(root),
            request,
        );
    }
    let exec_end = served + total;
    let exec_start = exec_end.saturating_sub(st.exec_micros * 1_000);
    spans.push_ns("service.exec", exec_start, exec_end, Some(root), request);
}

/// Fisher–Yates shuffle driven by the workload's seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's own check on a second seed: every statement of
    /// every workload completes in every configuration and agrees with
    /// the reference configuration.
    #[test]
    fn every_statement_agrees_across_configurations_on_two_seeds() {
        for wl in &WORKLOADS {
            for seed in [1, 2] {
                let s = setup(wl, seed, None);
                assert_eq!(s.checked.failed, 0, "{} seed {seed}", wl.name);
                assert!(s.statements.iter().all(|st| st.reference.is_some()));
                s.shutdown();
            }
        }
    }

    #[test]
    fn closed_loop_covers_every_statement_in_every_configuration() {
        let wl = WORKLOADS.iter().find(|w| w.name == "yago-adhoc").unwrap();
        let s = setup(wl, 5, None);
        let epoch = Instant::now();
        let slice = Slice {
            index: 1,
            duration: Duration::ZERO,
            min_requests: 0,
            epoch: Some(epoch),
        };
        let run = closed_loop(wl, &s, 5, slice);
        let statements = s.statements.len();
        s.shutdown();
        assert_eq!(run.checked.failed, 0);
        // Whole passes only: every (statement, configuration) ran equally
        // often, and every request carries its segment's speed factor.
        let mut seen = vec![[0usize; 5]; statements];
        for sample in &run.samples {
            seen[sample.statement][sample.config] += 1;
            assert!(sample.speed.is_finite() && sample.speed > 0.0);
        }
        let passes = seen[0][0];
        assert!(passes >= 1);
        assert!(seen.iter().all(|per| per.iter().all(|&n| n == passes)));
        assert!(run.qps > 0.0 && run.unscaled_qps > 0.0);
        // One request span per request; its children nest inside it.
        let spans = run.spans.unwrap();
        let roots = spans.spans().iter().filter(|s| s.name == "request").count();
        assert_eq!(roots, run.samples.len());
        for span in spans.spans().iter().filter(|s| s.parent.is_some()) {
            let root = &spans.spans()[span.parent.unwrap()];
            assert_eq!(span.request, root.request);
            assert!(root.start_ns <= span.start_ns && span.end_ns <= root.end_ns);
        }
    }
}
