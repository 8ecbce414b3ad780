//! End-to-end and per-layer benchmark of the schema-graph-query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ldbc-serve|yago-adhoc|paper-catalog> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times, measures its closed
//! loop for `--seconds` and prints the end-to-end metrics. `--trace 1`
//! runs the same workload and seed with the benchmark's own spans around
//! every request, alternating traced and untraced slices, then replays
//! each statement once per configuration through the public function of
//! every layer, writes the spans to `perfbench/out/` and prints the
//! per-layer metrics. Every response is checked against the reference
//! configuration's rows. The last line of standard output is the result
//! object; the line before it holds host diagnostics.

mod catalog;
mod host;
mod replay;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sgq_common::json::JsonValue;
use sgq_common::Backend;
use sgq_service::CacheStats;

use crate::catalog::{Digest, CONFIGS};
use crate::replay::{Counters, ReplayEnv, RewriteKind};
use crate::stats::{geomean, median, quantile, supported_quantile};
use crate::trace::Spans;
use crate::workload::{closed_loop, setup, Checked, Sample, Setup, Slice, Workload, WORKLOADS};

/// Set-ups per run, each followed by one round of the untraced loop;
/// see [`Rounds::end_to_end`] for how the rounds combine.
const ROUNDS: usize = 3;

/// Requests the untraced run completes at least, so that ten or more
/// samples lie beyond `latency_p99_ms` on every workload.
const MIN_REQUESTS: usize = 1_200;

const USAGE: &str = "usage: sgq_perfbench --workload <ldbc-serve|yago-adhoc|paper-catalog> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or("--seconds takes a positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in output order, each a value with its unit.
#[derive(Default)]
struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
    missing: Vec<&'static str>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.entries.push((name, v, unit)),
            _ => self.missing.push(name),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.entries
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_string(),
                        JsonValue::obj([
                            ("value", JsonValue::Num(value)),
                            ("unit", JsonValue::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let wl = args.workload;
    let probe = host::HostProbe::start();
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut checked = Checked::default();

    // The untraced run is ROUNDS rounds of set-up and closed loop, each
    // loop measuring a share of `seconds`. The host's speed drifts by a
    // fifth and more within seconds, so every time is scaled to the
    // reference host speed by the calibration loop timed, with the
    // services idle, before and after the interval it measures; the
    // unscaled readings go to the diagnostics. The traced run measures
    // on the first set-up only.
    // Peak memory is read when the first set-up is complete: it has
    // loaded the data and run every statement in every configuration
    // once, in a fixed order. Read later, it would also hold allocator
    // fragmentation that depends on the loop's random request order.
    let seconds = Duration::from_secs(args.seconds);
    let mut setups = Vec::new();
    let mut peak_rss_mib = 0.0;
    let mut rounds = Rounds::default();
    let mut statements = 0;
    let mut speeds = Vec::new();
    let mut layers = Metrics::default();
    for round in 0..ROUNDS {
        let before = host::calibrate();
        let s = setup(
            wl,
            args.seed,
            args.trace.then_some((&mut spans, round as u64)),
        );
        let speed = host::speed_factor(&mut [before, host::calibrate()].concat());
        checked.add(s.checked);
        setups.push(s.times);
        let secs = s.times.total.as_secs_f64();
        rounds.setup_secs.push((secs * speed, secs));
        statements = s.statements.len();
        speeds.push(speed);
        if round == 0 {
            peak_rss_mib = host::peak_rss_mib();
        }
        if !args.trace {
            let slice = Slice {
                index: round as u64,
                duration: seconds / ROUNDS as u32,
                min_requests: MIN_REQUESTS.div_ceil(ROUNDS),
                epoch: None,
            };
            let run = closed_loop(wl, &s, args.seed, slice);
            checked.add(run.checked);
            rounds.qps.push((run.qps, run.unscaled_qps));
            rounds.samples.push(run.samples);
        } else if round == 0 {
            layers = traced_run(wl, &s, args.seed, seconds, &mut spans, &mut checked);
        }
        s.shutdown();
    }

    let (mut metrics, raw) = if args.trace {
        (layers, Metrics::default())
    } else {
        (
            rounds.end_to_end(true, statements, peak_rss_mib),
            rounds.end_to_end(false, statements, peak_rss_mib),
        )
    };
    let mut spans_file = None;
    if args.trace {
        let setup_ms = |f: fn(&workload::SetupTimes) -> Duration| {
            median(
                &mut setups
                    .iter()
                    .map(|t| f(t).as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        metrics.put("setup.generate_ms", setup_ms(|t| t.generate), "ms");
        metrics.put("setup.load_ms", setup_ms(|t| t.load), "ms");
        metrics.put("setup.warm_ms", setup_ms(|t| t.warm), "ms");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.json", wl.name, args.seed));
        if let Err(e) = spans.write_json(&path, wl.name, args.seed) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        spans_file = Some(path.display().to_string());
    }

    let failed_share = checked.failed as f64 / checked.attempted.max(1) as f64;
    let diagnostics = JsonValue::obj([
        ("workload", JsonValue::str(wl.name)),
        ("seed", JsonValue::Int(args.seed)),
        ("seconds", JsonValue::Int(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("failed_share", JsonValue::Num(failed_share)),
        (
            "setup_s",
            JsonValue::Arr(
                setups
                    .iter()
                    .map(|t| JsonValue::Num(t.total.as_secs_f64()))
                    .collect(),
            ),
        ),
        (
            "setup_speed_factors",
            JsonValue::Arr(speeds.into_iter().map(JsonValue::Num).collect()),
        ),
        ("unscaled", raw.to_json()),
        (
            "spans_file",
            spans_file.map_or(JsonValue::Null, JsonValue::Str),
        ),
        ("host", probe.finish()),
    ]);
    println!(
        "{}",
        JsonValue::obj([("diagnostics", diagnostics)]).render()
    );
    if !metrics.missing.is_empty() {
        eprintln!(
            "cannot report {}: too few successful samples",
            metrics.missing.join(", ")
        );
        std::process::exit(1);
    }
    let result = JsonValue::obj([
        ("correct", JsonValue::Bool(checked.failed == 0)),
        ("attempted", JsonValue::Int(checked.attempted)),
        ("failed", JsonValue::Int(checked.failed)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{}", result.render());
}

/// `stat` of the client latencies in ms, scaled or not, of every
/// (statement, configuration).
fn per_statement<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    statements: usize,
    scaled: bool,
    stat: fn(&mut [f64]) -> Option<f64>,
) -> Vec<[Option<f64>; 5]> {
    let mut lat: Vec<[Vec<f64>; 5]> = (0..statements).map(|_| Default::default()).collect();
    for s in samples {
        lat[s.statement][s.config].push(s.ms(scaled));
    }
    lat.iter_mut()
        .map(|per| std::array::from_fn(|c| stat(&mut per[c])))
        .collect()
}

/// What the untraced rounds measured.
#[derive(Default)]
struct Rounds {
    /// Each round's successful requests.
    samples: Vec<Vec<Sample>>,
    /// Each round's `qps`, scaled and as measured.
    qps: Vec<(f64, f64)>,
    /// Each set-up's time in s, scaled and as measured.
    setup_secs: Vec<(f64, f64)>,
}

impl Rounds {
    /// The end-to-end metrics, scaled to the reference host speed or as
    /// measured. `qps` and `latency_p50_ms` are medians of their
    /// per-round values and `setup_s` the median set-up. The others are
    /// taken over every round's requests: the tail needs more samples
    /// than one round holds, and a statement's fastest latency is
    /// steadier over more. Each round runs whole passes, so every
    /// (statement, configuration) weighs the same.
    fn end_to_end(&self, scaled: bool, statements: usize, peak_rss_mib: f64) -> Metrics {
        let pick = |&(s, r): &(f64, f64)| if scaled { s } else { r };
        let mut metrics = Metrics::default();
        let mut setup: Vec<f64> = self.setup_secs.iter().map(pick).collect();
        metrics.put("setup_s", median(&mut setup), "s");
        let mut qps: Vec<f64> = self.qps.iter().map(pick).collect();
        metrics.put("qps", median(&mut qps), "1/s");
        let p50: Option<Vec<f64>> = self
            .samples
            .iter()
            .map(|round| median(&mut round.iter().map(|s| s.ms(scaled)).collect::<Vec<_>>()))
            .collect();
        metrics.put(
            "latency_p50_ms",
            p50.and_then(|mut p50| median(&mut p50)),
            "ms",
        );
        let all = || self.samples.iter().flatten();
        let mut latencies: Vec<f64> = all().map(|s| s.ms(scaled)).collect();
        metrics.put(
            "latency_p99_ms",
            supported_quantile(&mut latencies, 0.99),
            "ms",
        );
        // A statement's fastest latency is its cost with the least
        // interference from the other client and from host bursts; its
        // median moves with both.
        let fastest = per_statement(all(), statements, scaled, |v| {
            v.iter().copied().reduce(f64::min)
        });
        const GEOMEAN_NAMES: [&str; 5] = [
            "catalog_geomean_ms.graph.baseline",
            "catalog_geomean_ms.graph.schema",
            "catalog_geomean_ms.rel.baseline",
            "catalog_geomean_ms.rel.schema",
            "catalog_geomean_ms.rel.schema.dop2",
        ];
        for (c, name) in GEOMEAN_NAMES.iter().enumerate() {
            debug_assert!(name.ends_with(CONFIGS[c].name));
            let per: Vec<f64> = fastest.iter().filter_map(|m| m[c]).collect();
            metrics.put(name, geomean(&per), "ms");
        }
        let medians = per_statement(all(), statements, scaled, median);
        for (name, base, schema) in [("schema_speedup.graph", 0, 1), ("schema_speedup.rel", 2, 3)] {
            let ratios: Vec<f64> = medians
                .iter()
                .filter_map(|m| Some(m[base]? / m[schema]?))
                .collect();
            metrics.put(name, geomean(&ratios), "ratio");
        }
        metrics.put("peak_rss_mb", Some(peak_rss_mib), "MiB");
        metrics
    }
}

/// The traced run: alternating untraced and traced closed-loop slices
/// (untraced, traced, traced, untraced, each half of `seconds`), then a
/// phase replay of every statement in every configuration. Returns the
/// per-layer metrics other than set-up.
fn traced_run(
    wl: &Workload,
    setup: &Setup,
    seed: u64,
    seconds: Duration,
    spans: &mut Spans,
    checked: &mut Checked,
) -> Metrics {
    let cache_before = cache_totals(setup);
    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut busy = 0u64;
    for (i, with_spans) in [false, true, true, false].into_iter().enumerate() {
        let run = closed_loop(
            wl,
            setup,
            seed,
            Slice {
                index: i as u64 + 1,
                duration: seconds / 2,
                min_requests: 0,
                epoch: with_spans.then(|| spans.epoch()),
            },
        );
        checked.add(run.checked);
        if with_spans {
            busy += run.busy_retries;
            traced.extend(run.samples);
            spans.append(run.spans.expect("traced slices record spans"));
        } else {
            plain.extend(run.samples);
        }
    }
    let cache_after = cache_totals(setup);

    let mut m = Metrics::default();
    let each = |f: fn(&Sample) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let mut queue = each(|s| s.stats.queue_micros as f64 / 1e3);
    let mut exec = each(|s| s.stats.exec_micros as f64 / 1e3);
    let mut prepare = each(|s| s.stats.prepare_micros as f64 / 1e3);
    let mut handoff = each(|s| (s.latency_ns / 1_000).saturating_sub(s.stats.total_micros) as f64);
    m.put("service.queue_wait_ms.p50", median(&mut queue), "ms");
    m.put(
        "service.queue_wait_ms.p99",
        quantile(&mut queue, 0.99),
        "ms",
    );
    m.put(
        "service.busy_retry_ratio",
        Some(busy as f64 / (traced.len() as u64 + busy).max(1) as f64),
        "ratio",
    );
    m.put("service.exec_ms.p50", median(&mut exec), "ms");
    m.put("service.exec_ms.p99", quantile(&mut exec, 0.99), "ms");
    m.put("service.prepare_ms.p50", median(&mut prepare), "ms");
    m.put("service.handoff_us.p50", median(&mut handoff), "us");
    let hits = cache_after.hits - cache_before.hits;
    let lookups = hits + cache_after.misses - cache_before.misses;
    m.put(
        "cache.hit_ratio",
        Some(if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }),
        "ratio",
    );
    m.put(
        "cache.evictions",
        Some((cache_after.evictions - cache_before.evictions) as f64),
        "count",
    );
    let peak: usize = setup.services.iter().map(|s| s.governor().peak()).sum();
    m.put("governor.peak_mb", Some(peak as f64 / MIB), "MiB");
    // Median client latency scaled to the reference host speed, so that
    // the host's drift between slices cancels.
    let p50 =
        |samples: &[Sample]| median(&mut samples.iter().map(|s| s.ms(true)).collect::<Vec<_>>());
    let overhead = p50(&traced).zip(p50(&plain)).map(|(t, u)| t / u);
    m.put("tracing.overhead", overhead, "ratio");

    phase_replay(setup, spans, checked, &mut m);
    m
}

const MIB: f64 = 1024.0 * 1024.0;

/// Plan-cache counters summed over the set-up's services.
fn cache_totals(setup: &Setup) -> CacheStats {
    let mut t = CacheStats::default();
    for s in &setup.services {
        let c = s.metrics().cache;
        t.hits += c.hits;
        t.misses += c.misses;
        t.evictions += c.evictions;
    }
    t
}

/// Replays every statement once per configuration through the public
/// function of each layer and derives the layers' metrics: times are
/// medians over (statement, configuration), counts are totals over the
/// catalog.
fn phase_replay(setup: &Setup, spans: &mut Spans, checked: &mut Checked, m: &mut Metrics) {
    let envs: Vec<ReplayEnv> = setup
        .services
        .iter()
        .map(|s| ReplayEnv::new(Arc::clone(s.schema()), Arc::clone(s.database())))
        .collect();
    let mut replays = Spans::new(spans.epoch());
    let mut counters: Vec<[Option<Counters>; 5]> = Vec::new();
    for (i, stmt) in setup.statements.iter().enumerate() {
        let mut per = [None; 5];
        for (c, config) in CONFIGS.iter().enumerate() {
            let request = (1 << 48) + (i * CONFIGS.len() + c) as u64;
            let outcome = envs[stmt.dataset].replay(stmt.text, config, &mut replays, request);
            checked.attempted += 1;
            match outcome {
                Ok((rows, cnt)) if Some(Digest::of(&rows)) == stmt.reference => per[c] = Some(cnt),
                _ => checked.failed += 1,
            }
        }
        counters.push(per);
    }

    for (metric, span, unit, unit_ns) in [
        ("parse.self_us", "parse", "us", 1e3),
        ("rewrite.self_us", "rewrite", "us", 1e3),
        ("translate.self_us", "translate", "us", 1e3),
        ("optimise.self_us", "optimise", "us", 1e3),
        ("plan.self_us", "plan", "us", 1e3),
        ("exec.self_ms", "exec", "ms", 1e6),
        ("graph.self_ms", "graph", "ms", 1e6),
    ] {
        m.put(metric, median(&mut replays.self_times(span, unit_ns)), unit);
    }
    spans.append(replays);

    // Totals over every statement in the configurations of one backend;
    // counters a backend does not have read 0.
    let total = |graph: bool, f: fn(&Counters) -> usize| {
        counters
            .iter()
            .flat_map(|per| per.iter().zip(&CONFIGS))
            .filter(|(_, config)| (config.backend == Backend::Graph) == graph)
            .filter_map(|(cnt, _)| cnt.as_ref().map(f))
            .sum::<usize>() as f64
    };

    // Rewrite outcomes: one per statement, from the relational schema
    // configuration.
    let rel_schema = config_index("rel.schema");
    let dop2 = config_index("rel.schema.dop2");
    let rewrites: Vec<&Counters> = counters
        .iter()
        .filter_map(|per| per[rel_schema].as_ref())
        .collect();
    let rewrite_total = |f: fn(&Counters) -> usize| rewrites.iter().map(|c| f(c)).sum::<usize>();
    for (metric, kind) in [
        ("rewrite.enriched", RewriteKind::Enriched),
        ("rewrite.reverted", RewriteKind::Reverted),
        ("rewrite.empty", RewriteKind::Empty),
    ] {
        let n = rewrites.iter().filter(|c| c.rewrite == Some(kind)).count();
        m.put(metric, Some(n as f64), "count");
    }
    let eliminated = rewrites.iter().filter(|c| c.closure_eliminated).count();
    m.put(
        "rewrite.closure_eliminated",
        Some(eliminated as f64),
        "count",
    );
    m.put(
        "rewrite.disjuncts",
        Some(rewrite_total(|c| c.disjuncts) as f64),
        "count",
    );
    m.put(
        "rewrite.atoms",
        Some(rewrite_total(|c| c.atoms) as f64),
        "count",
    );

    let materialized = total(false, |c| c.rows_materialized);
    let result_rows = total(false, |c| c.result_rows);
    let builds = total(false, |c| c.hash_builds);
    let hits = total(false, |c| c.cache_hits);
    m.put("exec.rows_materialized", Some(materialized), "count");
    m.put("exec.scans", Some(total(false, |c| c.scans)), "count");
    m.put(
        "exec.rows_out_ratio",
        Some(result_rows / materialized.max(1.0)),
        "ratio",
    );
    m.put(
        "exec.fixpoint_rounds",
        Some(total(false, |c| c.fixpoint_rounds)),
        "count",
    );
    m.put("exec.replans", Some(total(false, |c| c.replans)), "count");
    m.put("exec.hash_builds", Some(builds), "count");
    m.put(
        "exec.fixpoint_cache_hit_ratio",
        Some(hits / (hits + builds).max(1.0)),
        "ratio",
    );

    m.put(
        "parallel.morsels",
        Some(total(false, |c| c.morsels)),
        "count",
    );
    let speedups: Vec<f64> = counters
        .iter()
        .filter_map(|per| {
            let (one, two) = (per[rel_schema]?.exec_ns, per[dop2]?.exec_ns);
            (one > 0 && two > 0).then(|| one as f64 / two as f64)
        })
        .collect();
    m.put("parallel.speedup", geomean(&speedups), "ratio");

    m.put(
        "graph.pairs_materialized",
        Some(total(true, |c| c.pairs)),
        "count",
    );
    m.put(
        "graph.tc_rounds",
        Some(total(true, |c| c.tc_rounds)),
        "count",
    );
}

fn config_index(name: &str) -> usize {
    CONFIGS
        .iter()
        .position(|c| c.name == name)
        .expect("a configured name")
}
