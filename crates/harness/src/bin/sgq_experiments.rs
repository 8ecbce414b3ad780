//! `sgq-experiments` — regenerates every table and figure of the paper.
//!
//! ```text
//! sgq-experiments [EXPERIMENTS...] [--timeout-ms N] [--reps N]
//!                 [--sf-max X] [--yago-scale X] [--backend graph|relational]
//!                 [--out results.json]
//!                 [--smoke] [--serve-workers 1,2,4] [--serve-clients N]
//!                 [--serve-iters N] [--serve-sf X] [--replay-sf X]
//!                 [--chaos-sf X] [--chaos-prob P] [--chaos-seeds a,b,c]
//!
//! EXPERIMENTS: all (default) | table3 | table5 | table6 | table7 | table8
//!              | fig12 | fig13 | fig14 | fig15 | fig17 | reverts
//!              | plans | smoke | serve | estimates | parallel | observe
//!              | layouts | chaos
//!              (the last eight run explicit only, not as part of `all`)
//!
//! `plans` prints the physical execution plans of Fig. 2 showcase
//! queries (join strategies, build sides, fixpoint caching counters);
//! `smoke` cross-checks both backends on the tiny Fig. 2 database and
//! exits non-zero on any disagreement — the CI harness gate.
//! `serve` runs the closed-loop service throughput experiment (N client
//! threads over the LDBC catalog, worker sweep, plan-cache on/off);
//! `serve --smoke` is the small CI variant that also verifies concurrent
//! results against sequential execution.
//! `estimates`, `parallel` and `layouts` replay both catalogs at one
//! scale (`--replay-sf` picks the LDBC scale factor, `--yago-scale` the
//! YAGO size, `--timeout-ms` the per-query timeout); `observe` replays
//! YAGO at the same size and timeout. Their `--smoke` gates run at the
//! fixed smoke scale.
//! `estimates` reports the per-query q-error of the stats-v2 cardinality
//! estimator against the v1 heuristics; `estimates --smoke` is the CI
//! gate asserting the v2 median q-error beats v1 on both catalogs.
//! `parallel` runs both catalogs serially and at DOP=N, asserts the
//! results bit-identical, and prints per-query speedups;
//! `parallel --smoke` is the CI gate at smoke scale with the cost gate
//! forced open so every probe splits into morsels.
//! `observe` replays the YAGO catalog through a traced service and
//! reports per-phase timings, the Chrome-trace export and tracing
//! overhead; `observe --smoke` is the CI gate asserting the export
//! parses with every lifecycle phase covered, operator spans match
//! `EXPLAIN ANALYZE` bit-for-bit, and the disabled tracer stays under
//! a 5% overhead budget.
//! `layouts` runs both catalogs under every physical storage layout
//! (per-label, polymorphic, denormalised), asserts the results
//! bit-identical, and tabulates per-layout timings and plan costs
//! against the schema-driven advisor's pick; `layouts --smoke` is the
//! CI gate at smoke scale additionally requiring at least one query to
//! plan measurably cheaper under a non-default layout.
//! `chaos` replays the LDBC catalog under seeded deterministic fault
//! injection (`--chaos-sf`, `--chaos-prob`, `--chaos-seeds`), asserting
//! every query completes bit-identically to the fault-free reference or
//! fails with a classified retryable error, with zero worker deaths and
//! a balanced memory governor; `chaos --smoke` is the CI gate at smoke
//! scale with a single fixed seed.
//! ```

use std::io::Write as _;

use sgq_core::RedundancyRule;
use sgq_harness::chaos::{self, ChaosConfig};
use sgq_harness::experiments::{self, ExperimentConfig, ServeConfig};
use sgq_harness::parallel::{self, ParallelConfig};
use sgq_harness::replay::ReplayScale;
use sgq_harness::runner::Backend;
use sgq_harness::{estimates, layouts, observe};

/// An experiment that runs only when named: its name, its `--smoke`
/// variant and its full run.
type Explicit<'a> = (&'a str, fn() -> String, &'a dyn Fn() -> String);

/// The value following `flag`, parsed.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} takes a value"))
}

/// The comma-separated list following `flag`, parsed.
fn list<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Vec<T> {
    let raw: String = value(args, flag);
    raw.split(',')
        .map(|v| v.parse().unwrap_or_else(|_| panic!("{flag} takes a,b,c")))
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut wanted: Vec<String> = Vec::new();
    let mut cfg = ExperimentConfig::default();
    let mut serve_cfg = ServeConfig::default();
    let mut replay = ReplayScale::default();
    let mut chaos_cfg = ChaosConfig::default();
    let mut smoke_variant = false;
    let mut out_path: Option<String> = None;

    while let Some(arg) = args.next() {
        let a = &mut args;
        match arg.as_str() {
            "--timeout-ms" => {
                let ms = value(a, &arg);
                cfg.run.timeout_ms = ms;
                serve_cfg.timeout_ms = ms;
                replay.timeout_ms = ms;
                chaos_cfg.timeout_ms = ms;
            }
            "--reps" => cfg.run.repetitions = value(a, &arg),
            "--sf-max" => {
                let max: f64 = value(a, &arg);
                cfg.ldbc_sfs.retain(|&sf| sf <= max);
            }
            "--yago-scale" => {
                cfg.yago_scale = value(a, &arg);
                replay.yago_scale = cfg.yago_scale;
            }
            "--replay-sf" => replay.ldbc_sf = value(a, &arg),
            "--redundancy" => {
                cfg.run.rewrite.redundancy = match value::<String>(a, &arg).as_str() {
                    "bothsides" => RedundancyRule::BothSides,
                    "eitherside" => RedundancyRule::EitherSide,
                    "never" => RedundancyRule::Never,
                    other => panic!("unknown redundancy rule {other}"),
                };
            }
            "--backend" => {
                cfg.backend = match value::<String>(a, &arg).as_str() {
                    "graph" => Backend::Graph,
                    "relational" => Backend::Relational,
                    other => panic!("unknown backend {other}"),
                };
            }
            "--out" => out_path = Some(value(a, &arg)),
            "--smoke" => smoke_variant = true,
            "--serve-workers" => serve_cfg.worker_counts = list(a, &arg),
            "--serve-clients" => serve_cfg.clients = value(a, &arg),
            "--serve-iters" => serve_cfg.iters_per_client = value(a, &arg),
            "--serve-sf" => serve_cfg.sf = value(a, &arg),
            "--chaos-sf" => chaos_cfg.sf = value(a, &arg),
            "--chaos-prob" => chaos_cfg.probability = value(a, &arg),
            "--chaos-seeds" => chaos_cfg.seeds = list(a, &arg),
            _ => wanted.push(arg),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let want = |name: &str| wanted.iter().any(|w| w == name || w == "all");
    // Cheap local experiments that run only when asked for by name, so
    // `all` keeps its paper-suite meaning.
    let want_exact = |name: &str| wanted.iter().any(|w| w == name);

    let mut all_records = Vec::new();

    let explicit: [Explicit<'_>; 8] = [
        (
            "plans",
            experiments::physical_plans,
            &experiments::physical_plans,
        ),
        ("smoke", experiments::smoke, &experiments::smoke),
        ("serve", experiments::serve_smoke, &|| {
            experiments::serve(&serve_cfg)
        }),
        ("estimates", estimates::estimates_smoke, &|| {
            estimates::estimates(&replay)
        }),
        ("parallel", parallel::parallel_smoke, &|| {
            parallel::parallel(&replay, &ParallelConfig::default())
        }),
        ("observe", observe::observe_smoke, &|| {
            observe::observe(&replay)
        }),
        ("layouts", layouts::layouts_smoke, &|| {
            layouts::layouts(&replay)
        }),
        ("chaos", chaos::chaos_smoke, &|| chaos::chaos(&chaos_cfg)),
    ];
    for (name, smoke, full) in explicit {
        if want_exact(name) {
            println!("{}", if smoke_variant { smoke() } else { full() });
        }
    }

    if want("table3") {
        println!("{}", experiments::table3(&cfg));
    }
    if want("table6") {
        println!("{}", experiments::table6(&cfg));
    }
    if want("reverts") {
        println!("{}", experiments::reverts(&cfg));
    }
    if want("fig12") {
        let records = experiments::yago_suite(&cfg);
        println!("{}", experiments::fig12(&records, cfg.run.timeout_ms));
        all_records.extend(records);
    }
    let need_ldbc = ["table5", "table7", "table8", "fig13"]
        .iter()
        .any(|e| want(e));
    if need_ldbc {
        eprintln!(
            "running the LDBC suite (30 queries x {} scale factors x 2 approaches, timeout {} ms)...",
            cfg.ldbc_sfs.len(),
            cfg.run.timeout_ms
        );
        let records = experiments::ldbc_suite(&cfg);
        if want("table5") {
            println!("{}", experiments::table5(&records, &cfg));
        }
        if want("table7") {
            println!("{}", experiments::table7(&records, cfg.run.timeout_ms));
        }
        if want("table8") {
            println!("{}", experiments::table8(&records, cfg.run.timeout_ms));
        }
        if want("fig13") {
            println!("{}", experiments::fig13(&records, &cfg));
        }
        all_records.extend(records);
    }
    if want("fig14") {
        let (records, report) = experiments::fig14(&cfg);
        println!("{report}");
        all_records.extend(records);
    }
    if want("fig15") || want("fig16") {
        println!("{}", experiments::fig15_16());
    }
    if want("fig17") {
        println!("{}", experiments::fig17(0.3));
    }

    if let Some(path) = out_path {
        let json = sgq_harness::records::to_json(&all_records);
        let mut f = std::fs::File::create(&path).expect("create --out file");
        f.write_all(json.as_bytes()).expect("write --out file");
        eprintln!("wrote {} records to {path}", all_records.len());
    }
}
