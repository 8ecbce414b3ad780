//! Micro-benchmarks of the statistics and cardinality-estimation layer:
//! statistics collection (one pass + per-label SCC condensation), the
//! O(1) `source_selectivity` fast path, the front-end cost of
//! optimising + planning the full LDBC catalog under the stats-v2
//! estimator vs the v1 heuristics, and the feedback-memo sweep —
//! prepare+execute of the catalog with the memo cold vs warmed by one
//! prior execution of every query.

use sgq_bench::{black_box, criterion_group, criterion_main, Criterion};
use sgq_common::{EdgeLabelId, NodeLabelId};
use sgq_core::pipeline::{rewrite_path, RewriteOptions};
use sgq_datasets::ldbc::{self, LdbcConfig};
use sgq_graph::GraphStats;
use sgq_ra::exec::{execute_plan, ExecContext};
use sgq_ra::optimize::optimize;
use sgq_ra::{plan, RaTerm, RelStore};
use sgq_translate::ucqt2rra::{ucqt_to_term, NameGen};

fn bench(c: &mut Criterion) {
    let (schema, db) = ldbc::generate(LdbcConfig::at_scale(0.3));
    let store = RelStore::load(&db);
    let mut store_v1 = RelStore::load(&db);
    store_v1.v1_estimates = true;

    // Every catalog query, schema-rewritten and translated once outside
    // the timed loops — what is measured is estimation + planning.
    let terms: Vec<RaTerm> = ldbc::queries(&schema)
        .expect("catalog parses")
        .iter()
        .filter_map(|q| {
            let rewritten = rewrite_path(&schema, &q.expr, RewriteOptions::default());
            let mut names = NameGen::new(&store.symbols);
            ucqt_to_term(rewritten.outcome.query()?, &mut names).ok()
        })
        .collect();
    assert!(terms.len() >= 25, "catalog should mostly translate");

    let mut group = c.benchmark_group("cardinality_estimates");
    group.bench_function("graphstats_compute_sf03", |b| {
        // One pass over the database plus one SCC condensation per edge
        // label (the closure depth bounds).
        b.iter(|| black_box(GraphStats::compute(&db)))
    });
    group.bench_function("source_selectivity_all_pairs", |b| {
        // The satellite fix: per-(src label, edge label) aggregates make
        // this an O(1) lookup; at SF 0.3 the old path scanned every
        // observed triple per call.
        let stats = &store.stats;
        b.iter(|| {
            let mut acc = 0.0f64;
            for le in 0..db.edge_label_count() {
                for l in 0..db.node_label_count() {
                    acc += stats.source_selectivity(
                        NodeLabelId::new(l as u32),
                        EdgeLabelId::new(le as u32),
                    );
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("optimize_plan_catalog_stats_v2", |b| {
        b.iter(|| {
            for t in &terms {
                let p = plan(&optimize(t, &store), &store).expect("plans");
                black_box(p.est.rows);
            }
        })
    });
    group.bench_function("optimize_plan_catalog_v1_heuristics", |b| {
        b.iter(|| {
            for t in &terms {
                let p = plan(&optimize(t, &store_v1), &store_v1).expect("plans");
                black_box(p.est.rows);
            }
        })
    });

    // --- Feedback memo: prepare+execute the catalog cold vs warm. ---
    let prepare_execute = |store: &RelStore| {
        for t in &terms {
            let p = plan(&optimize(t, store), store).expect("plans");
            let mut ctx = ExecContext::new();
            black_box(execute_plan(&p, store, &mut ctx).expect("executes").len());
        }
    };
    store.feedback.set_enabled(false);
    group.bench_function("prepare_execute_catalog_cold", |b| {
        b.iter(|| prepare_execute(&store))
    });
    // Warm the memo: one recorded execution per catalog query, then
    // measure with estimation drawing from the observations (plans may
    // pick different physical strategies than the cold pass).
    store.feedback.clear();
    store.feedback.set_enabled(true);
    prepare_execute(&store);
    group.bench_function("prepare_execute_catalog_memo_warm", |b| {
        b.iter(|| prepare_execute(&store))
    });
    group.bench_function("optimize_plan_catalog_memo_warm", |b| {
        // Front-end only: the memo lookups ride the estimation pass.
        b.iter(|| {
            for t in &terms {
                let p = plan(&optimize(t, &store), &store).expect("plans");
                black_box(p.est.rows);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
