//! One function per table/figure of the paper's evaluation (§5).
//!
//! Every function returns a printable report; suite functions also return
//! the raw [`RunRecord`]s so the binary can dump them as JSON.

use std::fmt::Write as _;

use sgq_core::pipeline::{rewrite_path, RewriteOptions, RewriteOutcome};
use sgq_datasets::ldbc::{self, LdbcConfig};
use sgq_datasets::stats::{dataset_stats, DatasetStats};
use sgq_datasets::yago::{self, YagoConfig};
use sgq_datasets::CatalogQuery;
use sgq_query::cqt::Ucqt;
use sgq_ra::exec::ExecContext;
use sgq_translate::ucqt2rra::{ucqt_to_term, NameGen};

use crate::records::RunRecord;
use crate::runner::{cross_check, run_query, Approach, Backend, RunConfig, Session};
use crate::summary::Summary;

/// Configuration shared by the experiment suite.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Timeout/repetition protocol.
    pub run: RunConfig,
    /// LDBC scale factors to evaluate (subset of the paper's six).
    pub ldbc_sfs: Vec<f64>,
    /// Scaling of the YAGO dataset relative to the default size.
    pub yago_scale: f64,
    /// The backend for the single-backend experiments (the paper's main
    /// backend is PostgreSQL → our relational engine).
    pub backend: Backend,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            run: RunConfig::default(),
            ldbc_sfs: ldbc::SCALE_FACTORS.to_vec(),
            yago_scale: 1.0,
            backend: Backend::Relational,
        }
    }
}

/// Tab. 3: dataset characteristics.
pub fn table3(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: Summary of dataset characteristics");
    let _ = writeln!(out, "{}", DatasetStats::header());
    let (_, db) = yago::generate(YagoConfig::scaled(cfg.yago_scale));
    let _ = writeln!(out, "{}", dataset_stats("YAGO", None, &db).row());
    for &sf in &cfg.ldbc_sfs {
        let (_, db) = ldbc::generate(LdbcConfig::at_scale(sf));
        let _ = writeln!(out, "{}", dataset_stats("LDBC-SNB", Some(sf), &db).row());
    }
    out
}

/// Runs the full LDBC suite: 30 queries × scale factors × {B, S}.
pub fn ldbc_suite(cfg: &ExperimentConfig) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for &sf in &cfg.ldbc_sfs {
        let (schema, db) = ldbc::generate(LdbcConfig::at_scale(sf));
        let session = Session::new(&schema, &db);
        let queries = ldbc::queries(&schema).expect("catalog parses");
        for q in &queries {
            records.extend(run_both(&session, q, Some(sf), cfg.backend, &cfg.run));
        }
    }
    records
}

/// Runs the YAGO suite: 18 queries × {B, S} (Fig. 12's data).
pub fn yago_suite(cfg: &ExperimentConfig) -> Vec<RunRecord> {
    let (schema, db) = yago::generate(YagoConfig::scaled(cfg.yago_scale));
    let session = Session::new(&schema, &db);
    let queries = yago::queries(&schema).expect("catalog parses");
    let mut records = Vec::new();
    for q in &queries {
        records.extend(run_both(&session, q, None, cfg.backend, &cfg.run));
    }
    records
}

fn run_both(
    session: &Session<'_>,
    q: &CatalogQuery,
    sf: Option<f64>,
    backend: Backend,
    run: &RunConfig,
) -> Vec<RunRecord> {
    let kind = q.kind().to_string();
    let rewritten = rewrite_path(session.schema, &q.expr, run.rewrite);
    let reverted = rewritten.outcome.is_reverted();
    [Approach::Baseline, Approach::Schema]
        .into_iter()
        .map(|approach| {
            let m = run_query(session, &q.expr, approach, backend, run);
            RunRecord::new(
                q.name,
                &kind,
                sf,
                approach,
                backend,
                m,
                (approach == Approach::Schema).then_some(reverted),
            )
        })
        .collect()
}

/// Tab. 5: feasibility counts per scale factor, split RQ/NQ and B/S.
pub fn table5(records: &[RunRecord], cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 5: LDBC query feasibility across scale factors");
    let _ = writeln!(
        out,
        "{:>5} | {:>12} {:>8} | {:>12} {:>8} | {:>12} {:>8} | {:>12} {:>8}",
        "SF", "RQ-B count", "%", "RQ-S count", "%", "NQ-B count", "%", "NQ-S count", "%"
    );
    for &sf in &cfg.ldbc_sfs {
        let cell = |kind: &str, approach: &str| {
            let total = records
                .iter()
                .filter(|r| r.scale_factor == Some(sf) && r.kind == kind && r.approach == approach)
                .count();
            let ok = records
                .iter()
                .filter(|r| {
                    r.scale_factor == Some(sf)
                        && r.kind == kind
                        && r.approach == approach
                        && r.feasible()
                })
                .count();
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * ok as f64 / total as f64
            };
            (ok, pct)
        };
        let (rqb, rqbp) = cell("RQ", "B");
        let (rqs, rqsp) = cell("RQ", "S");
        let (nqb, nqbp) = cell("NQ", "B");
        let (nqs, nqsp) = cell("NQ", "S");
        let _ = writeln!(
            out,
            "{sf:>5} | {rqb:>12} {rqbp:>7.1}% | {rqs:>12} {rqsp:>7.1}% | {nqb:>12} {nqbp:>7.1}% | {nqs:>12} {nqsp:>7.1}%"
        );
    }
    out
}

/// Tab. 6: statistics on the fixed-length paths generated for the YAGO
/// queries (computed from the rewriter, no execution involved).
pub fn table6(cfg: &ExperimentConfig) -> String {
    let schema = yago::schema();
    let queries = yago::queries(&schema).expect("catalog parses");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 6: Statistics on generated fixed-length paths (YAGO)"
    );
    let _ = writeln!(
        out,
        "{:<6} {:>7} {:>5} {:>5} {:>5}  outcome",
        "Query", "#Paths", "Min", "Avg", "Max"
    );
    let mut eliminated = 0usize;
    for q in &queries {
        let r = rewrite_path(&schema, &q.expr, cfg.run.rewrite);
        let stats = &r.report.plus_stats;
        let outcome = if r.outcome.is_reverted() {
            "reverted"
        } else if stats.path_lengths.is_empty() {
            "no elimination"
        } else {
            eliminated += 1;
            if r.report.still_recursive {
                "partial elimination"
            } else {
                "closure eliminated"
            }
        };
        match (stats.min(), stats.avg(), stats.max()) {
            (Some(min), Some(avg), Some(max)) => {
                let _ = writeln!(
                    out,
                    "{:<6} {:>7} {:>5} {:>5.1} {:>5}  {outcome}",
                    q.name,
                    stats.count(),
                    min,
                    avg,
                    max
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "{:<6} {:>7} {:>5} {:>5} {:>5}  {outcome}",
                    q.name, 0, "-", "-", "-"
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "Transitive closure replaced by fixed-length paths in {eliminated} of {} queries.",
        queries.len()
    );
    out
}

/// Tab. 7: runtime summary, recursive vs non-recursive, B vs S.
pub fn table7(records: &[RunRecord], timeout_ms: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 7: Query runtime summary statistics (seconds; infeasible runs counted at the timeout, as in the paper's Max = 1800s)"
    );
    let _ = writeln!(out, "{}", Summary::header());
    for kind in ["RQ", "NQ"] {
        for approach in ["B", "S"] {
            let values: Vec<f64> = records
                .iter()
                .filter(|r| r.kind == kind && r.approach == approach)
                .map(|r| r.ms.unwrap_or(timeout_ms as f64))
                .collect();
            if let Some(s) = Summary::compute(&values) {
                let label = format!(
                    "{} {}",
                    if kind == "RQ" {
                        "Recursive"
                    } else {
                        "Non-recursive"
                    },
                    if approach == "B" {
                        "baseline"
                    } else {
                        "schema"
                    }
                );
                let _ = writeln!(out, "{}", s.row_seconds(&label));
            }
        }
    }
    if let Some(ratio) = mean_ratio(records, "RQ", timeout_ms) {
        let _ = writeln!(out, "Recursive: schema is {ratio:.2}x faster on average");
    }
    if let Some(ratio) = mean_ratio(records, "NQ", timeout_ms) {
        let _ = writeln!(
            out,
            "Non-recursive: schema is {ratio:.2}x faster on average"
        );
    }
    out
}

fn mean_ratio(records: &[RunRecord], kind: &str, timeout_ms: u64) -> Option<f64> {
    let mean = |approach: &str| {
        let v: Vec<f64> = records
            .iter()
            .filter(|r| r.kind == kind && r.approach == approach)
            .map(|r| r.ms.unwrap_or(timeout_ms as f64))
            .collect();
        Summary::compute(&v).map(|s| s.mean)
    };
    Some(mean("B")? / mean("S")?.max(1e-9))
}

/// Tab. 8: overall runtime analysis.
pub fn table8(records: &[RunRecord], timeout_ms: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 8: Overall analysis of query runtime (seconds)");
    let _ = writeln!(out, "{}", Summary::header());
    for approach in ["B", "S"] {
        let values: Vec<f64> = records
            .iter()
            .filter(|r| r.approach == approach)
            .map(|r| r.ms.unwrap_or(timeout_ms as f64))
            .collect();
        if let Some(s) = Summary::compute(&values) {
            let label = if approach == "B" {
                "Baseline"
            } else {
                "Schema"
            };
            let _ = writeln!(out, "{}", s.row_seconds(label));
        }
    }
    out
}

/// Fig. 12: per-query YAGO runtimes, baseline vs schema.
pub fn fig12(records: &[RunRecord], timeout_ms: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 12: Query runtime for the YAGO dataset (ms)");
    let _ = writeln!(
        out,
        "{:<6} {:>12} {:>12} {:>9}",
        "Query", "Baseline", "Schema", "Speedup"
    );
    let mut speedups: Vec<f64> = Vec::new();
    let names: Vec<&str> = {
        let mut v: Vec<&str> = records.iter().map(|r| r.query.as_str()).collect();
        v.dedup();
        v
    };
    for name in names {
        let get = |approach: &str| {
            records
                .iter()
                .find(|r| r.query == name && r.approach == approach)
                .and_then(|r| r.ms)
        };
        let b = get("B").unwrap_or(timeout_ms as f64);
        let s = get("S").unwrap_or(timeout_ms as f64);
        let speedup = b / s.max(1e-9);
        speedups.push(speedup);
        let _ = writeln!(out, "{name:<6} {b:>12.3} {s:>12.3} {speedup:>8.2}x");
    }
    let geo = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp();
    let arith = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let _ = writeln!(
        out,
        "Average speedup: {arith:.2}x (arithmetic), {geo:.2}x (geometric); paper reports 6.1x"
    );
    out
}

/// Fig. 13: per-scale-factor box-plot statistics (B vs S).
pub fn fig13(records: &[RunRecord], cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 13: Box plot of LDBC query runtime per scale factor (seconds, feasible runs only)"
    );
    let _ = writeln!(out, "{}", Summary::header());
    for &sf in &cfg.ldbc_sfs {
        for approach in ["B", "S"] {
            let values: Vec<f64> = records
                .iter()
                .filter(|r| r.scale_factor == Some(sf) && r.approach == approach)
                .filter_map(|r| r.ms)
                .collect();
            if let Some(s) = Summary::compute(&values) {
                let _ = writeln!(out, "{}", s.row_seconds(&format!("SF{sf} {approach}")));
            }
        }
    }
    out
}

/// Fig. 14: graph vs relational backends on the Cypher-expressible
/// chain-shaped queries (§5.5).
pub fn fig14(cfg: &ExperimentConfig) -> (Vec<RunRecord>, String) {
    let sfs: Vec<f64> = cfg
        .ldbc_sfs
        .iter()
        .copied()
        .filter(|&sf| sf <= 3.0)
        .collect();
    let mut records = Vec::new();
    let schema = ldbc::schema();
    let chain_queries: Vec<CatalogQuery> = ldbc::queries(&schema)
        .expect("catalog parses")
        .into_iter()
        .filter(|q| sgq_translate::cypher_expressible(&q.ucqt()))
        .collect();
    for &sf in &sfs {
        let (schema, db) = ldbc::generate(LdbcConfig::at_scale(sf));
        let session = Session::new(&schema, &db);
        let queries = ldbc::queries(&schema).expect("catalog parses");
        for q in queries
            .iter()
            .filter(|q| chain_queries.iter().any(|c| c.name == q.name))
        {
            for backend in [Backend::Graph, Backend::Relational] {
                let kind = q.kind().to_string();
                for approach in [Approach::Baseline, Approach::Schema] {
                    let m = run_query(&session, &q.expr, approach, backend, &cfg.run);
                    records.push(RunRecord::new(
                        q.name,
                        &kind,
                        Some(sf),
                        approach,
                        backend,
                        m,
                        None,
                    ));
                }
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 14: Query runtimes on the graph (G, Neo4j stand-in) and relational (P, PostgreSQL stand-in) backends"
    );
    let _ = writeln!(
        out,
        "({} of 30 Tab. 4 queries are chain-shaped / Cypher-expressible)",
        chain_queries.len()
    );
    let _ = writeln!(out, "{}", Summary::header());
    for &sf in &sfs {
        for (backend, tag) in [(Backend::Graph, "G"), (Backend::Relational, "P")] {
            for approach in ["B", "S"] {
                let values: Vec<f64> = records
                    .iter()
                    .filter(|r| {
                        r.scale_factor == Some(sf)
                            && r.backend == backend.to_string()
                            && r.approach == approach
                    })
                    .filter_map(|r| r.ms)
                    .collect();
                if let Some(s) = Summary::compute(&values) {
                    let _ = writeln!(out, "{}", s.row_seconds(&format!("SF{sf} {tag}{approach}")));
                }
            }
        }
    }
    (records, out)
}

/// Q1 (`knows/workAt/isLocatedIn`, baseline) and Q2 (its enriched
/// rewrite): Figs. 15–17 render the translation, not a prepared plan.
fn q1_and_q2(schema: &sgq_graph::GraphSchema) -> (Ucqt, Ucqt) {
    let expr =
        sgq_algebra::parser::parse_path("knows/workAt/isLocatedIn", schema).expect("Q1 parses");
    match rewrite_path(schema, &expr, RewriteOptions::default()).outcome {
        RewriteOutcome::Enriched(q) => (Ucqt::path_query(expr), q),
        other => panic!("Q1 must enrich, got {other:?}"),
    }
}

/// Figs. 15 & 16: the SQL and Cypher translations of Q1 (baseline) and Q2
/// (schema-enriched) — `knows/workAt/isLocatedIn`.
pub fn fig15_16() -> String {
    let schema = ldbc::schema();
    let (baseline, enriched) = q1_and_q2(&schema);
    // No store is involved: the SQL text is the product, so a standalone
    // symbol table provides the column-id space.
    let symbols = sgq_ra::SymbolTable::new();
    let mut names = NameGen::new(&symbols);
    let t_base = ucqt_to_term(&baseline, &mut names).expect("translates");
    let t_schema = ucqt_to_term(&enriched, &mut names).expect("translates");
    let mut out = String::new();
    out.push_str("Figure 15 — SQL translations\n\n-- BASELINE (Q1)\n");
    out.push_str(&sgq_translate::to_sql(&t_base, &schema, &symbols));
    out.push_str("\n\n-- SCHEMA-ENRICHED (Q2)\n");
    out.push_str(&sgq_translate::to_sql(&t_schema, &schema, &symbols));
    out.push_str("\n\nFigure 16 — Cypher translations\n\n// BASELINE (Q1)\n");
    out.push_str(&sgq_translate::to_cypher_resolved(&baseline, &schema).expect("chain"));
    out.push_str("\n\n// SCHEMA-ENRICHED (Q2)\n");
    out.push_str(&sgq_translate::to_cypher_resolved(&enriched, &schema).expect("chain"));
    out.push('\n');
    out
}

/// Fig. 17: execution plans with estimated cost/rows and actual rows for
/// Q1 and Q2 on an LDBC instance.
pub fn fig17(sf: f64) -> String {
    let (schema, db) = ldbc::generate(LdbcConfig::at_scale(sf));
    let store = sgq_ra::RelStore::load(&db);
    let (baseline, enriched) = q1_and_q2(&schema);
    let mut names = NameGen::new(&store.symbols);
    let t_base = sgq_ra::optimize::optimize(
        &ucqt_to_term(&baseline, &mut names).expect("translates"),
        &store,
    );
    let t_schema = sgq_ra::optimize::optimize(
        &ucqt_to_term(&enriched, &mut names).expect("translates"),
        &store,
    );
    let (rel_b, plan_b) = sgq_ra::explain::explain_analyze(&t_base, &store, &db).expect("executes");
    let (rel_s, plan_s) =
        sgq_ra::explain::explain_analyze(&t_schema, &store, &db).expect("executes");
    let mut out = String::new();
    let _ = writeln!(out, "Figure 17 — execution plans (LDBC SF {sf})\n");
    let _ = writeln!(
        out,
        "// BASELINE QUERY EXECUTION PLAN (Q1) — {} rows",
        rel_b.len()
    );
    out.push_str(&plan_b);
    let _ = writeln!(
        out,
        "\n// SCHEMA-ENRICHED QUERY EXECUTION PLAN (Q2) — {} rows",
        rel_s.len()
    );
    out.push_str(&plan_s);
    let mut ctx = ExecContext::new();
    let _ = sgq_ra::execute(&t_base, &store, &mut ctx);
    let base_rows = ctx.rows_materialized();
    let mut ctx = ExecContext::new();
    let _ = sgq_ra::execute(&t_schema, &store, &mut ctx);
    let schema_rows = ctx.rows_materialized();
    let _ = writeln!(
        out,
        "\nIntermediate rows materialised: baseline = {base_rows}, schema-enriched = {schema_rows}"
    );
    // The paper's headline number (isLocatedIn: 11,118,487 rows -> 7,955
    // after the Organisation semi-join): the same reduction on our store.
    let isl = schema.edge_label("isLocatedIn").expect("label exists");
    let company = schema.node_label("Company").expect("label exists");
    let isl_table = store.edge_table(isl);
    let filtered = isl_table.semijoin(
        &store
            .node_table(company)
            .with_cols(vec![sgq_ra::SymbolTable::SR]),
    );
    let _ = writeln!(
        out,
        "isLocatedIn relation: {} rows, reduced to {} by the Company semi-join",
        isl_table.len(),
        filtered.len()
    );
    out
}

/// §5.2: the revert lists for both catalogs.
pub fn reverts(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let schema = ldbc::schema();
    let mut reverted = Vec::new();
    for q in ldbc::queries(&schema).expect("catalog parses") {
        if rewrite_path(&schema, &q.expr, cfg.run.rewrite)
            .outcome
            .is_reverted()
        {
            reverted.push(q.name);
        }
    }
    let _ = writeln!(
        out,
        "LDBC queries reverting to their initial form ({} of 30): {}",
        reverted.len(),
        reverted.join(", ")
    );
    let yschema = yago::schema();
    let mut yreverted = Vec::new();
    for q in yago::queries(&yschema).expect("catalog parses") {
        if rewrite_path(&yschema, &q.expr, cfg.run.rewrite)
            .outcome
            .is_reverted()
        {
            yreverted.push(q.name);
        }
    }
    let _ = writeln!(
        out,
        "YAGO queries reverting to their initial form ({} of 18): {}",
        yreverted.len(),
        yreverted.join(", ")
    );
    let _ = writeln!(
        out,
        "(paper §5.2: 10 of 30 LDBC queries and 1 of 18 YAGO queries revert)"
    );
    out
}

/// Physical plan showcase on the Fig. 2 database: join strategy
/// selection (CSR index vs merge vs hash, cost-chosen build sides),
/// fused filtered scans, and fixpoint work counters with and without
/// the adjacency indexes. Ends with the LDBC smoke assertion: at least
/// one catalog query must plan a CSR `IndexJoin`.
pub fn physical_plans() -> String {
    use sgq_ra::exec::{execute_plan, ExecContext};
    use sgq_ra::term::{closure_fixpoint, RaTerm};

    let db = sgq_graph::database::fig2_yago_database();
    let mut store = sgq_ra::RelStore::load(&db);
    let s = &store.symbols;
    let scan = |label: &str, src: &str, tgt: &str| RaTerm::EdgeScan {
        label: db.edge_label_id(label).expect("label exists"),
        src: s.col(src),
        tgt: s.col(tgt),
    };
    let mut out = String::new();
    let _ = writeln!(out, "Physical execution plans (Fig. 2 database)\n");

    // 1. A selective probe against a base scan: the cost model replaces
    //    the scan with direct CSR neighbour probes — no materialisation,
    //    no hash table.
    let misaligned = RaTerm::join(scan("owns", "x", "y"), scan("isLocatedIn", "y", "z"));
    let _ = writeln!(
        out,
        "-- owns(x,y) ⋈ isLocatedIn(y,z): the 1-row owns side probes the CSR"
    );
    out.push_str(&sgq_ra::explain::explain(&misaligned, &store, &db));

    // 2. The scan-based strategies, shown with the indexes ablated:
    //    merge when the shared column leads both sorted inputs, hash
    //    with the cost-chosen build side otherwise.
    store.index_joins = false;
    let aligned = RaTerm::join(scan("isLocatedIn", "x", "y"), scan("owns", "x", "z"));
    let _ = writeln!(
        out,
        "\n-- isLocatedIn(x,y) ⋈ owns(x,z), indexes ablated: sorted on x on both sides"
    );
    out.push_str(&sgq_ra::explain::explain(&aligned, &store, &db));
    let _ = writeln!(
        out,
        "\n-- owns(x,y) ⋈ isLocatedIn(y,z), indexes ablated: y does not lead the left side"
    );
    out.push_str(&sgq_ra::explain::explain(&misaligned, &store, &db));
    store.index_joins = true;

    // 3. The transitive closure. With the CSR the step probes the
    //    load-time index every round — zero per-query hash builds; the
    //    ablation falls back to building (and caching) the step's hash
    //    table.
    let closure = closure_fixpoint(
        s.recvar("X"),
        scan("isLocatedIn", "x", "y"),
        s.col("x"),
        s.col("y"),
        s.col("m"),
    );
    let _ = writeln!(out, "\n-- µX. isLocatedIn ∪ π(X ⋈ isLocatedIn)");
    let plan_index = sgq_ra::plan(&closure, &store).expect("closure plans");
    out.push_str(&sgq_ra::explain::explain_plan(&plan_index, &store, &db));
    store.index_joins = false;
    let plan_hash = sgq_ra::plan(&closure, &store).expect("closure plans");
    store.index_joins = true;

    let mut ctx_index = ExecContext::new();
    let r_index = execute_plan(&plan_index, &store, &mut ctx_index).expect("executes");
    let mut cached = ExecContext::new();
    let r1 = execute_plan(&plan_hash, &store, &mut cached).expect("executes");
    let mut uncached = ExecContext::new();
    uncached.no_fixpoint_cache = true;
    let r2 = execute_plan(&plan_hash, &store, &mut uncached).expect("executes");
    assert_eq!(r1, r2, "build-side caching must not change results");
    assert_eq!(r1, r_index, "index joins must not change results");
    let _ = writeln!(
        out,
        "\nClosure over {} rounds: {} hash builds with the CSR index \
         ({} with cached hash builds, {} uncached), {} rows materialised \
         ({} / {} for the hash plans)",
        ctx_index.fixpoint_rounds,
        ctx_index.hash_builds,
        cached.hash_builds,
        uncached.hash_builds,
        ctx_index.rows_materialized(),
        cached.rows_materialized(),
        uncached.rows_materialized(),
    );

    // 4. The µ-RA pushdown composed with the physical layer: the label
    //    filter migrates into the fixpoint base, then fuses into the
    //    scan (or becomes an index-join endpoint filter).
    let filtered = RaTerm::semijoin(
        closure,
        RaTerm::NodeScan {
            labels: vec![db.node_label_id("CITY").expect("label exists")],
            col: s.col("x"),
        },
    );
    let optimized = sgq_ra::optimize::optimize(&filtered, &store);
    let _ = writeln!(
        out,
        "\n-- (µX. isLocatedIn ∪ π(X ⋈ isLocatedIn)) ⋉ CITY, optimised"
    );
    out.push_str(&sgq_ra::explain::explain(&optimized, &store, &db));

    // 5. CI smoke: on the LDBC catalog the cost model must choose a CSR
    //    index join for at least one query, from measured statistics
    //    alone.
    out.push_str(&ldbc_index_join_smoke());
    out
}

/// Prepares every LDBC catalog query (baseline, optimised relational) and
/// asserts at least one lowers to a CSR [`sgq_ra::PhysOp::IndexJoin`] —
/// the `plans` experiment's CI gate for the index layer. Returns the
/// report section listing the queries and one sample `EXPLAIN`.
fn ldbc_index_join_smoke() -> String {
    let is_index_join = |op: &sgq_ra::PhysOp| matches!(op, sgq_ra::PhysOp::IndexJoin { .. });
    let (schema, ldb) = ldbc::generate(LdbcConfig::at_scale(0.1));
    let store = sgq_ra::RelStore::load(&ldb);
    let queries = ldbc::queries(&schema).expect("catalog parses");
    let total = queries.len();
    let mut with_index = Vec::new();
    let mut sample = None;
    for q in &queries {
        let Ok(prepared) = sgq_service::prepare(
            &schema,
            &store,
            &q.expr,
            Backend::Relational,
            Approach::Baseline,
            RewriteOptions::default(),
        ) else {
            continue;
        };
        let Some(plan) = prepared.plan() else {
            continue;
        };
        if plan.contains_op(&is_index_join) {
            if sample.is_none() {
                sample = Some((q.name, sgq_ra::explain::explain_plan(plan, &store, &ldb)));
            }
            with_index.push(q.name);
        }
    }
    assert!(
        !with_index.is_empty(),
        "no LDBC catalog query planned an IndexJoin"
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nLDBC catalog queries planning a CSR Index Join (SF 0.1): {} of {total}: {}",
        with_index.len(),
        with_index.join(", ")
    );
    if let Some((name, rendered)) = sample {
        let _ = writeln!(out, "\n-- {name}, optimised physical plan");
        out.push_str(&rendered);
    }
    out
}

/// CI smoke run on the tiny Fig. 2 database: both backends, both
/// approaches, a handful of recursive and non-recursive paths. Panics on
/// any disagreement so a broken harness path fails the build.
pub fn smoke() -> String {
    let schema = sgq_graph::schema::fig1_yago_schema();
    let db = sgq_graph::database::fig2_yago_database();
    let session = Session::new(&schema, &db);
    let config = RunConfig {
        timeout_ms: 10_000,
        repetitions: 1,
        ..Default::default()
    };
    let mut out = String::new();
    let _ = writeln!(out, "Smoke run (Fig. 2 database, graph vs relational)\n");
    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>6} {:>6} {:>6}",
        "query", "G/B", "G/S", "R/B", "R/S"
    );
    for text in [
        "isLocatedIn",
        "isLocatedIn+",
        "owns/isLocatedIn+",
        "livesIn/isLocatedIn",
        "isMarriedTo+",
    ] {
        let [gb, gs, rb, rs] = cross_check(&session, text, &config);
        let _ = writeln!(out, "{text:<28} {gb:>6} {gs:>6} {rb:>6} {rs:>6}");
    }
    out
}

/// Configuration for the closed-loop serving experiment (`serve`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-pool sizes to sweep.
    pub worker_counts: Vec<usize>,
    /// Closed-loop client threads (each keeps one query in flight).
    pub clients: usize,
    /// Full passes over the catalog per client.
    pub iters_per_client: usize,
    /// LDBC scale factor of the served database.
    pub sf: f64,
    /// Per-query deadline (ms).
    pub timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            worker_counts: vec![1, 2, 4],
            clients: 8,
            iters_per_client: 3,
            sf: 0.3,
            timeout_ms: 30_000,
        }
    }
}

impl ServeConfig {
    /// The small configuration used by CI (`serve --smoke`).
    pub fn smoke() -> Self {
        ServeConfig {
            worker_counts: vec![1, 2],
            clients: 4,
            iters_per_client: 2,
            sf: 0.1,
            timeout_ms: 30_000,
        }
    }
}

/// One closed-loop serving measurement.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Worker threads.
    pub workers: usize,
    /// Whether the plan cache was consulted.
    pub cached: bool,
    /// Queries completed by the clients.
    pub completed: u64,
    /// Admission rejections the clients retried through.
    pub busy_retries: u64,
    /// Client-side wall clock of the loop (s).
    pub elapsed_s: f64,
    /// Completed queries per second of client wall clock.
    pub qps: f64,
    /// Plan-cache hit rate over the measured loop only (warmup
    /// prepares excluded).
    pub measured_hit_rate: f64,
    /// Service metrics at the end of the run.
    pub metrics: sgq_service::MetricsSnapshot,
}

/// Drives `clients` closed-loop client threads over an existing
/// service: each keeps one query in flight for `passes` passes over
/// `queries` (offset per client so the loop does not hit the same
/// statement in lock-step), retrying retryable errors (`Busy`, injected
/// transients) through [`sgq_service::retry_with_backoff`] with a
/// jittered exponential backoff instead of a hot spin. Returns
/// `(completed, retries)`; non-retryable errors are counted in the
/// service metrics. Shared by [`closed_loop`] and the
/// `service_throughput` bench.
pub fn run_clients(
    service: &sgq_service::Service,
    queries: &[String],
    clients: usize,
    passes: usize,
    opts: &sgq_service::QueryOptions,
) -> (u64, u64) {
    use sgq_service::{retry_with_backoff, RetryPolicy};
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let session = service.session();
                let opts = *opts;
                s.spawn(move || {
                    let mut ok = 0u64;
                    let mut retries = 0u64;
                    // Unbounded: a closed-loop client must eventually
                    // admit every request; the backoff (100 µs doubling
                    // to a 10 ms cap, jitter seeded per client) keeps
                    // the waiting off the CPU and decorrelated.
                    let policy = RetryPolicy::unbounded(0x9e3779b9 ^ client as u64);
                    for pass in 0..passes {
                        for i in 0..queries.len() {
                            let q = &queries[(i + client + pass) % queries.len()];
                            let (result, spent) =
                                retry_with_backoff(policy, || session.execute(q, &opts));
                            retries += spent;
                            if result.is_ok() {
                                ok += 1;
                            } // errors are counted in the service metrics
                        }
                    }
                    (ok, retries)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    })
}

/// Runs one closed loop: `clients` threads over a shared [`sgq_service::Service`],
/// each keeping one query in flight across `iters_per_client` passes of
/// `queries`. `Busy` rejections are retried (and counted); other errors
/// are surfaced in the service metrics. `store` is the pre-loaded
/// relational load of `db`, shared across the sweep's services.
pub fn closed_loop(
    schema: &std::sync::Arc<sgq_graph::GraphSchema>,
    db: &std::sync::Arc<sgq_graph::GraphDatabase>,
    store: &std::sync::Arc<sgq_ra::RelStore>,
    queries: &[String],
    workers: usize,
    cfg: &ServeConfig,
    cached: bool,
) -> ServeRun {
    use sgq_service::{QueryOptions, Service, ServiceConfig};
    use std::sync::Arc;
    use std::time::Instant;

    let service = Service::with_store(
        Arc::clone(schema),
        Arc::clone(db),
        Arc::clone(store),
        ServiceConfig {
            workers,
            queue_capacity: (cfg.clients * 2).max(8),
            default_timeout_ms: cfg.timeout_ms,
            ..Default::default()
        },
    );
    let opts = QueryOptions {
        use_cache: cached,
        ..Default::default()
    };
    if cached {
        // Warm the plan cache so the cached ablation measures execution,
        // not first-touch prepares. `prepare` runs inline and does not
        // touch the latency registry, so the reported percentiles only
        // contain measured-loop samples.
        let session = service.session();
        for q in queries {
            session.prepare(q, &opts).expect("warmup prepares");
        }
    }
    let cache_before = service.metrics().cache;
    let start = Instant::now();
    let (completed, busy_retries) =
        run_clients(&service, queries, cfg.clients, cfg.iters_per_client, &opts);
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    let metrics = service.metrics();
    service.shutdown();
    // Hit rate of the measured loop alone — the warmup pass's misses
    // are setup, not measurement.
    let hits = metrics.cache.hits - cache_before.hits;
    let misses = metrics.cache.misses - cache_before.misses;
    let measured_hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    ServeRun {
        workers,
        cached,
        completed,
        busy_retries,
        elapsed_s,
        qps: completed as f64 / elapsed_s,
        measured_hit_rate,
        metrics,
    }
}

/// The `serve` experiment: closed-loop throughput of the query service
/// over the LDBC catalog — worker-count sweep with a plan-cache on/off
/// ablation, plus the final metrics snapshot as JSON (the machine-
/// readable form of the run).
pub fn serve(cfg: &ServeConfig) -> String {
    use sgq_common::json::JsonValue;

    let (schema, db) = ldbc::generate(LdbcConfig::at_scale(cfg.sf));
    let schema = std::sync::Arc::new(schema);
    let db = std::sync::Arc::new(db);
    let store = std::sync::Arc::new(sgq_ra::RelStore::load(&db));
    let queries: Vec<String> = ldbc::queries(&schema)
        .expect("catalog parses")
        .iter()
        .map(|q| q.text.to_string())
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Service closed-loop throughput (LDBC SF{}, {} queries, {} clients x {} passes)\n",
        cfg.sf,
        queries.len(),
        cfg.clients,
        cfg.iters_per_client
    );
    let _ = writeln!(
        out,
        "{:>7} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "workers", "cache", "qps", "p50 ms", "p95 ms", "p99 ms", "queries", "busy"
    );
    let mut runs_json = Vec::new();
    for &workers in &cfg.worker_counts {
        for cached in [false, true] {
            let run = closed_loop(&schema, &db, &store, &queries, workers, cfg, cached);
            let _ = writeln!(
                out,
                "{:>7} {:>6} {:>9.1} {:>9.3} {:>9.3} {:>9.3} {:>9} {:>6}",
                run.workers,
                if run.cached { "on" } else { "off" },
                run.qps,
                run.metrics.p50_ms,
                run.metrics.p95_ms,
                run.metrics.p99_ms,
                run.completed,
                run.busy_retries
            );
            // Machine-readable record of the run: client-measured QPS
            // (the registry's own qps field divides by time since
            // service construction, which includes warmup).
            runs_json.push(JsonValue::obj([
                ("workers", JsonValue::Int(run.workers as u64)),
                ("cache", JsonValue::Bool(run.cached)),
                ("qps", JsonValue::Num(run.qps)),
                ("p50_ms", JsonValue::Num(run.metrics.p50_ms)),
                ("p95_ms", JsonValue::Num(run.metrics.p95_ms)),
                ("p99_ms", JsonValue::Num(run.metrics.p99_ms)),
                ("completed", JsonValue::Int(run.completed)),
                ("busy_retries", JsonValue::Int(run.busy_retries)),
                ("cache_hit_rate", JsonValue::Num(run.measured_hit_rate)),
            ]));
        }
    }
    let _ = writeln!(
        out,
        "\nruns as JSON: {}",
        JsonValue::Arr(runs_json).render()
    );
    out
}

/// CI smoke for the serving path: four concurrent cached clients over
/// two workers must produce exactly the rows sequential uncached
/// execution produces, with a warm plan cache and zero errors. Panics on
/// any divergence so a broken concurrency path fails the build.
pub fn serve_smoke() -> String {
    use sgq_service::{QueryOptions, Service, ServiceConfig};
    use std::sync::Arc;

    let cfg = ServeConfig::smoke();
    let (schema, db) = ldbc::generate(LdbcConfig::at_scale(cfg.sf));
    let schema = Arc::new(schema);
    let db = Arc::new(db);
    let queries: Vec<String> = ldbc::queries(&schema)
        .expect("catalog parses")
        .iter()
        .map(|q| q.text.to_string())
        .collect();
    let service = Service::new(
        Arc::clone(&schema),
        Arc::clone(&db),
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            default_timeout_ms: cfg.timeout_ms,
            ..Default::default()
        },
    );
    // Sequential, cache-bypassing reference rows.
    let uncached = QueryOptions {
        use_cache: false,
        ..Default::default()
    };
    let session = service.session();
    let reference: Vec<Vec<Vec<u32>>> = queries
        .iter()
        .map(|q| session.execute(q, &uncached).expect("smoke executes").rows)
        .collect();
    // Concurrent cached clients must reproduce the reference exactly.
    // Warm the cache first (the bypassing reference pass did not
    // populate it), so every concurrent execution exercises the warm
    // hit path.
    let opts = QueryOptions::default();
    for q in &queries {
        session.prepare(q, &opts).expect("smoke prepares");
    }
    std::thread::scope(|s| {
        for _ in 0..cfg.clients {
            let session = service.session();
            let queries = &queries;
            let reference = &reference;
            s.spawn(move || {
                for (q, expected) in queries.iter().zip(reference) {
                    let got = session.execute(q, &opts).expect("smoke executes").rows;
                    assert_eq!(&got, expected, "concurrent result diverged on {q}");
                }
            });
        }
    });
    let m = service.metrics();
    assert_eq!(m.errors, 0, "serve smoke saw errors: {m}");
    assert_eq!(m.timeouts, 0, "serve smoke saw timeouts: {m}");
    assert!(
        m.cache.hits >= (cfg.clients * queries.len()) as u64,
        "every concurrent execution must hit the warm cache: {m}"
    );
    service.shutdown();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Serve smoke (LDBC SF{}): {} queries x {} concurrent cached clients \
         over 2 workers match sequential uncached execution\n",
        cfg.sf,
        queries.len(),
        cfg.clients
    );
    let _ = writeln!(out, "{m}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            run: RunConfig {
                timeout_ms: 4_000,
                repetitions: 1,
                ..Default::default()
            },
            ldbc_sfs: vec![0.1],
            yago_scale: 0.02,
            backend: Backend::Graph,
        }
    }

    #[test]
    fn table3_renders() {
        let s = table3(&tiny_cfg());
        assert!(s.contains("YAGO"));
        assert!(s.contains("LDBC-SNB"));
        assert!(s.contains("#NR"));
    }

    #[test]
    fn table6_matches_paper_count() {
        let s = table6(&tiny_cfg());
        assert!(s.contains("16 of 18"), "{s}");
        assert!(s.contains("Y7"), "{s}");
    }

    #[test]
    fn suite_and_tables_render() {
        let cfg = tiny_cfg();
        let records = ldbc_suite(&cfg);
        assert_eq!(records.len(), 30 * 2);
        let t5 = table5(&records, &cfg);
        assert!(t5.contains("SF"), "{t5}");
        let t7 = table7(&records, cfg.run.timeout_ms);
        assert!(t7.contains("Recursive baseline"), "{t7}");
        let t8 = table8(&records, cfg.run.timeout_ms);
        assert!(t8.contains("Baseline"), "{t8}");
        let f13 = fig13(&records, &cfg);
        assert!(f13.contains("SF0.1"), "{f13}");
    }

    #[test]
    fn yago_fig12_renders() {
        let cfg = tiny_cfg();
        let records = yago_suite(&cfg);
        assert_eq!(records.len(), 18 * 2);
        let s = fig12(&records, cfg.run.timeout_ms);
        assert!(s.contains("Average speedup"), "{s}");
        assert!(s.contains("Y1"), "{s}");
    }

    #[test]
    fn physical_plans_show_strategies() {
        let s = physical_plans();
        assert!(s.contains("Index Join on isLocatedIn"), "{s}");
        assert!(s.contains("Merge Join (key = x)"), "{s}");
        assert!(s.contains("Hash Join (build = left, key = y)"), "{s}");
        assert!(s.contains("Recursive Fixpoint"), "{s}");
        assert!(s.contains("0 hash builds with the CSR index"), "{s}");
        assert!(s.contains("planning a CSR Index Join"), "{s}");
    }

    #[test]
    fn smoke_agrees_across_backends() {
        let s = smoke();
        assert!(s.contains("isMarriedTo+"), "{s}");
        assert!(s.contains("owns/isLocatedIn+"), "{s}");
    }

    #[test]
    fn serve_smoke_matches_sequential() {
        let s = serve_smoke();
        assert!(s.contains("match sequential uncached execution"), "{s}");
        assert!(s.contains("plan cache"), "{s}");
    }

    #[test]
    fn serve_sweep_renders() {
        let cfg = ServeConfig {
            worker_counts: vec![1, 2],
            clients: 2,
            iters_per_client: 1,
            sf: 0.1,
            timeout_ms: 30_000,
        };
        let s = serve(&cfg);
        assert!(s.contains("workers"), "{s}");
        assert!(s.contains("runs as JSON"), "{s}");
        assert!(s.contains("\"qps\""), "{s}");
        assert!(s.contains("\"cache_hit_rate\""), "{s}");
    }

    #[test]
    fn fig15_16_reproduce_paper_shapes() {
        let s = fig15_16();
        // Fig. 15: the schema-enriched SQL pre-filters isLocatedIn by the
        // organisation-side node table.
        assert!(s.contains("FROM knows"), "{s}");
        assert!(s.contains("FROM workAt"), "{s}");
        assert!(s.contains("FROM isLocatedIn"), "{s}");
        assert!(s.contains("Company"), "{s}");
        // Fig. 16: the enriched Cypher carries the node label.
        assert!(s.contains("-[:knows]->"), "{s}");
        assert!(s.contains(":Company)"), "{s}");
    }

    #[test]
    fn fig17_semijoin_reduces_intermediates() {
        let s = fig17(0.1);
        // The Organisation restriction appears as a semi-join operator or
        // as an endpoint filter absorbed into a CSR index join.
        assert!(s.contains("Semi Join") || s.contains("∈ Company"), "{s}");
        // The Fig. 17 narrative: the semi-join collapses the isLocatedIn
        // input by an order of magnitude before the join.
        let full: usize = extract(&s, "isLocatedIn relation: ");
        let filtered: usize = extract(&s, "reduced to ");
        assert!(
            filtered * 5 <= full,
            "semi-join should cut isLocatedIn by >=5x ({filtered} of {full})\n{s}"
        );
    }

    fn extract(s: &str, prefix: &str) -> usize {
        let at = s.find(prefix).expect("marker present") + prefix.len();
        s[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .expect("number")
    }

    #[test]
    fn reverts_listing() {
        let s = reverts(&tiny_cfg());
        assert!(s.contains("IC13"), "{s}");
        assert!(s.contains("Y7"), "{s}");
    }
}
