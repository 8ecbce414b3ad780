//! The `estimates` experiment: cardinality-estimation quality (q-error)
//! of the statistics-v2 cost model against the v1 textbook heuristics.
//!
//! For every query of the YAGO and LDBC catalogs, the schema-rewritten
//! query is prepared for the optimising relational backend twice — once with
//! [`RelStore::v1_estimates`](sgq_ra::RelStore) selecting the legacy
//! formulas (flat 10% selection selectivity, `V(c) ≈ min(|rel|, |V|)`,
//! constant fixpoint growth) and once with the measured statistics
//! (triple counts, distinct endpoint counts, closure depth bounds). Each
//! plan's root estimate is compared against the actually executed row
//! count; the per-query q-error `max(est, actual) / min(est, actual)`
//! (floored at one row) is recorded, rendered as a table, and dumped as
//! JSON.
//!
//! A third, *warm-memo* pass measures feedback-driven re-optimisation:
//! after the cold pass executes every query once with the cardinality
//! feedback memo recording, each query is prepared again — estimates now
//! come from observed cardinalities — and re-executed. The pass records
//! the warm root estimate, whether the physical strategy changed, and
//! the cold/warm execution times. The smoke variant
//! ([`estimates_smoke`]) is the CI gate: it panics unless the v2 median
//! q-error beats the v1 median on both bundled catalogs, the warm-memo
//! median q-error is no worse than cold v2, and at least one catalog
//! query switches to a faster physical plan after feedback.

use std::fmt::Write as _;

use sgq_common::json::JsonValue;
use sgq_datasets::CatalogQuery;
use sgq_graph::{GraphDatabase, GraphSchema};
use sgq_obs::QueryTraceBuilder;
use sgq_ra::cost::q_error;
use sgq_ra::exec::{execute_plan, ExecContext};
use sgq_ra::{PhysPlan, RelStore};

use crate::replay::{prepare_schema, replay_catalogs, ReplayScale};
use crate::summary::median;

/// Row-materialisation budget per execution.
const MAX_ROWS: usize = 20_000_000;

/// One per-query estimation measurement.
#[derive(Debug, Clone)]
pub struct EstRecord {
    /// Catalog the query came from (`YAGO` / `LDBC`).
    pub dataset: &'static str,
    /// Query label as in Tab. 4.
    pub query: String,
    /// Root estimate under the v1 heuristics.
    pub est_v1: f64,
    /// Root estimate under statistics v2.
    pub est_v2: f64,
    /// Root estimate after the feedback memo was warmed by one
    /// execution of every catalog query.
    pub est_warm: f64,
    /// Executed result cardinality (`None` when the query exceeded the
    /// timeout or row budget).
    pub actual: Option<usize>,
    /// Whether the warm re-plan chose a different physical strategy
    /// than the cold v2 plan.
    pub switched: bool,
    /// Execution time of the cold v2 plan (µs).
    pub cold_micros: u64,
    /// Execution time of the warm re-plan (µs, `None` when infeasible).
    pub warm_micros: Option<u64>,
}

impl EstRecord {
    /// q-error of the v1 estimate (`None` while infeasible).
    pub fn q_v1(&self) -> Option<f64> {
        self.actual.map(|a| q_error(self.est_v1, a as f64))
    }

    /// q-error of the v2 estimate.
    pub fn q_v2(&self) -> Option<f64> {
        self.actual.map(|a| q_error(self.est_v2, a as f64))
    }

    /// q-error of the warm-memo estimate.
    pub fn q_warm(&self) -> Option<f64> {
        self.actual.map(|a| q_error(self.est_warm, a as f64))
    }
}

/// Median q-error of the feasible records under each estimator:
/// `(median_v1, median_v2, feasible_count)`.
pub fn median_q(records: &[EstRecord]) -> (f64, f64, usize) {
    let mut v1: Vec<f64> = records.iter().filter_map(EstRecord::q_v1).collect();
    let mut v2: Vec<f64> = records.iter().filter_map(EstRecord::q_v2).collect();
    let n = v1.len();
    (median(&mut v1), median(&mut v2), n)
}

/// Median warm-memo q-error over the feasible records.
pub fn median_q_warm(records: &[EstRecord]) -> f64 {
    let mut warm: Vec<f64> = records.iter().filter_map(EstRecord::q_warm).collect();
    median(&mut warm)
}

/// The physical shape of a plan with the estimate annotations stripped:
/// operator kinds, join keys, build sides and filters — what the warm
/// re-plan can change. Two plans with equal signatures execute the same
/// strategy.
fn strategy_signature(p: &PhysPlan, store: &RelStore, db: &GraphDatabase) -> String {
    sgq_ra::explain::explain_plan(p, store, db)
        .lines()
        .map(|l| l.split(" (cost").next().unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Executes `plan` under the timeout and [`MAX_ROWS`], returning the
/// result cardinality and the execution time (µs).
fn execute_timed(
    plan: &PhysPlan,
    store: &RelStore,
    name: &str,
    timeout_ms: u64,
) -> (Option<usize>, u64) {
    let mut ctx = ExecContext::with_timeout(timeout_ms);
    ctx.max_rows = MAX_ROWS;
    let mut tb = QueryTraceBuilder::standalone(name);
    let span = tb.begin("execute");
    let rows = execute_plan(plan, store, &mut ctx).ok().map(|r| r.len());
    (rows, tb.end(span))
}

fn catalog_records(
    dataset: &'static str,
    schema: &GraphSchema,
    db: &GraphDatabase,
    queries: &[CatalogQuery],
    timeout_ms: u64,
) -> Vec<EstRecord> {
    struct ColdRun<'q> {
        query: &'q CatalogQuery,
        est_v1: f64,
        est_v2: f64,
        signature: String,
        plan_cold: PhysPlan,
        actual: Option<usize>,
        cold_micros: u64,
    }
    let mut store = RelStore::load(db);
    // Cold pass: feedback disabled so the v1/v2 estimates stay
    // formula-pure even across queries sharing subtrees.
    store.feedback.set_enabled(false);
    let mut runs = Vec::new();
    for q in queries {
        // Optimise and plan under each estimator: join orders may differ,
        // the estimate measured is each plan's own root estimate.
        store.v1_estimates = true;
        let v1 = prepare_schema(schema, &store, &q.expr);
        store.v1_estimates = false;
        let (Ok(v1), Ok(cold)) = (v1, prepare_schema(schema, &store, &q.expr)) else {
            continue;
        };
        // A rewrite that proves the query empty has nothing to estimate.
        let (Some(plan_v1), Some(plan_cold)) = (v1.plan(), cold.plan()) else {
            continue;
        };
        let (actual, cold_micros) = execute_timed(plan_cold, &store, q.name, timeout_ms);
        runs.push(ColdRun {
            query: q,
            est_v1: plan_v1.est.rows,
            est_v2: plan_cold.est.rows,
            signature: strategy_signature(plan_cold, &store, db),
            plan_cold: plan_cold.clone(),
            actual,
            cold_micros,
        });
    }
    // Training pass: one execution per query with the memo recording
    // populates it with the true cardinality of every static subtree.
    store.feedback.clear();
    store.feedback.set_enabled(true);
    for r in &runs {
        execute_timed(&r.plan_cold, &store, r.query.name, timeout_ms);
    }
    // Warm pass: prepare again with memoised estimates — the physical
    // strategy may change — and re-execute.
    let mut records = Vec::new();
    for r in runs {
        let warm = prepare_schema(schema, &store, &r.query.expr);
        let (est_warm, switched, warm_micros) = match warm.as_ref().ok().and_then(|p| p.plan()) {
            Some(plan_warm) => {
                let switched = strategy_signature(plan_warm, &store, db) != r.signature;
                let (rows, micros) = execute_timed(plan_warm, &store, r.query.name, timeout_ms);
                (plan_warm.est.rows, switched, rows.map(|_| micros))
            }
            None => (r.est_v2, false, None),
        };
        records.push(EstRecord {
            dataset,
            query: r.query.name.to_string(),
            est_v1: r.est_v1,
            est_v2: r.est_v2,
            est_warm,
            actual: r.actual,
            switched,
            cold_micros: r.cold_micros,
            warm_micros,
        });
    }
    records
}

/// Runs the experiment over both catalogs, returning the raw records.
pub fn run_estimates(scale: &ReplayScale) -> Vec<EstRecord> {
    replay_catalogs(scale, |dataset, schema, db, queries| {
        catalog_records(dataset, schema, db, queries, scale.timeout_ms)
    })
}

/// Renders the records as a table plus a machine-readable JSON line.
pub fn render_estimates(records: &[EstRecord], scale: &ReplayScale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Cardinality estimation quality: stats v2 vs v1 heuristics \
         (YAGO x{}, LDBC SF{})\n",
        scale.yago_scale, scale.ldbc_sf
    );
    let _ = writeln!(
        out,
        "{:<6} {:<6} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "data", "query", "est v1", "est v2", "est warm", "actual", "q v1", "q v2", "q warm", "plan"
    );
    // Infeasible rows print `timeout` and `-` for the q-errors.
    let q = |q: Option<f64>| q.map_or("-".to_string(), |q| format!("{q:.2}"));
    for r in records {
        let _ = writeln!(
            out,
            "{:<6} {:<6} {:>12.1} {:>12.1} {:>12.1} {:>12} {:>8} {:>8} {:>8} {:>8}",
            r.dataset,
            r.query,
            r.est_v1,
            r.est_v2,
            r.est_warm,
            r.actual.map_or("timeout".to_string(), |a| a.to_string()),
            q(r.q_v1()),
            q(r.q_v2()),
            q(r.q_warm()),
            if r.switched { "switch" } else { "-" }
        );
    }
    let mut json_runs = Vec::new();
    for r in records {
        json_runs.push(JsonValue::obj([
            ("dataset", JsonValue::str(r.dataset)),
            ("query", JsonValue::str(r.query.clone())),
            ("est_v1", JsonValue::Num(r.est_v1)),
            ("est_v2", JsonValue::Num(r.est_v2)),
            ("est_warm", JsonValue::Num(r.est_warm)),
            (
                "actual",
                r.actual
                    .map_or(JsonValue::Null, |a| JsonValue::Int(a as u64)),
            ),
            ("q_v1", r.q_v1().map_or(JsonValue::Null, JsonValue::Num)),
            ("q_v2", r.q_v2().map_or(JsonValue::Null, JsonValue::Num)),
            ("q_warm", r.q_warm().map_or(JsonValue::Null, JsonValue::Num)),
            ("plan_switched", JsonValue::Bool(r.switched)),
            ("cold_micros", JsonValue::Int(r.cold_micros)),
            (
                "warm_micros",
                r.warm_micros.map_or(JsonValue::Null, JsonValue::Int),
            ),
        ]));
    }
    for dataset in ["YAGO", "LDBC"] {
        let subset: Vec<EstRecord> = records
            .iter()
            .filter(|r| r.dataset == dataset)
            .cloned()
            .collect();
        let (m1, m2, n) = median_q(&subset);
        let mw = median_q_warm(&subset);
        let _ = writeln!(
            out,
            "\n{dataset}: median q-error over {n} feasible queries: \
             v1 = {m1:.2}, v2 = {m2:.2}, warm = {mw:.2}"
        );
    }
    let (m1, m2, n) = median_q(records);
    let mw = median_q_warm(records);
    let switches = records.iter().filter(|r| r.switched).count();
    let faster = records
        .iter()
        .filter(|r| r.switched && r.warm_micros.is_some_and(|w| w < r.cold_micros))
        .count();
    let _ = writeln!(
        out,
        "overall: median q-error over {n} feasible queries: \
         v1 = {m1:.2}, v2 = {m2:.2}, warm = {mw:.2}"
    );
    let _ = writeln!(
        out,
        "feedback: {switches} queries switched physical strategy after \
         memo warm-up ({faster} measurably faster)"
    );
    let summary = JsonValue::obj([
        ("median_q_v1", JsonValue::Num(m1)),
        ("median_q_v2", JsonValue::Num(m2)),
        ("median_q_warm", JsonValue::Num(mw)),
        ("plan_switches", JsonValue::Int(switches as u64)),
        ("plan_switches_faster", JsonValue::Int(faster as u64)),
        ("feasible_queries", JsonValue::Int(n as u64)),
    ]);
    let _ = writeln!(
        out,
        "\nruns as JSON: {}",
        JsonValue::obj([("summary", summary), ("runs", JsonValue::Arr(json_runs)),]).render()
    );
    out
}

/// The full experiment: both catalogs, table + JSON.
pub fn estimates(scale: &ReplayScale) -> String {
    render_estimates(&run_estimates(scale), scale)
}

/// CI gate: on the smoke-sized catalogs, the statistics-v2 median q-error
/// must beat the v1 heuristics on each dataset and overall, the
/// warm-memo median q-error must be no worse than cold v2, and at least
/// one catalog query must switch to a measurably faster physical plan
/// after feedback. Panics on regression so a broken estimator fails the
/// build.
pub fn estimates_smoke() -> String {
    let scale = ReplayScale::smoke();
    let records = run_estimates(&scale);
    for dataset in ["YAGO", "LDBC"] {
        let subset: Vec<EstRecord> = records
            .iter()
            .filter(|r| r.dataset == dataset)
            .cloned()
            .collect();
        let (m1, m2, n) = median_q(&subset);
        assert!(n > 0, "estimates smoke: no feasible {dataset} queries");
        assert!(
            m2 <= m1,
            "estimates smoke: stats v2 median q-error regressed on {dataset}: \
             v2 = {m2:.3} > v1 = {m1:.3}"
        );
        let mw = median_q_warm(&subset);
        assert!(
            mw <= m2,
            "estimates smoke: warm-memo median q-error regressed on {dataset}: \
             warm = {mw:.3} > v2 = {m2:.3}"
        );
    }
    let (m1, m2, _) = median_q(&records);
    assert!(
        m2 < m1,
        "estimates smoke: stats v2 must beat the v1 heuristics overall: \
         v2 = {m2:.3} !< v1 = {m1:.3}"
    );
    assert!(
        records
            .iter()
            .any(|r| r.switched && r.warm_micros.is_some_and(|w| w < r.cold_micros)),
        "estimates smoke: feedback must switch at least one query to a \
         measurably faster physical plan"
    );
    render_estimates(&records, &scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_smoke_gate_holds() {
        let s = estimates_smoke();
        assert!(s.contains("median q-error"), "{s}");
        assert!(s.contains("\"median_q_v2\""), "{s}");
        assert!(s.contains("YAGO"), "{s}");
        assert!(s.contains("LDBC"), "{s}");
    }

    #[test]
    fn median_of_records() {
        let rec = |q: &str, est_v1: f64, est_v2: f64, actual: Option<usize>| EstRecord {
            dataset: "YAGO",
            query: q.to_string(),
            est_v1,
            est_v2,
            est_warm: est_v2,
            actual,
            switched: false,
            cold_micros: 0,
            warm_micros: None,
        };
        let records = vec![
            rec("a", 10.0, 2.0, Some(2)),   // q1 = 5, q2 = 1
            rec("b", 30.0, 10.0, Some(10)), // q1 = 3, q2 = 1
            rec("c", 1.0, 1.0, None),       // infeasible: excluded
        ];
        let (m1, m2, n) = median_q(&records);
        assert_eq!(n, 2);
        assert_eq!(m1, 4.0);
        assert_eq!(m2, 1.0);
    }
}
