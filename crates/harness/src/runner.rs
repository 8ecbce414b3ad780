//! Query execution under the paper's measurement protocol (§5.1.5):
//! a per-run timeout and averaging over repetitions.

use sgq_algebra::ast::PathExpr;
use sgq_common::SgqError;
use sgq_core::pipeline::RewriteOptions;
use sgq_engine::GraphEngine;
use sgq_graph::{GraphDatabase, GraphSchema};
use sgq_obs::QueryTraceBuilder;
use sgq_ra::exec::ExecContext;
use sgq_ra::RelStore;
use sgq_service::{prepare, PreparedBody};

// The backend / approach axes are workspace vocabulary shared with the
// serving layer (the plan-cache key and the experiment records must
// agree on their meaning): both re-export `sgq_common::axes`.
pub use sgq_common::{Approach, Backend};

/// Timeout / repetition configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Per-run timeout in milliseconds (the paper used 30 minutes; the
    /// harness scales this down).
    pub timeout_ms: u64,
    /// Repetitions averaged per measurement (the paper used 5).
    pub repetitions: usize,
    /// Row/pair materialisation budget (0 = unlimited).
    pub max_rows: usize,
    /// Rewrite options for the schema approach.
    pub rewrite: RewriteOptions,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            timeout_ms: 2_000,
            repetitions: 3,
            max_rows: 20_000_000,
            rewrite: RewriteOptions::default(),
        }
    }
}

/// Pre-loaded backend state for one database.
pub struct Session<'a> {
    /// The schema the database conforms to.
    pub schema: &'a GraphSchema,
    /// The database itself (graph backend).
    pub db: &'a GraphDatabase,
    /// The relational load of the database.
    pub store: RelStore,
}

impl<'a> Session<'a> {
    /// Loads both backends.
    pub fn new(schema: &'a GraphSchema, db: &'a GraphDatabase) -> Self {
        Session {
            schema,
            db,
            store: RelStore::load(db),
        }
    }
}

/// One measurement: average milliseconds and the result cardinality, or a
/// timeout/budget failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// Mean runtime over the repetitions, with the answer cardinality.
    Feasible {
        /// Mean runtime in milliseconds.
        ms: f64,
        /// Number of result rows.
        rows: usize,
    },
    /// The query exceeded the timeout or the materialisation budget.
    Infeasible,
}

/// Runs a query under the full protocol: the production front-end
/// ([`sgq_service::prepare`]: rewrite if schema approach, translate,
/// optimise, plan) once, then repetitions, averaging and timeout
/// classification.
pub fn run_query(
    session: &Session<'_>,
    expr: &PathExpr,
    approach: Approach,
    backend: Backend,
    config: &RunConfig,
) -> Measurement {
    // The same phase spans the service traces with also time the
    // measurement protocol: one "prepare" span for planning, one
    // "execute" span per repetition.
    let mut tb = QueryTraceBuilder::standalone("harness-run");
    let span = tb.begin("prepare");
    let prepared = prepare(
        session.schema,
        &session.store,
        expr,
        backend,
        approach,
        config.rewrite,
    );
    tb.end(span);
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) if infeasible(&e) => return Measurement::Infeasible,
        Err(other) => panic!("unexpected planning failure: {other}"),
    };
    let mut total_ms = 0.0;
    let mut rows = 0usize;
    for _ in 0..config.repetitions.max(1) {
        let span = tb.begin("execute");
        let result = match prepared.body() {
            // The schema proves the query empty: essentially free.
            PreparedBody::Empty => return Measurement::Feasible { ms: 0.0, rows: 0 },
            PreparedBody::Graph(query) => {
                let mut engine = GraphEngine::with_timeout(session.db, config.timeout_ms);
                engine.set_max_pairs(config.max_rows);
                engine.run_ucqt(query).map(|r| r.len())
            }
            PreparedBody::Relational(plan) => {
                let mut ctx = ExecContext::with_timeout(config.timeout_ms);
                ctx.max_rows = config.max_rows;
                sgq_ra::execute_plan(plan, &session.store, &mut ctx).map(|r| r.len())
            }
        };
        let dur_us = tb.end(span);
        match result {
            Ok(n) => {
                rows = n;
                total_ms += dur_us as f64 / 1e3;
            }
            Err(e) if infeasible(&e) => return Measurement::Infeasible,
            Err(other) => panic!("unexpected engine failure: {other}"),
        }
    }
    Measurement::Feasible {
        ms: total_ms / config.repetitions.max(1) as f64,
        rows,
    }
}

/// Result cardinalities of the path query `text` on the graph and then
/// the relational backend, baseline then schema on each (G/B, G/S, R/B,
/// R/S). Panics when a run is infeasible or the four disagree.
pub fn cross_check(session: &Session<'_>, text: &str, config: &RunConfig) -> [usize; 4] {
    let expr = sgq_algebra::parser::parse_path(text, session.schema).expect("query parses");
    let mut cards = [0; 4];
    let runs = [Backend::Graph, Backend::Relational]
        .into_iter()
        .flat_map(|b| [(b, Approach::Baseline), (b, Approach::Schema)]);
    for (card, (backend, approach)) in cards.iter_mut().zip(runs) {
        match run_query(session, &expr, approach, backend, config) {
            Measurement::Feasible { rows, .. } => *card = rows,
            Measurement::Infeasible => panic!("{text} infeasible on {backend}/{approach}"),
        }
    }
    assert!(
        cards.iter().all(|&c| c == cards[0]),
        "{text} disagrees across backends/approaches: {cards:?}"
    );
    cards
}

/// Whether a failure classifies the run as infeasible (timeout, budget
/// or execution limit) rather than a harness bug.
fn infeasible(e: &SgqError) -> bool {
    matches!(
        e,
        SgqError::Timeout { .. } | SgqError::RowBudget { .. } | SgqError::Execution(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_datasets::yago::{self, YagoConfig};

    #[test]
    fn baseline_and_schema_agree_on_yago() {
        let (schema, db) = yago::generate(YagoConfig::tiny());
        let session = Session::new(&schema, &db);
        let config = RunConfig {
            timeout_ms: 10_000,
            repetitions: 1,
            ..Default::default()
        };
        for text in [
            "livesIn/isLocatedIn+/dealsWith+",
            "owns/isLocatedIn+",
            "influences+",
        ] {
            cross_check(&session, text, &config);
        }
    }

    #[test]
    fn provably_empty_query_never_reaches_an_engine() {
        // dealsWith targets COUNTRY only; owns sources PERSON — Fig. 1
        // proves the composition empty, so the schema approach prepares
        // an `Empty` body that measures as exactly zero.
        let schema = sgq_graph::schema::fig1_yago_schema();
        let db = sgq_graph::database::fig2_yago_database();
        let session = Session::new(&schema, &db);
        let config = RunConfig {
            repetitions: 1,
            ..Default::default()
        };
        let expr = parse_path("dealsWith/owns", &schema).unwrap();
        for backend in [Backend::Graph, Backend::Relational] {
            let schema_run = run_query(&session, &expr, Approach::Schema, backend, &config);
            assert_eq!(schema_run, Measurement::Feasible { ms: 0.0, rows: 0 });
            let baseline = run_query(&session, &expr, Approach::Baseline, backend, &config);
            assert!(
                matches!(baseline, Measurement::Feasible { rows: 0, .. }),
                "{backend}: {baseline:?}"
            );
        }
    }

    #[test]
    fn timeout_classifies_as_infeasible() {
        let (schema, db) = yago::generate(YagoConfig::tiny());
        let session = Session::new(&schema, &db);
        let config = RunConfig {
            timeout_ms: 0,
            repetitions: 1,
            ..Default::default()
        };
        let expr = parse_path("influences+", &schema).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let m = run_query(&session, &expr, Approach::Baseline, Backend::Graph, &config);
        assert_eq!(m, Measurement::Infeasible);
    }

    #[test]
    fn unoptimized_backend_still_correct() {
        let (schema, db) = yago::generate(YagoConfig::tiny());
        let session = Session::new(&schema, &db);
        let config = RunConfig {
            timeout_ms: 10_000,
            repetitions: 1,
            ..Default::default()
        };
        let expr = parse_path("owns/isLocatedIn", &schema).unwrap();
        let a = run_query(
            &session,
            &expr,
            Approach::Baseline,
            Backend::Relational,
            &config,
        );
        let b = run_query(
            &session,
            &expr,
            Approach::Baseline,
            Backend::RelationalUnoptimized,
            &config,
        );
        match (a, b) {
            (Measurement::Feasible { rows: ra, .. }, Measurement::Feasible { rows: rb, .. }) => {
                assert_eq!(ra, rb)
            }
            other => panic!("{other:?}"),
        }
    }
}
