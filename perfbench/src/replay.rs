//! The phase replay: one statement pushed through the public function of
//! every layer in the order the service's front-end and workers call
//! them, with a span around each call and the layer's counters read at
//! the same boundary.
//!
//! The sequence mirrors `sgq_service::prepared::prepare` followed by the
//! worker's execution; the fidelity test below pins that both produce
//! the same rows for every catalog statement and configuration, so the
//! per-layer numbers stay on the production path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sgq_algebra::parser::parse_path;
use sgq_common::{Approach, Backend, ResourceGovernor, Result};
use sgq_core::pipeline::{rewrite_path, RewriteOptions, RewriteOutcome};
use sgq_engine::GraphEngine;
use sgq_graph::{GraphDatabase, GraphSchema};
use sgq_query::cqt::Ucqt;
use sgq_ra::exec::ExecContext;
use sgq_ra::{RelStore, TaskScheduler};
use sgq_translate::ucqt2rra::{ucqt_to_term, NameGen};

use crate::catalog::Config;
use crate::trace::Spans;

/// Execution limits, equal to `ServiceConfig::default()`'s.
const TIMEOUT_MS: u64 = 30_000;
const MAX_ROWS: usize = 20_000_000;

/// What the schema rewrite did to a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteKind {
    /// A genuinely schema-enriched query.
    Enriched,
    /// Reverted to the simplified original.
    Reverted,
    /// Proven empty by the schema.
    Empty,
}

/// Counters read at the layer boundaries of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Rows in the result.
    pub result_rows: usize,
    /// Relational executor: rows materialised by all operators.
    pub rows_materialized: usize,
    /// Relational executor: base-table scans.
    pub scans: usize,
    /// Relational executor: fixpoint iterations.
    pub fixpoint_rounds: usize,
    /// Relational executor: mid-flight re-plans.
    pub replans: usize,
    /// Relational executor: hash tables and key sets built.
    pub hash_builds: usize,
    /// Relational executor: fixpoint-cache hits.
    pub cache_hits: usize,
    /// Morsel tasks run by parallel sections.
    pub morsels: usize,
    /// Graph backend: pairs materialised.
    pub pairs: usize,
    /// Graph backend: transitive-closure rounds.
    pub tc_rounds: usize,
    /// Relational execution or graph evaluation time in nanoseconds.
    pub exec_ns: u64,
    /// The rewrite's outcome (schema approach only).
    pub rewrite: Option<RewriteKind>,
    /// Transitive closure fully eliminated by the rewrite.
    pub closure_eliminated: bool,
    /// Disjuncts in the rewritten query.
    pub disjuncts: usize,
    /// Label atoms in the rewritten query.
    pub atoms: usize,
}

/// Everything a replay needs: the schema, the graph and a relational
/// store loaded the way `Service::new` loads it.
pub struct ReplayEnv {
    schema: Arc<GraphSchema>,
    db: Arc<GraphDatabase>,
    store: RelStore,
    scheduler: Arc<TaskScheduler>,
    governor: Arc<ResourceGovernor>,
}

impl ReplayEnv {
    /// Loads the relational store under the layout the schema-driven
    /// advisor picks, as the service does.
    pub fn new(schema: Arc<GraphSchema>, db: Arc<GraphDatabase>) -> Self {
        let store = RelStore::load_advised(&db, &schema);
        ReplayEnv {
            schema,
            db,
            store,
            scheduler: Arc::new(TaskScheduler::new(2)),
            governor: ResourceGovernor::unlimited(),
        }
    }

    /// Replays `text` in `config`, recording one span per layer call
    /// under a `replay` root span of request `request`. Returns the
    /// result rows and the counters.
    pub fn replay(
        &self,
        text: &str,
        config: &Config,
        spans: &mut Spans,
        request: u64,
    ) -> Result<(Vec<Vec<u32>>, Counters)> {
        let root_start = Instant::now();
        let root = spans.push("replay", root_start, root_start, None, request);
        let result = self.phases(text, config, spans, root, request);
        let root_end = spans.ns(Instant::now());
        spans.set_end(root, root_end);
        result
    }

    fn phases(
        &self,
        text: &str,
        config: &Config,
        spans: &mut Spans,
        root: usize,
        request: u64,
    ) -> Result<(Vec<Vec<u32>>, Counters)> {
        let mut c = Counters::default();
        let mut timed = |name: &'static str, start: Instant| {
            spans.push(name, start, Instant::now(), Some(root), request);
        };

        let t = Instant::now();
        let expr = parse_path(text, self.schema.as_ref())?;
        timed("parse", t);

        let query = match config.approach {
            Approach::Baseline => Ucqt::path_query(expr),
            Approach::Schema => {
                let t = Instant::now();
                let rewritten = rewrite_path(&self.schema, &expr, RewriteOptions::default());
                timed("rewrite", t);
                c.closure_eliminated = rewritten.report.closure_eliminated();
                c.disjuncts = rewritten.report.disjuncts;
                c.atoms = rewritten.report.atoms;
                match rewritten.outcome {
                    RewriteOutcome::Enriched(q) => {
                        c.rewrite = Some(RewriteKind::Enriched);
                        q
                    }
                    RewriteOutcome::Reverted(q) => {
                        c.rewrite = Some(RewriteKind::Reverted);
                        q
                    }
                    RewriteOutcome::Empty => {
                        c.rewrite = Some(RewriteKind::Empty);
                        return Ok((Vec::new(), c));
                    }
                }
            }
        };

        let rows: Vec<Vec<u32>> = match config.backend {
            Backend::Graph => {
                let t = Instant::now();
                let mut engine = GraphEngine::with_timeout(&self.db, TIMEOUT_MS);
                engine.set_max_pairs(MAX_ROWS);
                let rows = engine.run_ucqt(&query);
                c.exec_ns = t.elapsed().as_nanos() as u64;
                timed("graph", t);
                c.pairs = engine.pairs_materialized();
                c.tc_rounds = engine.tc_rounds();
                rows?
                    .into_iter()
                    .map(|r| r.into_iter().map(|n| n.raw()).collect())
                    .collect()
            }
            Backend::Relational | Backend::RelationalUnoptimized => {
                let t = Instant::now();
                let mut names = NameGen::new(&self.store.symbols);
                let term = ucqt_to_term(&query, &mut names)?;
                timed("translate", t);

                let t = Instant::now();
                let term = sgq_ra::optimize::optimize(&term, &self.store);
                timed("optimise", t);

                let t = Instant::now();
                let plan = sgq_ra::plan(&term, &self.store)?;
                timed("plan", t);

                let mut ctx = ExecContext::new();
                ctx.deadline = Some(Instant::now() + Duration::from_millis(TIMEOUT_MS));
                ctx.limit_ms = TIMEOUT_MS;
                ctx.max_rows = MAX_ROWS;
                ctx.budget = Some(self.governor.begin(0));
                if config.dop > 1 {
                    ctx.dop = config.dop;
                    ctx.set_scheduler(Arc::clone(&self.scheduler));
                }
                let t = Instant::now();
                let rel = sgq_ra::execute_plan(&plan, &self.store, &mut ctx);
                c.exec_ns = t.elapsed().as_nanos() as u64;
                timed("exec", t);
                c.rows_materialized = ctx.rows_materialized();
                c.scans = ctx.scans;
                c.fixpoint_rounds = ctx.fixpoint_rounds;
                c.replans = ctx.replans;
                c.hash_builds = ctx.hash_builds;
                c.cache_hits = ctx.cache_hits;
                c.morsels = ctx.morsels_executed;
                rel?.rows().map(|r| r.to_vec()).collect()
            }
        };
        c.result_rows = rows.len();
        Ok((rows, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Dataset, Digest, CONFIGS};
    use sgq_service::{prepare, PreparedBody};

    /// Rows of `text` in `config` through `sgq_service::prepare` and the
    /// worker's execution of the prepared body.
    fn served_rows(env: &ReplayEnv, text: &str, config: &Config) -> Vec<Vec<u32>> {
        let expr = parse_path(text, env.schema.as_ref()).unwrap();
        let prepared = prepare(
            &env.schema,
            &env.store,
            &expr,
            config.backend,
            config.approach,
            RewriteOptions::default(),
        )
        .unwrap();
        match prepared.body() {
            PreparedBody::Empty => Vec::new(),
            PreparedBody::Graph(q) => GraphEngine::new(&env.db)
                .run_ucqt(q)
                .unwrap()
                .into_iter()
                .map(|r| r.into_iter().map(|n| n.raw()).collect())
                .collect(),
            PreparedBody::Relational(plan) => {
                let mut ctx = ExecContext::new();
                if config.dop > 1 {
                    ctx.dop = config.dop;
                    ctx.set_scheduler(Arc::clone(&env.scheduler));
                }
                sgq_ra::execute_plan(plan, &env.store, &mut ctx)
                    .unwrap()
                    .rows()
                    .map(|r| r.to_vec())
                    .collect()
            }
        }
    }

    #[test]
    fn replay_matches_prepare_and_execute_for_every_statement_and_config() {
        for dataset in [Dataset::Ldbc { sf: 0.1 }, Dataset::Yago { scale: 0.05 }] {
            let g = dataset.generate(11).unwrap();
            let env = ReplayEnv::new(Arc::new(g.schema), Arc::new(g.db));
            let mut spans = Spans::new(Instant::now());
            for (i, q) in g.queries.iter().enumerate() {
                for config in &CONFIGS {
                    let (rows, counters) =
                        env.replay(q.text, config, &mut spans, i as u64).unwrap();
                    assert_eq!(counters.result_rows, rows.len());
                    assert_eq!(
                        Digest::of(&rows),
                        Digest::of(served_rows(&env, q.text, config)),
                        "{} in {}",
                        q.name,
                        config.name
                    );
                }
            }
        }
    }

    #[test]
    fn replay_records_each_layer_under_one_root() {
        let g = Dataset::Yago { scale: 0.05 }.generate(3).unwrap();
        let env = ReplayEnv::new(Arc::new(g.schema), Arc::new(g.db));
        let mut spans = Spans::new(Instant::now());
        let config = CONFIGS.iter().find(|c| c.name == "rel.schema").unwrap();
        env.replay("livesIn/isLocatedIn+", config, &mut spans, 9)
            .unwrap();
        let names: Vec<&str> = spans.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "replay",
                "parse",
                "rewrite",
                "translate",
                "optimise",
                "plan",
                "exec"
            ]
        );
        assert!(spans.spans()[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.request == 9));
    }
}
