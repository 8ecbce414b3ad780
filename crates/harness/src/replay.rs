//! Catalog replay: the YAGO-then-LDBC loop the replay experiments share,
//! and the differential driver behind the bit-identity gates, which
//! prepares every query through the production front-end
//! ([`sgq_service::prepare`]) once per [`Variant`].

use sgq_algebra::ast::PathExpr;
use sgq_common::{Result, SgqError};
use sgq_core::pipeline::RewriteOptions;
use sgq_datasets::ldbc::{self, LdbcConfig};
use sgq_datasets::yago::{self, YagoConfig};
use sgq_datasets::CatalogQuery;
use sgq_graph::{GraphDatabase, GraphSchema};
use sgq_obs::QueryTraceBuilder;
use sgq_ra::exec::{execute_plan, ExecContext};
use sgq_ra::{PhysPlan, RelStore, Relation};
use sgq_service::{prepare, Approach, Backend, PreparedQuery};

/// Dataset sizes and the per-run timeout of a catalog replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayScale {
    /// Scaling of the YAGO dataset relative to the default size.
    pub yago_scale: f64,
    /// LDBC scale factor.
    pub ldbc_sf: f64,
    /// Per-query execution timeout (ms).
    pub timeout_ms: u64,
}

impl Default for ReplayScale {
    fn default() -> Self {
        ReplayScale {
            yago_scale: 0.3,
            ldbc_sf: 0.3,
            timeout_ms: 10_000,
        }
    }
}

impl ReplayScale {
    /// The small scale the CI gates replay (`--smoke`).
    pub fn smoke() -> Self {
        ReplayScale {
            yago_scale: 0.05,
            ldbc_sf: 0.1,
            timeout_ms: 10_000,
        }
    }
}

/// Generates the YAGO and then the LDBC dataset at `scale` and collects
/// what `per_catalog(dataset, schema, db, queries)` returns for each.
pub fn replay_catalogs<R>(
    scale: &ReplayScale,
    mut per_catalog: impl FnMut(&'static str, &GraphSchema, &GraphDatabase, &[CatalogQuery]) -> Vec<R>,
) -> Vec<R> {
    let (schema, db) = yago::generate(YagoConfig::scaled(scale.yago_scale));
    let queries = yago::queries(&schema).expect("catalog parses");
    let mut records = per_catalog("YAGO", &schema, &db, &queries);
    let (schema, db) = ldbc::generate(LdbcConfig::at_scale(scale.ldbc_sf));
    let queries = ldbc::queries(&schema).expect("catalog parses");
    records.extend(per_catalog("LDBC", &schema, &db, &queries));
    records
}

/// One executor configuration the driver compares: the store it
/// prepares and executes against, and the adjustment it makes to a
/// fresh timeout-armed context before every execution.
pub type Variant<'a> = (&'a RelStore, &'a dyn Fn(&mut ExecContext));

/// One catalog query replayed under every variant, per-variant vectors
/// in variant order.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Catalog the query came from (`YAGO` / `LDBC`).
    pub dataset: &'static str,
    /// Query label as in Tab. 4.
    pub query: &'static str,
    /// Result rows (identical across the variants by construction).
    pub rows: usize,
    /// Best-of-`repeats` execution time (ms).
    pub ms: Vec<f64>,
    /// Estimated root plan cost — deterministic, unlike the timings.
    pub plan_cost: Vec<f64>,
    /// Morsel tasks the last execution dispatched.
    pub morsels: Vec<usize>,
}

/// Prepares the schema-rewritten `expr` for the optimising relational
/// backend: the statement every replay experiment measures.
pub(crate) fn prepare_schema(
    schema: &GraphSchema,
    store: &RelStore,
    expr: &PathExpr,
) -> Result<PreparedQuery> {
    prepare(
        schema,
        store,
        expr,
        Backend::Relational,
        Approach::Schema,
        RewriteOptions::default(),
    )
}

/// The plan of [`prepare_schema`]; an error when the schema proves the
/// query empty, since there is nothing to execute.
fn plan_for(schema: &GraphSchema, store: &RelStore, expr: &PathExpr) -> Result<PhysPlan> {
    prepare_schema(schema, store, expr)?
        .plan()
        .cloned()
        .ok_or_else(|| SgqError::Query("the schema proves the query empty: no plan".into()))
}

/// Executes `plan` best-of-`repeats` under the variant's setup,
/// returning the result, the best time (ms) and the morsels of the last
/// execution.
fn execute_best_of(
    plan: &PhysPlan,
    (store, setup): &Variant<'_>,
    timeout_ms: u64,
    repeats: usize,
) -> Result<(Relation, f64, usize)> {
    let mut tb = QueryTraceBuilder::standalone("replay");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let mut ctx = ExecContext::with_timeout(timeout_ms);
        setup(&mut ctx);
        let span = tb.begin("execute");
        let rel = execute_plan(plan, store, &mut ctx)?;
        best = best.min(tb.end(span) as f64 / 1e3);
        last = Some((rel, ctx.morsels_executed));
    }
    let (rel, morsels) = last.expect("at least one execution");
    Ok((rel, best, morsels))
}

/// Replays `queries` under every variant and asserts each result is
/// bit-identical to the reference (`variants[0]`). Skips a query the
/// reference cannot prepare or run; panics, naming the query, when a
/// later variant fails or diverges.
pub fn differential(
    dataset: &'static str,
    schema: &GraphSchema,
    queries: &[CatalogQuery],
    variants: &[Variant<'_>],
    timeout_ms: u64,
    repeats: usize,
) -> Vec<Replayed> {
    let mut records = Vec::new();
    'queries: for q in queries {
        // Prepare every variant before executing any: executions feed
        // the store's cardinality memo, and variants sharing a store must
        // run the same plan.
        let plans: Vec<Result<PhysPlan>> = variants
            .iter()
            .map(|(store, _)| plan_for(schema, store, &q.expr))
            .collect();
        let mut rec = Replayed {
            dataset,
            query: q.name,
            rows: 0,
            ms: Vec::new(),
            plan_cost: Vec::new(),
            morsels: Vec::new(),
        };
        let mut reference = None;
        for (i, (v, plan)) in variants.iter().zip(plans).enumerate() {
            let run =
                plan.and_then(|p| Ok((execute_best_of(&p, v, timeout_ms, repeats)?, p.est.cost)));
            let ((rel, ms, morsels), cost) = match run {
                Ok(run) => run,
                // Nothing to compare: the reference cannot run the query.
                Err(_) if i == 0 => continue 'queries,
                Err(e) => panic!(
                    "{dataset}/{}: variant {i} failed where the reference succeeded: {e}",
                    q.name
                ),
            };
            match &reference {
                None => {
                    rec.rows = rel.len();
                    reference = Some(rel);
                }
                Some(r) => assert!(
                    *r == rel,
                    "{dataset}/{}: variant {i} diverged from the reference",
                    q.name
                ),
            }
            rec.ms.push(ms);
            rec.plan_cost.push(cost);
            rec.morsels.push(morsels);
        }
        records.push(rec);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay_tiny_yago(other: &RelStore, setup: &dyn Fn(&mut ExecContext)) {
        let (schema, db) = yago::generate(YagoConfig::tiny());
        let store = RelStore::load(&db);
        let queries = yago::queries(&schema).expect("catalog parses");
        let variants: [Variant<'_>; 2] = [(&store, &|_| {}), (other, setup)];
        differential("YAGO", &schema, &queries, &variants, 10_000, 1);
    }

    #[test]
    #[should_panic(expected = "diverged from the reference")]
    fn stores_of_different_databases_diverge() {
        let (_, other_db) = yago::generate(YagoConfig {
            seed: 7,
            ..YagoConfig::tiny()
        });
        replay_tiny_yago(&RelStore::load(&other_db), &|_| {});
    }

    #[test]
    #[should_panic(expected = "failed where the reference succeeded")]
    fn a_variant_failing_after_the_reference_panics() {
        let (_, db) = yago::generate(YagoConfig::tiny());
        replay_tiny_yago(&RelStore::load(&db), &|ctx| ctx.max_rows = 1);
    }
}
