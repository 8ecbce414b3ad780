//! The `chaos` experiment: deterministic fault injection over the LDBC
//! catalog.
//!
//! A reference pass executes every catalog query on a fault-free
//! service and records its rows. Then, for each configured seed, a
//! [`sgq_common::FaultPlan`] is armed on that service (every fault
//! site, seeded SplitMix64, fixed per-visit probability) and the catalog
//! is replayed by a single sequential client — sequential so the
//! seeded decision stream replays the same fault schedule for the same
//! seed. Every query must either
//!
//! * complete **bit-identically** to the reference rows (faults that
//!   fired were retried away by the backoff helper), or
//! * fail with a **classified retryable** error
//!   ([`sgq_common::SgqError::retryable`]) once the per-query retry
//!   budget is spent.
//!
//! Anything else — a wrong answer, a non-retryable error, a hang, a
//! worker death — panics the experiment. After every query the
//! [`ResourceGovernor`](sgq_common::ResourceGovernor) must read zero
//! (no leaked memory accounting), and after all fault passes a final
//! disarmed replay must again match the reference bit-for-bit with zero
//! worker panics: the service kept serving through the whole storm.
//!
//! The smoke variant ([`chaos_smoke`]) is the CI gate: one seed, small
//! catalog, higher fire probability.

use std::fmt::Write as _;

use sgq_common::json::JsonValue;
use sgq_common::FaultConfig;
use sgq_datasets::ldbc::{self, LdbcConfig};
use sgq_service::{retry_with_backoff, QueryOptions, RetryPolicy, Service, ServiceConfig};

/// Configuration for the `chaos` experiment.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// LDBC scale factor to replay.
    pub sf: f64,
    /// Fault-plan seeds; each is one full armed pass over the catalog.
    pub seeds: Vec<u64>,
    /// Per-visit fire probability of the armed plan.
    pub probability: f64,
    /// Per-query execution timeout (ms).
    pub timeout_ms: u64,
    /// Per-query retry budget (attempts including the first); a query
    /// still failing after this many attempts must fail retryable.
    pub max_attempts: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            sf: 0.3,
            seeds: vec![1, 2, 3],
            probability: 0.02,
            timeout_ms: 10_000,
            max_attempts: 16,
        }
    }
}

impl ChaosConfig {
    /// The small configuration used by CI (`chaos --smoke`): one seed,
    /// smoke-scale catalog, a fire probability high enough that faults
    /// demonstrably fire.
    pub fn smoke() -> Self {
        ChaosConfig {
            sf: 0.1,
            seeds: vec![7],
            probability: 0.05,
            timeout_ms: 10_000,
            max_attempts: 12,
        }
    }
}

/// One armed pass over the catalog under a single seed.
#[derive(Debug, Clone)]
pub struct ChaosPass {
    /// The fault-plan seed.
    pub seed: u64,
    /// Queries that completed bit-identically to the reference.
    pub identical: usize,
    /// Queries that exhausted their retry budget with a retryable error.
    pub retryable_failures: usize,
    /// Retries spent across the pass.
    pub retries: u64,
    /// Faults fired per site.
    pub fires: Vec<(&'static str, u64)>,
}

impl ChaosPass {
    /// Total faults fired during the pass.
    pub fn total_fires(&self) -> u64 {
        self.fires.iter().map(|(_, n)| n).sum()
    }
}

/// Runs the experiment and returns the human table plus the JSON record
/// (the machine-readable form), separated by a blank line.
pub fn chaos(cfg: &ChaosConfig) -> String {
    let (schema, db) = ldbc::generate(LdbcConfig::at_scale(cfg.sf));
    let schema = std::sync::Arc::new(schema);
    let db = std::sync::Arc::new(db);
    let queries: Vec<String> = ldbc::queries(&schema)
        .expect("catalog parses")
        .iter()
        .map(|q| q.text.to_string())
        .collect();
    let service = Service::new(
        std::sync::Arc::clone(&schema),
        std::sync::Arc::clone(&db),
        ServiceConfig {
            workers: 2,
            default_timeout_ms: cfg.timeout_ms,
            ..Default::default()
        },
    );
    let session = service.session();
    let opts = QueryOptions::default();

    // Reference pass, disarmed: every catalog query must succeed.
    let reference: Vec<Vec<Vec<u32>>> = queries
        .iter()
        .map(|q| {
            let resp = session.execute(q, &opts).expect("fault-free reference run");
            assert_eq!(
                service.governor().used(),
                0,
                "governor must balance to zero after a reference query"
            );
            resp.rows
        })
        .collect();

    // Armed passes: one per seed, single sequential client so the
    // seeded fault schedule is deterministic.
    let mut passes = Vec::new();
    for &seed in &cfg.seeds {
        service.arm_faults(FaultConfig::errors(seed, cfg.probability));
        let mut identical = 0usize;
        let mut retryable_failures = 0usize;
        let mut retries = 0u64;
        let policy = RetryPolicy {
            max_attempts: cfg.max_attempts,
            ..RetryPolicy::new(seed)
        };
        for (i, q) in queries.iter().enumerate() {
            let (result, spent) = retry_with_backoff(policy, || session.execute(q, &opts));
            retries += spent;
            match result {
                Ok(resp) => {
                    assert_eq!(
                        resp.rows, reference[i],
                        "seed {seed}: query {i} diverged from the fault-free reference"
                    );
                    identical += 1;
                }
                Err(e) => {
                    assert!(
                        e.retryable(),
                        "seed {seed}: query {i} failed non-retryable: {e}"
                    );
                    retryable_failures += 1;
                }
            }
            assert_eq!(
                service.governor().used(),
                0,
                "seed {seed}: governor leaked after query {i}"
            );
            assert_eq!(
                service.governor().active_queries(),
                0,
                "seed {seed}: a query budget outlived query {i}"
            );
        }
        let fires = service.disarm_faults().into_iter().collect::<Vec<_>>();
        passes.push(ChaosPass {
            seed,
            identical,
            retryable_failures,
            retries,
            fires,
        });
    }

    // The storm is over: a disarmed replay must match the reference
    // bit-for-bit — the service (and every worker) survived.
    for (i, q) in queries.iter().enumerate() {
        let resp = session
            .execute(q, &opts)
            .expect("post-chaos fault-free run");
        assert_eq!(
            resp.rows, reference[i],
            "post-chaos query {i} diverged: service state was corrupted"
        );
    }
    let metrics = service.metrics();
    assert_eq!(
        metrics.worker_panics, 0,
        "no worker panicked during fault injection"
    );
    assert_eq!(
        service.pool_panic_count(),
        0,
        "no panic escaped to the pool backstop"
    );
    assert_eq!(service.governor().used(), 0, "final governor balance");
    let governor_peak = service.governor().peak();
    service.shutdown();

    // At the default probabilities some pass must actually have fired —
    // a chaos run where nothing happened proves nothing.
    let total_fires: u64 = passes.iter().map(ChaosPass::total_fires).sum();
    assert!(
        total_fires > 0,
        "no fault fired across {} passes — raise probability or seeds",
        passes.len()
    );

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos: LDBC SF{} x {} queries, p = {} per fault-point visit\n",
        cfg.sf,
        queries.len(),
        cfg.probability
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>8} {:>6}  fired sites",
        "seed", "identical", "retryable", "retries", "fires"
    );
    for p in &passes {
        let sites = p
            .fires
            .iter()
            .map(|(s, n)| format!("{s}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>8} {:>6}  {}",
            p.seed,
            p.identical,
            p.retryable_failures,
            p.retries,
            p.total_fires(),
            sites
        );
    }
    let _ = writeln!(
        out,
        "\nevery query bit-identical or classified-retryable; post-chaos replay \
         identical; 0 worker panics; governor balanced (peak {governor_peak} bytes)"
    );

    let json = JsonValue::obj([
        ("sf", JsonValue::Num(cfg.sf)),
        ("probability", JsonValue::Num(cfg.probability)),
        ("queries", JsonValue::Int(queries.len() as u64)),
        (
            "passes",
            JsonValue::Arr(
                passes
                    .iter()
                    .map(|p| {
                        JsonValue::obj([
                            ("seed", JsonValue::Int(p.seed)),
                            ("identical", JsonValue::Int(p.identical as u64)),
                            (
                                "retryable_failures",
                                JsonValue::Int(p.retryable_failures as u64),
                            ),
                            ("retries", JsonValue::Int(p.retries)),
                            (
                                "fires",
                                JsonValue::obj(
                                    p.fires.iter().map(|&(s, n)| (s, JsonValue::Int(n))),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("worker_panics", JsonValue::Int(metrics.worker_panics)),
        ("governor_peak_bytes", JsonValue::Int(governor_peak as u64)),
    ]);
    let _ = writeln!(out, "\n{}", json.render());
    out
}

/// The CI smoke gate: [`ChaosConfig::smoke`], asserting inside
/// [`chaos`] that every query is bit-identical or classified-retryable,
/// the governor balances, and no worker dies.
pub fn chaos_smoke() -> String {
    chaos(&ChaosConfig::smoke())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fault plan is armed on the experiment's own service, so the
    // gate runs alongside the other harness tests.
    #[test]
    fn chaos_smoke_gate_holds() {
        let out = chaos_smoke();
        assert!(out.contains("\"worker_panics\": 0"), "{out}");
        assert!(out.contains("fired sites"), "{out}");
    }
}
