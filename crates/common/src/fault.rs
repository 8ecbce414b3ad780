//! Deterministic fault injection for robustness testing.
//!
//! A *fault point* is a named site in the engine (`"exec.scan"`,
//! `"service.dispatch"`, ...) guarded by the [`faultpoint!`](crate::faultpoint) macro,
//! which reads the [`FaultPlan`] its caller carries. Disarmed — no plan,
//! the default, and the only state production code ever sees — a fault
//! point is a single predicted-not-taken branch on `None`: effectively
//! free. With a plan, each visit consults a seeded SplitMix64 stream
//! and, with the configured probability, either returns
//! [`SgqError::Transient`] (the common case: a classified, retryable
//! failure) or panics (to exercise the serving layer's panic
//! containment).
//!
//! Determinism: the decision stream is a single seeded generator
//! consumed in visit order, so a *sequential* workload replays the exact
//! same fault schedule for the same seed. The chaos harness drives the
//! catalog with one client for precisely this reason.
//!
//! Scope: a plan is an object, not process state. The query service
//! owns the plan armed on it and hands it to every query it runs, so
//! services (and the tests driving them) never see each other's faults.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::error::{Result, SgqError};
use crate::rng::Rng;

/// What an armed fault point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return [`SgqError::Transient`] naming the site (retryable).
    Error,
    /// Panic with a message naming the site (exercises containment).
    Panic,
}

/// A fault-injection plan: which sites fire, how often, and how.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the SplitMix64 decision stream.
    pub seed: u64,
    /// Per-visit fire probability in `[0, 1]`.
    pub probability: f64,
    /// Restrict firing to this site (`None` = every site).
    pub site: Option<&'static str>,
    /// What firing does.
    pub kind: FaultKind,
}

impl FaultConfig {
    /// A plan firing [`FaultKind::Error`] at every site with the given
    /// seed and probability.
    pub fn errors(seed: u64, probability: f64) -> Self {
        FaultConfig {
            seed,
            probability,
            site: None,
            kind: FaultKind::Error,
        }
    }
}

/// Fire (or visit) counts per site of one [`FaultPlan`].
pub type FireReport = BTreeMap<&'static str, u64>;

#[derive(Debug)]
struct FaultState {
    rng: Rng,
    fired: FireReport,
    visited: FireReport,
}

/// An armed fault plan: the configuration plus its decision stream and
/// per-site counters. Shared as `Arc<FaultPlan>` by everything that
/// runs under it.
#[derive(Debug)]
pub struct FaultPlan {
    probability: f64,
    site: Option<&'static str>,
    kind: FaultKind,
    state: Mutex<FaultState>,
}

impl FaultPlan {
    /// A fresh plan: its decision stream starts at `config.seed`.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            probability: config.probability.clamp(0.0, 1.0),
            site: config.site,
            kind: config.kind,
            state: Mutex::new(FaultState {
                rng: Rng::seed_from_u64(config.seed),
                fired: FireReport::new(),
                visited: FireReport::new(),
            }),
        }
    }

    /// The state stays consistent at every step (counters and the
    /// generator only advance), so a poisoned lock is still usable.
    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// How many times each site fired so far.
    pub fn fired(&self) -> FireReport {
        self.lock().fired.clone()
    }

    /// How often execution reached each site the plan targets, fired or
    /// not.
    pub fn visits(&self) -> FireReport {
        self.lock().visited.clone()
    }

    /// The slow path behind [`faultpoint!`](crate::faultpoint): fires
    /// at `site` with the configured probability.
    pub fn check(&self, site: &'static str) -> Result<()> {
        if self.site.is_some_and(|only| only != site) {
            return Ok(());
        }
        let mut state = self.lock();
        *state.visited.entry(site).or_insert(0) += 1;
        if !state.rng.gen_bool(self.probability) {
            return Ok(());
        }
        *state.fired.entry(site).or_insert(0) += 1;
        // Release the lock before unwinding so the containment layer
        // can still read the plan's reports.
        drop(state);
        match self.kind {
            FaultKind::Error => Err(SgqError::Transient { site }),
            FaultKind::Panic => panic!("injected fault at {site}"),
        }
    }
}

/// Guards a named fault-injection site under the caller's plan: an
/// `Option` of a [`FaultPlan`] reference or `Arc`.
///
/// Expands to one branch on `None` when disarmed — zero cost on every
/// production path — and to a [`FaultPlan::check`] call (which may
/// return `Err(SgqError::Transient)` via `?`, or panic under a
/// [`FaultKind::Panic`] plan) when a plan is armed.
///
/// ```
/// use std::sync::Arc;
/// use sgq_common::fault::{FaultConfig, FaultPlan};
///
/// fn scan(plan: &Option<Arc<FaultPlan>>) -> sgq_common::Result<()> {
///     sgq_common::faultpoint!(plan, "exec.scan");
///     Ok(())
/// }
///
/// assert!(scan(&None).is_ok());
/// let plan = Some(Arc::new(FaultPlan::new(FaultConfig::errors(1, 1.0))));
/// assert!(scan(&plan).is_err());
/// ```
#[macro_export]
macro_rules! faultpoint {
    ($plan:expr, $site:literal) => {
        if let Some(plan) = $plan.as_deref() {
            plan.check($site)?;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(plan: Option<&FaultPlan>) -> Result<()> {
        faultpoint!(plan, "test.a");
        faultpoint!(plan, "test.b");
        Ok(())
    }

    #[test]
    fn disarmed_is_a_no_op() {
        for _ in 0..100 {
            visit(None).unwrap();
        }
        // A plan that never fires only counts visits.
        let plan = FaultPlan::new(FaultConfig::errors(1, 0.0));
        visit(Some(&plan)).unwrap();
        assert!(plan.fired().is_empty());
    }

    #[test]
    fn probability_one_fires_every_visit() {
        let plan = FaultPlan::new(FaultConfig::errors(42, 1.0));
        let err = visit(Some(&plan)).unwrap_err();
        assert_eq!(err, SgqError::Transient { site: "test.a" });
    }

    #[test]
    fn site_filter_restricts_firing() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 7,
            probability: 1.0,
            site: Some("test.b"),
            kind: FaultKind::Error,
        });
        // test.a is visited first but filtered out; test.b fires.
        let err = visit(Some(&plan)).unwrap_err();
        assert_eq!(err, SgqError::Transient { site: "test.b" });
        let report = plan.fired();
        assert_eq!(report.get("test.b"), Some(&1));
        assert_eq!(report.get("test.a"), None);
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(FaultConfig::errors(seed, 0.3));
            (0..64).map(|_| visit(Some(&plan)).is_err()).collect()
        };
        let a = run(99);
        let b = run(99);
        let c = run(100);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(|&f| f), "p=0.3 over 64 visits fires");
        assert!(!a.iter().all(|&f| f), "...but not every time");
    }

    #[test]
    fn fire_report_counts_per_site() {
        let plan = FaultPlan::new(FaultConfig::errors(5, 1.0));
        for _ in 0..3 {
            let _ = visit(Some(&plan));
        }
        assert_eq!(plan.visits().get("test.a"), Some(&3));
        let report = plan.fired();
        assert_eq!(report.get("test.a"), Some(&3), "fires on first site only");
        assert_eq!(report.get("test.b"), None);
    }

    #[test]
    fn panic_kind_panics_with_the_site_name() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 1,
            probability: 1.0,
            site: None,
            kind: FaultKind::Panic,
        });
        let caught = std::panic::catch_unwind(|| {
            let _ = visit(Some(&plan));
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "injected fault at test.a");
        // The plan stays readable after the injected panic.
        assert_eq!(plan.fired().get("test.a"), Some(&1));
    }
}
