//! The experiment harness: reproduces every table and figure of the
//! paper's evaluation (§5).
//!
//! * [`runner`] — runs one query (baseline vs schema-rewritten) on either
//!   backend under the timeout/repetition protocol of §5.1.5, prepared
//!   by the production front-end ([`sgq_service::prepare`]),
//! * [`replay`] — the YAGO-then-LDBC catalog replay and the differential
//!   driver behind the bit-identity gates: every query prepared and
//!   executed under each variant (store, executor settings), results
//!   asserted bit-identical to the reference variant,
//! * [`summary`] — box-plot statistics (Tabs. 7/8, Figs. 13/14),
//! * [`experiments`] — one function per table/figure, each returning a
//!   printable report,
//! * [`estimates`] — the cardinality-estimation quality experiment:
//!   per-query q-error of the stats-v2 cost model vs the v1 heuristics
//!   over both catalogs (CI-gated via `estimates --smoke`),
//! * [`mod@parallel`] — morsel-driven intra-query parallelism: DOP=N vs
//!   serial execution over both catalogs, bit-identical results asserted
//!   (CI-gated via `parallel --smoke`),
//! * [`layouts`] — the physical-storage-layout ablation: every catalog
//!   query planned and executed under the per-label, polymorphic and
//!   denormalised layouts, bit-identical results asserted, timings and
//!   plan costs tabulated against the schema-driven advisor's pick
//!   (CI-gated via `layouts --smoke`),
//! * [`observe`] — the observability stack end to end: traced catalog
//!   replay, Chrome-trace export validation, span-vs-analyze agreement
//!   and the disabled-tracer overhead budget (CI-gated via
//!   `observe --smoke`),
//! * [`chaos`] — deterministic fault injection over the LDBC catalog:
//!   seeded fault schedules at every `faultpoint!` site, asserting each
//!   query completes bit-identically to the fault-free reference or
//!   fails classified-retryable, with zero worker deaths and a balanced
//!   memory governor (CI-gated via `chaos --smoke`),
//! * [`records`] — serialisable raw measurements (dumped via
//!   `sgq-experiments --out results.json` so every number is
//!   regenerable).

#![warn(missing_docs)]

pub mod chaos;
pub mod estimates;
pub mod experiments;
pub mod layouts;
pub mod observe;
pub mod parallel;
pub mod records;
pub mod replay;
pub mod runner;
pub mod summary;

pub use records::RunRecord;
pub use runner::{run_query, Approach, Backend, RunConfig};
pub use summary::Summary;
