//! The `parallel` experiment: morsel-driven intra-query parallelism
//! soundness and scaling over the bundled catalogs.
//!
//! Two variants of the [differential replay driver](crate::replay) over
//! one store per catalog: serial execution (`DOP = 1`, the reference)
//! and morsel-parallel operators (`DOP = N` over the shared task
//! scheduler). The runs must agree **bit-for-bit**; any divergence
//! panics. Per-query timings and the morsel counts are tabulated, with a
//! sample speedup summary at the end. The smoke variant
//! ([`parallel_smoke`]) is the CI gate: both catalogs at smoke scale
//! with the cost gate forced open so even tiny probes split into
//! morsels, `DOP = 2` against `DOP = 1`.

use std::fmt::Write as _;

use sgq_ra::exec::ExecContext;
use sgq_ra::RelStore;

use crate::replay::{differential, replay_catalogs, ReplayScale, Replayed, Variant};

/// The parallel run's executor settings.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Degree of parallelism for the parallel run.
    pub dop: usize,
    /// Probe-row threshold below which operators stay serial; the smoke
    /// variant forces 1 so tiny fixtures still exercise the morsel path.
    pub parallel_threshold: usize,
    /// Morsel size cap (rows).
    pub morsel_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            dop: 4,
            parallel_threshold: 1_024,
            morsel_rows: sgq_ra::parallel::MORSEL_ROWS,
        }
    }
}

impl ParallelConfig {
    /// The settings used by CI (`parallel --smoke`).
    pub fn smoke() -> Self {
        ParallelConfig {
            dop: 2,
            parallel_threshold: 1,
            morsel_rows: 256,
        }
    }
}

/// Runs the experiment over both catalogs: variant 0 is serial, variant
/// 1 runs at `cfg.dop`.
pub fn run_parallel(scale: &ReplayScale, cfg: &ParallelConfig) -> Vec<Replayed> {
    let parallel = |ctx: &mut ExecContext| {
        ctx.dop = cfg.dop;
        ctx.parallel_threshold = cfg.parallel_threshold;
        ctx.morsel_rows = cfg.morsel_rows.max(1);
    };
    replay_catalogs(scale, |dataset, schema, db, queries| {
        let store = RelStore::load(db);
        let variants: [Variant<'_>; 2] = [(&store, &|_| {}), (&store, &parallel)];
        differential(dataset, schema, queries, &variants, scale.timeout_ms, 1)
    })
}

/// Renders the records as a table plus a speedup summary.
pub fn render_parallel(records: &[Replayed], scale: &ReplayScale, cfg: &ParallelConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "parallel execution: DOP={} vs serial (YAGO x{}, LDBC SF {}, {} hardware threads)",
        cfg.dop,
        scale.yago_scale,
        scale.ldbc_sf,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(
        out,
        "{:<7} {:<14} {:>10} {:>12} {:>12} {:>8} {:>9}",
        "dataset", "query", "rows", "serial ms", "parallel ms", "morsels", "speedup"
    );
    for r in records {
        let _ = writeln!(
            out,
            "{:<7} {:<14} {:>10} {:>12.2} {:>12.2} {:>8} {:>8.2}x",
            r.dataset,
            r.query,
            r.rows,
            r.ms[0],
            r.ms[1],
            r.morsels[1],
            r.ms[0] / r.ms[1].max(1e-9)
        );
    }
    let parallelised: Vec<&Replayed> = records.iter().filter(|r| r.morsels[1] > 0).collect();
    let (s, p) = parallelised
        .iter()
        .fold((0.0, 0.0), |(s, p), r| (s + r.ms[0], p + r.ms[1]));
    let _ = writeln!(
        out,
        "{} of {} queries ran parallel sections; sample speedup over them: {:.2}x",
        parallelised.len(),
        records.len(),
        s / p.max(1e-9)
    );
    out
}

/// The full experiment: run and render.
pub fn parallel(scale: &ReplayScale, cfg: &ParallelConfig) -> String {
    render_parallel(&run_parallel(scale, cfg), scale, cfg)
}

/// The CI gate: both catalogs at smoke scale, every query bit-identical
/// between DOP=2 and serial execution (asserted inside the run), and at
/// least one query actually exercising the morsel path.
pub fn parallel_smoke() -> String {
    let (scale, cfg) = (ReplayScale::smoke(), ParallelConfig::smoke());
    let records = run_parallel(&scale, &cfg);
    assert!(
        !records.is_empty(),
        "parallel smoke produced no comparable queries"
    );
    assert!(
        records.iter().any(|r| r.morsels[1] > 0),
        "parallel smoke never dispatched a morsel — the forced gate is broken"
    );
    let mut out = render_parallel(&records, &scale, &cfg);
    out.push_str("parallel --smoke gate: PASS (all queries bit-identical to serial)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_smoke_gate_holds() {
        let report = parallel_smoke();
        assert!(report.contains("PASS"), "{report}");
    }
}
