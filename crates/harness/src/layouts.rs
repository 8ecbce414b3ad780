//! The `layouts` experiment: the physical-storage-layout ablation over
//! the bundled catalogs.
//!
//! One variant of the [differential replay driver](crate::replay) per
//! [`LayoutKind`]: stores loaded from the same database as per-label
//! (the Fig. 11 default and the reference), polymorphic (one global edge
//! table with a label bitmask) and denormalised (precomputed
//! endpoint-label slices). Each layout prepares with its own
//! capabilities (masked multi scans, denorm slice scans), so the plans
//! differ; the results must agree **bit-for-bit**, and any divergence
//! panics. Per-layout timings and estimated plan costs are tabulated
//! together with the layout the schema-driven [`LayoutAdvisor`] picks
//! for the catalog.
//!
//! The smoke variant ([`layouts_smoke`]) is the CI gate: both catalogs
//! at smoke scale, every query bit-identical across all three layouts,
//! and at least one query planning measurably cheaper (estimated cost)
//! under a non-default layout.

use std::fmt::Write as _;

use sgq_ra::{LayoutAdvisor, LayoutKind, RelStore};

use crate::replay::{differential, replay_catalogs, ReplayScale, Replayed, Variant};
use crate::summary::median;

/// Best-of runs per (query, layout) in the full experiment.
const FULL_REPEATS: usize = 3;

/// The best measured speedup of a non-default layout over the per-label
/// baseline (>1 means some non-default layout was faster).
fn best_speedup(r: &Replayed) -> f64 {
    r.ms[0] / r.ms[1].min(r.ms[2]).max(1e-9)
}

/// Whether some non-default layout *plans* measurably cheaper than the
/// per-label baseline: at least `margin` (e.g. 0.1 = 10%) off the
/// estimated cost. Deterministic, so usable as a CI gate.
fn plans_cheaper(r: &Replayed, margin: f64) -> bool {
    r.plan_cost[1].min(r.plan_cost[2]) <= r.plan_cost[0] * (1.0 - margin)
}

/// Runs the experiment over both catalogs, best of `repeats` runs per
/// (query, layout). Each record's variants follow [`LayoutKind::ALL`];
/// it is paired with the layout the advisor picked for its catalog.
pub fn run_layouts(scale: &ReplayScale, repeats: usize) -> Vec<(Replayed, LayoutKind)> {
    replay_catalogs(scale, |dataset, schema, db, queries| {
        let stores: Vec<RelStore> = LayoutKind::ALL
            .iter()
            .map(|&k| RelStore::load_with_layout(db, k))
            .collect();
        let advised = LayoutAdvisor::choose(schema, &stores[0].stats);
        let variants: Vec<Variant<'_>> = stores
            .iter()
            .map(|s| -> Variant<'_> { (s, &|_| {}) })
            .collect();
        differential(
            dataset,
            schema,
            queries,
            &variants,
            scale.timeout_ms,
            repeats,
        )
        .into_iter()
        .map(|r| (r, advised))
        .collect()
    })
}

/// Renders the records as a table plus a per-layout summary.
pub fn render_layouts(
    records: &[(Replayed, LayoutKind)],
    scale: &ReplayScale,
    repeats: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "storage layouts: per-label vs polymorphic vs denormalized \
         (YAGO x{}, LDBC SF {}, best of {} runs)",
        scale.yago_scale,
        scale.ldbc_sf,
        repeats.max(1)
    );
    let _ = writeln!(
        out,
        "{:<7} {:<14} {:>10} {:>12} {:>12} {:>12} {:<13} {:>9}",
        "dataset",
        "query",
        "rows",
        "per-label",
        "polymorphic",
        "denormalized",
        "advised",
        "speedup"
    );
    for (r, advised) in records {
        let _ = writeln!(
            out,
            "{:<7} {:<14} {:>10} {:>9.2} ms {:>9.2} ms {:>9.2} ms {:<13} {:>8.2}x",
            r.dataset,
            r.query,
            r.rows,
            r.ms[0],
            r.ms[1],
            r.ms[2],
            advised.name(),
            best_speedup(r)
        );
    }
    let mut per_label: Vec<f64> = records.iter().map(|(r, _)| r.ms[0]).collect();
    let mut advised: Vec<f64> = records
        .iter()
        .map(|(r, advised)| {
            let i = LayoutKind::ALL.iter().position(|k| k == advised);
            r.ms[i.expect("ALL covers every layout kind")]
        })
        .collect();
    let best = records
        .iter()
        .map(|(r, _)| best_speedup(r))
        .fold(0.0f64, f64::max);
    let cheaper = records
        .iter()
        .filter(|(r, _)| plans_cheaper(r, 0.1))
        .count();
    let _ = writeln!(
        out,
        "median per-label {:.2} ms, median advised {:.2} ms; \
         best non-default speedup {:.2}x; {} of {} queries plan >=10% cheaper off-default",
        median(&mut per_label),
        median(&mut advised),
        best,
        cheaper,
        records.len()
    );
    out
}

/// The full experiment: run and render.
pub fn layouts(scale: &ReplayScale) -> String {
    render_layouts(&run_layouts(scale, FULL_REPEATS), scale, FULL_REPEATS)
}

/// The CI gate: both catalogs at smoke scale, every query bit-identical
/// across all three layouts (asserted inside the run), and at least one
/// query planning measurably (>= 10% estimated cost) cheaper under a
/// non-default layout.
pub fn layouts_smoke() -> String {
    let scale = ReplayScale::smoke();
    let records = run_layouts(&scale, 1);
    assert!(
        !records.is_empty(),
        "layouts smoke produced no comparable queries"
    );
    assert!(
        records.iter().any(|(r, _)| plans_cheaper(r, 0.1)),
        "layouts smoke: no query planned measurably cheaper under a \
         non-default layout — the layout-specific strategies never fired"
    );
    let mut out = render_layouts(&records, &scale, 1);
    out.push_str("layouts --smoke gate: PASS (all layouts bit-identical on both catalogs)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_smoke_gate_holds() {
        let report = layouts_smoke();
        assert!(report.contains("PASS"), "{report}");
    }

    #[test]
    fn advisor_prefers_denormalized_on_both_catalogs() {
        // Both bundled schemas overload edge labels across several
        // endpoint-label triples, so the advisor picks the denormalised
        // layout — the record carries it for the report.
        let records = run_layouts(&ReplayScale::smoke(), 1);
        assert!(records
            .iter()
            .all(|(_, advised)| *advised == LayoutKind::Denormalized));
    }
}
