//! Sweep provenance: the content address of one design-space sweep per
//! strategy on the paper's Utah site. The hashes print in `repro all`,
//! so `repro_output.txt` pins every bit of 2,160 evaluations.

use crate::context::{Context, SEED, YEAR};
use ce_core::{provenance, DesignSpace, EvaluatedDesign, StrategyKind};
use std::fmt::Write as _;

/// The swept site.
const SITE: &str = "UT";

/// Steps on the solar, wind, battery and extra-capacity axes of each
/// strategy's grid: 540 points each, over the strategy's live axes only.
const GRIDS: [(StrategyKind, [usize; 4]); 4] = [
    (StrategyKind::RenewablesOnly, [27, 20, 1, 1]),
    (StrategyKind::RenewablesBattery, [6, 6, 15, 1]),
    (StrategyKind::RenewablesCas, [6, 6, 1, 15]),
    (StrategyKind::RenewablesBatteryCas, [6, 6, 5, 3]),
];

/// A grid's design space: solar and wind span 0–600 MW, battery 0–700
/// MWh and extra capacity 0–100%; an axis with one step is pinned at 0.
fn space([solar, wind, battery, extra]: [usize; 4]) -> DesignSpace {
    let axis = |max: f64, steps: usize| (0.0, if steps > 1 { max } else { 0.0 }, steps);
    DesignSpace {
        solar: axis(600.0, solar),
        wind: axis(600.0, wind),
        battery: axis(700.0, battery),
        extra_capacity: axis(1.0, extra),
    }
}

/// Canonical spelling of the sweep scenario: site, year, seed, and every
/// strategy's axes with floats by IEEE-754 bit pattern (the discipline of
/// `ce-serve`'s canonical keys). The `bench` and `mode` fields keep the
/// spelling under which this input hash was first committed.
fn input_key() -> String {
    let mut key =
        format!("bench=design_space_sweep;site={SITE};year={YEAR};seed={SEED};mode=full;");
    for (strategy, steps) in GRIDS {
        let space = space(steps);
        let _ = write!(key, "strategy={};", strategy.canonical_key());
        for (axis, (lo, hi, steps)) in [
            ("solar", space.solar),
            ("wind", space.wind),
            ("battery", space.battery),
            ("extra_capacity", space.extra_capacity),
        ] {
            let _ = write!(
                key,
                "{axis}={:016x},{:016x},{steps};",
                lo.to_bits(),
                hi.to_bits()
            );
        }
    }
    key
}

/// The sweep's provenance manifest: every strategy's `explore` in grid
/// order. The code fingerprint is left out of the report because it
/// changes with every source edit; the two hashes change only when an
/// input or a result bit does.
pub fn provenance_study(ctx: &mut Context) -> String {
    let site = ctx.site(SITE);
    let explorer = ctx.explorer(SITE);
    let evaluations: Vec<EvaluatedDesign> = GRIDS
        .iter()
        .flat_map(|&(strategy, steps)| explorer.explore(strategy, &space(steps)))
        .collect();
    let manifest = provenance::build_manifest(
        "sweep",
        site.ba().code(),
        "all",
        &[YEAR],
        &[SEED],
        &input_key(),
        &evaluations,
    );
    let mut out = format!(
        "Provenance of the design-space sweep ({SITE}, {} evaluations over 4 strategies):\n\n",
        evaluations.len()
    );
    for (field, value) in [
        ("kind", manifest.kind),
        ("ba", manifest.ba),
        ("strategy", manifest.strategy),
        ("years", format!("{:?}", manifest.years)),
        ("seeds", format!("{:?}", manifest.seeds)),
        ("input_hash", manifest.input_hash),
        ("result_hash", manifest.result_hash),
    ] {
        let _ = writeln!(out, "{field:<12} {value}");
    }
    out.push_str(
        "\nresult_hash covers every evaluation's design and metrics by IEEE-754 bit\n\
         pattern: a change that moves any bit of any point changes it.",
    );
    out
}
