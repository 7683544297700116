//! `optimal` and `optimal_refined` skip points whose embodied-carbon
//! lower bound already loses, and fold the sweep over strided lanes. Both
//! must stay pure optimizations: every answer here is compared, bit for
//! bit, with an exhaustive reference computed from `explore`.
//!
//! The grid has 5 × 3 (solar, wind) groups, a count that is not a
//! multiple of two or four lanes. North Carolina's balancing authority
//! (DUK) has an all-zero wind series, so the wind steps of a group score
//! bitwise-equal totals: there the winner is decided by the tie-break
//! between lanes.

use ce_core::{CarbonExplorer, DesignPoint, DesignSpace, EvaluatedDesign, StrategyKind};
use ce_datacenter::Fleet;
use ce_embodied::EmbodiedParams;
use ce_grid::GridDataset;

fn explorer(state: &str) -> CarbonExplorer {
    let site = Fleet::meta_us()
        .site(state)
        .expect("state in Table 1")
        .clone();
    let grid = GridDataset::synthesize(site.ba(), 2020, 7);
    CarbonExplorer::new(site.demand_trace(2020, 7), grid)
}

/// 5 × 3 groups, each with a 4 × 3 sub-grid.
fn space() -> DesignSpace {
    DesignSpace {
        solar: (30.0, 630.0, 5),
        wind: (10.0, 410.0, 3),
        battery: (0.0, 270.0, 4),
        extra_capacity: (0.0, 0.9, 3),
    }
}

/// The first minimum in sweep order: the serial strictly-less fold.
fn first_minimum(evals: Vec<EvaluatedDesign>) -> Option<EvaluatedDesign> {
    evals.into_iter().reduce(|best, eval| {
        if eval.total_tons() < best.total_tons() {
            eval
        } else {
            best
        }
    })
}

/// Same strategy, design and canonical fields, compared by bit pattern so
/// that NaN fields compare too.
fn assert_bitwise(expected: &EvaluatedDesign, actual: &EvaluatedDesign, what: &str) {
    assert_eq!(expected.strategy, actual.strategy, "{what}: strategy");
    assert_eq!(expected.design, actual.design, "{what}: winner moved");
    for ((name, e), (_, a)) in expected
        .canonical_fields()
        .iter()
        .zip(actual.canonical_fields())
    {
        assert_eq!(e.to_bits(), a.to_bits(), "{what}: {name} diverged");
    }
}

/// Shrinks each axis to half its span around `around`, within `original`:
/// the zoom `optimal_refined` documents, written out independently.
fn zoom(current: &DesignSpace, original: &DesignSpace, around: &DesignPoint) -> DesignSpace {
    let axis = |(lo, hi, steps): (f64, f64, usize), (min, max, _): (f64, f64, usize), c: f64| {
        if steps <= 1 {
            (lo, hi, steps)
        } else {
            let half = (hi - lo) / 4.0;
            ((c - half).max(min), (c + half).min(max), steps)
        }
    };
    DesignSpace {
        solar: axis(current.solar, original.solar, around.solar_mw),
        wind: axis(current.wind, original.wind, around.wind_mw),
        battery: axis(current.battery, original.battery, around.battery_mwh),
        extra_capacity: axis(
            current.extra_capacity,
            original.extra_capacity,
            around.extra_capacity_fraction,
        ),
    }
}

/// The refinement loop with no pruning: exhaustive sweeps, first minima,
/// and a refined optimum kept only when strictly lower.
fn reference_refined(
    explorer: &CarbonExplorer,
    strategy: StrategyKind,
    space: &DesignSpace,
    rounds: usize,
) -> EvaluatedDesign {
    let mut best = first_minimum(explorer.explore(strategy, space)).expect("non-empty");
    let mut current = space.clone();
    for _ in 0..rounds {
        current = zoom(&current, space, &best.design);
        if let Some(refined) = first_minimum(explorer.explore(strategy, &current)) {
            if refined.total_tons() < best.total_tons() {
                best = refined;
            }
        }
    }
    best
}

/// `optimal` on the parallel lanes and on one serial lane.
fn optimal_both_ways(
    explorer: &CarbonExplorer,
    strategy: StrategyKind,
    space: &DesignSpace,
) -> [EvaluatedDesign; 2] {
    let parallel = explorer.optimal(strategy, space).expect("non-empty");
    let serial = ce_parallel::run_serial(|| explorer.optimal(strategy, space)).expect("non-empty");
    [parallel, serial]
}

#[test]
fn optimal_is_the_first_minimum_of_explore() {
    for state in ["UT", "NC"] {
        let explorer = explorer(state);
        for strategy in StrategyKind::ALL {
            let evals = explorer.explore(strategy, &space());
            let reference = first_minimum(evals.clone()).expect("non-empty");
            for (found, lanes) in optimal_both_ways(&explorer, strategy, &space())
                .iter()
                .zip(["parallel", "serial"])
            {
                assert_bitwise(&reference, found, &format!("{state} {strategy} {lanes}"));
            }
            if state == "NC" {
                // The tie the lanes must break: a later point (another
                // wind step of the winner's group) scores the same total.
                let ties = evals
                    .iter()
                    .filter(|e| e.total_tons().to_bits() == reference.total_tons().to_bits())
                    .count();
                assert!(ties > 1, "{strategy}: NC optimum has no tie to break");
            }
        }
    }
}

#[test]
fn optimal_refined_matches_the_exhaustive_refinement() {
    for state in ["UT", "NC"] {
        let explorer = explorer(state);
        for strategy in StrategyKind::ALL {
            let reference = reference_refined(&explorer, strategy, &space(), 2);
            let refined = explorer
                .optimal_refined(strategy, &space(), 2)
                .expect("non-empty");
            assert_bitwise(&reference, &refined, &format!("{state} {strategy}"));
            let serial =
                ce_parallel::run_serial(|| explorer.optimal_refined(strategy, &space(), 2))
                    .expect("non-empty");
            assert_bitwise(&reference, &serial, &format!("{state} {strategy} serial"));
        }
    }
}

/// A calendar cap of 0 years makes every battery's embodied term, and so
/// every total with a battery, +∞. All points tie; the first one wins.
#[test]
fn infinite_totals_return_the_first_point() {
    let mut embodied = EmbodiedParams::paper_defaults();
    embodied.battery.calendar_life_cap_years = 0.0;
    let explorer = explorer("UT").with_embodied(embodied);
    let space = DesignSpace {
        battery: (50.0, 270.0, 4),
        ..space()
    };
    for strategy in [
        StrategyKind::RenewablesBattery,
        StrategyKind::RenewablesBatteryCas,
    ] {
        let evals = explorer.explore(strategy, &space);
        assert!(evals.iter().all(|e| e.total_tons() == f64::INFINITY));
        let first = &evals[0];
        for found in optimal_both_ways(&explorer, strategy, &space) {
            assert_bitwise(first, &found, &format!("{strategy} optimal"));
        }
        let refined = explorer
            .optimal_refined(strategy, &space, 2)
            .expect("non-empty");
        assert_bitwise(first, &refined, &format!("{strategy} optimal_refined"));
    }
}

/// With all-zero battery coefficients and a calendar cap of 0 years, every
/// battery amortizes 0 t over 0 years: its total is NaN. The serial fold
/// keeps a NaN only when the sweep starts with one, and otherwise passes
/// over them.
#[test]
fn nan_totals_follow_the_serial_fold() {
    let mut embodied = EmbodiedParams::paper_defaults();
    embodied.battery.materials_kg_per_kwh = 0.0;
    embodied.battery.assembly_kg_per_kwh = 0.0;
    embodied.battery.end_of_life_kg_per_kwh = 0.0;
    embodied.battery.calendar_life_cap_years = 0.0;
    let explorer = explorer("UT").with_embodied(embodied);
    for strategy in [
        StrategyKind::RenewablesBattery,
        StrategyKind::RenewablesBatteryCas,
    ] {
        // No battery-free point: every total is NaN, and the first wins.
        let all_nan = DesignSpace {
            battery: (50.0, 270.0, 4),
            ..space()
        };
        let evals = explorer.explore(strategy, &all_nan);
        assert!(evals.iter().all(|e| e.total_tons().is_nan()));
        for found in optimal_both_ways(&explorer, strategy, &all_nan) {
            assert_bitwise(&evals[0], &found, &format!("{strategy} all NaN"));
        }
        let refined = explorer
            .optimal_refined(strategy, &all_nan, 2)
            .expect("non-empty");
        assert_bitwise(&evals[0], &refined, &format!("{strategy} all NaN refined"));

        // Battery-free points score numbers and every other point NaN.
        let evals = explorer.explore(strategy, &space());
        assert!(evals.iter().any(|e| e.total_tons().is_nan()));
        let reference = first_minimum(evals).expect("non-empty");
        assert!(!reference.total_tons().is_nan());
        for found in optimal_both_ways(&explorer, strategy, &space()) {
            assert_bitwise(&reference, &found, &format!("{strategy} mixed"));
        }
        for rounds in 1..=3 {
            let refined = explorer
                .optimal_refined(strategy, &space(), rounds)
                .expect("non-empty");
            assert_bitwise(
                &reference_refined(&explorer, strategy, &space(), rounds),
                &refined,
                &format!("{strategy} mixed, {rounds} rounds"),
            );
        }
    }
}

/// A negative manufacturing coefficient makes a battery that cycles more
/// carry *less* embodied carbon than the zero-cycle bound, so the bound
/// is unsound and the search must skip nothing.
#[test]
fn negative_battery_coefficient_disables_pruning() {
    let mut embodied = EmbodiedParams::paper_defaults();
    embodied.battery.materials_kg_per_kwh = -2_000.0;
    assert!(embodied.battery.total_kg_per_kwh() < 0.0);
    let explorer = explorer("UT").with_embodied(embodied);
    for strategy in StrategyKind::ALL {
        let reference = first_minimum(explorer.explore(strategy, &space())).expect("non-empty");
        for found in optimal_both_ways(&explorer, strategy, &space()) {
            assert_bitwise(&reference, &found, &format!("{strategy}"));
        }
        let refined = explorer
            .optimal_refined(strategy, &space(), 2)
            .expect("non-empty");
        assert_bitwise(
            &reference_refined(&explorer, strategy, &space(), 2),
            &refined,
            &format!("{strategy} refined"),
        );
    }
}
