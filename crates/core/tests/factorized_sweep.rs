//! The supply-major factorized traversal behind `CarbonExplorer::explore`
//! and the streaming dispatch kernels it runs on must be pure
//! optimizations: same points, same order, bitwise-identical floats as
//! the point-per-point serial reference and the series-materializing
//! dispatch paths they replace.
//!
//! The grid here is deliberately uneven (different step counts per axis,
//! non-zero minima) so the factorization cannot get the ordering right by
//! symmetry: any confusion between group-major and flat order, or between
//! the battery and extra-capacity sub-axes, changes which design lands at
//! which index.

use ce_battery::{
    simulate_dispatch, simulate_dispatch_stats, BatteryModel, ClcBattery, IdealBattery,
};
use ce_core::{CarbonExplorer, DesignSpace, StrategyKind};
use ce_datacenter::Fleet;
use ce_grid::GridDataset;
use ce_scheduler::{CasConfig, GreedyScheduler};
use ce_timeseries::kernels::{self, COVERED_EPSILON_MWH};

fn explorer(state: &str) -> CarbonExplorer {
    let site = Fleet::meta_us()
        .site(state)
        .expect("state in Table 1")
        .clone();
    let grid = GridDataset::synthesize(site.ba(), 2020, 7);
    CarbonExplorer::new(site.demand_trace(2020, 7), grid)
}

/// Uneven on every axis: 5 × 3 × 4 × 3, with non-zero minima on the
/// renewable axes so group values are not multiples of each other.
fn uneven_space() -> DesignSpace {
    DesignSpace {
        solar: (30.0, 630.0, 5),
        wind: (10.0, 410.0, 3),
        battery: (0.0, 270.0, 4),
        extra_capacity: (0.0, 0.9, 3),
    }
}

#[test]
fn factorized_explore_is_bitwise_identical_to_serial_on_uneven_grid() {
    let explorer = explorer("UT");
    let space = uneven_space();
    for strategy in StrategyKind::ALL {
        let serial = explorer.explore_serial(strategy, &space);
        let factorized = explorer.explore(strategy, &space);
        assert_eq!(
            serial.len(),
            factorized.len(),
            "{strategy}: point count mismatch"
        );
        // Order check: the factorized traversal must put every design at
        // the index `DesignSpace::iter` gives it.
        for (i, (s, f)) in serial.iter().zip(&factorized).enumerate() {
            assert_eq!(s.design, f.design, "{strategy}: point {i} reordered");
            assert_eq!(
                s.operational_tons.to_bits(),
                f.operational_tons.to_bits(),
                "{strategy}: point {i} operational tons diverged"
            );
            assert_eq!(
                s.total_tons().to_bits(),
                f.total_tons().to_bits(),
                "{strategy}: point {i} total tons diverged"
            );
            assert_eq!(
                s.battery_cycles.to_bits(),
                f.battery_cycles.to_bits(),
                "{strategy}: point {i} cycles diverged"
            );
            assert_eq!(s, f, "{strategy}: point {i} diverged");
        }
    }
}

/// The sweep engine schedules CAS points through the cached per-day cost
/// permutations (`CostOrder`), rebuilt once per supply group. That cache
/// must be a pure optimization: every evaluation must match what the
/// figure path (`GreedyScheduler::schedule`, which ranks a fresh
/// `CostOrder` per call) produces for the same design, bit for bit. The
/// other three strategies never touch the cache; the all-strategy
/// serial-vs-factorized test above pins them across the same grid.
#[test]
fn cas_sweep_matches_figure_path_scheduler_on_uneven_grid() {
    let explorer = explorer("UT");
    let space = uneven_space();
    let evals = explorer.explore(StrategyKind::RenewablesCas, &space);
    assert!(!evals.is_empty());

    let demand = explorer.demand();
    let intensity = explorer.grid_intensity();
    let peak = demand.max().unwrap_or(0.0);
    let flexible = explorer.workload().flexible_fraction();
    for eval in &evals {
        let supply = explorer
            .grid()
            .scaled_renewables(eval.design.solar_mw, eval.design.wind_mw);
        let scheduler = GreedyScheduler::new(CasConfig {
            max_capacity_mw: peak * (1.0 + eval.design.extra_capacity_fraction),
            flexible_ratio: flexible,
        });
        let shifted = scheduler.schedule(demand, &supply).expect("aligned");
        let (stats, operational) = kernels::deficit_stats_dot_slices(
            shifted.shifted_demand.values(),
            supply.values(),
            intensity.values(),
        );
        assert_eq!(
            operational.to_bits(),
            eval.operational_tons.to_bits(),
            "{}: sweep operational tons diverged from figure path",
            eval.design
        );
        assert_eq!(
            stats.unmet_mwh.to_bits(),
            eval.coverage.unmet_mwh().to_bits(),
            "{}: sweep unmet energy diverged from figure path",
            eval.design
        );
    }
}

#[test]
fn streaming_optimal_matches_full_sweep_first_minimum() {
    let explorer = explorer("NC");
    let space = uneven_space();
    for strategy in StrategyKind::ALL {
        let via_vec = explorer
            .explore(strategy, &space)
            .into_iter()
            .min_by(|a, b| a.total_tons().partial_cmp(&b.total_tons()).expect("finite"))
            .expect("non-empty space");
        let streamed = explorer.optimal(strategy, &space).expect("non-empty space");
        assert_eq!(via_vec.design, streamed.design, "{strategy}: winner moved");
        assert_eq!(
            via_vec.total_tons().to_bits(),
            streamed.total_tons().to_bits(),
            "{strategy}: winning total diverged"
        );
        assert_eq!(via_vec, streamed, "{strategy}");
    }
}

#[test]
fn streaming_optimal_is_none_only_for_empty_spaces() {
    let explorer = explorer("UT");
    let mut empty = uneven_space();
    empty.wind = (0.0, 100.0, 0);
    assert!(explorer
        .optimal(StrategyKind::RenewablesBattery, &empty)
        .is_none());
    let singleton = DesignSpace {
        solar: (120.0, 120.0, 1),
        wind: (40.0, 40.0, 1),
        battery: (60.0, 60.0, 1),
        extra_capacity: (0.5, 0.5, 1),
    };
    let best = explorer
        .optimal(StrategyKind::RenewablesBatteryCas, &singleton)
        .expect("one point");
    assert_eq!(best.design.solar_mw, 120.0);
    assert_eq!(best.design.battery_mwh, 60.0);
}

/// The streaming battery kernel must agree, bit for bit, with folds over
/// the materializing path's series when driven by a real explorer's
/// demand/supply/intensity traces (not just synthetic fixtures).
#[test]
fn dispatch_stats_match_materialized_series_on_explorer_traces() {
    let explorer = explorer("TX");
    let demand = explorer.demand().clone();
    let supply = explorer.grid().scaled_renewables(250.0, 150.0);
    let intensity = explorer.grid_intensity().clone();

    let mut batteries: Vec<Box<dyn BatteryModel>> = vec![
        Box::new(IdealBattery::new(180.0)),
        Box::new(ClcBattery::lfp(220.0, 0.85)),
    ];
    for battery in &mut batteries {
        let full = simulate_dispatch(battery.as_mut(), &demand, &supply).expect("aligned");
        let stats = simulate_dispatch_stats(battery.as_mut(), &demand, &supply, &intensity)
            .expect("aligned");

        let unmet_sum: f64 = full.unmet.values().iter().sum();
        let covered = full
            .unmet
            .values()
            .iter()
            .filter(|&&u| u <= COVERED_EPSILON_MWH)
            .count();
        let dot: f64 = full
            .unmet
            .values()
            .iter()
            .zip(intensity.values())
            .map(|(&u, &w)| u * w)
            .fold(0.0, |acc, x| acc + x);

        assert_eq!(stats.deficit.unmet_mwh.to_bits(), unmet_sum.to_bits());
        assert_eq!(stats.deficit.covered_hours, covered);
        assert_eq!(stats.unmet_dot.to_bits(), dot.to_bits());
        assert_eq!(
            stats.total_discharged_mwh.to_bits(),
            full.total_discharged_mwh.to_bits()
        );
        assert_eq!(
            stats.equivalent_cycles.to_bits(),
            full.equivalent_cycles.to_bits()
        );
    }
}
