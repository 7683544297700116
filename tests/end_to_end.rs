//! End-to-end integration: the full pipeline from synthesis to optimal
//! design, spanning every crate in the workspace.

use carbon_explorer::battery::simulate_dispatch;
use carbon_explorer::core::Coverage;
use carbon_explorer::prelude::*;

fn explorer_for(state: &str) -> (DataCenterSite, CarbonExplorer) {
    let fleet = Fleet::meta_us();
    let site = fleet.site(state).expect("site in Table 1").clone();
    let grid = GridDataset::synthesize(site.ba(), 2020, 7);
    let explorer = CarbonExplorer::new(site.demand_trace(2020, 7), grid);
    (site, explorer)
}

fn small_space(avg: f64) -> DesignSpace {
    DesignSpace {
        solar: (0.0, 20.0 * avg, 3),
        wind: (0.0, 20.0 * avg, 3),
        battery: (0.0, 12.0 * avg, 3),
        extra_capacity: (0.0, 0.5, 2),
    }
}

#[test]
fn strategies_are_ordered_by_capability() {
    // At a fixed design, each added mechanism may only improve coverage.
    let (site, explorer) = explorer_for("UT");
    let design = DesignPoint {
        solar_mw: site.solar_mw(),
        wind_mw: site.wind_mw(),
        battery_mwh: 4.0 * site.avg_power_mw(),
        extra_capacity_fraction: 0.3,
    };
    let base = explorer.evaluate(StrategyKind::RenewablesOnly, &design);
    let battery = explorer.evaluate(StrategyKind::RenewablesBattery, &design);
    let cas = explorer.evaluate(StrategyKind::RenewablesCas, &design);
    let both = explorer.evaluate(StrategyKind::RenewablesBatteryCas, &design);

    assert!(battery.coverage.fraction() >= base.coverage.fraction());
    assert!(cas.coverage.fraction() >= base.coverage.fraction());
    assert!(both.coverage.fraction() >= battery.coverage.fraction() - 1e-9);
    assert!(both.coverage.fraction() >= cas.coverage.fraction() - 1e-9);
}

#[test]
fn optimal_total_carbon_never_increases_with_more_options() {
    // A strategy superset can always fall back to the subset's design, so
    // its optimum is at least as good.
    let (site, explorer) = explorer_for("TX");
    let space = small_space(site.avg_power_mw());
    let only = explorer
        .optimal(StrategyKind::RenewablesOnly, &space)
        .expect("non-empty");
    let battery = explorer
        .optimal(StrategyKind::RenewablesBattery, &space)
        .expect("non-empty");
    let both = explorer
        .optimal(StrategyKind::RenewablesBatteryCas, &space)
        .expect("non-empty");
    assert!(battery.total_tons() <= only.total_tons() + 1e-6);
    assert!(both.total_tons() <= battery.total_tons() + 1e-6);
}

#[test]
fn pareto_frontier_is_consistent_with_the_sweep() {
    let (site, explorer) = explorer_for("NC");
    let space = small_space(site.avg_power_mw());
    let evals = explorer.explore(StrategyKind::RenewablesBattery, &space);
    let frontier = ParetoFrontier::from_evaluations(&evals);
    assert!(!frontier.is_empty());
    // No evaluated point may dominate a frontier point.
    for f in frontier.points() {
        for e in &evals {
            let dominates = e.embodied_tons() < f.embodied_tons() - 1e-9
                && e.operational_tons < f.operational_tons - 1e-9;
            assert!(!dominates, "frontier point dominated");
        }
    }
    // The frontier's carbon optimum equals the sweep's optimum.
    let sweep_best = evals
        .iter()
        .map(|e| e.total_tons())
        .fold(f64::INFINITY, f64::min);
    let frontier_best = frontier.carbon_optimal().expect("non-empty").total_tons();
    assert!((sweep_best - frontier_best).abs() < 1e-6);
}

#[test]
fn solar_only_region_needs_storage_for_high_coverage() {
    // DUK has no wind: renewables alone cap near 50-60%, batteries break
    // the ceiling — the paper's central claim for NC/GA/TN/AL.
    let (site, explorer) = explorer_for("NC");
    let huge_solar = DesignPoint::renewables(100.0 * site.avg_power_mw(), 0.0);
    let capped = explorer.evaluate(StrategyKind::RenewablesOnly, &huge_solar);
    assert!(
        capped.coverage.fraction() < 0.65,
        "solar-only coverage {} should cap near 50-60%",
        capped.coverage
    );

    let with_battery = DesignPoint {
        battery_mwh: 16.0 * site.avg_power_mw(),
        ..huge_solar
    };
    let broken = explorer.evaluate(StrategyKind::RenewablesBattery, &with_battery);
    assert!(
        broken.coverage.fraction() > 0.9,
        "batteries should break the ceiling, got {}",
        broken.coverage
    );
}

#[test]
fn net_zero_annual_matching_hides_hourly_deficits() {
    // The motivating observation of the whole paper.
    let (site, explorer) = explorer_for("UT");
    let demand = explorer.demand().clone();
    let supply = explorer
        .grid()
        .scaled_renewables(site.solar_mw(), site.wind_mw());
    // Annual credits cover consumption...
    let intensity = explorer.grid().carbon_intensity();
    let annual =
        match_credits(&demand, &supply, &intensity, MatchingGranularity::Annual).expect("aligned");
    assert!(annual.matched_fraction() >= 1.0 - 1e-9);
    // ...but hourly coverage is below 100%.
    let coverage = renewable_coverage(&demand, &supply).expect("aligned");
    assert!(!coverage.is_full());
}

#[test]
fn battery_dispatch_and_explorer_agree() {
    // The explorer's RenewablesBattery path must match a direct dispatch.
    let (site, explorer) = explorer_for("IA");
    let design = DesignPoint {
        solar_mw: 100.0,
        wind_mw: 300.0,
        battery_mwh: 200.0,
        extra_capacity_fraction: 0.0,
    };
    let eval = explorer.evaluate(StrategyKind::RenewablesBattery, &design);

    let supply = explorer.grid().scaled_renewables(100.0, 300.0);
    let mut battery = ClcBattery::lfp(200.0, 1.0);
    let dispatch = simulate_dispatch(&mut battery, explorer.demand(), &supply).expect("aligned");
    let coverage = Coverage::from_unmet(explorer.demand(), &dispatch.unmet).expect("aligned");
    assert_eq!(eval.coverage, coverage);
    assert!((eval.battery_cycles - dispatch.equivalent_cycles).abs() < 1e-9);
    let _ = site;
}

#[test]
fn whole_fleet_pipeline_runs() {
    // Smoke the entire Table 1 fleet through a minimal sweep.
    let fleet = Fleet::meta_us();
    for site in &fleet {
        let grid = GridDataset::synthesize(site.ba(), 2020, 7);
        let explorer = CarbonExplorer::new(site.demand_trace(2020, 7), grid);
        let best = explorer
            .optimal(
                StrategyKind::RenewablesBattery,
                &DesignSpace {
                    solar: (0.0, 15.0 * site.avg_power_mw(), 2),
                    wind: (0.0, 15.0 * site.avg_power_mw(), 2),
                    battery: (0.0, 8.0 * site.avg_power_mw(), 2),
                    extra_capacity: (0.0, 0.0, 1),
                },
            )
            .expect("non-empty");
        assert!(best.total_tons() > 0.0, "{}", site.state());
        assert!(best.coverage.fraction() <= 1.0);
    }
}
