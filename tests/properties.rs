//! Cross-crate property-based tests: invariants that must hold for *any*
//! demand/supply/battery/scheduler configuration, not just the paper's.

use carbon_explorer::battery::{simulate_dispatch, BatteryModel, ClcBattery, IdealBattery};
use carbon_explorer::prelude::*;
use proptest::prelude::*;

fn series(start: Timestamp, values: Vec<f64>) -> HourlySeries {
    HourlySeries::from_values(start, values)
}

fn start() -> Timestamp {
    Timestamp::start_of_year(2020)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Battery dispatch never invents energy: served + curtailed +
    /// residual SoC is bounded by supply + initial charge.
    #[test]
    fn dispatch_conserves_energy(
        demand in prop::collection::vec(0.0f64..50.0, 48..96),
        supply in prop::collection::vec(0.0f64..80.0, 48..96),
        capacity in 0.0f64..200.0,
    ) {
        let n = demand.len().min(supply.len());
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let mut battery = IdealBattery::new(capacity);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        // Renewables consumed directly = demand - unmet - battery_supplied.
        let direct = demand.sum() - r.unmet.sum() - r.battery_supplied.sum();
        let charged = supply.sum() - direct - r.curtailed.sum();
        // Battery books balance: initial + charged - discharged = final SoC.
        let final_soc = r.soc.values().get(n - 1).copied().unwrap_or(0.0);
        let books = capacity + charged - r.total_discharged_mwh;
        prop_assert!((books - final_soc).abs() < 1e-6,
            "battery books {books} vs soc {final_soc}");
        // Nothing negative anywhere.
        prop_assert!(r.unmet.min().unwrap_or(0.0) >= -1e-9);
        prop_assert!(r.curtailed.min().unwrap_or(0.0) >= -1e-9);
    }

    /// A bigger ideal battery never increases unmet energy.
    #[test]
    fn unmet_energy_is_monotone_in_battery_capacity(
        demand in prop::collection::vec(0.0f64..50.0, 48..72),
        supply in prop::collection::vec(0.0f64..80.0, 48..72),
        small in 0.0f64..50.0,
        extra in 0.0f64..100.0,
    ) {
        let n = demand.len().min(supply.len());
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let mut a = IdealBattery::new(small);
        let mut b = IdealBattery::new(small + extra);
        let ra = simulate_dispatch(&mut a, &demand, &supply).unwrap();
        let rb = simulate_dispatch(&mut b, &demand, &supply).unwrap();
        prop_assert!(rb.unmet.sum() <= ra.unmet.sum() + 1e-6);
    }

    /// The C/L/C battery's SoC always stays within [DoD floor, capacity],
    /// whatever the request sequence.
    #[test]
    fn clc_soc_stays_in_bounds(
        requests in prop::collection::vec((-40.0f64..40.0, any::<bool>()), 1..200),
        capacity in 1.0f64..100.0,
        dod in 0.1f64..1.0,
    ) {
        let mut battery = ClcBattery::lfp(capacity, dod);
        for (power, charge) in requests {
            if charge {
                battery.charge(power);
            } else {
                battery.discharge(power);
            }
            prop_assert!(battery.soc_mwh() >= battery.min_soc_mwh() - 1e-9);
            prop_assert!(battery.soc_mwh() <= capacity + 1e-9);
        }
    }

    /// Greedy scheduling conserves each day's energy and respects the cap
    /// for arbitrary inputs.
    #[test]
    fn scheduling_conserves_daily_energy(
        demand in prop::collection::vec(0.0f64..30.0, 48..96),
        supply in prop::collection::vec(0.0f64..50.0, 48..96),
        fwr in 0.0f64..1.0,
        cap_slack in 1.0f64..3.0,
    ) {
        let n = (demand.len().min(supply.len()) / 24) * 24;
        prop_assume!(n >= 24);
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let cap = demand.max().unwrap() * cap_slack;
        let scheduler = GreedyScheduler::new(CasConfig {
            max_capacity_mw: cap,
            flexible_ratio: fwr,
        });
        let result = scheduler.schedule(&demand, &supply).unwrap();
        for day in 0..n / 24 {
            let orig: f64 = demand.values()[day * 24..(day + 1) * 24].iter().sum();
            let new: f64 = result.shifted_demand.values()[day * 24..(day + 1) * 24].iter().sum();
            prop_assert!((orig - new).abs() < 1e-6, "day {day}: {orig} vs {new}");
        }
        for &v in result.shifted_demand.values() {
            prop_assert!(v <= cap + 1e-6);
            prop_assert!(v >= -1e-9);
        }
    }

    /// Scheduling never increases the renewable deficit.
    #[test]
    fn scheduling_never_hurts(
        demand in prop::collection::vec(0.0f64..30.0, 48..96),
        supply in prop::collection::vec(0.0f64..50.0, 48..96),
        fwr in 0.0f64..1.0,
    ) {
        let n = (demand.len().min(supply.len()) / 24) * 24;
        prop_assume!(n >= 24);
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let scheduler = GreedyScheduler::new(CasConfig {
            max_capacity_mw: demand.max().unwrap() * 2.0,
            flexible_ratio: fwr,
        });
        let result = scheduler.schedule(&demand, &supply).unwrap();
        let deficit = |d: &HourlySeries| {
            d.zip_with(&supply, |p, s| (p - s).max(0.0)).unwrap().sum()
        };
        prop_assert!(deficit(&result.shifted_demand) <= deficit(&demand) + 1e-6);
    }

    /// Combined dispatch runs every job exactly once: total effective load
    /// equals total demand.
    #[test]
    fn combined_dispatch_conserves_work(
        demand in prop::collection::vec(0.0f64..30.0, 48..96),
        supply in prop::collection::vec(0.0f64..50.0, 48..96),
        fwr in 0.0f64..1.0,
        capacity in 0.0f64..80.0,
    ) {
        let n = demand.len().min(supply.len());
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let mut battery = ClcBattery::lfp(capacity, 1.0);
        let r = carbon_explorer::scheduler::combined_dispatch(
            &mut battery,
            &demand,
            &supply,
            CombinedConfig {
                max_capacity_mw: f64::INFINITY,
                flexible_ratio: fwr,
                window_hours: 24,
            },
        )
        .unwrap();
        prop_assert!((r.effective_demand.sum() - demand.sum()).abs() < 1e-6);
        prop_assert!(r.unmet.min().unwrap_or(0.0) >= -1e-9);
    }

    /// Coverage is a proper fraction and monotone in uniform supply scaling.
    #[test]
    fn coverage_is_monotone_in_supply_scale(
        demand in prop::collection::vec(0.1f64..30.0, 24..72),
        supply in prop::collection::vec(0.0f64..50.0, 24..72),
        scale in 0.0f64..2.0,
    ) {
        let n = demand.len().min(supply.len());
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let base = renewable_coverage(&demand, &supply).unwrap();
        let scaled = renewable_coverage(&demand, &supply.scale(1.0 + scale)).unwrap();
        prop_assert!((0.0..=1.0).contains(&base.fraction()));
        prop_assert!(scaled.fraction() >= base.fraction() - 1e-12);
    }

    /// Investment scaling in the grid layer is linear: coverage at 2x the
    /// investment equals coverage at a 2x-scaled supply.
    #[test]
    fn grid_scaling_is_linear(mw in 1.0f64..2000.0) {
        let grid = GridDataset::synthesize(BalancingAuthority::PACE, 2020, 7);
        let one = grid.scaled_wind(mw);
        let two = grid.scaled_wind(2.0 * mw);
        for i in (0..one.len()).step_by(523) {
            prop_assert!((two[i] - 2.0 * one[i]).abs() < 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coarser credit-matching granularity can only match more energy.
    #[test]
    fn matching_is_monotone_in_granularity(
        demand in prop::collection::vec(0.1f64..20.0, 48..120),
        supply in prop::collection::vec(0.0f64..40.0, 48..120),
    ) {
        use carbon_explorer::core::accounting::{match_credits, MatchingGranularity};
        let n = demand.len().min(supply.len());
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let intensity = HourlySeries::constant(start(), n, 0.5);
        let mut previous = -1.0;
        for granularity in MatchingGranularity::ALL {
            let report = match_credits(&demand, &supply, &intensity, granularity).unwrap();
            prop_assert!(report.matched_fraction() >= previous - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&report.matched_fraction()));
            prop_assert!(report.residual_emissions_tons >= -1e-9);
            previous = report.matched_fraction();
        }
    }

    /// The tiered scheduler conserves daily energy and never worsens the
    /// deficit, whatever the tier mix.
    #[test]
    fn tiered_scheduler_invariants(
        demand in prop::collection::vec(0.0f64..20.0, 48..96),
        supply in prop::collection::vec(0.0f64..30.0, 48..96),
        flexible in 0.0f64..1.0,
    ) {
        let n = (demand.len().min(supply.len()) / 24) * 24;
        prop_assume!(n >= 24);
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let scheduler = TieredScheduler::meta_tiers(demand.max().unwrap() * 2.0, flexible);
        let result = scheduler.schedule(&demand, &supply).unwrap();
        for day in 0..n / 24 {
            let orig: f64 = demand.values()[day * 24..(day + 1) * 24].iter().sum();
            let new: f64 = result.values()[day * 24..(day + 1) * 24].iter().sum();
            prop_assert!((orig - new).abs() < 1e-6);
        }
        let deficit = |d: &HourlySeries| {
            d.zip_with(&supply, |p, s| (p - s).max(0.0)).unwrap().sum()
        };
        prop_assert!(deficit(&result) <= deficit(&demand) + 1e-6);
    }

    /// Monthly coverage decomposition always reassembles the annual total.
    #[test]
    fn monthly_coverage_decomposes_exactly(
        demand in prop::collection::vec(0.0f64..20.0, 720..1500),
        supply in prop::collection::vec(0.0f64..30.0, 720..1500),
    ) {
        use carbon_explorer::core::monthly_coverage;
        let n = demand.len().min(supply.len());
        let demand = series(start(), demand[..n].to_vec());
        let supply = series(start(), supply[..n].to_vec());
        let months = monthly_coverage(&demand, &supply).unwrap();
        let monthly_total: f64 = months.iter().map(|m| m.unmet_mwh).sum();
        let annual = demand
            .zip_with(&supply, |d, s| (d - s).max(0.0))
            .unwrap()
            .sum();
        prop_assert!((monthly_total - annual).abs() < 1e-6);
    }

    /// Seasonal-naive forecasts of a perfectly periodic signal are exact.
    #[test]
    fn seasonal_naive_is_exact_on_periodic_signals(
        profile in prop::collection::vec(0.0f64..50.0, 24),
        days in 2usize..6,
        horizon in 1usize..48,
    ) {
        use carbon_explorer::timeseries::forecast::seasonal_naive;
        let history = HourlySeries::from_fn(start(), days * 24, |h| profile[h % 24]);
        let forecast = seasonal_naive(&history, horizon).unwrap();
        for h in 0..horizon {
            let expected = profile[(days * 24 + h) % 24];
            prop_assert!((forecast[h] - expected).abs() < 1e-12);
        }
    }

    /// Spatial migration never increases the fleet deficit and conserves
    /// work up to the configured overhead.
    #[test]
    fn migration_invariants(
        demand_a in prop::collection::vec(0.0f64..20.0, 24..48),
        demand_b in prop::collection::vec(0.0f64..20.0, 24..48),
        supply_a in prop::collection::vec(0.0f64..30.0, 24..48),
        supply_b in prop::collection::vec(0.0f64..30.0, 24..48),
        fraction in 0.0f64..1.0,
    ) {
        use carbon_explorer::scheduler::{migrate_load, MigrationConfig, SpatialSite};
        let n = demand_a.len().min(demand_b.len()).min(supply_a.len()).min(supply_b.len());
        let overhead = 0.02;
        let sites = vec![
            SpatialSite {
                name: "a".into(),
                demand: series(start(), demand_a[..n].to_vec()),
                supply: series(start(), supply_a[..n].to_vec()),
                max_capacity_mw: 100.0,
            },
            SpatialSite {
                name: "b".into(),
                demand: series(start(), demand_b[..n].to_vec()),
                supply: series(start(), supply_b[..n].to_vec()),
                max_capacity_mw: 100.0,
            },
        ];
        let result = migrate_load(
            &sites,
            MigrationConfig {
                migratable_fraction: fraction,
                migration_overhead: overhead,
            },
        )
        .unwrap();
        prop_assert!(result.deficit_after_mwh <= result.deficit_before_mwh + 1e-6);
        let before: f64 = sites.iter().map(|s| s.demand.sum()).sum();
        let after: f64 = result.balanced_demand.iter().map(|d| d.sum()).sum();
        prop_assert!((after - before - result.migrated_mwh * overhead).abs() < 1e-6);
    }
}
