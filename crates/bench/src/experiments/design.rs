//! Design-strategy experiments: Figures 6, 7, 8, 9, 11, 12.

use crate::context::Context;
use ce_battery::{simulate_dispatch, ClcBattery};
use ce_core::report::{render_table, sparkline};
use ce_core::{renewable_coverage, Scenario};
use ce_datacenter::DataCenterSite;
use ce_grid::GridDataset;
use ce_scheduler::{
    additional_capacity_fraction, required_capacity_for_full_coverage, CasConfig, GreedyScheduler,
};
use ce_timeseries::resample::{average_day_profile, tile_day_profile};
use ce_timeseries::HourlySeries;
use std::fmt::Write as _;

/// Evenly spaced investment levels up to `max`.
fn axis(max: f64, steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| max * i as f64 / steps.saturating_sub(1).max(1) as f64)
        .collect()
}

/// Coverage percent of a site's demand under a (solar, wind) investment.
fn coverage_percent(demand: &HourlySeries, grid: &GridDataset, solar: f64, wind: f64) -> f64 {
    let supply = grid.scaled_renewables(solar, wind);
    renewable_coverage(demand, &supply)
        .expect("aligned")
        .percent()
}

/// Figure 6: hourly operational carbon intensity of the three supply
/// scenarios for the Utah datacenter.
pub fn fig6(ctx: &mut Context) -> String {
    let site = ctx.site("UT");
    let demand = site.demand_trace(crate::context::YEAR, crate::context::SEED);
    let grid = ctx.grid(site.ba()).clone();
    let supply = grid.scaled_renewables(site.solar_mw(), site.wind_mw());

    // 24/7 mitigation: five hours of battery plus 40% CAS.
    let mut battery = ClcBattery::lfp(5.0 * site.avg_power_mw(), 1.0);
    let mitigated = ce_scheduler::combined_dispatch(
        &mut battery,
        &demand,
        &supply,
        ce_scheduler::CombinedConfig {
            max_capacity_mw: demand.max().unwrap() * 1.5,
            flexible_ratio: 0.4,
            window_hours: 24,
        },
    )
    .expect("aligned");

    let mut out = String::from(
        "Figure 6: Hourly operational carbon intensity of DC energy supply scenarios (UT)\n\n",
    );
    for scenario in Scenario::ALL {
        let intensity = ce_core::scenario::hourly_intensity(
            scenario,
            &demand,
            &supply,
            &grid,
            Some(&mitigated.unmet),
        )
        .expect("aligned");
        let profile = average_day_profile(&intensity);
        let _ = writeln!(
            out,
            "{:<17} avg {:>6.4} t/MWh  avg-day [{}]",
            scenario.label(),
            intensity.mean(),
            sparkline(&profile)
        );
    }
    out.push_str("\nOrdering: Grid Mix > Net Zero > 24/7 Carbon Free (paper Figure 6)\n");
    out
}

/// Figure 7: 24/7 coverage with varying wind and solar investments for the
/// three representative regions, with Meta's actual investment marked.
pub fn fig7(ctx: &mut Context) -> String {
    let steps = ctx.fidelity.renewable_steps().max(5);
    let mut out = String::from(
        "Figure 7: 24/7 coverage (%) vs wind/solar investment (rows: wind MW, cols: solar MW)\n",
    );
    for state in ["OR", "NC", "UT"] {
        let site = ctx.site(state);
        let demand = site.demand_trace(crate::context::YEAR, crate::context::SEED);
        let grid = ctx.grid(site.ba()).clone();
        let max_invest = 20.0 * site.avg_power_mw();
        let levels = axis(max_invest, steps);

        let _ = writeln!(
            out,
            "\n--- {} ({}), AVG DC Power: {:.0} MW ---",
            site.name(),
            site.ba().regime(),
            site.avg_power_mw()
        );
        let headers: Vec<String> = std::iter::once("wind\\solar".to_string())
            .chain(levels.iter().map(|s| format!("{s:.0}")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        // steps² coverage evaluations per site: fan out one wind level
        // (one table row) per task, rows collected in axis order.
        let rows: Vec<Vec<String>> = ce_parallel::par_map(&levels, |&w| {
            std::iter::once(format!("{w:.0}"))
                .chain(
                    levels
                        .iter()
                        .map(|&s| format!("{:.0}", coverage_percent(&demand, &grid, s, w))),
                )
                .collect()
        });
        out.push_str(&render_table(&header_refs, &rows));
        let meta_cov = coverage_percent(&demand, &grid, site.solar_mw(), site.wind_mw());
        let _ = writeln!(
            out,
            "Meta investment (solar {:.0} MW, wind {:.0} MW): {:.0}% coverage",
            site.solar_mw(),
            site.wind_mw(),
            meta_cov
        );
    }
    out.push_str("\nSolar-only regions plateau near ~50-55%; hybrid regions climb highest.\n");
    out
}

/// Minimum total investment (MW) along a fixed solar:wind mix reaching a
/// target coverage, or `None` if unreachable even at `max_total`.
fn investment_for_coverage(
    demand: &HourlySeries,
    grid: &GridDataset,
    solar_share: f64,
    target_percent: f64,
    max_total: f64,
) -> Option<f64> {
    let cov = |total: f64| {
        coverage_percent(
            demand,
            grid,
            total * solar_share,
            total * (1.0 - solar_share),
        )
    };
    if cov(max_total) < target_percent {
        return None;
    }
    let (mut lo, mut hi) = (0.0, max_total);
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        if cov(mid) < target_percent {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// Figure 8: the long tail of renewable investment for the Oregon
/// datacenter, and the danger of assuming average-day output.
pub fn fig8(ctx: &mut Context) -> String {
    let site = ctx.site("OR");
    let demand = site.demand_trace(crate::context::YEAR, crate::context::SEED);
    let grid = ctx.grid(site.ba()).clone();
    // BPAT is a wind grid: use a wind-dominant mix matching its resources.
    let solar_share = 0.1;
    let max_total = 4000.0 * site.avg_power_mw();

    let mut out = String::from("Figure 8: The long tail to reach 100% coverage (Oregon)\n\n");
    let mut invest95 = None;
    let mut invest999 = None;
    for target in [50.0, 80.0, 90.0, 95.0, 99.0, 99.9] {
        let invest = investment_for_coverage(&demand, &grid, solar_share, target, max_total);
        match invest {
            Some(mw) => {
                let _ = writeln!(
                    out,
                    "coverage {target:>5.1}% needs {mw:>12.0} MW of renewables"
                );
                // ce:allow(float-eq, reason = "target is drawn from the literal list above; comparing a literal to itself is exact")
                if target == 95.0 {
                    invest95 = Some(mw);
                }
                // ce:allow(float-eq, reason = "target is drawn from the literal list above; comparing a literal to itself is exact")
                if target == 99.9 {
                    invest999 = Some(mw);
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "coverage {target:>5.1}% unreachable below {max_total:.0} MW"
                );
            }
        }
    }
    if let (Some(a), Some(b)) = (invest95, invest999) {
        let _ = writeln!(
            out,
            "\n95% → 99.9% needs {:.1}x the investment of 0% → 95% (paper: >5x)",
            (b - a) / a
        );
    }

    // The average-day counterfactual: replace supply with its average-day
    // profile and the tail almost disappears.
    let supply_at =
        |total: f64| grid.scaled_renewables(total * solar_share, total * (1.0 - solar_share));
    let avg_day_coverage = |total: f64| {
        let supply = supply_at(total);
        let profile = average_day_profile(&supply);
        let tiled = tile_day_profile(supply.start(), &profile, supply.len() / 24);
        let demand_trunc = demand.window(0, tiled.len()).expect("fits");
        renewable_coverage(&demand_trunc, &tiled)
            .expect("aligned")
            .percent()
    };
    let mut naive_full = None;
    for i in 1..=400 {
        let total = max_total * f64::from(i) / 400.0;
        if avg_day_coverage(total) >= 99.9 {
            naive_full = Some(total);
            break;
        }
    }
    if let (Some(naive), Some(real)) = (naive_full, invest999) {
        let _ = writeln!(
            out,
            "assuming average-day output, 99.9% appears to need only {naive:.0} MW — {:.0}x less than reality ({real:.0} MW); fine-grained hourly data is essential",
            real / naive
        );
    }
    out
}

/// Battery capacity (MWh) needed for 100% coverage at a given supply, by
/// bisection over `ce_battery::simulate_dispatch`; `None` if `max_mwh`
/// does not suffice.
fn battery_for_full_coverage(
    demand: &HourlySeries,
    supply: &HourlySeries,
    max_mwh: f64,
) -> Option<f64> {
    let unmet = |capacity: f64| {
        let mut battery = ClcBattery::lfp(capacity, 1.0);
        simulate_dispatch(&mut battery, demand, supply)
            .expect("aligned")
            .unmet
            .sum()
    };
    if unmet(max_mwh) > 1e-6 {
        return None;
    }
    let (mut lo, mut hi) = (0.0, max_mwh);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if unmet(mid) > 1e-6 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// Figure 9: battery capacity (in hours of datacenter compute) required
/// for 24/7 coverage at varying renewable investments (Utah), with the
/// North Carolina comparison.
pub fn fig9(ctx: &mut Context) -> String {
    let steps = ctx.fidelity.renewable_steps().max(4);
    let mut out = String::from(
        "Figure 9: Battery hours needed for 24/7 renewable coverage (rows: wind MW, cols: solar MW)\n",
    );
    for state in ["UT", "NC"] {
        let site = ctx.site(state);
        let demand = site.demand_trace(crate::context::YEAR, crate::context::SEED);
        let grid = ctx.grid(site.ba()).clone();
        let avg = site.avg_power_mw();
        let max_batt = 400.0 * avg; // effectively unbounded
        let levels = axis(25.0 * avg, steps);

        let _ = writeln!(out, "\n--- {} (AVG DC Power: {avg:.0} MW) ---", site.name());
        let headers: Vec<String> = std::iter::once("wind\\solar".to_string())
            .chain(levels.iter().skip(1).map(|s| format!("{s:.0}")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = levels
            .iter()
            .map(|&w| {
                std::iter::once(format!("{w:.0}"))
                    .chain(levels.iter().skip(1).map(|&s| {
                        let supply = grid.scaled_renewables(s, w);
                        match battery_for_full_coverage(&demand, &supply, max_batt) {
                            Some(mwh) => format!("{:.1}h", mwh / avg),
                            None => "-".to_string(),
                        }
                    }))
                    .collect()
            })
            .collect();
        out.push_str(&render_table(&header_refs, &rows));

        // Meta's actual investment plus battery.
        let supply = grid.scaled_renewables(site.solar_mw(), site.wind_mw());
        match battery_for_full_coverage(&demand, &supply, max_batt) {
            Some(mwh) => {
                let _ = writeln!(
                    out,
                    "at Meta's investment: {:.1} hours of battery for 24/7 (paper: UT ~5h, NC ~14h)",
                    mwh / avg
                );
            }
            None => {
                let _ = writeln!(out, "at Meta's investment: no finite battery reaches 24/7");
            }
        }
    }
    out
}

/// Figure 11: three-day carbon-aware scheduling illustration for the Utah
/// datacenter (P_DC_MAX = 17.6 MW, 10% flexible, daily completion).
pub fn fig11(ctx: &mut Context) -> String {
    let site = ctx.site("UT");
    let demand = site.demand_trace(crate::context::YEAR, crate::context::SEED);
    let grid = ctx.grid(site.ba()).clone();
    let intensity = grid.carbon_intensity();

    // Three spring days.
    let offset = 100 * 24;
    let demand3 = demand.window(offset, 72).expect("window fits");
    let intensity3 = intensity.window(offset, 72).expect("window fits");

    let scheduler = GreedyScheduler::new(CasConfig {
        max_capacity_mw: 17.6,
        flexible_ratio: 0.10,
    });
    let result = scheduler
        .schedule_by_cost(&demand3, &intensity3)
        .expect("aligned");

    let mut out = String::from(
        "Figure 11: Carbon-aware scheduling illustration, Utah DC, 3 days\n(P_DC_MAX = 17.6 MW, 10% flexible, daily SLO)\n\n",
    );
    let _ = writeln!(
        out,
        "grid carbon intensity [{}]",
        sparkline(intensity3.values())
    );
    let _ = writeln!(
        out,
        "DC power without CAS  [{}]",
        sparkline(demand3.values())
    );
    let _ = writeln!(
        out,
        "DC power with CAS     [{}]",
        sparkline(result.shifted_demand.values())
    );
    let _ = writeln!(
        out,
        "\nenergy shifted: {:.1} MWh over 3 days",
        result.energy_shifted_mwh
    );
    let _ = writeln!(
        out,
        "peak power: {:.1} MW → {:.1} MW (cap 17.6 MW)",
        demand3.max().unwrap(),
        result.shifted_demand.max().unwrap()
    );
    let weighted = |d: &HourlySeries| {
        d.zip_with(&intensity3, |p, i| p * i)
            .expect("aligned")
            .sum()
    };
    let _ = writeln!(
        out,
        "carbon-weighted energy: {:.1} → {:.1} tCO2",
        weighted(&demand3),
        weighted(&result.shifted_demand)
    );
    out
}

/// Figure 12: server capacity required to reach 24/7 with CAS alone
/// (all workloads flexible), Utah.
pub fn fig12(ctx: &mut Context) -> String {
    let steps = ctx.fidelity.renewable_steps().max(4);
    let site = ctx.site("UT");
    let demand = site.demand_trace(crate::context::YEAR, crate::context::SEED);
    let grid = ctx.grid(site.ba()).clone();
    let avg = site.avg_power_mw();
    let peak = demand.max().unwrap();
    let levels = axis(60.0 * avg, steps);

    let mut out = String::from(
        "Figure 12: Additional server capacity for 24/7 via scheduling alone (UT, 100% flexible)\n\n",
    );
    let headers: Vec<String> = std::iter::once("wind\\solar".to_string())
        .chain(levels.iter().skip(1).map(|s| format!("{s:.0}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = levels
        .iter()
        .map(|&w| {
            std::iter::once(format!("{w:.0}"))
                .chain(levels.iter().skip(1).map(|&s| {
                    let supply = grid.scaled_renewables(s, w);
                    match required_capacity_for_full_coverage(&demand, &supply, 1.0)
                        .expect("aligned")
                    {
                        Some(cap) => format!("+{:.0}%", ((cap - peak) / peak).max(0.0) * 100.0),
                        None => "-".to_string(),
                    }
                }))
                .collect()
        })
        .collect();
    out.push_str(&render_table(&header_refs, &rows));
    out.push_str(
        "\n'-' marks investments where scheduling alone cannot reach 24/7.\nPaper: additional capacity ranges from 19% to over 100%.\n",
    );
    out
}

/// Helper shared with the holistic experiments: coverage gain from CAS at
/// a site's Meta investment.
pub fn cas_gain_at_meta_investment(
    site: &DataCenterSite,
    demand: &HourlySeries,
    grid: &GridDataset,
    flexible_ratio: f64,
) -> (f64, f64, f64) {
    let supply = grid.scaled_renewables(site.solar_mw(), site.wind_mw());
    let before = renewable_coverage(demand, &supply)
        .expect("aligned")
        .percent();
    let scheduler = GreedyScheduler::new(CasConfig {
        max_capacity_mw: demand.max().unwrap_or(0.0) * 2.0,
        flexible_ratio,
    });
    let result = scheduler.schedule(demand, &supply).expect("aligned");
    let after = renewable_coverage(&result.shifted_demand, &supply)
        .expect("aligned")
        .percent();
    let extra = additional_capacity_fraction(demand, &result.shifted_demand);
    (before, after, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;

    fn ctx() -> Context {
        Context::new(Fidelity::Fast)
    }

    #[test]
    fn fig6_orders_scenarios() {
        let out = fig6(&mut ctx());
        // Extract the three means and verify the ordering claim printed.
        let means: Vec<f64> = out
            .lines()
            .filter(|l| l.contains("avg "))
            .filter_map(|l| {
                l.split("avg")
                    .nth(1)?
                    .trim()
                    .split(' ')
                    .next()?
                    .parse()
                    .ok()
            })
            .collect();
        assert_eq!(means.len(), 3);
        assert!(means[0] > means[1], "grid mix > net zero: {means:?}");
        assert!(means[1] > means[2], "net zero > 24/7: {means:?}");
    }

    #[test]
    fn fig7_solar_region_caps_near_fifty() {
        let out = fig7(&mut ctx());
        assert!(out.contains("Forest City"));
        assert!(out.contains("Meta investment"));
    }

    #[test]
    fn fig8_shows_long_tail() {
        let out = fig8(&mut ctx());
        assert!(out.contains("95%") || out.contains("95.0%"));
        assert!(out.contains("needs"));
    }

    #[test]
    fn fig9_reports_battery_hours() {
        let out = fig9(&mut ctx());
        assert!(out.contains("Eagle Mountain"));
        assert!(out.contains("hours of battery") || out.contains("no finite battery"));
    }

    #[test]
    fn fig11_shifts_toward_clean_hours() {
        let out = fig11(&mut ctx());
        let weights: Vec<f64> = out
            .lines()
            .find(|l| l.contains("carbon-weighted"))
            .map(|l| {
                l.split(':')
                    .nth(1)
                    .unwrap()
                    .replace("tCO2", "")
                    .split('→')
                    .filter_map(|v| v.trim().parse().ok())
                    .collect()
            })
            .expect("carbon-weighted line");
        assert_eq!(weights.len(), 2);
        assert!(weights[1] <= weights[0] + 1e-9, "{weights:?}");
    }

    #[test]
    fn fig12_reports_capacity_percentages() {
        let out = fig12(&mut ctx());
        assert!(out.contains('%'));
        assert!(out.contains("wind\\solar"));
    }

    #[test]
    fn cas_gain_helper_improves_coverage() {
        let mut c = ctx();
        let site = c.site("UT");
        let demand = site.demand_trace(crate::context::YEAR, crate::context::SEED);
        let grid = c.grid(site.ba()).clone();
        let (before, after, extra) = cas_gain_at_meta_investment(&site, &demand, &grid, 0.4);
        assert!(after >= before);
        assert!(extra >= 0.0);
    }
}
