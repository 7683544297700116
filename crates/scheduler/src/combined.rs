//! The combined battery + CAS heuristic (paper §5.2, "Renewables + Battery
//! + CAS").
//!
//! The paper's priority order minimizes runtime delays:
//!
//! - on renewable *deficit*: discharge the battery first; shift workloads
//!   only if the stored energy (at the DoD limit) is insufficient;
//! - on renewable *surplus*: execute all deferred workloads first, then
//!   charge the battery with the remaining supply.
//!
//! Deferred work carries a completion deadline (the Tier-4 daily SLO by
//! default); work that reaches its deadline is force-run on grid energy so
//! SLOs are never violated.

use ce_battery::BatteryModel;
use ce_timeseries::kernels::{DrawFold, GiveUp, Never};
use ce_timeseries::{DeficitStats, HourlySeries, TimeSeriesError};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::iter;
use std::ops::ControlFlow;

/// Configuration for the combined battery + CAS dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CombinedConfig {
    /// Hard cap on hourly facility power, MW (existing + extra servers).
    pub max_capacity_mw: f64,
    /// Fraction of each hour's load that may be deferred.
    pub flexible_ratio: f64,
    /// Deferral window, hours (Tier-4 daily SLO = 24).
    pub window_hours: usize,
}

impl Default for CombinedConfig {
    fn default() -> Self {
        Self {
            max_capacity_mw: f64::INFINITY,
            flexible_ratio: 0.4,
            window_hours: 24,
        }
    }
}

/// Result of a combined battery + CAS dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedResult {
    /// Grid energy consumed per hour (unmet by renewables/battery), MW.
    pub unmet: HourlySeries,
    /// The post-scheduling effective load, MW.
    pub effective_demand: HourlySeries,
    /// Power served from the battery per hour, MW.
    pub battery_supplied: HourlySeries,
    /// Curtailed renewable surplus per hour, MW.
    pub curtailed: HourlySeries,
    /// Battery state of charge at the end of each hour, MWh.
    pub soc: HourlySeries,
    /// Total energy deferred across the run, MWh.
    pub deferred_mwh: f64,
    /// Energy force-run on grid power at its SLO deadline, MWh.
    pub forced_mwh: f64,
    /// Equivalent full battery cycles performed.
    pub equivalent_cycles: f64,
}

/// Reusable state for [`combined_dispatch_stats`]: the fixed ring that
/// holds the deferred-work backlog. Each run sizes it to
/// `min(window_hours, hours)` slots, the most jobs that can be waiting at
/// once, so a scratch reused across calls allocates only when a run needs
/// more slots than every run before it.
#[derive(Debug, Clone, Default)]
pub struct CombinedScratch {
    ring: Vec<(usize, f64)>,
}

/// One hour of the combined heuristic, as [`combined_hours`] hands it to a
/// sink: grid draw (on the final hour, including the forced leftover
/// backlog), post-scheduling load, battery output and curtailed surplus
/// (MW), and the state of charge at the end of the hour (MWh).
#[derive(Clone, Copy)]
struct CombinedHour {
    unmet: f64,
    effective: f64,
    supplied: f64,
    curtailed: f64,
    soc: f64,
}

/// Run-level totals of one combined dispatch.
struct CombinedTotals {
    deferred_mwh: f64,
    forced_mwh: f64,
    discharged_mwh: f64,
    equivalent_cycles: f64,
}

/// The battery-first / defer-second heuristic, written once for
/// [`combined_dispatch`] and [`combined_dispatch_stats_until`]: resets
/// `battery` to full, steps every hour of `demand`/`supply` and hands it,
/// with that hour's item of `tags`, to `sink` in hour order. Work still in
/// the backlog at the end of the horizon is forced onto the final hour's
/// grid draw (conservative accounting) before the sink sees that hour, so
/// neither wrapper patches or holds back a last hour. `tags` carries
/// per-hour data only one sink needs (the stats fold's weight), zipped in
/// so that sink indexes nothing. The run stops at the first hour whose
/// sink returns `Break`.
///
/// Every hour's grid draw is `>= 0`: the battery delivers at most the
/// deficit (a [`BatteryModel`] delivers at most the power requested),
/// deferral moves at most what is left of it, and the final hour adds a
/// backlog of entries `> 1e-12`.
///
/// Unlike `ce_battery`'s greedy kernel, this one steps a pegged battery
/// too. Skipping the surplus hours of a battery pegged full while the
/// backlog is empty gives the same bits, but it did not pay: such hours
/// were 38% of a battery + CAS sweep's and 24% of the optimum search's,
/// and in paired in-process runs the skip made that sweep at most 4%
/// faster and the search 7–23% slower. A stepped pegged hour is already
/// cheap here (the charge returns early and nothing drains), so the test
/// that every other hour pays cost more than the skipped hours saved.
///
/// Forced inline so each wrapper compiles the loop with its own sink in
/// place and the stats path keeps none of the trace's per-hour work.
///
/// # Panics
///
/// Panics if `config.flexible_ratio` is outside `[0, 1]` or
/// `config.window_hours` is zero.
// ce:hot
#[inline(always)]
fn combined_hours<B: BatteryModel + ?Sized, T, S>(
    battery: &mut B,
    demand: &[f64],
    supply: &[f64],
    tags: impl IntoIterator<Item = T>,
    config: CombinedConfig,
    scratch: &mut CombinedScratch,
    mut sink: impl FnMut(CombinedHour, T) -> ControlFlow<S>,
) -> ControlFlow<S, CombinedTotals> {
    assert!(
        (0.0..=1.0).contains(&config.flexible_ratio),
        "flexible ratio must be in [0, 1]"
    );
    assert!(config.window_hours > 0, "window must be at least one hour");
    battery.reset(1.0);
    let len = demand.len();
    // FIFO of (deadline_hour, energy_mwh) deferred jobs: `live` entries of
    // `ring` from slot `head` on, wrapping. A job deferred at hour `h` is
    // due at `h + window_hours`, and every due job is forced before an
    // hour defers its own, so at most `min(window_hours, len)` are live at
    // once and a ring of that many slots never overflows. Head and length
    // live in locals, and slots are reached through `get`/`get_mut` with
    // wrapping index arithmetic, so the hour loop calls nothing and has no
    // panic path.
    let slots = config.window_hours.min(len);
    let last_hour = len.checked_sub(1);
    let ring = &mut scratch.ring;
    ring.clear();
    ring.resize(slots, (0, 0.0));
    let ring = ring.as_mut_slice();
    let wrap = |slot: usize| {
        if slot >= slots {
            slot.wrapping_sub(slots)
        } else {
            slot
        }
    };
    let mut head = 0usize;
    let mut live = 0usize;

    let mut deferred_mwh = 0.0;
    let mut forced_mwh = 0.0;
    let mut discharged_mwh = 0.0;

    let hours = demand.iter().zip(supply).zip(tags).enumerate();
    for (h, ((&d, &s), tag)) in hours {
        let mut load = d;
        let mut unmet = 0.0;
        let mut supplied = 0.0;
        let mut curtailed = 0.0;

        // SLO enforcement: any deferred work whose deadline is this hour
        // must run now, whatever the energy source.
        while live > 0 {
            let Some(&(deadline, energy)) = ring.get(head) else {
                break;
            };
            if deadline > h {
                break;
            }
            head = wrap(head.wrapping_add(1));
            live = live.wrapping_sub(1);
            load += energy;
            forced_mwh += energy;
        }

        if s >= load {
            // Surplus: run deferred work first, newest-deadline last.
            let mut surplus = s - load;
            let mut headroom = (config.max_capacity_mw - load).max(0.0);
            while surplus > 1e-12 && headroom > 1e-12 && live > 0 {
                let Some((_, energy)) = ring.get_mut(head) else {
                    break;
                };
                let run = energy.min(surplus).min(headroom);
                load += run;
                surplus -= run;
                headroom -= run;
                let remainder = *energy - run;
                if remainder > 1e-12 {
                    // The job stays at the front with what is left of it.
                    *energy = remainder;
                } else {
                    head = wrap(head.wrapping_add(1));
                    live = live.wrapping_sub(1);
                }
            }
            // Then charge the battery; curtail the rest.
            let accepted = battery.charge(surplus);
            curtailed = surplus - accepted;
        } else {
            // Deficit: battery first.
            let mut deficit = load - s;
            let delivered = battery.discharge(deficit);
            discharged_mwh += delivered;
            supplied = delivered;
            deficit -= delivered;
            if deficit > 1e-12 {
                // Battery insufficient: defer what flexibility allows.
                // Only this hour's own flexible load can move (forced work
                // has already exhausted its window).
                let deferrable = (d * config.flexible_ratio).min(deficit);
                if deferrable > 1e-12 {
                    // A window past the horizon saturates: the job is
                    // never due, as with a window of `len`.
                    let deadline = h.saturating_add(config.window_hours);
                    if let Some(slot) = ring.get_mut(wrap(head.wrapping_add(live))) {
                        *slot = (deadline, deferrable);
                        live = live.wrapping_add(1);
                    }
                    deferred_mwh += deferrable;
                    load -= deferrable;
                    deficit -= deferrable;
                }
                unmet = deficit;
            }
        }

        if Some(h) == last_hour {
            // End of the horizon: the leftover backlog runs on grid
            // energy in the final hour, summed front to back. Folded from
            // +0.0, so an empty backlog adds +0.0 (`Iterator::sum` would
            // give −0.0).
            let mut leftover = 0.0;
            let mut slot = head;
            for _ in 0..live {
                if let Some(&(_, energy)) = ring.get(slot) {
                    leftover += energy;
                }
                slot = wrap(slot.wrapping_add(1));
            }
            unmet += leftover;
            load += leftover;
            forced_mwh += leftover;
        }
        sink(
            CombinedHour {
                unmet,
                effective: load,
                supplied,
                curtailed,
                soc: battery.soc_mwh(),
            },
            tag,
        )?;
    }

    let usable = battery.usable_capacity_mwh();
    ControlFlow::Continue(CombinedTotals {
        deferred_mwh,
        forced_mwh,
        discharged_mwh,
        equivalent_cycles: if usable > 0.0 {
            discharged_mwh / usable
        } else {
            0.0
        },
    })
}

/// Runs the combined heuristic over aligned `demand` and `supply` series.
///
/// The battery starts full (commissioning charge), as in
/// [`ce_battery::simulate_dispatch`].
///
/// # Errors
///
/// Returns an alignment error if the series are misaligned.
///
/// # Panics
///
/// Panics if `config.flexible_ratio` is outside `[0, 1]` or
/// `config.window_hours` is zero.
pub fn combined_dispatch(
    battery: &mut dyn BatteryModel,
    demand: &HourlySeries,
    supply: &HourlySeries,
    config: CombinedConfig,
) -> Result<CombinedResult, TimeSeriesError> {
    demand.check_aligned(supply)?;
    let len = demand.len();
    let mut unmet = Vec::with_capacity(len);
    let mut effective = Vec::with_capacity(len);
    let mut supplied = Vec::with_capacity(len);
    let mut curtailed = Vec::with_capacity(len);
    let mut soc = Vec::with_capacity(len);
    let ControlFlow::Continue(totals) = combined_hours(
        battery,
        demand.values(),
        supply.values(),
        iter::repeat(()),
        config,
        &mut CombinedScratch::default(),
        |hour, ()| {
            unmet.push(hour.unmet);
            effective.push(hour.effective);
            supplied.push(hour.supplied);
            curtailed.push(hour.curtailed);
            soc.push(hour.soc);
            ControlFlow::<Infallible>::Continue(())
        },
    );
    let start = demand.start();
    Ok(CombinedResult {
        unmet: HourlySeries::from_values(start, unmet),
        effective_demand: HourlySeries::from_values(start, effective),
        battery_supplied: HourlySeries::from_values(start, supplied),
        curtailed: HourlySeries::from_values(start, curtailed),
        soc: HourlySeries::from_values(start, soc),
        deferred_mwh: totals.deferred_mwh,
        forced_mwh: totals.forced_mwh,
        equivalent_cycles: totals.equivalent_cycles,
    })
}

/// The sweep-relevant aggregates of a combined battery + CAS dispatch,
/// produced without materializing any per-hour series.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct CombinedStats {
    /// Unmet energy and fully-covered hour count of the grid draw
    /// (`u ≤ ce_timeseries::kernels::COVERED_EPSILON_MWH` counts as
    /// covered), including any end-of-horizon forced backlog.
    pub deficit: DeficitStats,
    /// Weighted grid draw `Σ unmet[h] · weight[h]` — operational carbon in
    /// tons when `weight` is the hourly grid carbon intensity (t/MWh).
    pub unmet_dot: f64,
    /// Total energy deferred across the run, MWh.
    pub deferred_mwh: f64,
    /// Energy force-run on grid power at its SLO deadline, MWh.
    pub forced_mwh: f64,
    /// Total energy delivered by the battery over the run, MWh.
    pub total_discharged_mwh: f64,
    /// Equivalent full battery cycles performed.
    pub equivalent_cycles: f64,
}

/// [`combined_dispatch`] folded into [`CombinedStats`] hour by hour
/// instead of materialized into five year-long series. Both run the same
/// kernel, so `deficit.unmet_mwh` and `unmet_dot` are the in-order
/// reductions of [`combined_dispatch`]'s `unmet` series (end-of-horizon
/// backlog included), bit for bit, and the deferral/cycle accounting
/// matches field for field. The only state beyond scalars is the
/// deferred-work ring, which lives in the caller-owned `scratch`.
///
/// The function is generic so concrete battery models are monomorphized
/// (no virtual dispatch in the inner loop); `&mut dyn BatteryModel` still
/// works.
///
/// # Errors
///
/// Returns an alignment error if `demand`, `supply`, and `weight` are not
/// mutually aligned.
///
/// # Panics
///
/// Panics if `config.flexible_ratio` is outside `[0, 1]` or
/// `config.window_hours` is zero.
// ce:hot
pub fn combined_dispatch_stats<B: BatteryModel + ?Sized>(
    battery: &mut B,
    demand: &HourlySeries,
    supply: &HourlySeries,
    weight: &HourlySeries,
    config: CombinedConfig,
    scratch: &mut CombinedScratch,
) -> Result<CombinedStats, TimeSeriesError> {
    let ControlFlow::Continue(stats) =
        combined_dispatch_stats_until(battery, demand, supply, weight, config, scratch, Never)?;
    Ok(stats)
}

/// [`combined_dispatch_stats`] that tests `give_up` on the running
/// weighted grid draw after every hour and stops at the first `Break`,
/// returning it in place of the stats. With [`Never`] it is
/// [`combined_dispatch_stats`]; a run that does not give up returns the
/// same stats, bit for bit, whatever the rule.
///
/// Each hour's grid draw is `>= 0`, so with a `weight` that is `>= 0`
/// everywhere the running sum never falls, and a
/// [`ce_timeseries::kernels::CarbonLimit`] that fires has a final
/// `unmet_dot` at or past its limit.
///
/// # Errors
///
/// Returns an alignment error if `demand`, `supply`, and `weight` are not
/// mutually aligned.
///
/// # Panics
///
/// Panics if `config.flexible_ratio` is outside `[0, 1]` or
/// `config.window_hours` is zero.
// ce:hot
pub fn combined_dispatch_stats_until<B: BatteryModel + ?Sized, G: GiveUp>(
    battery: &mut B,
    demand: &HourlySeries,
    supply: &HourlySeries,
    weight: &HourlySeries,
    config: CombinedConfig,
    scratch: &mut CombinedScratch,
    give_up: G,
) -> Result<ControlFlow<G::Stop, CombinedStats>, TimeSeriesError> {
    demand.check_aligned(supply)?;
    demand.check_aligned(weight)?;
    let mut fold = DrawFold::new(give_up);
    let totals = combined_hours(
        battery,
        demand.values(),
        supply.values(),
        weight.values(),
        config,
        scratch,
        |hour, &weight| fold.hour(hour.unmet, weight),
    );
    let totals = match totals {
        ControlFlow::Continue(totals) => totals,
        ControlFlow::Break(stop) => return Ok(ControlFlow::Break(stop)),
    };
    Ok(ControlFlow::Continue(CombinedStats {
        deficit: fold.deficit,
        unmet_dot: fold.dot,
        deferred_mwh: totals.deferred_mwh,
        forced_mwh: totals.forced_mwh,
        total_discharged_mwh: totals.discharged_mwh,
        equivalent_cycles: totals.equivalent_cycles,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_battery::{ClcBattery, IdealBattery};
    use ce_timeseries::kernels::{CarbonLimit, COVERED_EPSILON_MWH};
    use ce_timeseries::Timestamp;
    use std::collections::VecDeque;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    fn cfg(flexible_ratio: f64) -> CombinedConfig {
        CombinedConfig {
            max_capacity_mw: 100.0,
            flexible_ratio,
            window_hours: 24,
        }
    }

    #[test]
    fn battery_is_used_before_shifting() {
        // Deficit of 5 MW at hour 1; 10 MWh battery covers it entirely, so
        // nothing should be deferred.
        let demand = HourlySeries::from_values(start(), vec![0.0, 5.0, 0.0]);
        let supply = HourlySeries::zeros(start(), 3);
        let mut battery = IdealBattery::new(10.0);
        let r = combined_dispatch(&mut battery, &demand, &supply, cfg(1.0)).unwrap();
        assert_eq!(r.deferred_mwh, 0.0);
        assert_eq!(r.battery_supplied[1], 5.0);
        assert_eq!(r.unmet.sum(), 0.0);
    }

    #[test]
    fn shifting_kicks_in_when_battery_is_exhausted() {
        let demand = HourlySeries::from_values(start(), vec![10.0, 0.0, 0.0]);
        let supply = HourlySeries::from_values(start(), vec![0.0, 20.0, 0.0]);
        let mut battery = IdealBattery::new(4.0);
        let r = combined_dispatch(&mut battery, &demand, &supply, cfg(0.5)).unwrap();
        // Hour 0: battery gives 4, flexible 5 deferred, 1 unmet.
        assert_eq!(r.battery_supplied[0], 4.0);
        assert_eq!(r.deferred_mwh, 5.0);
        assert!((r.unmet[0] - 1.0).abs() < 1e-9);
        // Hour 1: surplus runs the deferred 5 MWh before charging.
        assert!((r.effective_demand[1] - 5.0).abs() < 1e-9);
        assert_eq!(r.forced_mwh, 0.0);
    }

    #[test]
    fn surplus_runs_backlog_before_charging() {
        let demand = HourlySeries::from_values(start(), vec![10.0, 0.0]);
        let supply = HourlySeries::from_values(start(), vec![0.0, 12.0]);
        let mut battery = IdealBattery::new(100.0);
        // Battery starts full → covers hour 0 fully; no deferral. Use a
        // zero-capacity battery to force deferral instead.
        let mut zero = IdealBattery::new(0.0);
        let r = combined_dispatch(&mut zero, &demand, &supply, cfg(1.0)).unwrap();
        assert_eq!(r.deferred_mwh, 10.0);
        // Hour 1: all 10 deferred MWh run inside the 12 MW surplus.
        assert!((r.effective_demand[1] - 10.0).abs() < 1e-9);
        assert!((r.curtailed[1] - 2.0).abs() < 1e-9);
        // And with the big battery the same scenario defers nothing.
        let r2 = combined_dispatch(&mut battery, &demand, &supply, cfg(1.0)).unwrap();
        assert_eq!(r2.deferred_mwh, 0.0);
    }

    #[test]
    fn deadline_forces_execution_on_grid_power() {
        // Deferral at hour 0 with a 2-hour window and no surplus ever:
        // at hour 2 the job must run on grid energy.
        let demand = HourlySeries::from_values(start(), vec![10.0, 0.0, 0.0, 0.0]);
        let supply = HourlySeries::zeros(start(), 4);
        let mut battery = IdealBattery::new(0.0);
        let config = CombinedConfig {
            max_capacity_mw: 100.0,
            flexible_ratio: 0.5,
            window_hours: 2,
        };
        let r = combined_dispatch(&mut battery, &demand, &supply, config).unwrap();
        assert_eq!(r.deferred_mwh, 5.0);
        assert_eq!(r.forced_mwh, 5.0);
        // The forced 5 MWh shows up as grid (unmet) energy at hour 2.
        assert!((r.unmet[2] - 5.0).abs() < 1e-9);
        // Total grid energy = full original demand (nothing renewable).
        assert!((r.unmet.sum() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn leftover_backlog_is_accounted_at_horizon_end() {
        let demand = HourlySeries::from_values(start(), vec![10.0, 0.0]);
        let supply = HourlySeries::zeros(start(), 2);
        let mut battery = IdealBattery::new(0.0);
        let r = combined_dispatch(&mut battery, &demand, &supply, cfg(0.4)).unwrap();
        // 4 MWh deferred, never runnable → forced at the end.
        assert!((r.unmet.sum() - 10.0).abs() < 1e-9);
        assert!((r.forced_mwh - 4.0).abs() < 1e-9);
        // A one-hour run: the first hour is also the last, so its own
        // deferral is forced straight back onto it.
        let demand = HourlySeries::constant(start(), 1, 10.0);
        let supply = HourlySeries::constant(start(), 1, 1.0);
        let r = combined_dispatch(&mut battery, &demand, &supply, cfg(0.4)).unwrap();
        assert_eq!(r.deferred_mwh, 4.0);
        assert_eq!(r.forced_mwh, 4.0);
        assert_eq!(r.unmet.values(), &[9.0]);
        assert_eq!(r.effective_demand.values(), &[10.0]);
    }

    #[test]
    fn energy_is_conserved() {
        // Effective demand over the run equals original demand (every job
        // runs exactly once, possibly at a different hour).
        let demand = HourlySeries::from_fn(start(), 96, |h| 5.0 + ((h * 13) % 7) as f64);
        let supply = HourlySeries::from_fn(start(), 96, |h| ((h * 29) % 17) as f64);
        let mut battery = ClcBattery::lfp(20.0, 0.8);
        let r = combined_dispatch(&mut battery, &demand, &supply, cfg(0.4)).unwrap();
        assert!(
            (r.effective_demand.sum() - demand.sum()).abs() < 1e-6,
            "{} vs {}",
            r.effective_demand.sum(),
            demand.sum()
        );
    }

    #[test]
    fn combined_beats_battery_only_and_cas_only() {
        // A repeating two-day pattern with tight supply: the combination
        // should leave no more unmet energy than either solution alone.
        let demand = HourlySeries::constant(start(), 96, 10.0);
        let supply = HourlySeries::from_fn(start(), 96, |h| {
            if (8..16).contains(&(h % 24)) {
                28.0
            } else {
                1.0
            }
        });
        let config = cfg(0.4);

        let mut combined_battery = ClcBattery::lfp(40.0, 1.0);
        let combined = combined_dispatch(&mut combined_battery, &demand, &supply, config).unwrap();

        let mut battery_only = ClcBattery::lfp(40.0, 1.0);
        let b = ce_battery::simulate_dispatch(&mut battery_only, &demand, &supply).unwrap();

        let mut no_battery = IdealBattery::new(0.0);
        let c = combined_dispatch(&mut no_battery, &demand, &supply, config).unwrap();

        assert!(combined.unmet.sum() <= b.unmet.sum() + 1e-6);
        assert!(combined.unmet.sum() <= c.unmet.sum() + 1e-6);
    }

    #[test]
    fn capacity_cap_limits_backlog_draining() {
        // Three hours of surplus so the backlog fully drains within the
        // horizon: the cap limits *voluntary* placement per hour.
        let demand = HourlySeries::from_values(start(), vec![10.0, 2.0, 2.0, 2.0]);
        let supply = HourlySeries::from_values(start(), vec![0.0, 50.0, 50.0, 50.0]);
        let mut battery = IdealBattery::new(0.0);
        let config = CombinedConfig {
            max_capacity_mw: 6.0,
            flexible_ratio: 1.0,
            window_hours: 24,
        };
        let r = combined_dispatch(&mut battery, &demand, &supply, config).unwrap();
        // Each surplus hour can only run 4 extra MW on top of its own 2 MW.
        assert!((r.effective_demand[1] - 6.0).abs() < 1e-9);
        assert!((r.effective_demand[2] - 6.0).abs() < 1e-9);
        // 10 deferred: 4 + 4 run in hours 1-2, the last 2 in hour 3.
        assert!((r.effective_demand[3] - 4.0).abs() < 1e-9);
        assert_eq!(r.forced_mwh, 0.0);
    }

    /// Irregular demand/supply/weight that exercises forced deadlines,
    /// partial backlog draining, battery clamping, and leftover forcing;
    /// and a single deficit hour, both the first and the last of its run,
    /// whose deferred work is forced back onto that same hour.
    fn stats_fixtures() -> [(HourlySeries, HourlySeries, HourlySeries); 2] {
        [
            (
                HourlySeries::from_fn(start(), 200, |h| 5.0 + ((h * 13) % 11) as f64),
                HourlySeries::from_fn(start(), 200, |h| ((h * 29) % 23) as f64),
                HourlySeries::from_fn(start(), 200, |h| 0.2 + (h % 24) as f64 * 0.02),
            ),
            (
                HourlySeries::constant(start(), 1, 10.0),
                HourlySeries::constant(start(), 1, 1.0),
                HourlySeries::constant(start(), 1, 0.3),
            ),
        ]
    }

    /// Windows of 24 and 3 hours, one hour (each job is due the next
    /// hour, so the backlog ring has a single slot) and one at least as
    /// long as every fixture (nothing is due before the final hour forces
    /// it).
    fn stats_configs() -> [CombinedConfig; 5] {
        let tight = |window_hours| CombinedConfig {
            max_capacity_mw: 12.0,
            flexible_ratio: 0.6,
            window_hours,
        };
        [cfg(0.4), cfg(1.0), tight(3), tight(1), tight(200)]
    }

    /// Fixtures that hold the battery pegged, weighted 0.2–0.66 t/MWh by
    /// hour of day where a fixture does not set one: a battery full in
    /// surplus from hour 0, then empty in a deficit run that defers work,
    /// then refilled and full to the final hour; long surplus runs that
    /// start with a live backlog, drained a little each hour; a +∞ and a
    /// NaN weight inside a pegged-full run; and NaN and +∞ demand and
    /// supply.
    fn pegged_fixtures() -> Vec<(&'static str, HourlySeries, HourlySeries, HourlySeries)> {
        let series = |n: usize, f: &dyn Fn(usize) -> f64| HourlySeries::from_fn(start(), n, f);
        let by_hour = |n| series(n, &|h| 0.2 + (h % 24) as f64 * 0.02);
        let mut fixtures = vec![
            (
                "full, empty, full to the end",
                series(120, &|_| 10.0),
                series(120, &|h| match h {
                    0..30 => 20.0,
                    30..60 => 2.0,
                    _ => 25.0,
                }),
                by_hour(120),
            ),
            (
                "surplus runs with a live backlog",
                series(96, &|h| if h % 48 < 6 { 30.0 } else { 10.0 }),
                series(96, &|h| if h % 48 < 6 { 2.0 } else { 10.5 }),
                by_hour(96),
            ),
        ];
        for (name, bad) in [
            ("+inf weight in a full run", f64::INFINITY),
            ("NaN weight in a full run", f64::NAN),
        ] {
            fixtures.push((
                name,
                series(48, &|_| 10.0),
                series(48, &|h| if (20..24).contains(&h) { 3.0 } else { 30.0 }),
                series(48, &|h| match h {
                    6 | 30 => bad,
                    _ => 0.2 + (h % 24) as f64 * 0.02,
                }),
            ));
        }
        fixtures.push((
            "NaN and inf demand and supply",
            series(72, &|h| match h {
                8 => f64::NAN,
                40 => f64::INFINITY,
                _ => 10.0,
            }),
            series(72, &|h| match h {
                3 => f64::NAN,
                50 => f64::INFINITY,
                0..20 | 44..72 => 25.0,
                _ => 1.0,
            }),
            by_hour(72),
        ));
        fixtures
    }

    /// CLC batteries at DoD 0.9 (0, 8 and 40 MWh) and 0.6, a sodium-ion
    /// one, and an ideal one, which never reports itself pegged.
    fn pegged_batteries() -> Vec<Box<dyn BatteryModel>> {
        vec![
            Box::new(ClcBattery::lfp(0.0, 0.9)),
            Box::new(ClcBattery::lfp(8.0, 0.9)),
            Box::new(ClcBattery::lfp(40.0, 0.9)),
            Box::new(ClcBattery::lfp(40.0, 0.6)),
            Box::new(ClcBattery::sodium_ion(20.0, 0.8)),
            Box::new(IdealBattery::new(20.0)),
        ]
    }

    /// [`stats_bits`] of every pegged fixture under `cfg(0.4)` and
    /// `tight(3)` × battery in loop order, NaNs written as `f64::NAN`, as
    /// computed at commit e2b2b05, before the battery's drift guards moved
    /// onto branches. The reference loop below shares the battery's steps
    /// with the kernel; these pins do not.
    #[rustfmt::skip]
    const PINNED_PEGGED_BITS: [[u64; 7]; 60] = [
        // full, empty, full to the end, cfg(0.4)
        [0x4062000000000000, 90, 0x404d851eb851eb85, 0x405e000000000000, 0x403c000000000000, 0x0, 0x0],
        [0x40611ee631f8a090, 91, 0x404c64fdb09a671f, 0x405d3dcc63f14120, 0x4038f7318fc50482, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0x405b34fdf3b645a2, 94, 0x4047491d14e3bcd4, 0x405a000000000000, 0x4028000000000000, 0x40419604189374bc, 0x3fef4395810624dc],
        [0x405e2353f7ced917, 93, 0x40498a137f38c544, 0x405b2353f7ced917, 0x40308d4fdf3b645b, 0x403772b020c49ba5, 0x3fef4395810624dc],
        [0x4060147ae147ae14, 92, 0x404afd21ff2e48ea, 0x405c28f5c28f5c29, 0x4034a3d70a3d70a4, 0x402eb851eb851eb8, 0x3feeb851eb851eb8],
        [0x405f000000000000, 93, 0x404a28f5c28f5c2a, 0x405c000000000000, 0x4034000000000000, 0x4034000000000000, 0x3ff0000000000000],
        // full, empty, full to the end, tight(3)
        [0x406bc00000000000, 90, 0x40578ccccccccccd, 0x4066800000000000, 0x4066800000000000, 0x0, 0x0],
        [0x406adee631f8a090, 91, 0x4056e96744b2b778, 0x4065dee631f8a090, 0x4065dee631f8a090, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0x40675a7ef9db22d1, 95, 0x40540e22e5de15cb, 0x40635a7ef9db22d1, 0x40635a7ef9db22d1, 0x40419604189374bc, 0x3fef4395810624dc],
        [0x4068d1a9fbe76c8c, 93, 0x40554c471b478424, 0x406451a9fbe76c8c, 0x406451a9fbe76c8c, 0x403772b020c49ba5, 0x3fef4395810624dc],
        [0x4069d47ae147ae14, 92, 0x40561d2f1a9fbe77, 0x4065147ae147ae14, 0x4065147ae147ae14, 0x402eb851eb851eb8, 0x3feeb851eb851eb8],
        [0x4069400000000000, 93, 0x4055a8f5c28f5c29, 0x4064c00000000000, 0x4064c00000000000, 0x4034000000000000, 0x3ff0000000000000],
        // surplus runs with a live backlog, cfg(0.4)
        [0x4072600000000000, 73, 0x40540851eb851eb9, 0x4067a00000000000, 0x4063200000000000, 0x0, 0x0],
        [0x4071ef7318fc5048, 73, 0x4053ae47991bc559, 0x4067a00000000000, 0x4063200000000000, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0x40702d3f7ced9168, 75, 0x405223fa6defc7a4, 0x4065900000000000, 0x4061000000000000, 0x40419604189374bc, 0x3fef4395810624dc],
        [0x4070e8d4fdf3b646, 74, 0x4052ce2c12ad81ae, 0x406661a9fbe76c8b, 0x4061d1a9fbe76c8b, 0x403772b020c49ba6, 0x3fef4395810624dd],
        [0x40716a3d70a3d70a, 73, 0x405343b645a1cac1, 0x4067a00000000000, 0x4063200000000000, 0x402eb851eb851eb8, 0x3feeb851eb851eb8],
        [0x4071200000000000, 74, 0x4052feb851eb851f, 0x4066d00000000000, 0x4062400000000000, 0x4034000000000000, 0x3ff0000000000000],
        // surplus runs with a live backlog, tight(3)
        [0x4072900000000000, 78, 0x4054ecccccccccce, 0x407c200000000000, 0x407c200000000000, 0x0, 0x0],
        [0x4072088a78af3e46, 78, 0x4054806ec6f2983a, 0x407c200000000000, 0x407c200000000000, 0x4020eeb0ea18372e, 0x3ff2d052cb3759c1],
        [0x40704656dca07f67, 79, 0x4052c9f8a6040b28, 0x407b000000000000, 0x407b000000000000, 0x40424d491afc04c8, 0x3ff044b2c2a720b2],
        [0x407101ec5da6a444, 79, 0x40537ab2c54f2a0b, 0x407b48d4fdf3b646, 0x407b48d4fdf3b646, 0x4038e13a2595bbbd, 0x3ff09626c3b927d3],
        [0x4071841f212d7732, 79, 0x405401ea35935fc5, 0x407bca3d70a3d70a, 0x407bca3d70a3d70a, 0x4030be0ded288ce7, 0x3ff0be0ded288ce7],
        [0x4071380000000000, 79, 0x4053b33333333334, 0x407b800000000000, 0x407b800000000000, 0x4035800000000000, 0x3ff1333333333333],
        // +inf weight in a full run, cfg(0.4)
        [0x4028000000000000, 44, 0xfff8000000000000, 0x4030000000000000, 0x0, 0x0, 0x0],
        [0x4021ee631f8a0903, 45, 0xfff8000000000000, 0x4028000000000000, 0x0, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0x0, 48, 0xfff8000000000000, 0x0, 0x0, 0x403c000000000000, 0x3fe8e38e38e38e39],
        [0x3fe1a9fbe76c8b50, 47, 0xfff8000000000000, 0x4010000000000000, 0x0, 0x403772b020c49ba5, 0x3fef4395810624dc],
        [0x40128f5c28f5c290, 46, 0xfff8000000000000, 0x4020000000000000, 0x0, 0x402eb851eb851eb8, 0x3feeb851eb851eb8],
        [0x4008000000000000, 47, 0xfff8000000000000, 0x4014000000000000, 0x0, 0x4034000000000000, 0x3ff0000000000000],
        // +inf weight in a full run, tight(3)
        [0x4024000000000000, 44, 0xfff8000000000000, 0x4038000000000000, 0x4038000000000000, 0x0, 0x0],
        [0x4007b98c7e28240c, 45, 0xfff8000000000000, 0x4032000000000000, 0x4032000000000000, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0x0, 48, 0xfff8000000000000, 0x0, 0x0, 0x403c000000000000, 0x3fe8e38e38e38e39],
        [0x0, 48, 0xfff8000000000000, 0x4012353f7ced916a, 0x3fe1a9fbe76c8b50, 0x403772b020c49ba5, 0x3fef4395810624dc],
        [0x3ff0000000000000, 47, 0xfff8000000000000, 0x402747ae147ae148, 0x402347ae147ae148, 0x402eb851eb851eb8, 0x3feeb851eb851eb8],
        [0x3ff0000000000000, 47, 0xfff8000000000000, 0x401c000000000000, 0x4008000000000000, 0x4034000000000000, 0x3ff0000000000000],
        // NaN weight in a full run, cfg(0.4)
        [0x4028000000000000, 44, 0x7ff8000000000000, 0x4030000000000000, 0x0, 0x0, 0x0],
        [0x4021ee631f8a0903, 45, 0x7ff8000000000000, 0x4028000000000000, 0x0, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0x0, 48, 0x7ff8000000000000, 0x0, 0x0, 0x403c000000000000, 0x3fe8e38e38e38e39],
        [0x3fe1a9fbe76c8b50, 47, 0x7ff8000000000000, 0x4010000000000000, 0x0, 0x403772b020c49ba5, 0x3fef4395810624dc],
        [0x40128f5c28f5c290, 46, 0x7ff8000000000000, 0x4020000000000000, 0x0, 0x402eb851eb851eb8, 0x3feeb851eb851eb8],
        [0x4008000000000000, 47, 0x7ff8000000000000, 0x4014000000000000, 0x0, 0x4034000000000000, 0x3ff0000000000000],
        // NaN weight in a full run, tight(3)
        [0x4024000000000000, 44, 0x7ff8000000000000, 0x4038000000000000, 0x4038000000000000, 0x0, 0x0],
        [0x4007b98c7e28240c, 45, 0x7ff8000000000000, 0x4032000000000000, 0x4032000000000000, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0x0, 48, 0x7ff8000000000000, 0x0, 0x0, 0x403c000000000000, 0x3fe8e38e38e38e39],
        [0x0, 48, 0x7ff8000000000000, 0x4012353f7ced916a, 0x3fe1a9fbe76c8b50, 0x403772b020c49ba5, 0x3fef4395810624dc],
        [0x3ff0000000000000, 47, 0x7ff8000000000000, 0x402747ae147ae148, 0x402347ae147ae148, 0x402eb851eb851eb8, 0x3feeb851eb851eb8],
        [0x3ff0000000000000, 47, 0x7ff8000000000000, 0x401c000000000000, 0x4008000000000000, 0x4034000000000000, 0x3ff0000000000000],
        // NaN and inf demand and supply, cfg(0.4)
        [0xfff8000000000000, 47, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x0, 0x0],
        [0xfff8000000000000, 48, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x403c2339c0ebedfa, 0x400f4395810624dd],
        [0xfff8000000000000, 51, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x40619604189374bc, 0x400f4395810624dc],
        [0xfff8000000000000, 50, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x405772b020c49ba6, 0x400f4395810624dd],
        [0xfff8000000000000, 49, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x404e69ad42c3c9ee, 0x400e69ad42c3c9ee],
        [0xfff8000000000000, 49, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x4044000000000000, 0x4000000000000000],
        // NaN and inf demand and supply, tight(3)
        [0xfff8000000000000, 48, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x0, 0x0],
        [0xfff8000000000000, 49, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x40351a6b50b0f27c, 0x400772b020c49ba6],
        [0xfff8000000000000, 52, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x405a610624dd2f1a, 0x400772b020c49ba5],
        [0xfff8000000000000, 51, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x40519604189374bc, 0x400772b020c49ba5],
        [0xfff8000000000000, 50, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x40470a3d70a3d70a, 0x40070a3d70a3d70a],
        [0xfff8000000000000, 50, 0xfff8000000000000, 0x7ff0000000000000, 0x7ff0000000000000, 0x4034000000000000, 0x3ff0000000000000],
    ];

    #[test]
    fn pegged_fixture_stats_match_the_pinned_bits() {
        let canonical = |bits: [u64; 7]| {
            bits.map(|b| {
                if f64::from_bits(b).is_nan() {
                    f64::NAN.to_bits()
                } else {
                    b
                }
            })
        };
        let [loose, _, tight, _, _] = stats_configs();
        let mut scratch = CombinedScratch::default();
        let mut pinned = PINNED_PEGGED_BITS.iter();
        for (name, demand, supply, weight) in &pegged_fixtures() {
            for config in [loose, tight] {
                for mut battery in pegged_batteries() {
                    let stats = combined_dispatch_stats(
                        battery.as_mut(),
                        demand,
                        supply,
                        weight,
                        config,
                        &mut scratch,
                    )
                    .unwrap();
                    let expected = pinned.next().expect("one pin per case");
                    assert_eq!(
                        canonical(stats_bits(&stats)),
                        canonical(*expected),
                        "{name}, {config:?}"
                    );
                }
            }
        }
        assert!(pinned.next().is_none(), "unused pins");
    }

    /// The combined heuristic written plainly: one loop that steps the
    /// battery every hour, with the backlog in a `VecDeque`. It shares no
    /// code with [`combined_hours`] but the battery's own steps, so it is
    /// the oracle of the kernel, its ring and its fold.
    struct Reference {
        /// (grid draw, effective load, battery output, curtailed, state of
        /// charge) by hour.
        hours: Vec<[f64; 5]>,
        deferred_mwh: f64,
        forced_mwh: f64,
        discharged_mwh: f64,
        equivalent_cycles: f64,
    }

    impl Reference {
        fn run(
            battery: &mut dyn BatteryModel,
            demand: &HourlySeries,
            supply: &HourlySeries,
            config: CombinedConfig,
        ) -> Self {
            battery.reset(1.0);
            let len = demand.len();
            let mut backlog: VecDeque<(usize, f64)> = VecDeque::new();
            let (mut deferred_mwh, mut forced_mwh, mut discharged_mwh) = (0.0, 0.0, 0.0);
            let mut hours = Vec::new();
            for (h, (&d, &s)) in demand.values().iter().zip(supply.values()).enumerate() {
                let mut load = d;
                let (mut unmet, mut supplied, mut curtailed) = (0.0, 0.0, 0.0);
                while let Some(&(deadline, energy)) = backlog.front() {
                    if deadline > h {
                        break;
                    }
                    backlog.pop_front();
                    load += energy;
                    forced_mwh += energy;
                }
                if s >= load {
                    let mut surplus = s - load;
                    let mut headroom = (config.max_capacity_mw - load).max(0.0);
                    while surplus > 1e-12 && headroom > 1e-12 {
                        let Some(job) = backlog.front_mut() else {
                            break;
                        };
                        let run = job.1.min(surplus).min(headroom);
                        load += run;
                        surplus -= run;
                        headroom -= run;
                        let remainder = job.1 - run;
                        if remainder > 1e-12 {
                            job.1 = remainder;
                        } else {
                            backlog.pop_front();
                        }
                    }
                    let accepted = battery.charge(surplus);
                    curtailed = surplus - accepted;
                } else {
                    let mut deficit = load - s;
                    let delivered = battery.discharge(deficit);
                    discharged_mwh += delivered;
                    supplied = delivered;
                    deficit -= delivered;
                    if deficit > 1e-12 {
                        let deferrable = (d * config.flexible_ratio).min(deficit);
                        if deferrable > 1e-12 {
                            backlog.push_back((h.saturating_add(config.window_hours), deferrable));
                            deferred_mwh += deferrable;
                            load -= deferrable;
                            deficit -= deferrable;
                        }
                        unmet = deficit;
                    }
                }
                if h + 1 == len {
                    let leftover = backlog.iter().fold(0.0, |sum, job| sum + job.1);
                    unmet += leftover;
                    load += leftover;
                    forced_mwh += leftover;
                }
                hours.push([unmet, load, supplied, curtailed, battery.soc_mwh()]);
            }
            let usable = battery.usable_capacity_mwh();
            Self {
                hours,
                deferred_mwh,
                forced_mwh,
                discharged_mwh,
                equivalent_cycles: if usable > 0.0 {
                    discharged_mwh / usable
                } else {
                    0.0
                },
            }
        }

        /// [`stats_bits`] of the grid draw folded in hour order, testing
        /// `give_up` after every hour, and the weighted sum after each.
        fn stats<G: GiveUp>(
            &self,
            weight: &HourlySeries,
            give_up: G,
        ) -> (ControlFlow<G::Stop, [u64; 7]>, Vec<f64>) {
            let (mut unmet_mwh, mut covered_hours, mut dot) = (0.0, 0u64, 0.0);
            let mut partial = Vec::new();
            for (hour, &w) in self.hours.iter().zip(weight.values()) {
                let u = hour[0];
                unmet_mwh += u;
                if u <= COVERED_EPSILON_MWH {
                    covered_hours += 1;
                }
                dot += u * w;
                partial.push(dot);
                if let ControlFlow::Break(stop) = give_up.test(dot) {
                    return (ControlFlow::Break(stop), partial);
                }
            }
            let bits = [
                unmet_mwh.to_bits(),
                covered_hours,
                dot.to_bits(),
                self.deferred_mwh.to_bits(),
                self.forced_mwh.to_bits(),
                self.discharged_mwh.to_bits(),
                self.equivalent_cycles.to_bits(),
            ];
            (ControlFlow::Continue(bits), partial)
        }
    }

    /// The kernel's traced hours, streamed stats and give-up outcomes
    /// equal the per-hour reference's, bit for bit, on every fixture,
    /// config and battery. The give-up limits are every partial weighted
    /// sum the reference reaches, plus an offset, and one ulp above each.
    #[test]
    fn kernel_matches_the_per_hour_reference_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut fixtures = pegged_fixtures();
        for (demand, supply, weight) in stats_fixtures() {
            fixtures.push(("stats fixture", demand, supply, weight));
        }
        let mut scratch = CombinedScratch::default();
        for (name, demand, supply, weight) in &fixtures {
            for config in stats_configs() {
                for mut battery in pegged_batteries() {
                    let reference = Reference::run(battery.as_mut(), demand, supply, config);
                    let traced =
                        combined_dispatch(battery.as_mut(), demand, supply, config).unwrap();
                    let column =
                        |i: usize| reference.hours.iter().map(|h| h[i]).collect::<Vec<f64>>();
                    let case = format!(
                        "{name}, {config:?}, {battery:?}",
                        battery = battery.capacity_mwh()
                    );
                    assert_eq!(bits(traced.unmet.values()), bits(&column(0)), "{case}");
                    assert_eq!(
                        bits(traced.effective_demand.values()),
                        bits(&column(1)),
                        "{case}"
                    );
                    assert_eq!(
                        bits(traced.battery_supplied.values()),
                        bits(&column(2)),
                        "{case}"
                    );
                    assert_eq!(bits(traced.curtailed.values()), bits(&column(3)), "{case}");
                    assert_eq!(bits(traced.soc.values()), bits(&column(4)), "{case}");
                    assert_eq!(
                        [
                            traced.deferred_mwh,
                            traced.forced_mwh,
                            traced.equivalent_cycles
                        ]
                        .map(f64::to_bits),
                        [
                            reference.deferred_mwh,
                            reference.forced_mwh,
                            reference.equivalent_cycles
                        ]
                        .map(f64::to_bits),
                        "{case}"
                    );
                    let (whole, partial) = reference.stats(weight, Never);
                    let stats = combined_dispatch_stats(
                        battery.as_mut(),
                        demand,
                        supply,
                        weight,
                        config,
                        &mut scratch,
                    );
                    assert_eq!(
                        ControlFlow::Continue(stats_bits(&stats.unwrap())),
                        whole,
                        "{case}"
                    );
                    for offset in [0.0, 1.0] {
                        for limit in partial
                            .iter()
                            .flat_map(|&p| [p + offset, (p + offset).next_up()])
                        {
                            let rule = CarbonLimit { offset, limit };
                            let until = combined_dispatch_stats_until(
                                battery.as_mut(),
                                demand,
                                supply,
                                weight,
                                config,
                                &mut scratch,
                                rule,
                            );
                            let outcome = until.unwrap().map_continue(|stats| stats_bits(&stats));
                            assert_eq!(
                                outcome,
                                reference.stats(weight, rule).0,
                                "{case}, limit {limit}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The stats fields by bit pattern, so that the signs of zeros count.
    fn stats_bits(stats: &CombinedStats) -> [u64; 7] {
        [
            stats.deficit.unmet_mwh.to_bits(),
            stats.deficit.covered_hours as u64,
            stats.unmet_dot.to_bits(),
            stats.deferred_mwh.to_bits(),
            stats.forced_mwh.to_bits(),
            stats.total_discharged_mwh.to_bits(),
            stats.equivalent_cycles.to_bits(),
        ]
    }

    /// [`stats_bits`] of every fixture × config × capacity (0, 8, 40 MWh)
    /// in loop order, as computed by the kernel whose backlog was a
    /// `VecDeque` (commit 148478f). The two wrappers share the backlog
    /// ring, so comparing them with each other cannot see a ring bug; these
    /// pins can.
    #[rustfmt::skip]
    const PINNED_STATS_BITS: [[u64; 7]; 30] = [
        // 200 irregular hours, cfg(0.4): capacity 0, 8, 40
        [0x4069866666666666, 143, 0x4055edd2f1a9fbe6, 0x40746cccccccccce, 0, 0, 0],
        [0x4046679c5041dca6, 177, 0x4032037b1edaf743, 0x406c4de6948eb6ca, 0, 0x40703c192bb06907, 0x404209e314195841],
        [0, 200, 0, 0, 0, 0x4080980000000000, 0x402d800000000000],
        // 200 irregular hours, cfg(1.0): capacity 0, 8, 40
        [0, 200, 0, 0x4080980000000000, 0, 0, 0],
        [0, 200, 0, 0x4073171f0dff1e09, 0, 0x406c31c1e401c3f0, 0x403f53bafd574b7c],
        [0, 200, 0, 0, 0, 0x4080980000000000, 0x402d800000000000],
        // 200 irregular hours, tight(3): capacity 0, 8, 40
        [0x4069333333333333, 151, 0x40548353f7ced916, 0x407cb00000000000, 0x4070533333333332, 0, 0],
        [0x4039efcc7805070a, 190, 0x402250f4db3cf9b5, 0x4071b374b39ced38, 0x405d079718b86d1e, 0x4071f90d15e2597b, 0x4043f8476da62a89],
        [0, 200, 0, 0, 0, 0x4080980000000000, 0x402d800000000000],
        // 200 irregular hours, tight(1): capacity 0, 8, 40
        [0x406bf9999999999e, 123, 0x4057ef9db22d0e53, 0x4086019999999998, 0x4086019999999998, 0, 0],
        [0x404bd76ed15f570c, 176, 0x4038a7deab2d5de9, 0x40785b890199edf1, 0x40785b890199edf1, 0x40710f43d9744de2, 0x4042f48446f30134],
        [0, 200, 0, 0, 0, 0x4080980000000000, 0x402d800000000000],
        // 200 irregular hours, tight(200): capacity 0, 8, 40
        [0x406d800000000000, 160, 0x405653f7ced91687, 0x407b19999999999a, 0x4061533333333333, 0, 0],
        [0x3fe6fc49fd7a13c0, 198, 0x3fd560e88d9d8cf0, 0x406d61e6970f17f7, 0, 0x4072738e8f79b6fb, 0x4044806582f90433],
        [0, 200, 0, 0, 0, 0x4080980000000000, 0x402d800000000000],
        // one hour, cfg(0.4): capacity 0, 8, 40
        [0x4022000000000000, 0, 0x4005999999999999, 0x4010000000000000, 0x4010000000000000, 0, 0],
        [0x3fff7318fc504818, 0, 0x3fe2dea897635e75, 0x3fff7318fc504818, 0x3fff7318fc504818, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0, 1, 0, 0, 0, 0x4022000000000000, 0x3fd0000000000000],
        // one hour, cfg(1.0): capacity 0, 8, 40
        [0x4022000000000000, 0, 0x4005999999999999, 0x4022000000000000, 0x4022000000000000, 0, 0],
        [0x3fff7318fc504818, 0, 0x3fe2dea897635e75, 0x3fff7318fc504818, 0x3fff7318fc504818, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0, 1, 0, 0, 0, 0x4022000000000000, 0x3fd0000000000000],
        // one hour, tight(3): capacity 0, 8, 40
        [0x4022000000000000, 0, 0x4005999999999999, 0x4018000000000000, 0x4018000000000000, 0, 0],
        [0x3fff7318fc504818, 0, 0x3fe2dea897635e75, 0x3fff7318fc504818, 0x3fff7318fc504818, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0, 1, 0, 0, 0, 0x4022000000000000, 0x3fd0000000000000],
        // one hour, tight(1): capacity 0, 8, 40
        [0x4022000000000000, 0, 0x4005999999999999, 0x4018000000000000, 0x4018000000000000, 0, 0],
        [0x3fff7318fc504818, 0, 0x3fe2dea897635e75, 0x3fff7318fc504818, 0x3fff7318fc504818, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0, 1, 0, 0, 0, 0x4022000000000000, 0x3fd0000000000000],
        // one hour, tight(200): capacity 0, 8, 40
        [0x4022000000000000, 0, 0x4005999999999999, 0x4018000000000000, 0x4018000000000000, 0, 0],
        [0x3fff7318fc504818, 0, 0x3fe2dea897635e75, 0x3fff7318fc504818, 0x3fff7318fc504818, 0x401c2339c0ebedfa, 0x3fef4395810624dd],
        [0, 1, 0, 0, 0, 0x4022000000000000, 0x3fd0000000000000],
    ];

    #[test]
    fn stats_match_the_pinned_bits() {
        let mut scratch = CombinedScratch::default();
        let mut pinned = PINNED_STATS_BITS.iter();
        for (f, (demand, supply, weight)) in stats_fixtures().iter().enumerate() {
            for config in stats_configs() {
                for capacity in [0.0, 8.0, 40.0] {
                    let mut battery = ClcBattery::lfp(capacity, 0.9);
                    let stats = combined_dispatch_stats(
                        &mut battery,
                        demand,
                        supply,
                        weight,
                        config,
                        &mut scratch,
                    )
                    .unwrap();
                    let expected = pinned.next().expect("one pin per case");
                    assert_eq!(
                        &stats_bits(&stats),
                        expected,
                        "fixture {f}, {config:?}, capacity {capacity}"
                    );
                }
            }
        }
        assert!(pinned.next().is_none(), "unused pins");
    }

    /// A deferral's deadline is `h + window_hours`, saturating: a window
    /// past the horizon, up to `usize::MAX`, means the same as a window of
    /// the run's length.
    #[test]
    fn windows_past_the_horizon_match_a_window_of_its_length() {
        let mut scratch = CombinedScratch::default();
        for (demand, supply, weight) in &stats_fixtures() {
            for capacity in [0.0, 8.0, 40.0] {
                let mut run = |window_hours| {
                    let config = CombinedConfig {
                        max_capacity_mw: 12.0,
                        flexible_ratio: 0.6,
                        window_hours,
                    };
                    let mut battery = ClcBattery::lfp(capacity, 0.9);
                    let stats = combined_dispatch_stats(
                        &mut battery,
                        demand,
                        supply,
                        weight,
                        config,
                        &mut scratch,
                    )
                    .unwrap();
                    stats_bits(&stats)
                };
                let horizon = run(demand.len());
                for window in [demand.len() + 1, usize::MAX / 2, usize::MAX] {
                    assert_eq!(run(window), horizon, "window {window}, capacity {capacity}");
                }
            }
        }
    }

    #[test]
    fn give_up_fires_exactly_at_its_limit() {
        use ce_timeseries::kernels::CarbonLimit;
        let mut scratch = CombinedScratch::default();
        for (demand, supply, weight) in &stats_fixtures() {
            for config in stats_configs() {
                for capacity in [0.0, 8.0, 40.0] {
                    let mut battery = ClcBattery::lfp(capacity, 0.9);
                    let full = combined_dispatch_stats(
                        &mut battery,
                        demand,
                        supply,
                        weight,
                        config,
                        &mut scratch,
                    )
                    .unwrap();
                    let mut until = |offset: f64, limit: f64| {
                        combined_dispatch_stats_until(
                            &mut battery,
                            demand,
                            supply,
                            weight,
                            config,
                            &mut scratch,
                            CarbonLimit { offset, limit },
                        )
                        .unwrap()
                    };
                    for offset in [0.0, 1.0, 1234.5] {
                        // The final sum (the leftover backlog included)
                        // plus the offset is the lowest limit the run
                        // reaches: there it gives up, one ulp above it
                        // completes with the stats of a run with no limit.
                        let reached = full.unmet_dot + offset;
                        assert!(until(offset, reached).is_break(), "cap {capacity}");
                        match until(offset, reached.next_up()) {
                            ControlFlow::Continue(stats) => {
                                assert_eq!(stats_bits(&stats), stats_bits(&full));
                            }
                            ControlFlow::Break(()) => panic!("gave up below its limit"),
                        }
                    }
                    // A NaN offset compares false: even a limit of −∞ holds.
                    match until(f64::NAN, f64::NEG_INFINITY) {
                        ControlFlow::Continue(stats) => {
                            assert_eq!(stats_bits(&stats), stats_bits(&full));
                        }
                        ControlFlow::Break(()) => panic!("a NaN offset gave up"),
                    }
                }
            }
        }
    }

    #[test]
    fn stats_scratch_is_reusable_and_empty_series_are_fine() {
        let mut scratch = CombinedScratch::default();
        let demand = HourlySeries::from_values(start(), vec![10.0, 0.0]);
        let supply = HourlySeries::zeros(start(), 2);
        let weight = HourlySeries::constant(start(), 2, 1.0);
        let mut battery = IdealBattery::new(0.0);
        // First run leaves backlog state; second run must not see it.
        let first = combined_dispatch_stats(
            &mut battery,
            &demand,
            &supply,
            &weight,
            cfg(0.4),
            &mut scratch,
        )
        .unwrap();
        let second = combined_dispatch_stats(
            &mut battery,
            &demand,
            &supply,
            &weight,
            cfg(0.4),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(first, second);
        // Leftover backlog is forced onto the final hour, as in the
        // materializing path.
        assert!((first.deficit.unmet_mwh - 10.0).abs() < 1e-9);
        assert!((first.forced_mwh - 4.0).abs() < 1e-9);
        // Empty series: no hours, no stats.
        let empty = HourlySeries::zeros(start(), 0);
        let stats =
            combined_dispatch_stats(&mut battery, &empty, &empty, &empty, cfg(0.4), &mut scratch)
                .unwrap();
        assert_eq!(stats.deficit.unmet_mwh, 0.0);
        assert_eq!(stats.deficit.covered_hours, 0);
    }

    #[test]
    fn stats_misaligned_weight_is_an_error() {
        let demand = HourlySeries::zeros(start(), 3);
        let supply = HourlySeries::zeros(start(), 3);
        let weight = HourlySeries::zeros(start(), 4);
        let mut battery = IdealBattery::new(1.0);
        let mut scratch = CombinedScratch::default();
        assert!(combined_dispatch_stats(
            &mut battery,
            &demand,
            &supply,
            &weight,
            cfg(0.4),
            &mut scratch
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_zero_window() {
        let demand = HourlySeries::zeros(start(), 1);
        let supply = HourlySeries::zeros(start(), 1);
        let mut battery = IdealBattery::new(0.0);
        let _ = combined_dispatch(
            &mut battery,
            &demand,
            &supply,
            CombinedConfig {
                max_capacity_mw: 1.0,
                flexible_ratio: 0.5,
                window_hours: 0,
            },
        );
    }
}
