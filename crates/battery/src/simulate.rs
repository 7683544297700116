//! Year-long battery dispatch against a demand/supply pair (paper §4.2):
//! charge on renewable surplus, discharge on renewable deficit.

use crate::api::BatteryModel;
use ce_timeseries::kernels::{DrawFold, GiveUp, Never};
use ce_timeseries::stats::Histogram;
use ce_timeseries::{DeficitStats, HourlySeries, TimeSeriesError};
use std::convert::Infallible;
use std::iter;
use std::ops::ControlFlow;

/// The outcome of dispatching a battery over a demand/supply pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchResult {
    /// Demand not covered by renewables or battery (MW per hour) — this is
    /// what must come from the (carbon-intensive) grid.
    pub unmet: HourlySeries,
    /// Power served from the battery each hour, MW.
    pub battery_supplied: HourlySeries,
    /// Renewable surplus left over after charging, MW (curtailed).
    pub curtailed: HourlySeries,
    /// Battery state of charge at the *end* of each hour, MWh.
    pub soc: HourlySeries,
    /// Total energy delivered by the battery over the run, MWh.
    pub total_discharged_mwh: f64,
    /// Equivalent full cycles performed (energy discharged ÷ usable
    /// capacity); 0 for a zero-capacity battery.
    pub equivalent_cycles: f64,
}

impl DispatchResult {
    /// Distribution of the battery's state of charge (as a fraction of
    /// nameplate capacity) across the run — the paper's Figure 16.
    ///
    /// # Errors
    ///
    /// Returns an error if `bins` is zero.
    pub fn charge_level_histogram(
        &self,
        capacity_mwh: f64,
        bins: usize,
    ) -> Result<Histogram, TimeSeriesError> {
        let fractions: Vec<f64> = if capacity_mwh > 0.0 {
            self.soc
                .values()
                .iter()
                .map(|&s| s / capacity_mwh)
                .collect()
        } else {
            vec![0.0; self.soc.len()]
        };
        Histogram::new(&fractions, 0.0, 1.0 + 1e-9, bins)
    }
}

/// One hour of the greedy dispatch, as [`dispatch_hours`] hands it to a
/// sink: grid draw, battery output and curtailed surplus (MW), and the
/// state of charge at the end of the hour (MWh).
#[derive(Clone, Copy)]
struct DispatchHour {
    unmet: f64,
    supplied: f64,
    curtailed: f64,
    soc: f64,
}

/// Run-level totals of one dispatch.
struct DispatchTotals {
    discharged_mwh: f64,
    equivalent_cycles: f64,
}

/// Where [`dispatch_hours`] hands its hours, in hour order.
trait DispatchSink<T> {
    /// What a sink that stops the run returns.
    type Stop;

    /// Takes one hour and its tag; `Break` stops the run.
    fn hour(&mut self, hour: DispatchHour, tag: T) -> ControlFlow<Self::Stop>;

    /// Takes a surplus hour of a battery pegged full: [`DispatchSink::hour`]
    /// of an hour that draws `+0.0` from the grid, supplies `+0.0`,
    /// curtails all of `surplus` and ends at `soc`, which a sink may fold
    /// faster.
    fn pegged_full_hour(&mut self, surplus: f64, soc: f64, tag: T) -> ControlFlow<Self::Stop> {
        let hour = DispatchHour {
            unmet: 0.0,
            supplied: 0.0,
            curtailed: surplus,
            soc,
        };
        self.hour(hour, tag)
    }
}

/// [`simulate_dispatch`]'s sink: every hour into four year-long series.
struct DispatchTrace {
    unmet: Vec<f64>,
    supplied: Vec<f64>,
    curtailed: Vec<f64>,
    soc: Vec<f64>,
}

impl DispatchSink<()> for DispatchTrace {
    type Stop = Infallible;

    fn hour(&mut self, hour: DispatchHour, (): ()) -> ControlFlow<Infallible> {
        self.unmet.push(hour.unmet);
        self.supplied.push(hour.supplied);
        self.curtailed.push(hour.curtailed);
        self.soc.push(hour.soc);
        ControlFlow::Continue(())
    }
}

/// [`simulate_dispatch_stats_until`]'s sink: the grid draw folded at
/// each hour's weight.
impl<G: GiveUp> DispatchSink<&f64> for DrawFold<G> {
    type Stop = G::Stop;

    #[inline(always)]
    fn hour(&mut self, hour: DispatchHour, &weight: &f64) -> ControlFlow<G::Stop> {
        DrawFold::hour(self, hour.unmet, weight)
    }

    #[inline(always)]
    fn pegged_full_hour(
        &mut self,
        _surplus: f64,
        _soc: f64,
        &weight: &f64,
    ) -> ControlFlow<G::Stop> {
        self.zero_hour(weight)
    }
}

/// One hour of the greedy policy: a surplus charges the battery and the
/// rest is curtailed, a deficit discharges it and the rest is drawn from
/// the grid. Adds the energy delivered to `discharged_mwh`.
#[inline(always)]
fn step_hour<B: BatteryModel + ?Sized>(
    battery: &mut B,
    d: f64,
    s: f64,
    discharged_mwh: &mut f64,
) -> DispatchHour {
    if s >= d {
        let surplus = s - d;
        let accepted = battery.charge(surplus);
        DispatchHour {
            unmet: 0.0,
            supplied: 0.0,
            curtailed: surplus - accepted,
            soc: battery.soc_mwh(),
        }
    } else {
        let deficit = d - s;
        let delivered = battery.discharge(deficit);
        *discharged_mwh += delivered;
        DispatchHour {
            unmet: deficit - delivered,
            supplied: delivered,
            curtailed: 0.0,
            soc: battery.soc_mwh(),
        }
    }
}

/// The greedy dispatch policy, written once for [`simulate_dispatch`] and
/// [`simulate_dispatch_stats_until`]: resets `battery` to full, steps it
/// through every hour of `demand`/`supply` (surplus charges, deficit
/// discharges) and hands each hour, with that hour's item of `tags`, to
/// `sink` in hour order. The wrappers differ only in their sink, so the
/// traced series and the streamed aggregates come from the same float
/// operations. `tags` carries per-hour data only one sink needs (the
/// stats fold's weight), zipped in so that sink indexes nothing. The run
/// stops at the first hour whose sink returns `Break`.
///
/// Every hour's grid draw is `>= 0`: zero on surplus, and on deficit
/// `deficit − delivered` with `delivered <= deficit` (a [`BatteryModel`]
/// delivers at most the power requested).
///
/// A surplus hour that finds the battery pegged full
/// ([`BatteryModel::pegged_full`]), or a deficit hour that finds it
/// pegged empty ([`BatteryModel::pegged_empty`]), calls no battery step:
/// the step would accept or deliver `+0.0` and leave the state as it is.
/// The sink gets the hour that step gives, the whole surplus curtailed
/// ([`DispatchSink::pegged_full_hour`]) or the whole deficit drawn from
/// the grid (`deficit − 0.0` is `deficit`, bit for bit), and the totals
/// stay as that step would leave them (`+ 0.0` changes no total, which
/// starts at `+0.0`).
///
/// Forced inline so each wrapper compiles the loop with its own sink in
/// place and the stats path keeps none of the trace's per-hour work.
// ce:hot
#[inline(always)]
fn dispatch_hours<B: BatteryModel + ?Sized, T, K: DispatchSink<T>>(
    battery: &mut B,
    demand: &[f64],
    supply: &[f64],
    tags: impl IntoIterator<Item = T>,
    sink: &mut K,
) -> ControlFlow<K::Stop, DispatchTotals> {
    battery.reset(1.0);
    let mut discharged_mwh = 0.0;
    for ((&d, &s), tag) in demand.iter().zip(supply).zip(tags) {
        // The pegged tests are the steps' own early returns, asked first:
        // on an hour that is stepped they are not computed again.
        if s >= d {
            if battery.pegged_full() {
                sink.pegged_full_hour(s - d, battery.soc_mwh(), tag)?;
                continue;
            }
        } else if battery.pegged_empty() {
            let idle = DispatchHour {
                unmet: d - s,
                supplied: 0.0,
                curtailed: 0.0,
                soc: battery.soc_mwh(),
            };
            sink.hour(idle, tag)?;
            continue;
        }
        sink.hour(step_hour(battery, d, s, &mut discharged_mwh), tag)?;
    }
    let usable = battery.usable_capacity_mwh();
    ControlFlow::Continue(DispatchTotals {
        discharged_mwh,
        equivalent_cycles: if usable > 0.0 {
            discharged_mwh / usable
        } else {
            0.0
        },
    })
}

/// Simulates hour-by-hour dispatch of `battery` against a datacenter
/// `demand` and renewable `supply` (both MW): surplus hours charge the
/// battery, deficit hours discharge it.
///
/// The battery is reset to full before the run, modeling a commissioning
/// charge; the paper's dispatch "maximizes the battery usage to avoid
/// carbon-intensive energy", which this greedy policy implements exactly.
///
/// # Errors
///
/// Returns an alignment error if `demand` and `supply` are misaligned.
pub fn simulate_dispatch(
    battery: &mut dyn BatteryModel,
    demand: &HourlySeries,
    supply: &HourlySeries,
) -> Result<DispatchResult, TimeSeriesError> {
    demand.check_aligned(supply)?;
    let len = demand.len();
    let mut trace = DispatchTrace {
        unmet: Vec::with_capacity(len),
        supplied: Vec::with_capacity(len),
        curtailed: Vec::with_capacity(len),
        soc: Vec::with_capacity(len),
    };
    let ControlFlow::Continue(totals) = dispatch_hours(
        battery,
        demand.values(),
        supply.values(),
        iter::repeat(()),
        &mut trace,
    );
    let start = demand.start();
    Ok(DispatchResult {
        unmet: HourlySeries::from_values(start, trace.unmet),
        battery_supplied: HourlySeries::from_values(start, trace.supplied),
        curtailed: HourlySeries::from_values(start, trace.curtailed),
        soc: HourlySeries::from_values(start, trace.soc),
        total_discharged_mwh: totals.discharged_mwh,
        equivalent_cycles: totals.equivalent_cycles,
    })
}

/// The sweep-relevant aggregates of a battery dispatch run, produced
/// without materializing any per-hour series.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct DispatchStats {
    /// Unmet energy and fully-covered hour count of the dispatch's grid
    /// draw (`u ≤ ce_timeseries::kernels::COVERED_EPSILON_MWH` counts as
    /// covered).
    pub deficit: DeficitStats,
    /// Weighted grid draw `Σ unmet[h] · weight[h]` — operational carbon in
    /// tons when `weight` is the hourly grid carbon intensity (t/MWh).
    pub unmet_dot: f64,
    /// Total energy delivered by the battery over the run, MWh.
    pub total_discharged_mwh: f64,
    /// Equivalent full cycles performed (energy discharged ÷ usable
    /// capacity); 0 for a zero-capacity battery.
    pub equivalent_cycles: f64,
}

/// [`simulate_dispatch`] folded into [`DispatchStats`] hour by hour
/// instead of materialized into four year-long series. Both run the same
/// kernel, so `deficit.unmet_mwh` and `unmet_dot` are the in-order
/// reductions of [`simulate_dispatch`]'s `unmet` series, bit for bit, and
/// the cycle accounting matches field for field. This is the
/// design-sweep hot path — it performs **zero heap allocations**.
///
/// The function is generic so concrete battery models are monomorphized
/// (no virtual dispatch in the inner loop); `&mut dyn BatteryModel` still
/// works for callers that need dynamic dispatch.
///
/// # Errors
///
/// Returns an alignment error if `demand`, `supply`, and `weight` are not
/// mutually aligned.
// ce:hot
pub fn simulate_dispatch_stats<B: BatteryModel + ?Sized>(
    battery: &mut B,
    demand: &HourlySeries,
    supply: &HourlySeries,
    weight: &HourlySeries,
) -> Result<DispatchStats, TimeSeriesError> {
    let ControlFlow::Continue(stats) =
        simulate_dispatch_stats_until(battery, demand, supply, weight, Never)?;
    Ok(stats)
}

/// [`simulate_dispatch_stats`] that tests `give_up` on the running
/// weighted grid draw after every hour and stops at the first `Break`,
/// returning it in place of the stats. With [`Never`] it is
/// [`simulate_dispatch_stats`]; a run that does not give up returns the
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
// ce:hot
pub fn simulate_dispatch_stats_until<B: BatteryModel + ?Sized, G: GiveUp>(
    battery: &mut B,
    demand: &HourlySeries,
    supply: &HourlySeries,
    weight: &HourlySeries,
    give_up: G,
) -> Result<ControlFlow<G::Stop, DispatchStats>, TimeSeriesError> {
    demand.check_aligned(supply)?;
    demand.check_aligned(weight)?;
    let mut fold = DrawFold::new(give_up);
    let totals = dispatch_hours(
        battery,
        demand.values(),
        supply.values(),
        weight.values(),
        &mut fold,
    );
    let totals = match totals {
        ControlFlow::Continue(totals) => totals,
        ControlFlow::Break(stop) => return Ok(ControlFlow::Break(stop)),
    };
    Ok(ControlFlow::Continue(DispatchStats {
        deficit: fold.deficit,
        unmet_dot: fold.dot,
        total_discharged_mwh: totals.discharged_mwh,
        equivalent_cycles: totals.equivalent_cycles,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IdealBattery;
    use crate::clc::ClcBattery;
    use ce_timeseries::kernels::{CarbonLimit, COVERED_EPSILON_MWH};
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    #[test]
    fn surplus_charges_deficit_discharges() {
        let demand = HourlySeries::constant(start(), 4, 10.0);
        let supply = HourlySeries::from_values(start(), vec![20.0, 0.0, 20.0, 0.0]);
        // simulate_dispatch resets to full; use a small battery to see flow.
        let mut battery = IdealBattery::new(5.0);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        // Hour 0: surplus 10, battery already full (reset) → all curtailed.
        assert_eq!(r.curtailed[0], 10.0);
        // Hour 1: deficit 10, battery supplies its 5 MWh.
        assert_eq!(r.battery_supplied[1], 5.0);
        assert_eq!(r.unmet[1], 5.0);
        // Hour 2: surplus recharges the empty battery.
        assert_eq!(r.curtailed[2], 5.0);
        // Hour 3: full battery again covers half the deficit.
        assert_eq!(r.unmet[3], 5.0);
        assert_eq!(r.total_discharged_mwh, 10.0);
        assert_eq!(r.equivalent_cycles, 2.0);
    }

    #[test]
    fn zero_capacity_battery_passes_deficit_through() {
        let demand = HourlySeries::constant(start(), 3, 10.0);
        let supply = HourlySeries::from_values(start(), vec![4.0, 12.0, 0.0]);
        let mut battery = IdealBattery::new(0.0);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        assert_eq!(r.unmet.values(), &[6.0, 0.0, 10.0]);
        assert_eq!(r.curtailed.values(), &[0.0, 2.0, 0.0]);
        assert_eq!(r.equivalent_cycles, 0.0);
    }

    #[test]
    fn energy_conservation_with_ideal_battery() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = HourlySeries::from_fn(start(), 24, |h| if h % 2 == 0 { 22.0 } else { 0.0 });
        let mut battery = IdealBattery::new(6.0);
        battery.reset(0.0);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        // supply + battery start + grid(unmet) == demand + curtailed + battery end.
        let lhs = supply.sum() + 6.0 /* reset(1.0) start */ + r.unmet.sum();
        let rhs = demand.sum() + r.curtailed.sum() + r.soc[23];
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn clc_losses_reduce_delivered_energy() {
        let demand = HourlySeries::from_fn(start(), 48, |h| if h % 2 == 1 { 10.0 } else { 0.0 });
        let supply = HourlySeries::from_fn(start(), 48, |h| if h % 2 == 0 { 10.0 } else { 0.0 });
        let mut ideal = IdealBattery::new(10.0);
        let mut lossy = ClcBattery::lfp(10.0, 1.0);
        let r_ideal = simulate_dispatch(&mut ideal, &demand, &supply).unwrap();
        let r_lossy = simulate_dispatch(&mut lossy, &demand, &supply).unwrap();
        assert!(r_lossy.unmet.sum() > r_ideal.unmet.sum());
    }

    #[test]
    fn dod_floor_limits_usable_energy() {
        let demand = HourlySeries::constant(start(), 2, 100.0);
        let supply = HourlySeries::zeros(start(), 2);
        let mut shallow = ClcBattery::lfp(100.0, 0.5);
        let r = simulate_dispatch(&mut shallow, &demand, &supply).unwrap();
        // Only ~50 MWh usable (times efficiency).
        assert!((r.total_discharged_mwh - 50.0 * 0.977).abs() < 1e-9);
    }

    #[test]
    fn histogram_is_bimodal_under_full_cycling() {
        // Alternate surplus/deficit big enough to fully swing the battery:
        // Fig 16's "often fully charged or fully discharged".
        let demand = HourlySeries::from_fn(start(), 200, |h| if h % 2 == 1 { 50.0 } else { 0.0 });
        let supply = HourlySeries::from_fn(start(), 200, |h| if h % 2 == 0 { 60.0 } else { 0.0 });
        let mut battery = IdealBattery::new(20.0);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        let hist = r.charge_level_histogram(20.0, 10).unwrap();
        let counts = hist.counts();
        let edges = counts[0] + counts[9];
        let middle: usize = counts[1..9].iter().sum();
        assert!(
            edges > middle,
            "SoC distribution should be bimodal: {counts:?}"
        );
    }

    #[test]
    fn misaligned_series_error() {
        let demand = HourlySeries::zeros(start(), 3);
        let supply = HourlySeries::zeros(start(), 4);
        let mut battery = IdealBattery::new(1.0);
        assert!(simulate_dispatch(&mut battery, &demand, &supply).is_err());
        let weight = HourlySeries::zeros(start(), 3);
        assert!(simulate_dispatch_stats(&mut battery, &demand, &supply, &weight).is_err());
        let short_weight = HourlySeries::zeros(start(), 2);
        let supply = HourlySeries::zeros(start(), 3);
        assert!(simulate_dispatch_stats(&mut battery, &demand, &supply, &short_weight).is_err());
    }

    /// An irregular year-like fixture that swings the battery through
    /// charge, discharge, clamping, and idle regimes.
    fn stats_fixture() -> (HourlySeries, HourlySeries, HourlySeries) {
        let n = 500;
        let demand = HourlySeries::from_fn(start(), n, |h| {
            10.0 + (h as f64 * 0.7).sin() * 9.0 + (h % 13) as f64 * 0.01
        });
        let supply = HourlySeries::from_fn(start(), n, |h| {
            (h as f64 * 0.31).cos().abs() * 25.0 * ((h % 7) as f64 / 6.0)
        });
        let weight = HourlySeries::from_fn(start(), n, |h| 0.1 + (h % 24) as f64 * 0.03);
        (demand, supply, weight)
    }

    /// The year-like fixture, and a single deficit hour that is both the
    /// first and the last hour of its run.
    fn stats_fixtures() -> [(HourlySeries, HourlySeries, HourlySeries); 2] {
        [
            stats_fixture(),
            (
                HourlySeries::constant(start(), 1, 50.0),
                HourlySeries::constant(start(), 1, 4.0),
                HourlySeries::constant(start(), 1, 0.7),
            ),
        ]
    }

    /// Ideal and CLC batteries, including zero-capacity and DoD floors.
    fn stats_batteries() -> Vec<Box<dyn BatteryModel>> {
        vec![
            Box::new(IdealBattery::new(30.0)),
            Box::new(IdealBattery::new(0.0)),
            Box::new(ClcBattery::lfp(30.0, 1.0)),
            Box::new(ClcBattery::lfp(30.0, 0.6)),
            Box::new(ClcBattery::sodium_ion(15.0, 0.8)),
            Box::new(ClcBattery::lfp(0.0, 1.0)),
        ]
    }

    /// The fixtures of the pegged runs, with the weight 0.1–0.79 t/MWh by
    /// hour of day where a fixture does not set one: the year-like and
    /// one-hour fixtures; a battery full in surplus from hour 0, then
    /// empty in a deficit run, then full again to the final hour; a
    /// deficit run to the final hour; a +∞, a −∞ and a NaN weight each
    /// inside a pegged-full run; NaN and +∞ demand and supply in both
    /// kinds of run; and a battery refilled by small surpluses, which sits
    /// within 0.1% of full for many hours before a deficit run empties it.
    fn pegged_fixtures() -> Vec<(&'static str, HourlySeries, HourlySeries, HourlySeries)> {
        let series = |n: usize, f: &dyn Fn(usize) -> f64| HourlySeries::from_fn(start(), n, f);
        let by_hour = |n| series(n, &|h| 0.1 + (h % 24) as f64 * 0.03);
        let [(d0, s0, w0), (d1, s1, w1)] = stats_fixtures();
        let mut fixtures = vec![("year-like", d0, s0, w0), ("one deficit hour", d1, s1, w1)];
        fixtures.push((
            "full, empty, full to the end",
            series(120, &|_| 10.0),
            series(120, &|h| match h {
                0..30 => 20.0,
                30..60 => 2.0,
                _ => 25.0,
            }),
            by_hour(120),
        ));
        fixtures.push((
            "empty to the end",
            series(100, &|_| 10.0),
            series(100, &|h| if h < 10 { 20.0 } else { 0.5 }),
            by_hour(100),
        ));
        for (name, bad) in [
            ("+inf weight in a full run", f64::INFINITY),
            ("-inf weight in a full run", f64::NEG_INFINITY),
            ("NaN weight in a full run", f64::NAN),
        ] {
            fixtures.push((
                name,
                series(48, &|_| 10.0),
                series(48, &|h| if (20..24).contains(&h) { 3.0 } else { 30.0 }),
                series(48, &|h| match h {
                    6 | 30 => bad,
                    _ => 0.1 + (h % 24) as f64 * 0.03,
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
        fixtures.push((
            "near full",
            series(60, &|_| 10.0),
            series(60, &|h| match h {
                0 => 9.98,
                1..31 => 10.001,
                _ => 0.0,
            }),
            by_hour(60),
        ));
        fixtures
    }

    /// [`stats_bits`] of every pegged-run fixture × battery in loop order,
    /// NaNs written as `f64::NAN`, as computed by the kernel that stepped
    /// the battery every hour (commit e2b2b05). The reference loop above
    /// shares the battery's steps with the kernel; these pins do not.
    #[rustfmt::skip]
    const PINNED_DISPATCH_BITS: [[u64; 5]; 54] = [
        // year-like
        [0x4093f18621114e36, 314, 0x4081a7daa446e042, 0x4092d8bb27e33a91, 0x40441a613b9d0b45],
        [0x40a36520a47a445c, 196, 0x4091487aaa816bab, 0x0, 0x0],
        [0x40949b78ef76a80e, 310, 0x408246e8db26314c, 0x40922ec8597de0ba, 0x40436519f90ecd93],
        [0x409962f2c4b31bfa, 286, 0x40867794e465e2d5, 0x408ace9d0882d98e, 0x4047d419cead3329],
        [0x409d0fefb00bd756, 269, 0x4089aacf60e2ad4a, 0x408374a331d162d6, 0x4049f0d997c1d91d],
        [0x40a36520a47a445c, 196, 0x4091487aaa816bab, 0x0, 0x0],
        // one deficit hour
        [0x4030000000000000, 0, 0x4026666666666666, 0x403e000000000000, 0x3ff0000000000000],
        [0x4047000000000000, 0, 0x4040199999999999, 0x0, 0x0],
        [0x4030b0a3d70a3d71, 0, 0x40275db22d0e5604, 0x403d4f5c28f5c28f, 0x3fef4395810624dd],
        [0x403c69fbe76c8b44, 0, 0x4033e3c9eecbfb16, 0x40319604189374bc, 0x3fef4395810624dc],
        [0x40413d70a3d70a3e, 0, 0x403822d0e560418a, 0x40270a3d70a3d70a, 0x3feeb851eb851eb8],
        [0x4047000000000000, 0, 0x4040199999999999, 0x0, 0x0],
        // full, empty, full to the end
        [0x406a400000000000, 93, 0x4057347ae147ae14, 0x403e000000000000, 0x3ff0000000000000],
        [0x406e000000000000, 90, 0x40599eb851eb851e, 0x0, 0x0],
        [0x406a56147ae147ae, 93, 0x405744d1b71758e1, 0x403d4f5c28f5c28f, 0x3fef4395810624dd],
        [0x406bcd3f7ced9168, 92, 0x40584e20ee8d10f4, 0x40319604189374bc, 0x3fef4395810624dc],
        [0x406c8f5c28f5c290, 91, 0x4058c985f06f6943, 0x40270a3d70a3d70a, 0x3feeb851eb851eb8],
        [0x406e000000000000, 90, 0x40599eb851eb851e, 0x0, 0x0],
        // empty to the end
        [0x4089c80000000000, 13, 0x4077808f5c28f5c2, 0x403e000000000000, 0x3ff0000000000000],
        [0x408ab80000000000, 10, 0x4078506666666664, 0x0, 0x0],
        [0x4089cd851eb851ec, 13, 0x407785f837b4a232, 0x403d4f5c28f5c28f, 0x3fef4395810624dd],
        [0x408a2b4fdf3b645a, 11, 0x4077dbf7e3d1cc0e, 0x40319604189374bc, 0x3fef4395810624dc],
        [0x408a5bd70a3d70a4, 11, 0x407805b3d07c84b4, 0x40270a3d70a3d70a, 0x3feeb851eb851eb8],
        [0x408ab80000000000, 10, 0x4078506666666664, 0x0, 0x0],
        // +inf weight in a full run
        [0x0, 48, 0xfff8000000000000, 0x403c000000000000, 0x3fedddddddddddde],
        [0x403c000000000000, 44, 0xfff8000000000000, 0x0, 0x0],
        [0x0, 48, 0xfff8000000000000, 0x403c000000000000, 0x3fedddddddddddde],
        [0x4024d3f7ced91686, 46, 0xfff8000000000000, 0x40319604189374bd, 0x3fef4395810624de],
        [0x40307ae147ae147b, 45, 0xfff8000000000000, 0x40270a3d70a3d70a, 0x3feeb851eb851eb8],
        [0x403c000000000000, 44, 0xfff8000000000000, 0x0, 0x0],
        // -inf weight in a full run
        [0x0, 48, 0xfff8000000000000, 0x403c000000000000, 0x3fedddddddddddde],
        [0x403c000000000000, 44, 0xfff8000000000000, 0x0, 0x0],
        [0x0, 48, 0xfff8000000000000, 0x403c000000000000, 0x3fedddddddddddde],
        [0x4024d3f7ced91686, 46, 0xfff8000000000000, 0x40319604189374bd, 0x3fef4395810624de],
        [0x40307ae147ae147b, 45, 0xfff8000000000000, 0x40270a3d70a3d70a, 0x3feeb851eb851eb8],
        [0x403c000000000000, 44, 0xfff8000000000000, 0x0, 0x0],
        // NaN weight in a full run
        [0x0, 48, 0x7ff8000000000000, 0x403c000000000000, 0x3fedddddddddddde],
        [0x403c000000000000, 44, 0x7ff8000000000000, 0x0, 0x0],
        [0x0, 48, 0x7ff8000000000000, 0x403c000000000000, 0x3fedddddddddddde],
        [0x4024d3f7ced91686, 46, 0x7ff8000000000000, 0x40319604189374bd, 0x3fef4395810624de],
        [0x40307ae147ae147b, 45, 0x7ff8000000000000, 0x40270a3d70a3d70a, 0x3feeb851eb851eb8],
        [0x403c000000000000, 44, 0x7ff8000000000000, 0x0, 0x0],
        // NaN and inf demand and supply
        [0x7ff8000000000000, 49, 0x7ff8000000000000, 0x403e000000000000, 0x3ff0000000000000],
        [0x7ff8000000000000, 46, 0x7ff8000000000000, 0x0, 0x0],
        [0x7ff8000000000000, 49, 0x7ff8000000000000, 0x4055fb851eb851ec, 0x400772b020c49ba6],
        [0x7ff8000000000000, 47, 0x7ff8000000000000, 0x404a610624dd2f1a, 0x400772b020c49ba5],
        [0x7ff8000000000000, 47, 0x7ff8000000000000, 0x404147ae147ae148, 0x40070a3d70a3d70b],
        [0x7ff8000000000000, 46, 0x7ff8000000000000, 0x0, 0x0],
        // near full
        [0x4070400000000000, 34, 0x405cc66666666666, 0x403e051eb851eb85, 0x3ff002bb0cf87d9c],
        [0x40722051eb851eb8, 30, 0x405f5353f7ced916, 0x0, 0x0],
        [0x40704b0a3d70a3d7, 33, 0x405cd6bd3c361133, 0x403d547ae147ae15, 0x3fef490b9af72016],
        [0x4071069fbe76c8b4, 32, 0x405de7ba8826aa8e, 0x40319b22d0e56042, 0x3fef4cafac42723c],
        [0x407167ae147ae148, 32, 0x405e6bb98c7e2823, 0x4027147ae147ae14, 0x3feec5f92c5f92c5],
        [0x40722051eb851eb8, 30, 0x405f5353f7ced916, 0x0, 0x0],
    ];

    #[test]
    fn pegged_fixture_stats_match_the_pinned_bits() {
        let canonical = |bits: [u64; 5]| {
            bits.map(|b| {
                if f64::from_bits(b).is_nan() {
                    f64::NAN.to_bits()
                } else {
                    b
                }
            })
        };
        let mut pinned = PINNED_DISPATCH_BITS.iter();
        for (name, demand, supply, weight) in &pegged_fixtures() {
            for mut battery in stats_batteries() {
                let stats =
                    simulate_dispatch_stats(battery.as_mut(), demand, supply, weight).unwrap();
                let expected = pinned.next().expect("one pin per case");
                assert_eq!(
                    canonical(stats_bits(&stats)),
                    canonical(*expected),
                    "{name}"
                );
            }
        }
        assert!(pinned.next().is_none(), "unused pins");
    }

    /// The greedy dispatch as it was before the kernel skipped the steps
    /// of a pegged battery: one loop that steps the battery every hour.
    /// It shares no code with [`dispatch_hours`] but the battery's own
    /// steps, so it is the oracle of the kernel's runs.
    struct Reference {
        /// (grid draw, battery output, curtailed, state of charge) by hour.
        hours: Vec<[f64; 4]>,
        discharged_mwh: f64,
        equivalent_cycles: f64,
    }

    impl Reference {
        fn run(
            battery: &mut dyn BatteryModel,
            demand: &HourlySeries,
            supply: &HourlySeries,
        ) -> Self {
            battery.reset(1.0);
            let mut discharged_mwh = 0.0;
            let mut hours = Vec::new();
            for (&d, &s) in demand.values().iter().zip(supply.values()) {
                let (unmet, supplied, curtailed) = if s >= d {
                    let surplus = s - d;
                    let accepted = battery.charge(surplus);
                    (0.0, 0.0, surplus - accepted)
                } else {
                    let deficit = d - s;
                    let delivered = battery.discharge(deficit);
                    discharged_mwh += delivered;
                    (deficit - delivered, delivered, 0.0)
                };
                hours.push([unmet, supplied, curtailed, battery.soc_mwh()]);
            }
            let usable = battery.usable_capacity_mwh();
            Self {
                hours,
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
        ) -> (ControlFlow<G::Stop, [u64; 5]>, Vec<f64>) {
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
                self.discharged_mwh.to_bits(),
                self.equivalent_cycles.to_bits(),
            ];
            (ControlFlow::Continue(bits), partial)
        }
    }

    /// The kernel's traced hours, streamed stats and give-up outcomes
    /// equal the per-hour reference's, bit for bit, on every pegged-run
    /// fixture and battery. The give-up limits are every partial weighted
    /// sum the reference reaches, plus an offset, and one ulp above each.
    #[test]
    fn kernel_matches_the_per_hour_reference_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (name, demand, supply, weight) in &pegged_fixtures() {
            for mut battery in stats_batteries() {
                let reference = Reference::run(battery.as_mut(), demand, supply);
                let traced = simulate_dispatch(battery.as_mut(), demand, supply).unwrap();
                let column = |i: usize| reference.hours.iter().map(|h| h[i]).collect::<Vec<f64>>();
                assert_eq!(bits(traced.unmet.values()), bits(&column(0)), "{name}");
                assert_eq!(
                    bits(traced.battery_supplied.values()),
                    bits(&column(1)),
                    "{name}"
                );
                assert_eq!(bits(traced.curtailed.values()), bits(&column(2)), "{name}");
                assert_eq!(bits(traced.soc.values()), bits(&column(3)), "{name}");
                assert_eq!(
                    [
                        traced.total_discharged_mwh.to_bits(),
                        traced.equivalent_cycles.to_bits()
                    ],
                    [
                        reference.discharged_mwh.to_bits(),
                        reference.equivalent_cycles.to_bits()
                    ],
                    "{name}"
                );
                let (whole, partial) = reference.stats(weight, Never);
                let stats = simulate_dispatch_stats(battery.as_mut(), demand, supply, weight);
                assert_eq!(
                    ControlFlow::Continue(stats_bits(&stats.unwrap())),
                    whole,
                    "{name}"
                );
                for offset in [0.0, 1.0] {
                    for limit in partial
                        .iter()
                        .flat_map(|&p| [p + offset, (p + offset).next_up()])
                    {
                        let rule = CarbonLimit { offset, limit };
                        let until = simulate_dispatch_stats_until(
                            battery.as_mut(),
                            demand,
                            supply,
                            weight,
                            rule,
                        );
                        let outcome = until.unwrap().map_continue(|stats| stats_bits(&stats));
                        assert_eq!(
                            outcome,
                            reference.stats(weight, rule).0,
                            "{name}, limit {limit}"
                        );
                    }
                }
            }
        }
    }

    /// The stats fields by bit pattern, so that the signs of zeros count.
    fn stats_bits(stats: &DispatchStats) -> [u64; 5] {
        [
            stats.deficit.unmet_mwh.to_bits(),
            stats.deficit.covered_hours as u64,
            stats.unmet_dot.to_bits(),
            stats.total_discharged_mwh.to_bits(),
            stats.equivalent_cycles.to_bits(),
        ]
    }

    #[test]
    fn give_up_fires_exactly_at_its_limit() {
        use ce_timeseries::kernels::CarbonLimit;
        for (demand, supply, weight) in &stats_fixtures() {
            for mut battery in stats_batteries() {
                let full =
                    simulate_dispatch_stats(battery.as_mut(), demand, supply, weight).unwrap();
                let until = |battery: &mut dyn BatteryModel, offset: f64, limit: f64| {
                    let limit = CarbonLimit { offset, limit };
                    simulate_dispatch_stats_until(battery, demand, supply, weight, limit).unwrap()
                };
                for offset in [0.0, 1.0, 1234.5] {
                    // The final sum plus the offset is the lowest limit
                    // the run reaches: there it gives up, one ulp above
                    // it completes with the stats of a run with no limit.
                    let reached = full.unmet_dot + offset;
                    assert!(until(battery.as_mut(), offset, reached).is_break());
                    match until(battery.as_mut(), offset, reached.next_up()) {
                        ControlFlow::Continue(stats) => {
                            assert_eq!(stats_bits(&stats), stats_bits(&full));
                        }
                        ControlFlow::Break(()) => panic!("gave up below its limit"),
                    }
                }
                // A NaN offset compares false: even a limit of −∞ holds.
                match until(battery.as_mut(), f64::NAN, f64::NEG_INFINITY) {
                    ControlFlow::Continue(stats) => {
                        assert_eq!(stats_bits(&stats), stats_bits(&full));
                    }
                    ControlFlow::Break(()) => panic!("a NaN offset gave up"),
                }
            }
        }
    }

    #[test]
    fn dispatch_stats_zero_capacity_passthrough() {
        let (demand, supply, weight) = stats_fixture();
        let mut battery = IdealBattery::new(0.0);
        let stats = simulate_dispatch_stats(&mut battery, &demand, &supply, &weight).unwrap();
        // The dispatch fold accumulates hour by hour, so compare against a
        // sequential in-order sum of the clamped deficit (the deficit
        // kernels' lane-chunked reduction order intentionally differs).
        let sequential: f64 = demand
            .zip_with(&supply, |d, s| (d - s).max(0.0))
            .unwrap()
            .values()
            .iter()
            .sum();
        assert_eq!(stats.deficit.unmet_mwh.to_bits(), sequential.to_bits());
        assert_eq!(stats.equivalent_cycles, 0.0);
        assert_eq!(stats.total_discharged_mwh, 0.0);
    }

    #[test]
    fn soc_trace_is_within_bounds() {
        let demand = HourlySeries::from_fn(start(), 100, |h| (h % 7) as f64);
        let supply = HourlySeries::from_fn(start(), 100, |h| (h % 5) as f64);
        let mut battery = ClcBattery::lfp(10.0, 0.8);
        let r = simulate_dispatch(&mut battery, &demand, &supply).unwrap();
        for s in r.soc.values() {
            assert!((2.0 - 1e-9..=10.0 + 1e-9).contains(s));
        }
    }
}
