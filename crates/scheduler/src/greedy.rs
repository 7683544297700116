//! The paper's greedy carbon-aware scheduling algorithm.
//!
//! Inputs (paper §4.3): the maximum datacenter capacity `P_DC_MAX` and the
//! flexible workload ratio `FWR`. Per day, the goal is to minimize the
//! renewable deficit `Σ_h max(P_DC(h) − P_Ren(h), 0)` subject to
//! `P_DC(h) < P_DC_MAX`, with `P_DC(h) × FWR` of each hour's load allowed
//! to shift.

use ce_timeseries::time::HOURS_PER_DAY;
use ce_timeseries::{HourlySeries, TimeSeriesError};
use serde::{Deserialize, Serialize};

/// Configuration for the greedy carbon-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CasConfig {
    /// `P_DC_MAX`: the hard cap on post-scheduling hourly power, MW.
    pub max_capacity_mw: f64,
    /// `FWR`: fraction of each hour's load that may shift (0..=1).
    pub flexible_ratio: f64,
}

/// Result of a scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// The post-scheduling demand series ("Balanced Power Load").
    pub shifted_demand: HourlySeries,
    /// Total energy moved between hours, MWh.
    pub energy_shifted_mwh: f64,
}

/// Reusable output buffer for [`GreedyScheduler::schedule_with_order`].
///
/// A scheduling run writes a year-long shifted load; sweep loops that
/// allocated it per call would churn megabytes per design point. A
/// default-constructed scratch sizes its buffer on first use and reuses it
/// for every subsequent call, so steady-state scheduling performs no heap
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct ScheduleScratch {
    /// Post-scheduling load, one value per input hour.
    shifted: Vec<f64>,
}

impl ScheduleScratch {
    /// The post-scheduling demand of the most recent run (one value per
    /// input hour; empty before the first run).
    #[must_use]
    pub fn shifted(&self) -> &[f64] {
        &self.shifted
    }
}

/// Precomputed per-day cost permutations (plus the cost signal they rank),
/// reusable across every scheduling run that shares the cost series.
///
/// Ranking each day's hours by cost is the dominant work of a scheduling
/// run, and the cost depends only on demand and supply (or on the given
/// cost signal), not on the scheduler's capacity or flexibility. Every
/// scheduling run replays a `CostOrder`: [`GreedyScheduler::schedule`]
/// and [`GreedyScheduler::schedule_by_cost`] build a fresh one per call,
/// while sweep loops build one per supply group and schedule every design
/// point in the group through [`GreedyScheduler::schedule_with_order`].
///
/// The stored permutation of each full day is the stable sort of its hour
/// indices by `f64::total_cmp` of their cost (ties keep hour order); a
/// trailing partial day is excluded, as the scheduler leaves it
/// untouched. Buffers are reused across `rebuild_*` calls, so a warm
/// `CostOrder` re-ranks without allocating.
#[derive(Debug, Clone, Default)]
pub struct CostOrder {
    /// Length of the source cost series (including any partial day).
    source_len: usize,
    /// The cost signal over the full days, one value per hour.
    cost: Vec<f64>,
    /// Concatenated per-day permutations: for each full day, the local
    /// hour indices `0..HOURS_PER_DAY` ranked by ascending cost.
    order: Vec<u32>,
    /// Sort workspace: packed `(total_cmp-ordered cost bits, local hour)`
    /// keys for the whole year.
    sort_buf: Vec<u128>,
}

impl CostOrder {
    /// Builds the per-day permutations for an arbitrary per-hour cost
    /// signal (the ranking [`GreedyScheduler::schedule_by_cost`] uses).
    #[must_use]
    pub fn from_cost(cost: &[f64]) -> Self {
        let mut this = Self::default();
        this.rebuild_from_cost(cost);
        this
    }

    /// Builds the per-day permutations for the renewable-deficit cost
    /// `d − s` (the ranking [`GreedyScheduler::schedule`] uses).
    ///
    /// # Errors
    ///
    /// Returns an alignment error if the series are misaligned.
    pub fn from_deficit(
        demand: &HourlySeries,
        supply: &HourlySeries,
    ) -> Result<Self, TimeSeriesError> {
        let mut this = Self::default();
        this.rebuild_from_deficit(demand, supply)?;
        Ok(this)
    }

    /// Re-ranks in place for a new cost signal, reusing the buffers.
    pub fn rebuild_from_cost(&mut self, cost: &[f64]) {
        self.source_len = cost.len();
        // ce:allow(arith, reason = "len % k never exceeds len, so the difference cannot underflow")
        let full = cost.len() - cost.len() % HOURS_PER_DAY;
        self.cost.clear();
        self.cost.extend(cost.iter().take(full));
        self.rebuild_orders();
    }

    /// Re-ranks in place for a new demand/supply pair, reusing the
    /// buffers.
    ///
    /// # Errors
    ///
    /// Returns an alignment error if the series are misaligned.
    pub fn rebuild_from_deficit(
        &mut self,
        demand: &HourlySeries,
        supply: &HourlySeries,
    ) -> Result<(), TimeSeriesError> {
        demand.check_aligned(supply)?;
        self.rebuild_from_deficit_slices(demand.values(), supply.values());
        Ok(())
    }

    /// Slice-level [`CostOrder::rebuild_from_deficit`] for callers whose
    /// alignment is already an invariant (e.g. a sweep's supply buffer is
    /// shaped from its demand trace): infallible, so hot loops carry no
    /// error path. If the lengths do differ, the shorter one is ranked
    /// and recorded as [`CostOrder::source_len`], which the schedulers'
    /// own length check then rejects.
    // ce:hot
    pub fn rebuild_from_deficit_slices(&mut self, demand: &[f64], supply: &[f64]) {
        self.source_len = demand.len().min(supply.len());
        let full = self.source_len - self.source_len % HOURS_PER_DAY;
        self.cost.clear();
        self.cost
            .extend(demand.iter().zip(supply).take(full).map(|(d, s)| d - s));
        self.rebuild_orders();
    }

    /// Length of the source series this order was built from (the
    /// schedulers require it to match the demand they are given).
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Re-sorts every day of `self.cost` into `self.order`. Each hour is
    /// packed into one integer key — the cost's `total_cmp`-ordered bits
    /// above, the hour index below — so sorting keys on unsigned order
    /// equals sorting `(cost, hour)` pairs on (cost by `total_cmp`, then
    /// hour). That composite yields the same permutation as stably
    /// sorting hour indices by cost: the hour tiebreak hand-resolves
    /// equal costs to ascending hour order, which is exactly what
    /// stability would preserve — and because the keys are unique, the
    /// (faster, allocation-free) unstable integer sort produces that
    /// permutation deterministically.
    // ce:hot
    fn rebuild_orders(&mut self) {
        self.sort_buf.clear();
        self.sort_buf.extend(
            self.cost
                .iter()
                // ce:allow(cast, reason = "the 24-hour day constant fits u32")
                .zip((0..HOURS_PER_DAY as u32).cycle())
                // ce:allow(arith, reason = "64 key bits shifted 32 left still fit a u128")
                .map(|(&cost, hour)| (u128::from(ordered_bits(cost)) << 32) | u128::from(hour)),
        );
        for day_keys in self.sort_buf.chunks_exact_mut(HOURS_PER_DAY) {
            day_keys.sort_unstable();
        }
        self.order.clear();
        self.order
            // ce:allow(cast, reason = "intentional: the low 32 bits of the packed key are the hour ordinal")
            .extend(self.sort_buf.iter().map(|&key| key as u32));
    }
}

/// Maps a cost onto bits whose plain unsigned order is `f64::total_cmp`
/// order: `total_cmp` compares sign-magnitude bit patterns mapped to
/// two's complement, so flipping all bits of negatives and the sign bit
/// of non-negatives linearizes it.
// ce:hot
fn ordered_bits(cost: f64) -> u64 {
    let bits = cost.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1u64 << 63)
    }
}

/// Widens a packed `u32` hour ordinal back into a slice index; the one
/// sanctioned cast site for the order buffers, so the transfer loops stay
/// free of ad-hoc `as` conversions.
// ce:hot
fn idx(hour: u32) -> usize {
    // ce:allow(cast, reason = "u32 hour ordinal widening into usize; every supported target is at least 32-bit")
    hour as usize
}

/// Reads one hour's `(cost, load)` pair when a transfer cursor lands on
/// it. Centralizing the cursor reads keeps the transfer loop's slice
/// accesses in one place, and the total `.get` form keeps them
/// panic-free: cursors only ever land on in-range hours (`order` holds
/// `0..len`), and the unreachable fallback — an infinitely expensive,
/// empty slot — would stall the transfer loop rather than corrupt it.
// ce:hot
fn cursor_slot(cost: &[f64], load: &[f64], hour: usize) -> (f64, f64) {
    match (cost.get(hour), load.get(hour)) {
        (Some(&c), Some(&l)) => (c, l),
        _ => (f64::INFINITY, 0.0),
    }
}

/// Commits a cursor's mirrored load back to the day slice (total for the
/// same reason as [`cursor_slot`]: an out-of-range hour cannot happen and
/// must not panic the sweep).
// ce:hot
fn commit_load(load: &mut [f64], hour: usize, value: f64) {
    if let Some(slot) = load.get_mut(hour) {
        *slot = value;
    }
}

/// The paper's greedy carbon-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyScheduler {
    config: CasConfig,
}

impl GreedyScheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `flexible_ratio` is outside `[0, 1]` or
    /// `max_capacity_mw` is negative.
    pub fn new(config: CasConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.flexible_ratio),
            "flexible ratio must be in [0, 1]"
        );
        assert!(
            config.max_capacity_mw >= 0.0,
            "capacity must be non-negative"
        );
        Self { config }
    }

    /// Schedules against a renewable `supply` series: load moves from the
    /// hours with the deepest renewable deficit to the hours with the most
    /// surplus (equivalently, from high to low carbon intensity when the
    /// marginal grid fuel is fixed). Ranks the renewable deficit `d − s`
    /// into a fresh [`CostOrder`] and replays it, exactly as
    /// [`GreedyScheduler::schedule_with_order`] does for a sweep.
    ///
    /// # Errors
    ///
    /// Returns an alignment error if the series are misaligned.
    pub fn schedule(
        &self,
        demand: &HourlySeries,
        supply: &HourlySeries,
    ) -> Result<ScheduleResult, TimeSeriesError> {
        let order = CostOrder::from_deficit(demand, supply)?;
        self.schedule_fresh(demand, supply.values(), &order)
    }

    /// Schedules against an arbitrary per-hour carbon-cost signal (for
    /// example the grid's hourly carbon intensity, as in the paper's
    /// Figure 11). Destination hours are capped by capacity only; no
    /// supply clamp applies.
    ///
    /// # Errors
    ///
    /// Returns an alignment error if the series are misaligned.
    pub fn schedule_by_cost(
        &self,
        demand: &HourlySeries,
        cost: &HourlySeries,
    ) -> Result<ScheduleResult, TimeSeriesError> {
        demand.check_aligned(cost)?;
        self.schedule_fresh(demand, &[], &CostOrder::from_cost(cost.values()))
    }

    /// [`GreedyScheduler::schedule`] with a precomputed [`CostOrder`]
    /// (built from the *same* demand/supply pair via
    /// [`CostOrder::from_deficit`] / [`CostOrder::rebuild_from_deficit`])
    /// and caller-owned buffers: the post-scheduling load lands in
    /// `scratch.shifted()` and the total energy moved is returned, with no
    /// per-call allocation once the scratch is warm.
    ///
    /// Sweep loops build one `CostOrder` per supply group and schedule
    /// every design point in the group through it.
    ///
    /// # Errors
    ///
    /// Returns an alignment error if the series are misaligned, or a
    /// length mismatch if `order` was built from a series of a different
    /// length than `demand`.
    // ce:hot
    pub fn schedule_with_order(
        &self,
        demand: &HourlySeries,
        supply: &HourlySeries,
        order: &CostOrder,
        scratch: &mut ScheduleScratch,
    ) -> Result<f64, TimeSeriesError> {
        demand.check_aligned(supply)?;
        self.replay(
            demand.values(),
            supply.values(),
            order,
            &mut scratch.shifted,
        )
    }

    /// Replays `order` into a freshly allocated [`ScheduleResult`].
    fn schedule_fresh(
        &self,
        demand: &HourlySeries,
        supply: &[f64],
        order: &CostOrder,
    ) -> Result<ScheduleResult, TimeSeriesError> {
        let mut shifted = Vec::new();
        let energy_shifted_mwh = self.replay(demand.values(), supply, order, &mut shifted)?;
        Ok(ScheduleResult {
            shifted_demand: HourlySeries::from_values(demand.start(), shifted),
            energy_shifted_mwh,
        })
    }

    /// The one scheduling loop: copies `demand` into `shifted`, then runs
    /// [`GreedyScheduler::transfer_day`] over each full day with that
    /// day's ranking from `order`. An empty `supply` imposes no supply
    /// clamp (cost-signal scheduling). Returns the energy moved.
    // ce:hot
    fn replay(
        &self,
        demand: &[f64],
        supply: &[f64],
        order: &CostOrder,
        shifted: &mut Vec<f64>,
    ) -> Result<f64, TimeSeriesError> {
        if order.source_len() != demand.len() {
            return Err(TimeSeriesError::LengthMismatch {
                left: order.source_len(),
                right: demand.len(),
            });
        }
        shifted.clear();
        shifted.extend_from_slice(demand);
        let mut supplies = supply.chunks_exact(HOURS_PER_DAY);
        let days = shifted
            .chunks_exact_mut(HOURS_PER_DAY)
            .zip(order.cost.chunks_exact(HOURS_PER_DAY))
            .zip(order.order.chunks_exact(HOURS_PER_DAY));
        let mut total_moved = 0.0;
        for ((load, cost), ord) in days {
            total_moved += self.transfer_day(load, cost, supplies.next(), ord);
        }
        Ok(total_moved)
    }

    /// Greedy within one day: walks `order` (the day's hours ranked by
    /// ascending cost) from both ends, moving flexible load from the most
    /// expensive hours into the cheapest. Returns the energy moved.
    ///
    /// When a `supply` slice is given, a destination hour additionally
    /// stops absorbing load once its remaining renewable surplus is used
    /// up — moving more would merely relocate the deficit.
    ///
    /// The cursors' slots are mirrored into locals (`src_load`, `budget`,
    /// `dst_load`, ...) and written back only when a cursor advances or
    /// the loop exits: the two cursor positions are always distinct slots
    /// (the loop stops before they meet), so the mirrors keep the serial
    /// chain of float ops — and therefore every result bit, NaN inputs
    /// included — identical to operating on the slices directly, while
    /// the iteration itself touches no memory. The per-source budget is
    /// `original load × FWR`; a source's load is first mutated *after*
    /// its budget is mirrored, so computing it on cursor advance equals
    /// precomputing all budgets up front (what an earlier revision's
    /// `movable` buffer did).
    // ce:hot
    fn transfer_day(
        &self,
        load: &mut [f64],
        cost: &[f64],
        supply: Option<&[f64]>,
        order: &[u32],
    ) -> f64 {
        let ratio = self.config.flexible_ratio;
        let cap = self.config.max_capacity_mw;

        // A day with no movable budget (zero flexibility, or an all-idle
        // day) cannot transfer anything: every candidate amount is capped
        // by a budget ≤ 1e-12 and fails the `> 1e-12` move threshold
        // below, so skipping the loop is a bitwise no-op. (NaN budgets
        // fail the `<=` test and conservatively fall through.)
        if load.iter().all(|&l| l * ratio <= 1e-12) {
            return 0.0;
        }

        // Destinations walk `order` from the cheap end, sources from the
        // expensive end. Taking both ends off a double-ended iterator
        // reproduces the index-pair walk (`order[dest_idx]` /
        // `order[src_idx - 1]` while `dest_idx < src_idx`): when one side
        // exhausts the middle, the index walk's next step would alias the
        // cursors onto the same hour and break on `cost[dst] >= cost[src]`
        // without moving anything, so breaking on `None` is equivalent.
        let mut ends = order.iter();
        let Some(&first) = ends.next() else {
            return 0.0;
        };
        let Some(&last) = ends.next_back() else {
            return 0.0; // single-hour day: nowhere cheaper to move to
        };
        let mut dst = idx(first);
        let mut src = idx(last);
        // A destination absorbs up to `limit − load`: `limit` folds the
        // capacity cap and the hour's renewable supply into one bound per
        // destination, hoisting the supply clamp off the per-iteration
        // dependency chain (rounding is monotone, so clamping the smaller
        // bound yields the identical headroom the two-sided clamp did).
        // Total like the cursor helpers: a missing supply hour (which
        // cannot happen — the chunks are aligned) imposes no clamp.
        let limit_of = |hour: usize| match supply {
            Some(s) => cap.min(s.get(hour).copied().unwrap_or(f64::INFINITY)),
            None => cap,
        };
        let (mut dst_cost, mut dst_load) = cursor_slot(cost, load, dst);
        let mut dst_limit = limit_of(dst);
        let (mut src_cost, mut src_load) = cursor_slot(cost, load, src);
        let mut budget = src_load * ratio;

        let mut moved = 0.0;
        loop {
            // Only profitable to move load to a strictly cheaper hour.
            if dst_cost >= src_cost {
                break;
            }
            let headroom = (dst_limit - dst_load).max(0.0);
            // A budget-bound move transfers the budget itself: taking the
            // branch instead of `min` keeps full drains (the common case
            // in sweeps) off the headroom dependency chain, while the
            // `min` fallback preserves the tie/NaN selection exactly.
            let amount = if budget < headroom {
                budget
            } else {
                budget.min(headroom)
            };
            if amount > 1e-12 {
                src_load -= amount;
                dst_load += amount;
                budget -= amount;
                moved += amount;
            }
            // Advance whichever side is exhausted, committing its mirror.
            if budget <= 1e-12 {
                commit_load(load, src, src_load);
                match ends.next_back() {
                    Some(&s) => {
                        src = idx(s);
                        (src_cost, src_load) = cursor_slot(cost, load, src);
                        budget = src_load * ratio;
                    }
                    None => break,
                }
            } else {
                commit_load(load, dst, dst_load);
                match ends.next() {
                    Some(&d) => {
                        dst = idx(d);
                        (dst_cost, dst_load) = cursor_slot(cost, load, dst);
                        dst_limit = limit_of(dst);
                    }
                    None => break,
                }
            }
        }
        commit_load(load, src, src_load);
        commit_load(load, dst, dst_load);
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_timeseries::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    fn solar_day_supply() -> HourlySeries {
        HourlySeries::from_fn(start(), 24, |h| {
            if (6..18).contains(&(h % 24)) {
                25.0
            } else {
                0.0
            }
        })
    }

    fn deficit_after(demand: &HourlySeries, supply: &HourlySeries) -> f64 {
        demand
            .zip_with(supply, |d, s| (d - s).max(0.0))
            .unwrap()
            .sum()
    }

    #[test]
    fn shifting_reduces_renewable_deficit() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = solar_day_supply();
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 20.0,
            flexible_ratio: 0.4,
        });
        let result = sched.schedule(&demand, &supply).unwrap();
        let before = deficit_after(&demand, &supply);
        let after = deficit_after(&result.shifted_demand, &supply);
        assert!(after < before, "deficit {after} !< {before}");
        assert!(result.energy_shifted_mwh > 0.0);
    }

    #[test]
    fn daily_energy_is_conserved() {
        let demand = HourlySeries::from_fn(start(), 72, |h| 10.0 + (h % 5) as f64);
        let supply = HourlySeries::from_fn(start(), 72, |h| ((h * 7) % 23) as f64);
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 30.0,
            flexible_ratio: 0.5,
        });
        let result = sched.schedule(&demand, &supply).unwrap();
        for day in 0..3 {
            let orig: f64 = demand.values()[day * 24..(day + 1) * 24].iter().sum();
            let new: f64 = result.shifted_demand.values()[day * 24..(day + 1) * 24]
                .iter()
                .sum();
            assert!((orig - new).abs() < 1e-9, "day {day}: {orig} vs {new}");
        }
    }

    #[test]
    fn capacity_cap_is_respected() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = solar_day_supply();
        let cap = 12.5;
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: cap,
            flexible_ratio: 1.0,
        });
        let result = sched.schedule(&demand, &supply).unwrap();
        for &v in result.shifted_demand.values() {
            assert!(v <= cap + 1e-9, "hour exceeds cap: {v}");
        }
    }

    #[test]
    fn zero_flexibility_changes_nothing() {
        let demand = HourlySeries::from_fn(start(), 48, |h| 5.0 + (h % 3) as f64);
        let supply = HourlySeries::zeros(start(), 48);
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 100.0,
            flexible_ratio: 0.0,
        });
        let result = sched.schedule(&demand, &supply).unwrap();
        assert_eq!(result.shifted_demand, demand);
        assert_eq!(result.energy_shifted_mwh, 0.0);
    }

    #[test]
    fn more_flexibility_shifts_at_least_as_much_deficit_away() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let supply = solar_day_supply();
        let deficits: Vec<f64> = [0.1, 0.4, 1.0]
            .iter()
            .map(|&fwr| {
                let sched = GreedyScheduler::new(CasConfig {
                    max_capacity_mw: 25.0,
                    flexible_ratio: fwr,
                });
                let r = sched.schedule(&demand, &supply).unwrap();
                deficit_after(&r.shifted_demand, &supply)
            })
            .collect();
        assert!(deficits[0] >= deficits[1]);
        assert!(deficits[1] >= deficits[2]);
    }

    #[test]
    fn no_movement_when_cost_is_flat() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let flat_cost = HourlySeries::constant(start(), 24, 3.0);
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 100.0,
            flexible_ratio: 1.0,
        });
        let result = sched.schedule_by_cost(&demand, &flat_cost).unwrap();
        assert_eq!(result.energy_shifted_mwh, 0.0);
    }

    #[test]
    fn load_moves_toward_cheap_hours() {
        let demand = HourlySeries::constant(start(), 24, 10.0);
        let cost = HourlySeries::from_fn(start(), 24, |h| if h < 12 { 1.0 } else { 10.0 });
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 30.0,
            flexible_ratio: 0.5,
        });
        let result = sched.schedule_by_cost(&demand, &cost).unwrap();
        let cheap: f64 = result.shifted_demand.values()[..12].iter().sum();
        let dear: f64 = result.shifted_demand.values()[12..].iter().sum();
        assert!(cheap > dear);
        // Expensive hours retain their inflexible 50%.
        for &v in &result.shifted_demand.values()[12..] {
            assert!(v >= 5.0 - 1e-9);
        }
    }

    #[test]
    fn partial_trailing_day_is_left_unscheduled() {
        let demand = HourlySeries::constant(start(), 30, 10.0);
        let supply = HourlySeries::zeros(start(), 30);
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 100.0,
            flexible_ratio: 1.0,
        });
        let result = sched.schedule(&demand, &supply).unwrap();
        // Hours 24..30 are untouched (not a full day).
        assert_eq!(
            &result.shifted_demand.values()[24..],
            &demand.values()[24..]
        );
    }

    #[test]
    fn scratch_is_reusable_across_runs_of_different_lengths() {
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 25.0,
            flexible_ratio: 0.5,
        });
        let mut scratch = ScheduleScratch::default();
        let long_demand = HourlySeries::constant(start(), 72, 10.0);
        let long_supply = HourlySeries::from_fn(start(), 72, |h| ((h * 3) % 20) as f64);
        let long_order = CostOrder::from_deficit(&long_demand, &long_supply).unwrap();
        sched
            .schedule_with_order(&long_demand, &long_supply, &long_order, &mut scratch)
            .unwrap();
        let short_demand = HourlySeries::constant(start(), 24, 10.0);
        let short_supply = solar_day_supply();
        let short_order = CostOrder::from_deficit(&short_demand, &short_supply).unwrap();
        let moved = sched
            .schedule_with_order(&short_demand, &short_supply, &short_order, &mut scratch)
            .unwrap();
        let fresh = sched.schedule(&short_demand, &short_supply).unwrap();
        assert_eq!(scratch.shifted(), fresh.shifted_demand.values());
        assert_eq!(moved, fresh.energy_shifted_mwh);
        assert_eq!(scratch.shifted().len(), 24);
    }

    /// Irregular multi-day fixture with cost ties, flat stretches, zero
    /// hours, and a trailing partial day.
    fn uneven_fixture() -> (HourlySeries, HourlySeries) {
        let demand = HourlySeries::from_fn(start(), 24 * 7 + 5, |h| {
            8.0 + ((h * 11) % 9) as f64 + if h % 31 == 0 { 0.0 } else { 0.25 }
        });
        let supply = HourlySeries::from_fn(start(), 24 * 7 + 5, |h| {
            // Repeats every 12 hours within a day, forcing cost ties.
            ((h % 12) * 3 % 17) as f64 + if h / 24 == 2 { 0.0 } else { 1.5 }
        });
        (demand, supply)
    }

    /// Demand/supply pairs whose deficit `d − s` covers every ordering
    /// case a day's ranking must get right: ties, both signed zeros,
    /// negatives, NaNs of both signs, and infinities.
    const ORDERING_PAIRS: [(f64, f64); 9] = [
        (0.0, 0.0),
        (-0.0, 0.0),
        (1.0, 4.0),
        (4.0, 1.0),
        (5.0, 2.0),
        (f64::NAN, 0.0),
        (-f64::NAN, 0.0),
        (f64::NEG_INFINITY, 0.0),
        (2.0, 5.0),
    ];

    #[test]
    fn cost_order_is_each_days_stable_total_cmp_sort() {
        // Three full days, each a different arrangement of the pairs, and
        // a trailing partial day that must not be ranked.
        let len = 24 * 3 + 5;
        let pair = |h: usize| ORDERING_PAIRS[(h * 7 + h / 24) % ORDERING_PAIRS.len()];
        let demand = HourlySeries::from_fn(start(), len, |h| pair(h).0);
        let supply = HourlySeries::from_fn(start(), len, |h| pair(h).1);
        let deficit: Vec<f64> = demand
            .values()
            .iter()
            .zip(supply.values())
            .map(|(d, s)| d - s)
            .collect();
        let raw = demand.values().to_vec();
        for cost in [&deficit, &raw] {
            let has = |bits: u64| cost.iter().any(|c| c.to_bits() == bits);
            assert!(has(0.0f64.to_bits()) && has((-0.0f64).to_bits()));
            assert!(cost.iter().any(|c| c.is_nan() && c.is_sign_negative()));
            assert!(cost.iter().any(|c| c.is_nan() && c.is_sign_positive()));
        }
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let built = [
            (CostOrder::from_deficit(&demand, &supply).unwrap(), &deficit),
            (CostOrder::from_cost(&raw), &raw),
        ];
        for (order, cost) in built {
            // The oracle: each full day's hour indices, stably sorted by
            // `f64::total_cmp` of their cost.
            let mut expected: Vec<u32> = Vec::new();
            for day in cost.chunks_exact(24) {
                let mut hours: Vec<u32> = (0..24).collect();
                hours.sort_by(|&a, &b| day[a as usize].total_cmp(&day[b as usize]));
                expected.extend(hours);
            }
            assert_eq!(order.order, expected);
            assert_eq!(bits(&order.cost), bits(&cost[..24 * 3]));
            assert_eq!(order.source_len(), len);
        }
    }

    #[test]
    fn cost_order_is_reusable_across_rebuilds() {
        let (demand, supply) = uneven_fixture();
        let mut order = CostOrder::from_deficit(&demand, &supply).unwrap();
        // Rebuild for a different, shorter pair; must match a fresh build.
        let d2 = HourlySeries::from_fn(start(), 48, |h| 5.0 + (h % 7) as f64);
        let s2 = HourlySeries::from_fn(start(), 48, |h| ((h * 13) % 19) as f64);
        order.rebuild_from_deficit(&d2, &s2).unwrap();
        let fresh = CostOrder::from_deficit(&d2, &s2).unwrap();
        assert_eq!(order.source_len(), fresh.source_len());
        assert_eq!(order.order, fresh.order);
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 20.0,
            flexible_ratio: 0.5,
        });
        let mut cached = ScheduleScratch::default();
        let moved = sched
            .schedule_with_order(&d2, &s2, &order, &mut cached)
            .unwrap();
        let fresh = sched.schedule(&d2, &s2).unwrap();
        assert_eq!(cached.shifted(), fresh.shifted_demand.values());
        assert_eq!(moved.to_bits(), fresh.energy_shifted_mwh.to_bits());
    }

    #[test]
    fn stale_cost_order_length_is_an_error() {
        let (demand, supply) = uneven_fixture();
        let order = CostOrder::from_deficit(&demand, &supply).unwrap();
        let short_demand = HourlySeries::zeros(start(), 48);
        let short_supply = HourlySeries::zeros(start(), 48);
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 10.0,
            flexible_ratio: 0.4,
        });
        let mut scratch = ScheduleScratch::default();
        assert!(sched
            .schedule_with_order(&short_demand, &short_supply, &order, &mut scratch)
            .is_err());
    }

    #[test]
    fn zero_budget_day_skips_transfer_without_changing_results() {
        // All-zero demand gives every day a zero movable budget; the
        // early-skip must leave the load untouched and report zero moved,
        // exactly as the full transfer loop would.
        let demand = HourlySeries::zeros(start(), 48);
        let supply = HourlySeries::from_fn(start(), 48, |h| (h % 5) as f64);
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 10.0,
            flexible_ratio: 1.0,
        });
        let result = sched.schedule(&demand, &supply).unwrap();
        assert_eq!(result.energy_shifted_mwh, 0.0);
        assert_eq!(result.shifted_demand, demand);
    }

    #[test]
    #[should_panic(expected = "flexible ratio")]
    fn rejects_bad_ratio() {
        GreedyScheduler::new(CasConfig {
            max_capacity_mw: 10.0,
            flexible_ratio: 1.5,
        });
    }

    #[test]
    fn misaligned_series_is_an_error() {
        let demand = HourlySeries::zeros(start(), 24);
        let supply = HourlySeries::zeros(start(), 25);
        let sched = GreedyScheduler::new(CasConfig {
            max_capacity_mw: 10.0,
            flexible_ratio: 0.4,
        });
        assert!(sched.schedule(&demand, &supply).is_err());
    }
}
