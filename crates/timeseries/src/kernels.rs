//! Fused reduction kernels over hourly series.
//!
//! The design-space sweep evaluates the same handful of reductions tens of
//! thousands of times per balancing authority: "sum of the clamped
//! deficit", "deficit-weighted carbon intensity", "how many hours were
//! fully covered". Written naively (`zip_with(...).sum()`), each of those
//! materializes a fresh 8760-sample [`HourlySeries`] only to fold it away.
//! The kernels here fuse the combine-and-reduce into a single pass with no
//! intermediate allocation; they are the inner loops of
//! `ce_core::CarbonExplorer::evaluate`.
//!
//! # Reduction order
//!
//! A single sequential accumulator chains every add through one register,
//! so the loop runs at the latency of an f64 add instead of the
//! throughput of the vector units. The reduction kernels therefore fold
//! into [`LANES`] **independent accumulator lanes** with a fixed,
//! documented combination order, which the compiler autovectorizes under
//! `#![forbid(unsafe_code)]`:
//!
//! 1. The input is split into full chunks of [`LANES`] elements followed
//!    by a remainder of `len % LANES` elements.
//! 2. Within the full chunks, element `i` folds into lane `i % LANES`:
//!    lane `j` accumulates elements `j, j + LANES, j + 2·LANES, …` in
//!    increasing index order. Elementwise *maps* (the clamp in a deficit,
//!    the multiply by a weight) are still applied in increasing index
//!    order — only the *additions* are distributed across lanes.
//! 3. The lanes combine in the fixed tree
//!    `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`.
//! 4. The remainder elements fold sequentially, left to right, onto the
//!    tree total.
//!
//! This order is part of each kernel's contract: it is deterministic,
//! independent of thread count and platform, and shared by the
//! transparent scalar implementations in the test-only `reference`
//! module, to which every chunked kernel is bitwise-identical (the unit
//! tests pin lengths 0, 1, 7, 8, 9, and 8760). Purely elementwise kernels
//! ([`scaled_sum_into`]) have no reduction and are bitwise-independent of
//! chunking.
//!
//! Hour-by-hour *simulations* (battery dispatch, the combined heuristic)
//! carry loop-borne state and keep their sequential folds; their
//! contracts are unchanged.
//!
//! Slice-level variants (`*_slices`) are exposed for callers that operate
//! on windows of a series (e.g. monthly decomposition) without paying
//! [`HourlySeries::window`]'s copy.

use crate::series::HourlySeries;
use crate::TimeSeriesError;
use std::convert::Infallible;
use std::ops::ControlFlow;

/// Covered-hour threshold shared with coverage accounting: an hour whose
/// clamped deficit is at most this many MWh counts as fully covered.
pub const COVERED_EPSILON_MWH: f64 = 1e-9;

/// When an hour-by-hour dispatch may stop before its last hour. The
/// streamed dispatch kernels (`ce_battery::simulate_dispatch_stats_until`,
/// `ce_scheduler::combined_dispatch_stats_until`) test their running
/// weighted grid draw `Σ unmet[h] · weight[h]` after every hour and stop
/// on `Break`.
///
/// The rule is a type, not a value, because the test sits in a year-long
/// hour loop: [`Never`]'s test is a constant, so that loop compiles as if
/// there were no test, and its caller gets the full result back with no
/// `Option` to unwrap.
pub trait GiveUp: Copy {
    /// What a dispatch that gave up returns: [`Infallible`] for [`Never`].
    type Stop;
    /// `Break` once the running weighted sum `dot` decides the outcome.
    fn test(self, dot: f64) -> ControlFlow<Self::Stop>;
}

/// The rule that never gives up: the dispatch runs every hour.
#[derive(Debug, Clone, Copy)]
pub struct Never;

impl GiveUp for Never {
    type Stop = Infallible;

    #[inline(always)]
    fn test(self, _dot: f64) -> ControlFlow<Infallible> {
        ControlFlow::Continue(())
    }
}

/// Gives up once `fl(dot + offset) >= limit`. When every hourly term of
/// the sum is `>= 0`, adding one never lowers the sum, so the final sum
/// is `>=` each partial one and a run that gave up would have ended with
/// `fl(final + offset) >= limit` as well. A NaN sum, offset or limit
/// compares false: the run never gives up.
#[derive(Debug, Clone, Copy)]
pub struct CarbonLimit {
    /// Added to the running sum before the comparison (e.g. a lower bound
    /// on the rest of a design's total carbon), tons.
    pub offset: f64,
    /// The value that `fl(dot + offset)` must stay below, tons.
    pub limit: f64,
}

impl GiveUp for CarbonLimit {
    type Stop = ();

    #[inline(always)]
    fn test(self, dot: f64) -> ControlFlow<()> {
        if dot + self.offset >= self.limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// The streamed aggregates of a dispatch's hourly grid draw, folded in
/// hour order: the sink that `ce_battery::simulate_dispatch_stats_until`
/// and `ce_scheduler::combined_dispatch_stats_until` hand their kernels.
///
/// Both sums start at `+0.0`, and a sum of floats is `-0.0` only when
/// every term is, so neither is ever `-0.0`. Adding a `+0.0` draw, and
/// its product `±0.0` with a finite weight, therefore leaves both sums
/// bitwise unchanged (a NaN sum stays NaN): such an hour only counts as
/// covered, which is what [`DrawFold::zero_hour`] folds.
#[derive(Debug, Clone, Copy)]
pub struct DrawFold<G> {
    /// Unmet energy `Σ unmet[h]` and covered hours so far.
    pub deficit: DeficitStats,
    /// Weighted grid draw `Σ unmet[h] · weight[h]` so far.
    pub dot: f64,
    give_up: G,
}

impl<G: GiveUp> DrawFold<G> {
    /// An empty fold that asks `give_up` after every hour it folds.
    pub fn new(give_up: G) -> Self {
        Self {
            deficit: DeficitStats {
                unmet_mwh: 0.0,
                covered_hours: 0,
            },
            dot: 0.0,
            give_up,
        }
    }

    /// Folds an hour that draws `unmet` from the grid at `weight`, then
    /// tests the rule on the new weighted sum.
    #[inline(always)]
    pub fn hour(&mut self, unmet: f64, weight: f64) -> ControlFlow<G::Stop> {
        self.deficit.unmet_mwh += unmet;
        if unmet <= COVERED_EPSILON_MWH {
            self.count_covered();
        }
        self.dot += unmet * weight;
        self.give_up.test(self.dot)
    }

    /// [`DrawFold::hour`] of an hour that draws `+0.0` from the grid. At
    /// a finite `weight` that hour leaves both sums bitwise unchanged, so
    /// it is only counted as covered before the rule is tested; at a
    /// non-finite one (`0 · ±∞` and `0 · NaN` are NaN) it is folded in
    /// full.
    #[inline(always)]
    pub fn zero_hour(&mut self, weight: f64) -> ControlFlow<G::Stop> {
        if weight.is_finite() {
            self.count_covered();
            self.give_up.test(self.dot)
        } else {
            self.hour(0.0, weight)
        }
    }

    /// One more covered hour. The count stays below the number of hours
    /// folded, a slice length, so it never wraps.
    #[inline(always)]
    fn count_covered(&mut self) {
        self.deficit.covered_hours = self.deficit.covered_hours.wrapping_add(1);
    }
}

/// Number of independent accumulator lanes in the chunked reduction
/// kernels (see the [module docs](self) for the full reduction order).
///
/// Eight f64 lanes fill two 256-bit vectors (or four 128-bit ones), and —
/// even where the compiler emits scalar code — break the loop-carried
/// dependency on a single accumulator register.
pub const LANES: usize = 8;

/// Combines the accumulator lanes in the documented fixed tree:
/// `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`.
#[inline]
#[must_use]
fn reduce_lanes(lanes: [f64; LANES]) -> f64 {
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
}

/// The coverage-relevant aggregates of a clamped deficit, in one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeficitStats {
    /// Total unmet energy `Σ max(d − s, 0)`, MWh.
    pub unmet_mwh: f64,
    /// Hours whose clamped deficit is ≤ [`COVERED_EPSILON_MWH`].
    pub covered_hours: usize,
}

/// Computes unmet energy and fully-covered hour count of `demand` under
/// `supply` in a single pass. The energy folds in the documented chunked
/// reduction order; the hour count is an exact integer sum and is
/// order-independent.
#[must_use]
// ce:hot
pub fn deficit_stats_slices(demand: &[f64], supply: &[f64]) -> DeficitStats {
    debug_assert_eq!(demand.len(), supply.len(), "deficit_stats_slices lengths");
    let mut lanes = [0.0; LANES];
    let mut covered = [0usize; LANES];
    let mut cd = demand.chunks_exact(LANES);
    let mut cs = supply.chunks_exact(LANES);
    for (ds, ss) in cd.by_ref().zip(cs.by_ref()) {
        let acc = lanes.iter_mut().zip(covered.iter_mut());
        for (((lane, cov), &d), &s) in acc.zip(ds).zip(ss) {
            let u = (d - s).max(0.0);
            *lane += u;
            *cov += usize::from(u <= COVERED_EPSILON_MWH);
        }
    }
    let mut unmet_mwh = reduce_lanes(lanes);
    let mut covered_hours: usize = covered.iter().sum();
    for (&d, &s) in cd.remainder().iter().zip(cs.remainder()) {
        let u = (d - s).max(0.0);
        unmet_mwh += u;
        covered_hours += usize::from(u <= COVERED_EPSILON_MWH);
    }
    DeficitStats {
        unmet_mwh,
        covered_hours,
    }
}

/// Computes [`deficit_stats_slices`] and the deficit-weighted reduction
/// `Σ max(d[i] − s[i], 0) · w[i]` (e.g. unmet energy times hourly carbon
/// intensity = operational tons) in a single pass.
///
/// Both float accumulators fold in the documented chunked reduction
/// order, with identical lane assignment, so the stats are
/// bitwise-identical to [`deficit_stats_slices`] — while the inputs are
/// read once for both results. This is the scoring reduction of the
/// renewables-only and CAS sweep arms.
#[must_use]
// ce:hot
pub fn deficit_stats_dot_slices(
    demand: &[f64],
    supply: &[f64],
    weight: &[f64],
) -> (DeficitStats, f64) {
    debug_assert_eq!(demand.len(), supply.len(), "deficit_stats_dot lengths");
    debug_assert_eq!(demand.len(), weight.len(), "deficit_stats_dot lengths");
    let mut unmet_lanes = [0.0; LANES];
    let mut dot_lanes = [0.0; LANES];
    let mut covered = [0usize; LANES];
    let mut cd = demand.chunks_exact(LANES);
    let mut cs = supply.chunks_exact(LANES);
    let mut cw = weight.chunks_exact(LANES);
    for ((ds, ss), ws) in cd.by_ref().zip(cs.by_ref()).zip(cw.by_ref()) {
        let acc = unmet_lanes
            .iter_mut()
            .zip(dot_lanes.iter_mut())
            .zip(covered.iter_mut());
        for ((((ul, dl), cov), (&d, &s)), &w) in acc.zip(ds.iter().zip(ss)).zip(ws) {
            let u = (d - s).max(0.0);
            *ul += u;
            *cov += usize::from(u <= COVERED_EPSILON_MWH);
            *dl += u * w;
        }
    }
    let mut unmet_mwh = reduce_lanes(unmet_lanes);
    let mut dot = reduce_lanes(dot_lanes);
    let mut covered_hours: usize = covered.iter().sum();
    let tail = cd
        .remainder()
        .iter()
        .zip(cs.remainder())
        .zip(cw.remainder());
    for ((&d, &s), &w) in tail {
        let u = (d - s).max(0.0);
        unmet_mwh += u;
        covered_hours += usize::from(u <= COVERED_EPSILON_MWH);
        dot += u * w;
    }
    (
        DeficitStats {
            unmet_mwh,
            covered_hours,
        },
        dot,
    )
}

/// Writes `a[i]·fa + b[i]·fb` into `out` — the fused "scale two generation
/// series and add them" step of renewable-supply construction.
///
/// Purely elementwise: `out[i]` depends on index `i` alone, so the
/// chunked traversal (structured for straight-line vector codegen) is
/// bitwise-identical to any other traversal order.
// ce:hot
pub fn scaled_sum_into(a: &[f64], fa: f64, b: &[f64], fb: f64, out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len(), "scaled_sum_into input lengths");
    debug_assert_eq!(a.len(), out.len(), "scaled_sum_into output length");
    let mut co = out.chunks_exact_mut(LANES);
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for ((os, xs), ys) in co.by_ref().zip(ca.by_ref()).zip(cb.by_ref()) {
        for ((o, &x), &y) in os.iter_mut().zip(xs).zip(ys) {
            *o = x * fa + y * fb;
        }
    }
    let tail = co
        .into_remainder()
        .iter_mut()
        .zip(ca.remainder())
        .zip(cb.remainder());
    for ((o, &x), &y) in tail {
        *o = x * fa + y * fb;
    }
}

/// Transparent scalar reference implementations of the chunked kernels.
///
/// Each function here spells out the [module-level](self) reduction order
/// literally — lane `j` is the plain sequential sum of term indices
/// `j, j + LANES, j + 2·LANES, …` below the chunk boundary, the lanes
/// combine in the fixed tree, and the tail folds left to right — trading
/// all performance (each lane is a separate pass over the input) for
/// obviousness. They are the oracles the optimized kernels are tested
/// against, bit for bit, and the executable specification of the
/// reduction-order contract. Test-only: production code calls the
/// top-level kernels.
#[cfg(test)]
mod reference {
    use super::{DeficitStats, COVERED_EPSILON_MWH, LANES};

    /// The full documented reduction of a term stream: per-lane
    /// sequential sums over the chunked prefix (`terms()` yields the
    /// elementwise-mapped values in index order; lane `j` keeps every
    /// `LANES`-th term starting at `j`), the fixed combination tree, then
    /// a sequential left-to-right tail fold.
    #[must_use]
    fn chunked_reduce<I: Iterator<Item = f64>>(len: usize, terms: impl Fn() -> I) -> f64 {
        let main = len - len % LANES;
        // Explicit fold from +0.0: the kernels' lanes start at +0.0, and
        // `Iterator::sum::<f64>()` would use -0.0 as its empty identity.
        let lane = |j: usize| -> f64 {
            terms()
                .take(main)
                .skip(j)
                .step_by(LANES)
                .fold(0.0, |acc, t| acc + t)
        };
        let tree = ((lane(0) + lane(1)) + (lane(2) + lane(3)))
            + ((lane(4) + lane(5)) + (lane(6) + lane(7)));
        terms().skip(main).fold(tree, |acc, t| acc + t)
    }

    /// Clamped-deficit energy `Σ max(d[i] − s[i], 0)` in the documented
    /// reduction order.
    #[must_use]
    pub fn deficit_sum_slices(demand: &[f64], supply: &[f64]) -> f64 {
        debug_assert_eq!(demand.len(), supply.len(), "deficit_sum_slices lengths");
        chunked_reduce(demand.len(), || {
            demand.iter().zip(supply).map(|(&d, &s)| (d - s).max(0.0))
        })
    }

    /// Deficit-weighted reduction `Σ max(d[i] − s[i], 0) · w[i]` in the
    /// documented reduction order.
    #[must_use]
    pub fn deficit_dot_slices(demand: &[f64], supply: &[f64], weight: &[f64]) -> f64 {
        debug_assert_eq!(demand.len(), supply.len(), "deficit_dot_slices lengths");
        debug_assert_eq!(demand.len(), weight.len(), "deficit_dot_slices lengths");
        chunked_reduce(demand.len(), || {
            demand
                .iter()
                .zip(supply)
                .zip(weight)
                .map(|((&d, &s), &w)| (d - s).max(0.0) * w)
        })
    }

    /// Reference oracle for [`super::deficit_stats_slices`]. The energy
    /// follows the documented reduction order; the covered-hour count is
    /// an exact integer and order-independent.
    #[must_use]
    pub fn deficit_stats_slices(demand: &[f64], supply: &[f64]) -> DeficitStats {
        let covered_hours = demand
            .iter()
            .zip(supply)
            .map(|(&d, &s)| (d - s).max(0.0))
            .filter(|&u| u <= COVERED_EPSILON_MWH)
            .count();
        DeficitStats {
            unmet_mwh: deficit_sum_slices(demand, supply),
            covered_hours,
        }
    }

    /// Reference oracle for [`super::deficit_stats_dot_slices`]: the
    /// separate stats and dot oracles, whose components the fused kernel
    /// must reproduce bit for bit.
    #[must_use]
    pub fn deficit_stats_dot_slices(
        demand: &[f64],
        supply: &[f64],
        weight: &[f64],
    ) -> (DeficitStats, f64) {
        (
            deficit_stats_slices(demand, supply),
            deficit_dot_slices(demand, supply, weight),
        )
    }

    /// Reference oracle for [`super::scaled_sum_into`]: the plain
    /// sequential elementwise loop (chunking cannot change an
    /// elementwise map, so no lane structure is needed here).
    pub fn scaled_sum_into(a: &[f64], fa: f64, b: &[f64], fb: f64, out: &mut [f64]) {
        debug_assert_eq!(a.len(), b.len(), "scaled_sum_into input lengths");
        debug_assert_eq!(a.len(), out.len(), "scaled_sum_into output length");
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * fa + y * fb;
        }
    }
}

impl HourlySeries {
    /// Unmet energy and covered-hour count of `self` (demand) under
    /// `supply`, in one pass.
    ///
    /// # Errors
    ///
    /// Returns an alignment error if the series differ in start or length.
    // ce:hot
    pub fn deficit_stats(&self, supply: &Self) -> Result<DeficitStats, TimeSeriesError> {
        self.check_aligned(supply)?;
        Ok(deficit_stats_slices(self.values(), supply.values()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;

    fn start() -> Timestamp {
        Timestamp::start_of_year(2020)
    }

    /// Edge and bulk lengths for the chunked-vs-reference pins: empty,
    /// single element, one short of a chunk, exactly one chunk, one past a
    /// chunk, and a full year of hours.
    const PIN_LENGTHS: [usize; 6] = [0, 1, 7, 8, 9, 8760];

    /// Irregular aligned fixtures of length `n` exercising negative
    /// deficits, exact zeros, and magnitudes spanning several orders.
    fn fixtures_of_len(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let demand: Vec<f64> = (0..n)
            .map(|h| 10.0 + (h as f64 * 0.7).sin() * 9.0 + (h % 13) as f64 * 0.01)
            .collect();
        let supply: Vec<f64> = (0..n)
            .map(|h| (h as f64 * 0.31).cos().abs() * 25.0 * ((h % 7) as f64 / 6.0))
            .collect();
        let weight: Vec<f64> = (0..n).map(|h| 0.1 + (h % 24) as f64 * 0.03).collect();
        (demand, supply, weight)
    }

    /// Series-typed fixtures for the checked wrappers.
    fn fixtures() -> (HourlySeries, HourlySeries, HourlySeries) {
        let (d, s, w) = fixtures_of_len(1000);
        (
            HourlySeries::from_values(start(), d),
            HourlySeries::from_values(start(), s),
            HourlySeries::from_values(start(), w),
        )
    }

    #[test]
    fn chunked_kernels_match_reference_oracles_on_pin_lengths() {
        for n in PIN_LENGTHS {
            let (d, s, _) = fixtures_of_len(n);
            let fast = deficit_stats_slices(&d, &s);
            let oracle = reference::deficit_stats_slices(&d, &s);
            assert_eq!(
                fast.unmet_mwh.to_bits(),
                oracle.unmet_mwh.to_bits(),
                "deficit_stats_slices energy diverged at len {n}"
            );
            assert_eq!(
                fast.covered_hours, oracle.covered_hours,
                "deficit_stats_slices count diverged at len {n}"
            );
            let mut out_fast = vec![f64::NAN; n];
            let mut out_ref = vec![f64::NAN; n];
            scaled_sum_into(&d, 0.137, &s, 2.91, &mut out_fast);
            reference::scaled_sum_into(&d, 0.137, &s, 2.91, &mut out_ref);
            let fast_bits: Vec<u64> = out_fast.iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u64> = out_ref.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, ref_bits, "scaled_sum_into diverged at len {n}");
        }
    }

    #[test]
    fn stats_dot_fused_matches_separate_oracles_on_pin_lengths() {
        for n in PIN_LENGTHS {
            let (d, s, w) = fixtures_of_len(n);
            let (stats, dot) = deficit_stats_dot_slices(&d, &s, &w);
            let (oracle_stats, oracle_dot) = reference::deficit_stats_dot_slices(&d, &s, &w);
            assert_eq!(
                stats.unmet_mwh.to_bits(),
                oracle_stats.unmet_mwh.to_bits(),
                "fused unmet diverged at len {n}"
            );
            assert_eq!(
                stats.covered_hours, oracle_stats.covered_hours,
                "fused count diverged at len {n}"
            );
            assert_eq!(
                dot.to_bits(),
                oracle_dot.to_bits(),
                "fused dot diverged at len {n}"
            );
        }
    }

    #[test]
    fn reduction_sums_all_elements_exactly_on_integer_inputs() {
        // Integer-valued inputs sum exactly in any association, so the
        // chunked total must equal the plain sum — a coverage check that
        // no element is dropped or double-counted around chunk edges.
        for n in PIN_LENGTHS {
            let a: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
            let expected: f64 = a.iter().sum();
            let zeros = vec![0.0; n];
            let stats = deficit_stats_slices(&a, &zeros);
            assert_eq!(stats.unmet_mwh, expected, "len {n}");
        }
    }

    #[test]
    fn deficit_stats_count_matches_materialized_series() {
        // The covered-hour count is an exact integer and must agree with
        // counting over the materialized deficit series whatever the
        // reduction order; the energy matches the reference oracle.
        let (d, s, _) = fixtures();
        let unmet = d.zip_with(&s, |x, y| (x - y).max(0.0)).unwrap();
        let stats = d.deficit_stats(&s).unwrap();
        assert_eq!(
            stats.covered_hours,
            unmet.count_where(|u| u <= COVERED_EPSILON_MWH)
        );
        let oracle = reference::deficit_stats_slices(d.values(), s.values());
        assert_eq!(stats.unmet_mwh.to_bits(), oracle.unmet_mwh.to_bits());
        // Sanity: the fixture has both covered and uncovered hours.
        assert!(stats.covered_hours > 0 && stats.covered_hours < d.len());
    }

    #[test]
    fn scaled_sum_matches_scale_then_add() {
        // Elementwise kernel: bitwise equal to the operator formulation
        // regardless of chunking.
        let (a, b, _) = fixtures();
        let (fa, fb) = (0.137, 2.91);
        let naive = (&(&a * fa) + &(&b * fb)).values().to_vec();
        let mut out = vec![0.0; a.len()];
        scaled_sum_into(a.values(), fa, b.values(), fb, &mut out);
        assert_eq!(naive, out);
    }

    #[test]
    fn zero_factors_produce_exact_zeros() {
        let (a, b, _) = fixtures();
        let mut out = vec![f64::NAN; a.len()];
        scaled_sum_into(a.values(), 0.0, b.values(), 0.0, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn misaligned_series_error() {
        let a = HourlySeries::zeros(start(), 5);
        let b = HourlySeries::zeros(start(), 6);
        assert!(a.deficit_stats(&b).is_err());
        let c = HourlySeries::zeros(start().plus_hours(1), 5);
        assert!(a.deficit_stats(&c).is_err());
    }

    #[test]
    fn empty_slices_sum_to_zero() {
        let stats = deficit_stats_slices(&[], &[]);
        assert_eq!(stats.unmet_mwh, 0.0);
        assert_eq!(stats.covered_hours, 0);
    }
}
