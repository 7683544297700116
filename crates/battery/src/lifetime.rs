//! Cycle-life and lifetime modeling for LFP batteries (paper §5.1).
//!
//! The paper cites PowerTech's LFP data: 3000 cycles at 100% DoD, 4500 at
//! 80%, and 10,000 at 60% (which it converts to "a 27-year battery
//! lifespan" at one cycle per day). Cycle life between those anchors is
//! interpolated; outside them it is clamped.

/// Known (DoD, cycle-life) anchors for LFP cells, deepest discharge first.
const LFP_ANCHORS: [(f64, f64); 3] = [(1.0, 3000.0), (0.8, 4500.0), (0.6, 10_000.0)];

/// Expected number of full charge/discharge cycles an LFP battery endures
/// at depth of discharge `dod` (fraction in `(0, 1]`).
///
/// # Panics
///
/// Panics if `dod` is not in `(0, 1]`.
///
/// ```
/// assert_eq!(ce_battery::cycle_life(1.0), 3000.0);
/// assert_eq!(ce_battery::cycle_life(0.8), 4500.0);
/// assert_eq!(ce_battery::cycle_life(0.6), 10_000.0);
/// ```
pub fn cycle_life(dod: f64) -> f64 {
    assert!(dod > 0.0 && dod <= 1.0, "DoD must be in (0, 1]");
    if dod >= LFP_ANCHORS[0].0 {
        return LFP_ANCHORS[0].1;
    }
    if dod <= LFP_ANCHORS[LFP_ANCHORS.len() - 1].0 {
        return LFP_ANCHORS[LFP_ANCHORS.len() - 1].1;
    }
    for pair in LFP_ANCHORS.windows(2) {
        let (hi_dod, hi_cycles) = pair[0];
        let (lo_dod, lo_cycles) = pair[1];
        if dod <= hi_dod && dod >= lo_dod {
            let t = (hi_dod - dod) / (hi_dod - lo_dod);
            return hi_cycles + t * (lo_cycles - hi_cycles);
        }
    }
    unreachable!("anchors cover (0.6, 1.0)");
}

/// Battery lifetime in years given a DoD policy and the number of
/// equivalent full cycles the dispatch pattern performs per year.
///
/// Returns `f64::INFINITY` for a battery that never cycles. Real
/// deployments cap out on calendar aging long before the 27-year figure
/// the cycle math produces at 60% DoD — callers that care should clamp
/// with [`lifetime_years_capped`].
pub fn lifetime_years(dod: f64, cycles_per_year: f64) -> f64 {
    assert!(
        cycles_per_year >= 0.0,
        "cycles per year must be non-negative"
    );
    // ce:allow(float-eq, reason = "exactly zero cycles means the battery never dispatches; lifetime is genuinely unbounded")
    if cycles_per_year == 0.0 {
        return f64::INFINITY;
    }
    cycle_life(dod) / cycles_per_year
}

/// [`lifetime_years`] clamped to a calendar-aging cap (the paper: "other
/// degradation factors would come in to play before reaching the 27-year
/// lifespan"). Carbon Explorer's default cap is the
/// `calendar_life_cap_years` of `ce_embodied::BatteryEmbodied::paper_defaults`.
pub fn lifetime_years_capped(dod: f64, cycles_per_year: f64, cap_years: f64) -> f64 {
    lifetime_years(dod, cycles_per_year).min(cap_years)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_points_match_paper() {
        assert_eq!(cycle_life(1.0), 3000.0);
        assert_eq!(cycle_life(0.8), 4500.0);
        assert_eq!(cycle_life(0.6), 10_000.0);
    }

    #[test]
    fn eighty_percent_dod_is_fifty_percent_more_cycles() {
        // Paper: "The lower DoD of 80% increases battery lifespan and the
        // number of (dis)charge cycles by 50%."
        assert!((cycle_life(0.8) / cycle_life(1.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn interpolation_is_monotone_decreasing_in_dod() {
        let mut prev = f64::INFINITY;
        let mut dod = 0.5;
        while dod <= 1.0 {
            let c = cycle_life(dod);
            assert!(c <= prev + 1e-9, "cycle life must fall as DoD deepens");
            prev = c;
            dod += 0.01;
        }
    }

    #[test]
    fn shallow_dod_clamps_to_deepest_anchor() {
        assert_eq!(cycle_life(0.3), 10_000.0);
        assert_eq!(cycle_life(0.6), 10_000.0);
    }

    #[test]
    #[should_panic(expected = "DoD")]
    fn rejects_zero_dod() {
        cycle_life(0.0);
    }

    #[test]
    fn daily_cycling_lifetimes_match_paper() {
        // One full cycle per day at 60% DoD → 10000/365 ≈ 27 years.
        let years = lifetime_years(0.6, 365.0);
        assert!((26.0..29.0).contains(&years), "{years}");
        // At 100% DoD → 3000/365 ≈ 8.2 years.
        let years = lifetime_years(1.0, 365.0);
        assert!((7.5..9.0).contains(&years), "{years}");
    }

    #[test]
    fn capped_lifetime() {
        assert_eq!(lifetime_years_capped(0.6, 365.0, 15.0), 15.0);
        assert!(lifetime_years_capped(1.0, 365.0, 15.0) < 15.0);
        assert_eq!(lifetime_years_capped(1.0, 0.0, 15.0), 15.0);
    }

    #[test]
    fn idle_battery_lives_forever_uncapped() {
        assert_eq!(lifetime_years(0.8, 0.0), f64::INFINITY);
    }
}
