//! The modular battery API (paper §4.2) and the ideal-battery baseline.

/// A dispatchable energy-storage device stepped at hourly resolution.
///
/// All power figures are MW sustained over one hour (numerically equal to
/// MWh of energy). Implementations must uphold:
///
/// - `charge(p)` and `discharge(p)` return the power actually accepted /
///   delivered, never exceeding the request;
/// - state of charge stays within `[min_soc, capacity]` at all times;
/// - `discharge` returns energy *delivered to the load* (after any
///   conversion loss), `charge` accepts energy *drawn from the source*
///   (before any conversion loss).
pub trait BatteryModel {
    /// Nameplate energy capacity, MWh.
    fn capacity_mwh(&self) -> f64;

    /// Current stored energy content, MWh.
    fn soc_mwh(&self) -> f64;

    /// Minimum allowed energy content given the DoD policy, MWh.
    fn min_soc_mwh(&self) -> f64;

    /// Usable capacity under the DoD policy, MWh.
    fn usable_capacity_mwh(&self) -> f64 {
        self.capacity_mwh() - self.min_soc_mwh()
    }

    /// Requests to charge at `power_mw` for one hour; returns the power
    /// actually drawn from the source (limited by C-rate and headroom).
    fn charge(&mut self, power_mw: f64) -> f64;

    /// Requests to discharge at `power_mw` for one hour; returns the power
    /// actually delivered to the load (limited by C-rate and content).
    fn discharge(&mut self, power_mw: f64) -> f64;

    /// Resets the state of charge to `fraction` of capacity (clamped to the
    /// legal range).
    fn reset(&mut self, fraction: f64);

    /// Whether a charge is a no-op for every request: every
    /// [`BatteryModel::charge`] call would return `+0.0` and leave the
    /// state bitwise unchanged, until a discharge or a reset moves it. A
    /// battery pegged full answers `true`, and so does a zero-capacity
    /// one.
    ///
    /// The dispatch kernels skip the charges that this reports as no-ops,
    /// so an implementation must answer `true` only when the charge itself
    /// would change nothing. The default answers `false`: every surplus
    /// hour is stepped.
    fn pegged_full(&self) -> bool {
        false
    }

    /// [`BatteryModel::pegged_full`] for discharges: whether every
    /// [`BatteryModel::discharge`] call would return `+0.0` and leave the
    /// state bitwise unchanged, until a charge or a reset moves it. A
    /// battery pegged empty answers `true`, and so does a zero-capacity
    /// one. The default answers `false`.
    fn pegged_empty(&self) -> bool {
        false
    }

    /// State of charge as a fraction of nameplate capacity.
    fn soc_fraction(&self) -> f64 {
        if self.capacity_mwh() > 0.0 {
            self.soc_mwh() / self.capacity_mwh()
        } else {
            0.0
        }
    }
}

/// A lossless, rate-unlimited battery: the upper bound on what any storage
/// technology could deliver. Useful as a baseline to isolate how much of a
/// result comes from storage *capacity* versus storage *inefficiency*.
#[derive(Debug, Clone, PartialEq)]
pub struct IdealBattery {
    capacity_mwh: f64,
    soc_mwh: f64,
}

impl IdealBattery {
    /// Creates an ideal battery, initially empty.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mwh` is negative.
    pub fn new(capacity_mwh: f64) -> Self {
        assert!(capacity_mwh >= 0.0, "capacity must be non-negative");
        Self {
            capacity_mwh,
            soc_mwh: 0.0,
        }
    }
}

impl BatteryModel for IdealBattery {
    #[inline]
    fn capacity_mwh(&self) -> f64 {
        self.capacity_mwh
    }

    #[inline]
    fn soc_mwh(&self) -> f64 {
        self.soc_mwh
    }

    #[inline]
    fn min_soc_mwh(&self) -> f64 {
        0.0
    }

    #[inline]
    fn charge(&mut self, power_mw: f64) -> f64 {
        let accepted = power_mw.max(0.0).min(self.capacity_mwh - self.soc_mwh);
        self.soc_mwh += accepted;
        accepted
    }

    #[inline]
    fn discharge(&mut self, power_mw: f64) -> f64 {
        let delivered = power_mw.max(0.0).min(self.soc_mwh);
        self.soc_mwh -= delivered;
        delivered
    }

    fn reset(&mut self, fraction: f64) {
        self.soc_mwh = self.capacity_mwh * fraction.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_battery_roundtrips_losslessly() {
        let mut b = IdealBattery::new(10.0);
        assert_eq!(b.charge(6.0), 6.0);
        assert_eq!(b.soc_mwh(), 6.0);
        assert_eq!(b.discharge(6.0), 6.0);
        assert_eq!(b.soc_mwh(), 0.0);
    }

    #[test]
    fn ideal_battery_clamps_at_capacity_and_empty() {
        let mut b = IdealBattery::new(10.0);
        assert_eq!(b.charge(15.0), 10.0);
        assert_eq!(b.charge(1.0), 0.0);
        assert_eq!(b.discharge(25.0), 10.0);
        assert_eq!(b.discharge(1.0), 0.0);
    }

    #[test]
    fn negative_requests_are_ignored() {
        let mut b = IdealBattery::new(10.0);
        assert_eq!(b.charge(-5.0), 0.0);
        assert_eq!(b.discharge(-5.0), 0.0);
        assert_eq!(b.soc_mwh(), 0.0);
    }

    #[test]
    fn reset_clamps_fraction() {
        let mut b = IdealBattery::new(10.0);
        b.reset(0.5);
        assert_eq!(b.soc_mwh(), 5.0);
        b.reset(2.0);
        assert_eq!(b.soc_mwh(), 10.0);
        b.reset(-1.0);
        assert_eq!(b.soc_mwh(), 0.0);
    }

    #[test]
    fn soc_fraction_handles_zero_capacity() {
        let b = IdealBattery::new(0.0);
        assert_eq!(b.soc_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_capacity() {
        IdealBattery::new(-1.0);
    }
}
