//! The C/L/C battery model (Kazhamiaka et al. 2019).
//!
//! C/L/C stands for the three phenomena the model captures:
//!
//! - **C**apacity limits: energy content is confined to
//!   `[(1 - DoD) · B, B]` for nameplate capacity `B`;
//! - **L**imits on applied power: charging and discharging power are capped
//!   at a C-rate — a fixed multiple of capacity per hour (the paper uses
//!   1C: full charge or discharge in one hour, matching hourly grid data);
//! - **C**onversion losses: one-way charge/discharge efficiencies, so the
//!   round-trip efficiency is `eta_c · eta_d`.

use crate::api::BatteryModel;
use serde::{Deserialize, Serialize};

/// Parameter set for a [`ClcBattery`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClcParams {
    /// Nameplate energy capacity, MWh.
    pub capacity_mwh: f64,
    /// One-way charging efficiency in `(0, 1]`.
    pub charge_efficiency: f64,
    /// One-way discharging efficiency in `(0, 1]`.
    pub discharge_efficiency: f64,
    /// Maximum charging C-rate (fraction of capacity per hour; 1.0 = 1C).
    pub charge_c_rate: f64,
    /// Maximum discharging C-rate.
    pub discharge_c_rate: f64,
    /// Depth of discharge in `(0, 1]`: the usable fraction of capacity.
    pub depth_of_discharge: f64,
}

impl ClcParams {
    /// LFP (Lithium Iron Phosphate) cell parameters: ~95.5% round-trip
    /// efficiency, 1C charge/discharge (paper §5.1), configurable DoD.
    pub fn lfp(capacity_mwh: f64, depth_of_discharge: f64) -> Self {
        Self {
            capacity_mwh,
            charge_efficiency: 0.977,
            discharge_efficiency: 0.977,
            charge_c_rate: 1.0,
            discharge_c_rate: 1.0,
            depth_of_discharge,
        }
    }

    /// Sodium-ion cell parameters — the emerging lower-impact chemistry the
    /// paper mentions (§4.2): slightly lower efficiency and power density
    /// than LFP.
    pub fn sodium_ion(capacity_mwh: f64, depth_of_discharge: f64) -> Self {
        Self {
            capacity_mwh,
            charge_efficiency: 0.96,
            discharge_efficiency: 0.96,
            charge_c_rate: 0.8,
            discharge_c_rate: 0.8,
            depth_of_discharge,
        }
    }

    /// Checks every field against its documented range, returning the
    /// first violation as a human-readable message.
    // Negated comparisons are deliberate: NaN fails every range test.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.capacity_mwh >= 0.0) {
            return Err("capacity must be non-negative");
        }
        if !(self.charge_efficiency > 0.0 && self.charge_efficiency <= 1.0) {
            return Err("charge efficiency must be in (0, 1]");
        }
        if !(self.discharge_efficiency > 0.0 && self.discharge_efficiency <= 1.0) {
            return Err("discharge efficiency must be in (0, 1]");
        }
        if !(self.charge_c_rate > 0.0) {
            return Err("charge C-rate must be positive");
        }
        if !(self.discharge_c_rate > 0.0) {
            return Err("discharge C-rate must be positive");
        }
        if !(self.depth_of_discharge > 0.0 && self.depth_of_discharge <= 1.0) {
            return Err("depth of discharge must be in (0, 1]");
        }
        Ok(())
    }
}

/// A stateful battery following the C/L/C model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClcBattery {
    params: ClcParams,
    soc_mwh: f64,
}

impl ClcBattery {
    /// Creates a battery from explicit parameters, initially at the DoD
    /// floor (i.e. "empty" from the dispatcher's point of view).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range (see [`ClcParams`] fields).
    pub fn new(params: ClcParams) -> Self {
        if let Err(msg) = params.check() {
            panic!("invalid ClcParams: {msg}");
        }
        let min = params.capacity_mwh * (1.0 - params.depth_of_discharge);
        Self {
            params,
            soc_mwh: min,
        }
    }

    /// Convenience constructor for the LFP preset.
    ///
    /// # Panics
    ///
    /// Panics if `depth_of_discharge` is outside `(0, 1]` or capacity is
    /// negative.
    pub fn lfp(capacity_mwh: f64, depth_of_discharge: f64) -> Self {
        Self::new(ClcParams::lfp(capacity_mwh, depth_of_discharge))
    }

    /// Convenience constructor for the sodium-ion preset.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ClcBattery::lfp`].
    pub fn sodium_ion(capacity_mwh: f64, depth_of_discharge: f64) -> Self {
        Self::new(ClcParams::sodium_ion(capacity_mwh, depth_of_discharge))
    }
}

impl BatteryModel for ClcBattery {
    #[inline]
    fn capacity_mwh(&self) -> f64 {
        self.params.capacity_mwh
    }

    #[inline]
    fn soc_mwh(&self) -> f64 {
        self.soc_mwh
    }

    #[inline]
    fn min_soc_mwh(&self) -> f64 {
        self.params.capacity_mwh * (1.0 - self.params.depth_of_discharge)
    }

    #[inline]
    fn charge(&mut self, power_mw: f64) -> f64 {
        // ce:allow(float-eq, reason = "a zero-capacity battery is an exact sentinel (the no-battery strategy arm), not a computed value")
        if power_mw <= 0.0 || self.params.capacity_mwh == 0.0 {
            return 0.0;
        }
        // Power limit (C-rate), then headroom limit accounting for the
        // charge efficiency: drawing E from the source stores eta_c * E.
        let rate_cap = self.params.charge_c_rate * self.params.capacity_mwh;
        let headroom = self.params.capacity_mwh - self.soc_mwh;
        if headroom <= 0.0 {
            // Pegged full: the general path would compute
            // `min(power, rate_cap, 0.0) = 0.0` and leave the state
            // untouched. Returning early skips the division below — the
            // dominant latency on the state-of-charge dependency chain in
            // year-long dispatch loops, where full batteries are the
            // common case during surplus seasons.
            return 0.0;
        }
        let draw_cap = headroom / self.params.charge_efficiency;
        let accepted = power_mw.min(rate_cap).min(draw_cap);
        self.soc_mwh += accepted * self.params.charge_efficiency;
        // Guard against fp drift.
        self.soc_mwh = self.soc_mwh.min(self.params.capacity_mwh);
        accepted
    }

    #[inline]
    fn discharge(&mut self, power_mw: f64) -> f64 {
        // ce:allow(float-eq, reason = "a zero-capacity battery is an exact sentinel (the no-battery strategy arm), not a computed value")
        if power_mw <= 0.0 || self.params.capacity_mwh == 0.0 {
            return 0.0;
        }
        // Delivering E to the load drains E / eta_d of content.
        let rate_cap = self.params.discharge_c_rate * self.params.capacity_mwh;
        let available = (self.soc_mwh - self.min_soc_mwh()).max(0.0);
        if available <= 0.0 {
            // Pegged empty: the general path delivers exactly 0.0 and
            // leaves the state untouched; returning early skips the
            // `delivered / efficiency` division, the common case during
            // sustained deficit streaks.
            return 0.0;
        }
        let deliver_cap = available * self.params.discharge_efficiency;
        let delivered = power_mw.min(rate_cap).min(deliver_cap);
        self.soc_mwh -= delivered / self.params.discharge_efficiency;
        self.soc_mwh = self.soc_mwh.max(self.min_soc_mwh());
        delivered
    }

    fn reset(&mut self, fraction: f64) {
        let target = self.params.capacity_mwh * fraction.clamp(0.0, 1.0);
        self.soc_mwh = target.clamp(self.min_soc_mwh(), self.params.capacity_mwh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_respects_efficiency() {
        let mut b = ClcBattery::lfp(100.0, 1.0);
        let accepted = b.charge(10.0);
        assert_eq!(accepted, 10.0);
        assert!((b.soc_mwh() - 10.0 * 0.977).abs() < 1e-12);
    }

    #[test]
    fn discharging_respects_efficiency() {
        let mut b = ClcBattery::lfp(100.0, 1.0);
        b.reset(1.0);
        let delivered = b.discharge(10.0);
        assert_eq!(delivered, 10.0);
        assert!((b.soc_mwh() - (100.0 - 10.0 / 0.977)).abs() < 1e-9);
    }

    #[test]
    fn round_trip_efficiency_is_product_of_one_way() {
        let mut b = ClcBattery::lfp(1000.0, 1.0);
        let put_in = b.charge(100.0);
        let mut got_out = 0.0;
        loop {
            let d = b.discharge(1000.0);
            if d <= 0.0 {
                break;
            }
            got_out += d;
        }
        let round_trip = got_out / put_in;
        assert!((round_trip - 0.977 * 0.977).abs() < 1e-9, "{round_trip}");
    }

    #[test]
    fn c_rate_limits_power() {
        // 1C battery of 50 MWh: at most 50 MW in or out per hour.
        let mut b = ClcBattery::lfp(50.0, 1.0);
        assert_eq!(b.charge(200.0), 50.0);
        b.reset(1.0);
        // Delivered power is content-limited by the discharge efficiency
        // even at the C-rate cap: 50 MWh of content yields 50 * eta_d MW.
        assert!((b.discharge(200.0) - 50.0 * 0.977).abs() < 1e-9);
        // Sodium-ion preset is 0.8C.
        let mut na = ClcBattery::sodium_ion(50.0, 1.0);
        assert_eq!(na.charge(200.0), 40.0);
    }

    #[test]
    fn dod_floor_is_enforced() {
        let mut b = ClcBattery::lfp(100.0, 0.8);
        assert!((b.min_soc_mwh() - 20.0).abs() < 1e-9);
        assert!((b.usable_capacity_mwh() - 80.0).abs() < 1e-9);
        // Fresh battery starts at the floor: nothing to discharge.
        assert_eq!(b.discharge(10.0), 0.0);
        b.reset(1.0);
        let mut total = 0.0;
        loop {
            let d = b.discharge(100.0);
            if d <= 0.0 {
                break;
            }
            total += d;
        }
        // Only the usable 80 MWh (times discharge efficiency) comes out.
        assert!((total - 80.0 * 0.977).abs() < 1e-9);
        assert!((b.soc_mwh() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn soc_never_exceeds_capacity() {
        let mut b = ClcBattery::lfp(10.0, 1.0);
        for _ in 0..100 {
            b.charge(10.0);
        }
        assert!(b.soc_mwh() <= 10.0);
        assert!(b.charge(1.0) < 1e-9);
    }

    #[test]
    fn reset_respects_dod_floor() {
        let mut b = ClcBattery::lfp(100.0, 0.8);
        b.reset(0.0);
        assert!((b.soc_mwh() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_battery_is_inert() {
        let mut b = ClcBattery::lfp(0.0, 1.0);
        assert_eq!(b.charge(5.0), 0.0);
        assert_eq!(b.discharge(5.0), 0.0);
        assert_eq!(b.soc_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "depth of discharge")]
    fn rejects_zero_dod() {
        ClcBattery::lfp(10.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "charge efficiency")]
    fn rejects_bad_efficiency() {
        ClcBattery::new(ClcParams {
            charge_efficiency: 1.5,
            ..ClcParams::lfp(10.0, 1.0)
        });
    }

    #[test]
    fn trait_object_usable() {
        // The "simple API" requirement: dispatch code can hold any model.
        let mut models: Vec<Box<dyn BatteryModel>> = vec![
            Box::new(ClcBattery::lfp(10.0, 1.0)),
            Box::new(ClcBattery::sodium_ion(10.0, 0.8)),
            Box::new(crate::api::IdealBattery::new(10.0)),
        ];
        for m in &mut models {
            m.reset(1.0);
            assert!(m.discharge(1.0) > 0.0);
        }
    }
}
