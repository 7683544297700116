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
        if power_mw <= 0.0 || self.pegged_full() {
            return 0.0;
        }
        let efficiency = self.params.charge_efficiency;
        // The request, capped at the C-rate, does not depend on the state
        // of charge, so in the common hour `want · eta_c` is computed off
        // the state-of-charge dependency chain.
        let capacity = self.params.capacity_mwh;
        let want = power_mw.min(self.params.charge_c_rate * capacity);
        let headroom = capacity - self.soc_mwh;
        // Headroom limit: drawing E from the source stores eta_c · E. It
        // binds only in the hour the battery fills, so it is picked on a
        // predicted branch, which keeps the division off the chain, rather
        // than by `f64::min`, which would wait for it every hour. The
        // branch returns what `want.min(draw_cap)` returns: `want` is never
        // NaN (checked parameters make the C-rate cap a non-NaN product), a
        // NaN `draw_cap` loses the test, and any other `draw_cap` is `> 0`
        // here, so no tie between zeros of either sign arises.
        let draw_cap = headroom / efficiency;
        let accepted = if draw_cap < want {
            std::hint::cold_path();
            draw_cap
        } else {
            want
        };
        // Guard against fp drift: the cap, picked on a predicted branch
        // like the headroom limit, so the chain from one hour to the next
        // is the add alone. It returns what `soc.min(capacity)` returns: a
        // NaN `soc` fails the test and gets `capacity`, which is never NaN
        // and `> 0` here, so no tie between zeros of either sign arises.
        let soc = self.soc_mwh + accepted * efficiency;
        self.soc_mwh = if soc <= capacity {
            soc
        } else {
            std::hint::cold_path();
            capacity
        };
        accepted
    }

    #[inline]
    fn discharge(&mut self, power_mw: f64) -> f64 {
        if power_mw <= 0.0 || self.pegged_empty() {
            return 0.0;
        }
        let efficiency = self.params.discharge_efficiency;
        // As in `charge`: the C-rate-capped request, and in the common
        // hour its drain `want / eta_d`, stay off the state-of-charge chain.
        let want = power_mw.min(self.params.discharge_c_rate * self.params.capacity_mwh);
        let min_soc = self.min_soc_mwh();
        // `> 0` (not pegged empty), so clamping it at 0 would change
        // nothing.
        let available = self.soc_mwh - min_soc;
        // Content limit: delivering E to the load drains E / eta_d. It
        // binds only in the hour the battery empties; picked on a branch
        // for the reasons given in `charge` (here `deliver_cap >= +0.0`,
        // and a tie between two +0.0s returns the same bits either way).
        let deliver_cap = available * efficiency;
        let delivered = if deliver_cap < want {
            std::hint::cold_path();
            deliver_cap
        } else {
            want
        };
        // The floor, on a predicted branch as in `charge`. It returns what
        // `soc.max(min_soc)` returns: a NaN floor reads as pegged empty,
        // so `min_soc` is not NaN here; the state before the step is above
        // the floor, which is `>= +0.0`, so `soc` is never `-0.0`; and a
        // tie of two `+0.0`s returns `+0.0` either way.
        let soc = self.soc_mwh - delivered / efficiency;
        self.soc_mwh = if soc >= min_soc {
            soc
        } else {
            std::hint::cold_path();
            min_soc
        };
        delivered
    }

    #[inline]
    fn reset(&mut self, fraction: f64) {
        let target = self.params.capacity_mwh * fraction.clamp(0.0, 1.0);
        self.soc_mwh = target.clamp(self.min_soc_mwh(), self.params.capacity_mwh);
    }

    /// No capacity, or no headroom: [`ClcBattery::charge`] returns `+0.0`
    /// here before it reads the request. A NaN state of charge has NaN
    /// headroom, which fails `<= 0`: not pegged full.
    #[inline]
    fn pegged_full(&self) -> bool {
        let capacity = self.params.capacity_mwh;
        // ce:allow(float-eq, reason = "a zero-capacity battery is an exact sentinel (the no-battery strategy arm), not a computed value")
        capacity == 0.0 || capacity - self.soc_mwh <= 0.0
    }

    /// No capacity, or no content above the DoD floor:
    /// [`ClcBattery::discharge`] returns `+0.0` here before it reads the
    /// request. A NaN state of charge clamps its content to `0.0`: pegged
    /// empty.
    #[inline]
    fn pegged_empty(&self) -> bool {
        // ce:allow(float-eq, reason = "a zero-capacity battery is an exact sentinel (the no-battery strategy arm), not a computed value")
        self.params.capacity_mwh == 0.0 || (self.soc_mwh - self.min_soc_mwh()).max(0.0) <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The steps with both limits taken by `f64::min`, the plainest form
    /// of the model: the oracle that [`ClcBattery::charge`] and
    /// [`ClcBattery::discharge`], which pick the state limit on a branch,
    /// must match bit for bit.
    impl ClcBattery {
        fn reference_charge(&mut self, power_mw: f64) -> f64 {
            if power_mw <= 0.0 || self.params.capacity_mwh == 0.0 {
                return 0.0;
            }
            // Power limit (C-rate), then headroom limit accounting for the
            // charge efficiency: drawing E from the source stores eta_c * E.
            let rate_cap = self.params.charge_c_rate * self.params.capacity_mwh;
            let headroom = self.params.capacity_mwh - self.soc_mwh;
            if headroom <= 0.0 {
                return 0.0;
            }
            let draw_cap = headroom / self.params.charge_efficiency;
            let accepted = power_mw.min(rate_cap).min(draw_cap);
            self.soc_mwh += accepted * self.params.charge_efficiency;
            // Guard against fp drift.
            self.soc_mwh = self.soc_mwh.min(self.params.capacity_mwh);
            accepted
        }

        fn reference_discharge(&mut self, power_mw: f64) -> f64 {
            if power_mw <= 0.0 || self.params.capacity_mwh == 0.0 {
                return 0.0;
            }
            // Delivering E to the load drains E / eta_d of content.
            let rate_cap = self.params.discharge_c_rate * self.params.capacity_mwh;
            let available = (self.soc_mwh - self.min_soc_mwh()).max(0.0);
            if available <= 0.0 {
                return 0.0;
            }
            let deliver_cap = available * self.params.discharge_efficiency;
            let delivered = power_mw.min(rate_cap).min(deliver_cap);
            self.soc_mwh -= delivered / self.params.discharge_efficiency;
            self.soc_mwh = self.soc_mwh.max(self.min_soc_mwh());
            delivered
        }
    }

    /// Year-like runs reach the limit branch only in the hours a battery
    /// fills or empties, so this pins the cases where a branch and
    /// `f64::min` could part: NaN operands, ties, zeros of both signs,
    /// subnormals, infinities and the ulps around each limit. Where
    /// [`BatteryModel::pegged_full`] (or `pegged_empty`) reports a step as
    /// a no-op, the step must return `+0.0` and leave the state's bits as
    /// they were; a NaN state reads as pegged empty, not full.
    #[test]
    fn steps_match_the_min_reference_bitwise() {
        type Step = fn(&mut ClcBattery, f64) -> f64;
        type Pegged = fn(&ClcBattery) -> bool;
        let directions: [(&str, Pegged, Step, Step); 2] = [
            (
                "charge",
                ClcBattery::pegged_full,
                ClcBattery::charge,
                ClcBattery::reference_charge,
            ),
            (
                "discharge",
                ClcBattery::pegged_empty,
                ClcBattery::discharge,
                ClcBattery::reference_discharge,
            ),
        ];
        let presets: [fn(f64, f64) -> ClcParams; 2] = [ClcParams::lfp, ClcParams::sodium_ion];
        let mut cases = 0usize;
        for preset in presets {
            for capacity in [0.0, 1e-300, 30.0, 1e300] {
                for dod in [1.0, 0.6] {
                    let params = preset(capacity, dod);
                    let floor = ClcBattery::new(params).min_soc_mwh();
                    // At the floor and the cap, one ulp inside each, and
                    // NaN, which `reset(f64::NAN)` leaves behind.
                    let socs = [
                        floor,
                        floor.next_up(),
                        capacity.next_down(),
                        capacity,
                        f64::NAN,
                    ];
                    let mut requests =
                        vec![-0.0, 0.0, f64::from_bits(1), 1e300, f64::INFINITY, f64::NAN];
                    for rate_cap in [
                        params.charge_c_rate * capacity,
                        params.discharge_c_rate * capacity,
                    ] {
                        requests.extend([rate_cap.next_down(), rate_cap, rate_cap.next_up()]);
                    }
                    for soc_mwh in socs {
                        let battery = ClcBattery { params, soc_mwh };
                        if soc_mwh.is_nan() && capacity > 0.0 {
                            assert!(battery.pegged_empty());
                            assert!(!battery.pegged_full());
                        }
                        for &power in &requests {
                            for (name, pegged, step, reference) in directions {
                                let run = |step: Step| {
                                    let mut b = battery.clone();
                                    let out = step(&mut b, power);
                                    (out.to_bits(), b.soc_mwh.to_bits())
                                };
                                let stepped = run(step);
                                assert_eq!(
                                    stepped,
                                    run(reference),
                                    "{name}({power:e}) at SoC {soc_mwh:e} of {params:?}"
                                );
                                if pegged(&battery) {
                                    assert_eq!(
                                        stepped,
                                        (0.0f64.to_bits(), soc_mwh.to_bits()),
                                        "pegged {name}({power:e}) at SoC {soc_mwh:e} of {params:?}"
                                    );
                                }
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 4 * 2 * 5 * 12 * 2);
    }

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
