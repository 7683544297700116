//! Design points, design spaces, and the four solution strategies.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One configuration in Carbon Explorer's design space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Solar investment, MW.
    pub solar_mw: f64,
    /// Wind investment, MW.
    pub wind_mw: f64,
    /// Battery nameplate capacity, MWh.
    pub battery_mwh: f64,
    /// Extra server capacity for demand response, as a fraction of the
    /// datacenter's existing peak (0.5 = 50% more servers).
    pub extra_capacity_fraction: f64,
}

impl DesignPoint {
    /// A design with renewables only.
    pub fn renewables(solar_mw: f64, wind_mw: f64) -> Self {
        Self {
            solar_mw,
            wind_mw,
            battery_mwh: 0.0,
            extra_capacity_fraction: 0.0,
        }
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solar {:.0} MW, wind {:.0} MW, battery {:.0} MWh, +{:.0}% servers",
            self.solar_mw,
            self.wind_mw,
            self.battery_mwh,
            self.extra_capacity_fraction * 100.0
        )
    }
}

/// The four solutions the paper evaluates (§5.2, Figures 14-15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Wind/solar investment alone (the Net-Zero state of the art).
    RenewablesOnly,
    /// Renewables plus on-site battery storage.
    RenewablesBattery,
    /// Renewables plus carbon-aware scheduling with extra servers.
    RenewablesCas,
    /// Renewables, battery, and carbon-aware scheduling combined.
    RenewablesBatteryCas,
}

impl StrategyKind {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::RenewablesOnly,
        StrategyKind::RenewablesBattery,
        StrategyKind::RenewablesCas,
        StrategyKind::RenewablesBatteryCas,
    ];

    /// `true` if this strategy deploys a battery.
    pub fn uses_battery(&self) -> bool {
        matches!(
            self,
            StrategyKind::RenewablesBattery | StrategyKind::RenewablesBatteryCas
        )
    }

    /// `true` if this strategy schedules workloads.
    pub fn uses_cas(&self) -> bool {
        matches!(
            self,
            StrategyKind::RenewablesCas | StrategyKind::RenewablesBatteryCas
        )
    }

    /// Short label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::RenewablesOnly => "Renewables Only",
            StrategyKind::RenewablesBattery => "Renewables + Battery",
            StrategyKind::RenewablesCas => "Renewables + CAS",
            StrategyKind::RenewablesBatteryCas => "Renewables + Battery + CAS",
        }
    }

    /// The stable, machine-readable identifier of this strategy — the wire
    /// name used by `ce-serve`'s JSON schema and by scenario cache keys.
    /// Guaranteed never to change spelling; round-trips through
    /// [`StrategyKind::from_canonical_key`].
    pub fn canonical_key(&self) -> &'static str {
        match self {
            StrategyKind::RenewablesOnly => "renewables_only",
            StrategyKind::RenewablesBattery => "renewables_battery",
            StrategyKind::RenewablesCas => "renewables_cas",
            StrategyKind::RenewablesBatteryCas => "renewables_battery_cas",
        }
    }

    /// Parses a [`StrategyKind::canonical_key`] back into a strategy.
    pub fn from_canonical_key(key: &str) -> Option<StrategyKind> {
        StrategyKind::ALL
            .into_iter()
            .find(|s| s.canonical_key() == key)
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An axis-aligned grid over the design space. Bounds are inclusive and
/// each axis is swept with `steps` evenly spaced values (a single step
/// pins the axis at its minimum).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// (min, max, steps) for solar MW.
    pub solar: (f64, f64, usize),
    /// (min, max, steps) for wind MW.
    pub wind: (f64, f64, usize),
    /// (min, max, steps) for battery MWh.
    pub battery: (f64, f64, usize),
    /// (min, max, steps) for extra server capacity fraction.
    pub extra_capacity: (f64, f64, usize),
}

impl DesignSpace {
    /// Restricts the space to the axes a strategy actually uses: the
    /// battery axis collapses to zero for strategies without storage, the
    /// capacity axis for strategies without CAS. This keeps exhaustive
    /// sweeps from wasting evaluations on inert dimensions.
    pub fn restricted_to(&self, strategy: StrategyKind) -> Self {
        let mut space = self.clone();
        if !strategy.uses_battery() {
            space.battery = (0.0, 0.0, 1);
        }
        if !strategy.uses_cas() {
            space.extra_capacity = (0.0, 0.0, 1);
        }
        space
    }

    /// Total number of design points in the grid.
    pub fn len(&self) -> usize {
        axis_len(self.solar)
            * axis_len(self.wind)
            * axis_len(self.battery)
            * axis_len(self.extra_capacity)
    }

    /// `true` if the space contains no points (any axis has zero steps).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over every design point in the grid.
    pub fn iter(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        let solar = axis_values(self.solar);
        let wind = axis_values(self.wind);
        let battery = axis_values(self.battery);
        let extra = axis_values(self.extra_capacity);
        solar.into_iter().flat_map(move |s| {
            let wind = wind.clone();
            let battery = battery.clone();
            let extra = extra.clone();
            wind.into_iter().flat_map(move |w| {
                let battery = battery.clone();
                let extra = extra.clone();
                battery.into_iter().flat_map(move |b| {
                    let extra = extra.clone();
                    extra.into_iter().map(move |e| DesignPoint {
                        solar_mw: s,
                        wind_mw: w,
                        battery_mwh: b,
                        extra_capacity_fraction: e,
                    })
                })
            })
        })
    }
}

fn axis_len((_, _, steps): (f64, f64, usize)) -> usize {
    steps
}

/// The concrete values an `(min, max, steps)` axis sweeps, in iteration
/// order. Shared with the supply-major factorized traversal in
/// [`crate::explore`], which regroups these same values without changing
/// any of them.
pub(crate) fn axis_values((min, max, steps): (f64, f64, usize)) -> Vec<f64> {
    match steps {
        0 => Vec::new(),
        1 => vec![min],
        _ => (0..steps)
            .map(|i| min + (max - min) * i as f64 / (steps - 1) as f64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_classification() {
        use StrategyKind::*;
        assert!(!RenewablesOnly.uses_battery() && !RenewablesOnly.uses_cas());
        assert!(RenewablesBattery.uses_battery() && !RenewablesBattery.uses_cas());
        assert!(!RenewablesCas.uses_battery() && RenewablesCas.uses_cas());
        assert!(RenewablesBatteryCas.uses_battery() && RenewablesBatteryCas.uses_cas());
        assert_eq!(StrategyKind::ALL.len(), 4);
    }

    #[test]
    fn design_point_helpers() {
        let d = DesignPoint::renewables(100.0, 50.0);
        assert_eq!((d.solar_mw, d.wind_mw), (100.0, 50.0));
        assert_eq!(d.battery_mwh, 0.0);
        assert!(d.to_string().contains("solar 100 MW"));
    }

    #[test]
    fn space_len_matches_iteration() {
        let space = DesignSpace {
            solar: (0.0, 100.0, 3),
            wind: (0.0, 100.0, 4),
            battery: (0.0, 50.0, 2),
            extra_capacity: (0.0, 1.0, 2),
        };
        assert_eq!(space.len(), 48);
        assert_eq!(space.iter().count(), 48);
        assert!(!space.is_empty());
    }

    #[test]
    fn axis_endpoints_are_included() {
        let space = DesignSpace {
            solar: (10.0, 90.0, 5),
            wind: (0.0, 0.0, 1),
            battery: (0.0, 0.0, 1),
            extra_capacity: (0.0, 0.0, 1),
        };
        let solars: Vec<f64> = space.iter().map(|d| d.solar_mw).collect();
        assert_eq!(solars, vec![10.0, 30.0, 50.0, 70.0, 90.0]);
    }

    /// A space with every axis non-trivial.
    fn full_space() -> DesignSpace {
        DesignSpace {
            solar: (0.0, 600.0, 7),
            wind: (0.0, 600.0, 7),
            battery: (0.0, 480.0, 7),
            extra_capacity: (0.0, 1.0, 5),
        }
    }

    #[test]
    fn restriction_collapses_inert_axes() {
        let space = full_space();
        let ren = space.restricted_to(StrategyKind::RenewablesOnly);
        assert_eq!(ren.battery, (0.0, 0.0, 1));
        assert_eq!(ren.extra_capacity, (0.0, 0.0, 1));
        let bat = space.restricted_to(StrategyKind::RenewablesBattery);
        assert_ne!(bat.battery, (0.0, 0.0, 1));
        assert_eq!(bat.extra_capacity, (0.0, 0.0, 1));
        let all = space.restricted_to(StrategyKind::RenewablesBatteryCas);
        assert_eq!(all, space);
    }

    #[test]
    fn zero_step_axis_empties_the_space() {
        let mut space = full_space();
        space.wind = (0.0, 10.0, 0);
        assert!(space.is_empty());
        assert_eq!(space.iter().count(), 0);
    }

    #[test]
    fn canonical_keys_round_trip() {
        for s in StrategyKind::ALL {
            assert_eq!(StrategyKind::from_canonical_key(s.canonical_key()), Some(s));
        }
        assert_eq!(StrategyKind::from_canonical_key("Renewables Only"), None);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(StrategyKind::RenewablesOnly.label(), "Renewables Only");
        assert_eq!(
            StrategyKind::RenewablesBatteryCas.to_string(),
            "Renewables + Battery + CAS"
        );
    }
}
