//! Workload SLO tiers and flexibility (paper Figure 10 and §3.1/§4.3).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Completion-time SLO tiers for data-processing workloads (paper Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SloTier {
    /// SLO: completion within ±1 hour of the requested time.
    Tier1,
    /// SLO: ±2 hours.
    Tier2,
    /// SLO: ±4 hours.
    Tier3,
    /// SLO: completion within the day (24-hour window).
    Tier4,
    /// No SLO at all — fully deferrable.
    Tier5,
}

impl SloTier {
    /// All tiers in order.
    pub const ALL: [SloTier; 5] = [
        SloTier::Tier1,
        SloTier::Tier2,
        SloTier::Tier3,
        SloTier::Tier4,
        SloTier::Tier5,
    ];

    /// The scheduling window in hours a job of this tier may shift by
    /// (`None` = unbounded).
    pub fn shift_window_hours(&self) -> Option<u32> {
        match self {
            SloTier::Tier1 => Some(1),
            SloTier::Tier2 => Some(2),
            SloTier::Tier3 => Some(4),
            SloTier::Tier4 => Some(24),
            SloTier::Tier5 => None,
        }
    }

    /// Fraction of Meta's data-processing workloads in this tier
    /// (paper Figure 10).
    pub fn meta_fraction(&self) -> f64 {
        match self {
            SloTier::Tier1 => 0.088,
            SloTier::Tier2 => 0.038,
            SloTier::Tier3 => 0.105,
            SloTier::Tier4 => 0.712,
            SloTier::Tier5 => 0.057,
        }
    }
}

impl fmt::Display for SloTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, slo) = match self {
            SloTier::Tier1 => ("Tier 1", "SLO: +/- 1 hour"),
            SloTier::Tier2 => ("Tier 2", "SLO: +/- 2 hours"),
            SloTier::Tier3 => ("Tier 3", "SLO: +/- 4 hours"),
            SloTier::Tier4 => ("Tier 4", "SLO: Daily"),
            SloTier::Tier5 => ("Tier 5", "No SLO"),
        };
        write!(f, "{name} ({slo})")
    }
}

/// The flexibility composition of a datacenter's workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    /// Fraction of total fleet compute that is data-processing /
    /// delay-tolerant work at all (paper: ~7.5% at Meta is offline data
    /// processing; Borg: ~40% of jobs have 24-hour SLOs).
    flexible_fraction: f64,
}

impl WorkloadMix {
    /// The paper's headline evaluation assumption: 40% of workloads are
    /// delay-tolerant with daily SLOs (from the Borg analysis, §5.2).
    pub fn borg_default() -> Self {
        Self::with_flexible_fraction(0.40)
    }

    /// A mix with the given flexible fraction of the fleet.
    pub fn with_flexible_fraction(flexible_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flexible_fraction),
            "flexible fraction must be in [0, 1]"
        );
        Self { flexible_fraction }
    }

    /// Fraction of total compute that can shift at all.
    pub fn flexible_fraction(&self) -> f64 {
        self.flexible_fraction
    }
}

impl Default for WorkloadMix {
    fn default() -> Self {
        Self::borg_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_10_fractions_sum_to_one() {
        let total: f64 = SloTier::ALL.iter().map(|t| t.meta_fraction()).sum();
        assert!((total - 1.0).abs() < 1e-9, "tier fractions sum to {total}");
    }

    #[test]
    fn tier4_dominates_as_in_figure_10() {
        assert!(SloTier::Tier4.meta_fraction() > 0.7);
        for t in SloTier::ALL {
            if t != SloTier::Tier4 {
                assert!(t.meta_fraction() < SloTier::Tier4.meta_fraction());
            }
        }
    }

    #[test]
    fn majority_of_flexible_work_has_slos_over_four_hours() {
        // Paper §4.3: ~87.4% of data-processing workloads have SLOs > 4h.
        let over_4h: f64 = [SloTier::Tier4, SloTier::Tier5]
            .iter()
            .map(|t| t.meta_fraction())
            .sum();
        assert!((0.70..0.90).contains(&over_4h), "{over_4h}");
    }

    #[test]
    fn shift_windows_are_ordered() {
        assert_eq!(SloTier::Tier1.shift_window_hours(), Some(1));
        assert_eq!(SloTier::Tier4.shift_window_hours(), Some(24));
        assert_eq!(SloTier::Tier5.shift_window_hours(), None);
    }

    #[test]
    fn mix_fraction_accounting() {
        let mix = WorkloadMix::borg_default();
        assert_eq!(mix.flexible_fraction(), 0.40);
    }

    #[test]
    #[should_panic(expected = "flexible fraction")]
    fn rejects_out_of_range_fraction() {
        WorkloadMix::with_flexible_fraction(1.5);
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(SloTier::Tier4.to_string(), "Tier 4 (SLO: Daily)");
        assert_eq!(SloTier::Tier5.to_string(), "Tier 5 (No SLO)");
    }
}
