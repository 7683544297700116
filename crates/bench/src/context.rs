//! Shared experiment context: the canonical year, seed, fleet, and cached
//! grid datasets.

use ce_core::CarbonExplorer;
use ce_datacenter::{DataCenterSite, Fleet};
use ce_grid::{BalancingAuthority, GridDataset};
use std::collections::BTreeMap;

/// The canonical data year used throughout the paper's evaluation.
pub const YEAR: i32 = 2020;
/// The canonical synthesis seed; every artifact is reproducible from it.
pub const SEED: u64 = 7;

/// How exhaustively to sweep design spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Coarse grids — seconds per experiment; used by tests.
    Fast,
    /// The full grids behind the committed EXPERIMENTS.md numbers.
    Full,
}

impl Fidelity {
    /// Steps per renewable axis.
    pub fn renewable_steps(&self) -> usize {
        match self {
            Fidelity::Fast => 4,
            Fidelity::Full => 7,
        }
    }

    /// Steps on the battery axis.
    pub fn battery_steps(&self) -> usize {
        match self {
            Fidelity::Fast => 3,
            Fidelity::Full => 7,
        }
    }

    /// Steps on the extra-capacity axis.
    pub fn capacity_steps(&self) -> usize {
        match self {
            Fidelity::Fast => 2,
            Fidelity::Full => 4,
        }
    }

    /// Local-refinement rounds after the coarse sweep.
    pub fn refine_rounds(&self) -> usize {
        match self {
            Fidelity::Fast => 1,
            Fidelity::Full => 2,
        }
    }
}

/// Lazily caches grid datasets and demand traces so experiments that share
/// a region don't re-synthesize.
#[derive(Debug)]
pub struct Context {
    fleet: Fleet,
    grids: BTreeMap<BalancingAuthority, GridDataset>,
    /// The sweep resolution experiments should use.
    pub fidelity: Fidelity,
}

impl Context {
    /// A context at the given fidelity.
    pub fn new(fidelity: Fidelity) -> Self {
        Self {
            fleet: Fleet::meta_us(),
            grids: BTreeMap::new(),
            fidelity,
        }
    }

    /// The Meta US fleet (Table 1).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The (cached) synthetic grid year for `ba`.
    pub fn grid(&mut self, ba: BalancingAuthority) -> &GridDataset {
        self.grids
            .entry(ba)
            .or_insert_with(|| GridDataset::synthesize(ba, YEAR, SEED))
    }

    /// The site for a state code.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not in Table 1.
    pub fn site(&self, state: &str) -> DataCenterSite {
        self.fleet
            .site(state)
            .unwrap_or_else(|| panic!("state {state} not in Table 1"))
            .clone()
    }

    /// A fully wired explorer for a site (paper defaults: 40% flexible,
    /// 100% DoD).
    pub fn explorer(&mut self, state: &str) -> CarbonExplorer {
        let site = self.site(state);
        let grid = self.grid(site.ba()).clone();
        CarbonExplorer::new(site.demand_trace(YEAR, SEED), grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_cached() {
        let mut ctx = Context::new(Fidelity::Fast);
        let a = ctx.grid(BalancingAuthority::PACE).clone();
        let b = ctx.grid(BalancingAuthority::PACE).clone();
        assert_eq!(a, b);
    }

    #[test]
    fn explorer_wires_site_to_its_ba() {
        let mut ctx = Context::new(Fidelity::Fast);
        let explorer = ctx.explorer("UT");
        assert_eq!(
            explorer.grid(),
            &GridDataset::synthesize(BalancingAuthority::PACE, YEAR, SEED)
        );
        assert!((explorer.demand().mean() - 19.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "not in Table 1")]
    fn unknown_state_panics() {
        Context::new(Fidelity::Fast).site("ZZ");
    }

    #[test]
    fn fidelity_levels_differ() {
        assert!(Fidelity::Full.renewable_steps() > Fidelity::Fast.renewable_steps());
        assert!(Fidelity::Full.battery_steps() > Fidelity::Fast.battery_steps());
        assert!(Fidelity::Full.capacity_steps() > Fidelity::Fast.capacity_steps());
    }
}
