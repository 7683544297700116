//! The parallel sweep engine must be a pure optimization: for every
//! strategy, `explore` (parallel) and `explore_serial` must return the
//! same designs, in the same order, with bitwise-identical scores.
//!
//! This holds by construction — each design point's evaluation is
//! independent and the parallel map puts every result back at its input
//! index — but the test pins it so a future reduction reorder (e.g. a
//! tree-shaped sum) cannot silently change published numbers.

use ce_core::{CarbonExplorer, DesignSpace, StrategyKind};
use ce_datacenter::Fleet;
use ce_grid::GridDataset;

fn explorer(state: &str) -> CarbonExplorer {
    let site = Fleet::meta_us()
        .site(state)
        .expect("state in Table 1")
        .clone();
    let grid = GridDataset::synthesize(site.ba(), 2020, 7);
    CarbonExplorer::new(site.demand_trace(2020, 7), grid)
}

fn space() -> DesignSpace {
    DesignSpace {
        solar: (0.0, 600.0, 4),
        wind: (0.0, 600.0, 4),
        battery: (0.0, 300.0, 3),
        extra_capacity: (0.0, 0.8, 2),
    }
}

#[test]
fn parallel_explore_is_bitwise_identical_to_serial() {
    let explorer = explorer("UT");
    let space = space();
    for strategy in StrategyKind::ALL {
        let serial = explorer.explore_serial(strategy, &space);
        let parallel = explorer.explore(strategy, &space);
        assert_eq!(serial.len(), parallel.len(), "{strategy}: point count");
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            // EvaluatedDesign is all f64s + enums; equality on f64 is
            // bitwise here (no NaNs can come out of a finite evaluation).
            assert_eq!(s, p, "{strategy}: point {i} diverged");
            assert_eq!(
                s.total_tons().to_bits(),
                p.total_tons().to_bits(),
                "{strategy}: point {i} total diverged in the last bit"
            );
        }
    }
}

#[test]
fn optimal_agrees_between_serial_and_parallel_sweeps() {
    let explorer = explorer("NC");
    let space = space();
    for strategy in StrategyKind::ALL {
        let via_serial = explorer
            .explore_serial(strategy, &space)
            .into_iter()
            .min_by(|a, b| a.total_tons().partial_cmp(&b.total_tons()).expect("finite"))
            .expect("non-empty space");
        let via_parallel = explorer.optimal(strategy, &space).expect("non-empty space");
        assert_eq!(via_serial, via_parallel, "{strategy}");
    }
}

#[test]
fn repeated_parallel_sweeps_are_stable() {
    // Thread scheduling must not leak into results: two parallel runs of
    // the same sweep are identical.
    let explorer = explorer("TX");
    let space = space();
    let first = explorer.explore(StrategyKind::RenewablesBatteryCas, &space);
    let second = explorer.explore(StrategyKind::RenewablesBatteryCas, &space);
    assert_eq!(first, second);
}
