//! `explore` deals its points to the lanes round-robin and builds a
//! group's supply when a lane first reaches it, so each lane count walks
//! the groups differently. Whatever the count, the sweep must equal
//! `explore_serial` bit for bit.

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

/// One test function on purpose: it sets the process-global `CE_THREADS`
/// variable, and a single `#[test]` means no concurrent test in this
/// binary sees a half-set value.
///
/// The space's groups cost very differently: one has no renewables (a
/// battery pegged empty all year) beside others at 30 × the site's
/// average power. Under renewables-only every group is a single point.
/// The lane counts are 1, 2, 3 and more lanes than points.
#[test]
fn explore_matches_the_serial_sweep_at_every_lane_count() {
    let explorer = explorer("UT");
    let avg = explorer.demand().mean();
    let space = DesignSpace {
        solar: (0.0, 30.0 * avg, 2),
        wind: (0.0, 30.0 * avg, 2),
        battery: (0.0, 24.0 * avg, 3),
        extra_capacity: (0.0, 1.0, 2),
    };
    let saved = std::env::var("CE_THREADS").ok();
    for strategy in StrategyKind::ALL {
        let serial = explorer.explore_serial(strategy, &space);
        for lanes in [1, 2, 3, serial.len() + 1] {
            std::env::set_var("CE_THREADS", lanes.to_string());
            let dealt = explorer.explore(strategy, &space);
            assert_eq!(dealt.len(), serial.len(), "{strategy}, {lanes} lanes");
            for (i, (a, b)) in dealt.iter().zip(&serial).enumerate() {
                assert_eq!(a.design, b.design, "{strategy}, {lanes} lanes, point {i}");
                for ((name, x), (_, y)) in a.canonical_fields().iter().zip(b.canonical_fields()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{strategy}, {lanes} lanes, point {i}: {name}"
                    );
                }
            }
        }
    }
    match saved {
        Some(v) => std::env::set_var("CE_THREADS", v),
        None => std::env::remove_var("CE_THREADS"),
    }
}
