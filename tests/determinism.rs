//! Reproducibility: every stochastic model in the workspace must be a pure
//! function of its seed, because the committed EXPERIMENTS.md numbers are
//! promised to be bit-for-bit reproducible.

use carbon_explorer::prelude::*;

#[test]
fn grid_synthesis_is_seed_deterministic() {
    for ba in BalancingAuthority::ALL {
        let a = GridDataset::synthesize(ba, 2020, 7);
        let b = GridDataset::synthesize(ba, 2020, 7);
        assert_eq!(a, b, "{ba} not deterministic");
        assert_ne!(a, GridDataset::synthesize(ba, 2020, 8), "{ba} ignores seed");
    }
}

#[test]
fn different_bas_produce_different_years() {
    // Seed-stream separation: the same seed must not alias across BAs.
    let pace = GridDataset::synthesize(BalancingAuthority::PACE, 2020, 7);
    let erco = GridDataset::synthesize(BalancingAuthority::ERCO, 2020, 7);
    assert_ne!(pace.wind().values(), erco.wind().values());
}

#[test]
fn demand_traces_are_seed_deterministic_and_site_separated() {
    let fleet = Fleet::meta_us();
    let ut = fleet.site("UT").unwrap();
    assert_eq!(ut.demand_trace(2020, 7), ut.demand_trace(2020, 7));
    // Same seed, different sites → different traces (stream separation).
    let or = fleet.site("OR").unwrap();
    let ut_normalized = ut.demand_trace(2020, 7).scale(1.0 / ut.avg_power_mw());
    let or_normalized = or.demand_trace(2020, 7).scale(1.0 / or.avg_power_mw());
    assert_ne!(ut_normalized, or_normalized);
}

#[test]
fn full_evaluation_pipeline_is_deterministic() {
    let evaluate = || {
        let site = Fleet::meta_us().site("UT").unwrap().clone();
        let grid = GridDataset::synthesize(site.ba(), 2020, 7);
        let explorer = CarbonExplorer::new(site.demand_trace(2020, 7), grid);
        let design = DesignPoint {
            solar_mw: 200.0,
            wind_mw: 100.0,
            battery_mwh: 80.0,
            extra_capacity_fraction: 0.2,
        };
        explorer.evaluate(StrategyKind::RenewablesBatteryCas, &design)
    };
    let a = evaluate();
    let b = evaluate();
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.operational_tons, b.operational_tons);
    assert_eq!(a.embodied_renewables_tons, b.embodied_renewables_tons);
    assert_eq!(a.battery_cycles, b.battery_cycles);
}

#[test]
fn leap_year_lengths_flow_through_the_stack() {
    // 2020 is a leap year (8784 h); 2021 is not (8760 h). Every layer must
    // agree or alignment checks would reject mixed inputs.
    let site = Fleet::meta_us().site("TX").unwrap().clone();
    for (year, hours) in [(2020, 8784), (2021, 8760)] {
        let grid = GridDataset::synthesize(site.ba(), year, 7);
        let demand = site.demand_trace(year, 7);
        assert_eq!(grid.wind().len(), hours);
        assert_eq!(demand.len(), hours);
        // And they compose without alignment errors.
        let supply = grid.scaled_renewables(site.solar_mw(), site.wind_mw());
        assert!(renewable_coverage(&demand, &supply).is_ok());
    }
}

/// 64-bit FNV-1a, folded over the little-endian bytes of each value's bit
/// pattern, so a change in any bit of any hour (the sign of a zero
/// included) changes the fingerprint.
fn fnv1a(hash: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Every balancing authority's synthetic year, pinned bit for bit: its
/// fuel series, its demand and its carbon intensity, in a common year, a
/// leap year and the year after, over three seeds. The pins come from
/// generators that evaluated every term each hour, so terms computed once
/// per day or per hour of day must reproduce that arithmetic exactly.
#[test]
fn grid_series_fingerprints_are_pinned() {
    let (mut fuels, mut demand, mut intensity) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for ba in BalancingAuthority::ALL {
        for year in [2019, 2020, 2021] {
            for seed in [1, 7, 99] {
                let grid = GridDataset::synthesize(ba, year, seed);
                for fuel in FuelType::ALL {
                    if let Some(series) = grid.generation(fuel) {
                        fuels = fnv1a(fuels, series.values());
                    }
                }
                demand = fnv1a(demand, grid.demand().values());
                intensity = fnv1a(intensity, grid.carbon_intensity().values());
            }
        }
    }
    assert_eq!(
        [fuels, demand, intensity],
        [
            0xE342_EF8A_302D_69EC,
            0x3741_18A8_B18C_255F,
            0x434B_2BB8_4B91_858D
        ],
        "fuel series, demand and carbon intensity fingerprints"
    );
}

/// Every Table 1 site's demand trace, pinned bit for bit in a common and a
/// leap year over three seeds.
#[test]
fn site_demand_trace_fingerprints_are_pinned() {
    let mut hash = FNV_OFFSET;
    for site in Fleet::meta_us().sites() {
        for year in [2019, 2020] {
            for seed in [1, 7, 42] {
                hash = fnv1a(hash, site.demand_trace(year, seed).values());
            }
        }
    }
    assert_eq!(hash, 0x2DF8_A54B_EEB7_CABB, "demand trace fingerprint");
}
