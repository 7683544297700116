//! The ensemble evaluator's determinism contract: N seeded weather years
//! evaluated through `ce_parallel::par_map_with` must be **bitwise**
//! identical to a serial per-seed loop, for every thread-count regime
//! `CE_THREADS` can select.

use ce_core::{CarbonExplorer, DesignPoint, EnsembleResult, EnsembleSpec, StrategyKind};
use ce_datacenter::Fleet;
use ce_grid::GridDataset;

fn build_ut(seed: u64) -> CarbonExplorer {
    let site = Fleet::meta_us().site("UT").expect("UT exists").clone();
    CarbonExplorer::new(
        site.demand_trace(2020, seed),
        GridDataset::synthesize(site.ba(), 2020, seed),
    )
}

fn design() -> DesignPoint {
    DesignPoint {
        solar_mw: 150.0,
        wind_mw: 100.0,
        battery_mwh: 40.0,
        extra_capacity_fraction: 0.2,
    }
}

/// The serial reference: one fresh evaluation per seed, in seed order,
/// never spawning.
fn evaluate_serial(spec: &EnsembleSpec, strategy: StrategyKind) -> EnsembleResult {
    EnsembleResult {
        year: spec.year,
        seeds: spec.seeds.clone(),
        strategy,
        design: design(),
        evaluations: spec
            .seeds
            .iter()
            .map(|&seed| build_ut(seed).evaluate(strategy, &design()))
            .collect(),
    }
}

fn assert_bitwise_equal(a: &EnsembleResult, b: &EnsembleResult, label: &str) {
    assert_eq!(a.seeds, b.seeds, "{label}: seed order");
    assert_eq!(a.evaluations.len(), b.evaluations.len(), "{label}");
    for (i, (ea, eb)) in a.evaluations.iter().zip(&b.evaluations).enumerate() {
        for ((name, va), (_, vb)) in ea.canonical_fields().iter().zip(eb.canonical_fields()) {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{label}: member {i} field {name} differs"
            );
        }
    }
    // Spreads are derived in member order, so they inherit bit-equality.
    let (sa, sb) = (a.coverage_spread(), b.coverage_spread());
    assert_eq!(sa.is_some(), sb.is_some(), "{label}");
    if let (Some(sa), Some(sb)) = (sa, sb) {
        assert_eq!(sa.min.to_bits(), sb.min.to_bits(), "{label}: min");
        assert_eq!(sa.mean.to_bits(), sb.mean.to_bits(), "{label}: mean");
        assert_eq!(sa.max.to_bits(), sb.max.to_bits(), "{label}: max");
    }
}

/// One test function on purpose: it mutates the process-global
/// `CE_THREADS` variable, and a single `#[test]` means no concurrent
/// test in this binary can observe a half-set value. (Changing the
/// thread count mid-run only ever changes scheduling, never results —
/// that is the invariant under test — but the comparisons themselves
/// should run against a quiescent environment.)
#[test]
fn ensemble_is_bitwise_deterministic_across_thread_counts() {
    let spec = EnsembleSpec::consecutive(2020, 7, 7);
    for strategy in [
        StrategyKind::RenewablesOnly,
        StrategyKind::RenewablesBatteryCas,
    ] {
        let serial = evaluate_serial(&spec, strategy);

        // Ambient parallelism (whatever the machine offers).
        let parallel = spec.evaluate(strategy, &design(), build_ut);
        assert_bitwise_equal(&serial, &parallel, "ambient threads");

        // Inside a parallel region, evaluate() degrades to serial —
        // exactly how nested sweeps run under ce-serve's workers.
        let nested = ce_parallel::run_serial(|| spec.evaluate(strategy, &design(), build_ut));
        assert_bitwise_equal(&serial, &nested, "run_serial");

        // Forced thread counts, including over-subscription (more
        // threads than seeds) and odd chunkings.
        let saved = std::env::var("CE_THREADS").ok();
        for threads in ["1", "2", "3", "5", "16"] {
            std::env::set_var("CE_THREADS", threads);
            let forced = spec.evaluate(strategy, &design(), build_ut);
            assert_bitwise_equal(&serial, &forced, &format!("CE_THREADS={threads}"));
        }
        match saved {
            Some(v) => std::env::set_var("CE_THREADS", v),
            None => std::env::remove_var("CE_THREADS"),
        }
    }
}
