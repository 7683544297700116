//! Manifest assembly over evaluation results: the bridge between
//! `ce-manifest`'s generic lineage records and this crate's concrete
//! result types.
//!
//! Two digests anchor every record. The **input hash** is taken over a
//! canonical input key — the same canonical-key strings `ce-serve` uses
//! as cache identities, so one spelling of a scenario has one hash
//! everywhere. The **result hash** runs over every evaluation's
//! [`EvaluatedDesign::canonical_fields`] (plus its strategy and design
//! coordinates) in evaluation order, floats by IEEE-754 bit pattern:
//! bitwise-equal results — the invariant every kernel in this workspace
//! pins — produce byte-equal digests, and nothing else does.

use crate::design::DesignPoint;
use crate::ensemble::EnsembleResult;
use crate::explore::EvaluatedDesign;
use ce_manifest::{CanonicalHasher, Manifest, Recomputed, INPUT_DOMAIN, RESULT_DOMAIN};

/// Hash of a canonical input key (e.g. a `ce-serve` request key or a
/// bench scenario key), under the input domain.
pub fn input_key_digest_hex(key: &str) -> String {
    let mut h = CanonicalHasher::new(INPUT_DOMAIN);
    h.field_str("key", key);
    h.finish().to_hex()
}

/// Absorbs one evaluation into `h` in the pinned field order: strategy,
/// design coordinates, then every canonical metric field.
fn absorb_evaluation(h: &mut CanonicalHasher, eval: &EvaluatedDesign) {
    h.field_str("strategy", eval.strategy.canonical_key());
    absorb_design(h, &eval.design);
    for (name, value) in eval.canonical_fields() {
        h.field_f64(name, value);
    }
}

/// Absorbs a design point's four coordinates.
fn absorb_design(h: &mut CanonicalHasher, design: &DesignPoint) {
    h.field_f64("solar_mw", design.solar_mw);
    h.field_f64("wind_mw", design.wind_mw);
    h.field_f64("battery_mwh", design.battery_mwh);
    h.field_f64("extra_capacity_fraction", design.extra_capacity_fraction);
}

/// Streaming form of [`results_digest_hex`]: absorbs evaluations in
/// arbitrary-sized groups (e.g. one supply group at a time from a chunked
/// `/explore` sweep) and yields the same digest as hashing the
/// concatenated sequence in one call.
pub struct ResultHasher {
    inner: CanonicalHasher,
}

impl ResultHasher {
    /// A fresh hasher under the result domain.
    pub fn new() -> Self {
        Self {
            inner: CanonicalHasher::new(RESULT_DOMAIN),
        }
    }

    /// Absorbs a run of evaluations, in order.
    pub fn absorb(&mut self, evaluations: &[EvaluatedDesign]) {
        for eval in evaluations {
            absorb_evaluation(&mut self.inner, eval);
        }
    }

    /// The hex digest of everything absorbed so far.
    #[must_use]
    pub fn finish_hex(self) -> String {
        self.inner.finish().to_hex()
    }
}

impl Default for ResultHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Canonical digest of a result sequence, under the result domain.
/// Evaluation order is significant; each evaluation contributes a fixed
/// field count, so the framing is unambiguous without explicit indices.
pub fn results_digest_hex(evaluations: &[EvaluatedDesign]) -> String {
    let mut h = ResultHasher::new();
    h.absorb(evaluations);
    h.finish_hex()
}

/// Both hashes a verifier needs, re-derived from a fresh recomputation —
/// the value to return from a `ce_manifest::verify` callback.
pub fn recomputed(input_key: &str, evaluations: &[EvaluatedDesign]) -> Recomputed {
    Recomputed {
        input_hash: input_key_digest_hex(input_key),
        result_hash: results_digest_hex(evaluations),
    }
}

/// Assembles a manifest from an already-computed result digest (the
/// streaming path: a [`ResultHasher`] ran alongside the computation).
/// Stamps the current build's code fingerprint.
#[allow(clippy::too_many_arguments)]
pub fn manifest_with_result_hash(
    kind: &str,
    ba: &str,
    strategy: &str,
    years: &[i32],
    seeds: &[u64],
    input_key: &str,
    result_hash: String,
) -> Manifest {
    Manifest {
        schema: ce_manifest::SCHEMA_VERSION,
        kind: kind.to_string(),
        ba: ba.to_string(),
        strategy: strategy.to_string(),
        years: years.to_vec(),
        seeds: seeds.to_vec(),
        code_fingerprint: ce_manifest::CODE_FINGERPRINT.to_string(),
        input_hash: input_key_digest_hex(input_key),
        result_hash,
    }
}

/// Assembles a full manifest for a result sequence, stamping the current
/// build's code fingerprint.
#[allow(clippy::too_many_arguments)]
pub fn build_manifest(
    kind: &str,
    ba: &str,
    strategy: &str,
    years: &[i32],
    seeds: &[u64],
    input_key: &str,
    evaluations: &[EvaluatedDesign],
) -> Manifest {
    manifest_with_result_hash(
        kind,
        ba,
        strategy,
        years,
        seeds,
        input_key,
        results_digest_hex(evaluations),
    )
}

/// A manifest for an ensemble run: kind `"ensemble"`, one year, N seeds,
/// results in seed order. `input_key` should canonically spell the
/// scenario (site, year, seeds, strategy, design).
pub fn ensemble_manifest(ba: &str, input_key: &str, result: &EnsembleResult) -> Manifest {
    build_manifest(
        "ensemble",
        ba,
        result.strategy.canonical_key(),
        &[result.year],
        &result.seeds,
        input_key,
        &result.evaluations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::StrategyKind;
    use crate::ensemble::EnsembleSpec;
    use crate::explore::CarbonExplorer;
    use ce_datacenter::Fleet;
    use ce_grid::GridDataset;
    use ce_manifest::verify;

    fn utah_eval() -> EvaluatedDesign {
        let site = Fleet::meta_us().site("UT").expect("UT exists").clone();
        let grid = GridDataset::synthesize(site.ba(), 2020, 7);
        let explorer = CarbonExplorer::new(site.demand_trace(2020, 7), grid);
        explorer.evaluate(
            StrategyKind::RenewablesBattery,
            &DesignPoint {
                solar_mw: 150.0,
                wind_mw: 100.0,
                battery_mwh: 40.0,
                extra_capacity_fraction: 0.0,
            },
        )
    }

    #[test]
    fn manifest_verifies_against_faithful_recomputation() {
        let eval = utah_eval();
        let key = "site=UT;year=2020;seed=7;strategy=renewables_battery";
        let manifest = build_manifest(
            "evaluate",
            "PACE",
            "renewables_battery",
            &[2020],
            &[7],
            key,
            std::slice::from_ref(&eval),
        );
        assert_eq!(manifest.validate(), Ok(()));
        // Recomputing the evaluation from scratch reproduces both hashes.
        let fresh = utah_eval();
        assert_eq!(
            verify(&manifest, |_| recomputed(key, std::slice::from_ref(&fresh))),
            Ok(())
        );
    }

    #[test]
    fn result_digest_is_sensitive_to_any_bit() {
        let eval = utah_eval();
        let base = results_digest_hex(std::slice::from_ref(&eval));
        let mut tweaked = eval.clone();
        tweaked.operational_tons = f64::from_bits(tweaked.operational_tons.to_bits() ^ 1);
        assert_ne!(results_digest_hex(std::slice::from_ref(&tweaked)), base);
    }

    #[test]
    fn groupwise_absorption_matches_one_shot_digest() {
        let a = utah_eval();
        let mut b = a.clone();
        b.operational_tons += 1.0;
        let mut c = a.clone();
        c.design.wind_mw += 5.0;
        let all = [a, b, c];
        let one_shot = results_digest_hex(&all);
        for split in 0..=all.len() {
            let mut h = ResultHasher::new();
            h.absorb(&all[..split]);
            h.absorb(&all[split..]);
            assert_eq!(h.finish_hex(), one_shot, "split at {split}");
        }
    }

    #[test]
    fn result_digest_is_order_sensitive() {
        let a = utah_eval();
        let mut b = a.clone();
        b.design.solar_mw += 1.0;
        let b = {
            let site = Fleet::meta_us().site("UT").expect("UT exists").clone();
            let grid = GridDataset::synthesize(site.ba(), 2020, 7);
            CarbonExplorer::new(site.demand_trace(2020, 7), grid)
                .evaluate(StrategyKind::RenewablesOnly, &b.design)
        };
        let ab = results_digest_hex(&[a.clone(), b.clone()]);
        let ba = results_digest_hex(&[b, a]);
        assert_ne!(ab, ba);
    }

    #[test]
    fn ensemble_manifest_round_trips() {
        let site = Fleet::meta_us().site("UT").expect("UT exists").clone();
        let spec = EnsembleSpec::consecutive(2020, 7, 3);
        let design = DesignPoint::renewables(150.0, 100.0);
        let build = |seed: u64| {
            CarbonExplorer::new(
                site.demand_trace(2020, seed),
                GridDataset::synthesize(site.ba(), 2020, seed),
            )
        };
        let result = spec.evaluate(StrategyKind::RenewablesOnly, &design, build);
        let key = "site=UT;year=2020;seeds=7..10;strategy=renewables_only";
        let manifest = ensemble_manifest(site.ba().code(), key, &result);
        assert_eq!(manifest.kind, "ensemble");
        assert_eq!(manifest.seeds, vec![7, 8, 9]);
        assert_eq!(manifest.validate(), Ok(()));
        let again: Vec<EvaluatedDesign> = spec
            .seeds
            .iter()
            .map(|&seed| build(seed).evaluate(StrategyKind::RenewablesOnly, &design))
            .collect();
        assert_eq!(verify(&manifest, |_| recomputed(key, &again)), Ok(()));
    }
}
