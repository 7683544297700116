//! One function per paper artifact. Each returns a printable report
//! containing the numbers the corresponding paper table/figure reports.

pub mod design;
pub mod extensions;
pub mod holistic;
pub mod inputs;
pub mod provenance;

use crate::context::Context;

/// Every experiment id: the paper's artifacts in paper order, followed by
/// this reproduction's extension/ablation studies and the sweep's
/// provenance hashes.
pub const ALL_IDS: [&str; 27] = [
    "table1",
    "table2",
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig15-ensemble",
    "fig16",
    "dod",
    "cas",
    "accounting",
    "ablation-battery",
    "ablation-scheduler",
    "migration",
    "aging",
    "sensitivity",
    "seasonal",
    "provenance",
];

/// Runs one experiment by id; `None` for an unknown id.
pub fn run(id: &str, ctx: &mut Context) -> Option<String> {
    Some(match id {
        "table1" => inputs::table1(ctx),
        "table2" => inputs::table2(),
        "fig1" => inputs::fig1(ctx),
        "fig3" => inputs::fig3(),
        "fig4" => inputs::fig4(),
        "fig5" => inputs::fig5(ctx),
        "fig6" => design::fig6(ctx),
        "fig7" => design::fig7(ctx),
        "fig8" => design::fig8(ctx),
        "fig9" => design::fig9(ctx),
        "fig10" => inputs::fig10(),
        "fig11" => design::fig11(ctx),
        "fig12" => design::fig12(ctx),
        "fig14" => holistic::fig14(ctx),
        "fig15" => holistic::fig15(ctx),
        "fig15-ensemble" => holistic::fig15_ensemble(ctx),
        "fig16" => holistic::fig16(ctx),
        "dod" => holistic::dod_study(ctx),
        "cas" => holistic::cas_study(ctx),
        "accounting" => extensions::accounting(ctx),
        "ablation-battery" => extensions::ablation_battery(ctx),
        "ablation-scheduler" => extensions::ablation_scheduler(ctx),
        "migration" => extensions::migration(ctx),
        "aging" => extensions::aging(ctx),
        "sensitivity" => extensions::sensitivity_study(ctx),
        "seasonal" => extensions::seasonal_study(ctx),
        "provenance" => provenance::provenance_study(ctx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Fidelity;

    #[test]
    fn unknown_id_is_none() {
        let mut ctx = Context::new(Fidelity::Fast);
        assert!(run("nope", &mut ctx).is_none());
    }

    #[test]
    fn all_ids_are_unique() {
        let mut ids = ALL_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_IDS.len());
    }
}
