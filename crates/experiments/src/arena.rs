//! Policy arena: race the related-work translation designs against
//! DWS/DWS++ over the N-tenant scenario engine.
//!
//! The arena field is [`ARENA_PRESETS`]: the paper's Baseline (the
//! normalization anchor), DWS and DWS++, and the three related-work
//! competitors ([`PolicyPreset::SubEntryTlb`], [`PolicyPreset::MosaicPages`],
//! [`PolicyPreset::DeadEntryGuard`]). Every policy runs the curated two-,
//! three-, and four-tenant mixes at the canonical
//! [`tenant_config`](ExpContext::tenant_config); the result is a
//! *leaderboard*: one row per policy, gmean normalized throughput per
//! tenant count plus overall throughput and fairness, sorted best-first.
//!
//! `arena_quick` races a three-mix subset per tenant count (the CI smoke
//! field, pinned by `tests/golden_arena.rs`); `arena_full` races every
//! curated mix (the EXPERIMENTS.md leaderboard).

use walksteal_multitenant::{fairness, PolicyPreset, SimResult};
use walksteal_sim_core::gmean;
use walksteal_workloads::mixes_for;

use crate::report::Table;
use crate::suite::ExpContext;

/// The arena field, in evaluation order: anchor, the paper's designs, then
/// the related-work competitors.
pub const ARENA_PRESETS: [PolicyPreset; 6] = [
    PolicyPreset::Baseline,
    PolicyPreset::Dws,
    PolicyPreset::DwsPlusPlus,
    PolicyPreset::SubEntryTlb,
    PolicyPreset::MosaicPages,
    PolicyPreset::DeadEntryGuard,
];

/// Tenant counts every arena race covers.
pub const ARENA_TENANT_COUNTS: [usize; 3] = [2, 3, 4];

/// Races `presets` over the first `mixes_per_count` curated mixes of each
/// tenant count and returns the leaderboard table.
fn arena_race(ctx: &mut ExpContext, title: &str, mixes_per_count: usize) -> Table {
    let presets = ctx.presets(&ARENA_PRESETS);
    // Per preset: normalized total IPC per mix, grouped by tenant count,
    // plus fairness per mix over all counts.
    let mut ipc: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); presets.len()]; ARENA_TENANT_COUNTS.len()];
    let mut fair: Vec<Vec<f64>> = vec![Vec::new(); presets.len()];
    for (ci, &n) in ARENA_TENANT_COUNTS.iter().enumerate() {
        let mixes = mixes_for(n);
        let mixes = &mixes[..mixes_per_count.min(mixes.len())];
        for mix in mixes {
            let sa = ctx.standalone_ipcs_for(mix.apps());
            let runs: Vec<SimResult> = presets.iter().map(|&p| ctx.mix(p, mix)).collect();
            // Index 0 is Baseline even under a --policy filter
            // (ExpContext::presets always keeps the anchor).
            let base = runs[0].total_ipc();
            for (pi, r) in runs.iter().enumerate() {
                ipc[ci][pi].push(r.total_ipc() / base);
                fair[pi].push(fairness(r, &sa));
            }
        }
    }
    let mut columns: Vec<String> = ARENA_TENANT_COUNTS
        .iter()
        .map(|n| format!("IPC {n}T"))
        .collect();
    columns.push("IPC ALL".into());
    columns.push("Fairness".into());
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &column_refs);
    // Build one leaderboard row per preset and sort best-first by overall
    // normalized throughput (ties broken by fairness, then field order, so
    // the ordering — pinned by the golden test — is deterministic).
    let mut rows: Vec<(usize, Vec<f64>)> = presets
        .iter()
        .enumerate()
        .map(|(pi, _)| {
            let per_count: Vec<f64> = (0..ARENA_TENANT_COUNTS.len())
                .map(|ci| gmean(&ipc[ci][pi]))
                .collect();
            let overall: Vec<f64> = ipc.iter().flat_map(|c| c[pi].iter().copied()).collect();
            let mut vals = per_count;
            vals.push(gmean(&overall));
            vals.push(gmean(&fair[pi]));
            (pi, vals)
        })
        .collect();
    let ipc_all = columns.len() - 2;
    let fair_col = columns.len() - 1;
    rows.sort_by(|(ai, a), (bi, b)| {
        b[ipc_all]
            .total_cmp(&a[ipc_all])
            .then(b[fair_col].total_cmp(&a[fair_col]))
            .then(ai.cmp(bi))
    });
    for (rank, (pi, vals)) in rows.iter().enumerate() {
        table.row(&format!("#{} {}", rank + 1, presets[*pi].label()), vals);
    }
    table
}

/// The CI smoke race: three mixes per tenant count.
pub fn arena_quick(ctx: &mut ExpContext) -> Table {
    arena_race(
        ctx,
        "Policy arena (quick field): gmean IPC normalized to Baseline",
        3,
    )
}

/// The full race over every curated mix — the EXPERIMENTS.md leaderboard.
pub fn arena_full(ctx: &mut ExpContext) -> Table {
    arena_race(
        ctx,
        "Policy arena (full field): gmean IPC normalized to Baseline",
        usize::MAX,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::store::Store;

    #[test]
    fn arena_field_keeps_baseline_first() {
        assert_eq!(ARENA_PRESETS[0], PolicyPreset::Baseline);
        for p in PolicyPreset::ARENA {
            assert!(ARENA_PRESETS.contains(&p), "{p} missing from the field");
        }
    }

    #[test]
    fn arena_quick_ranks_every_preset_once() {
        let mut ctx = ExpContext::new(Scale::Quick, Store::in_memory());
        ctx.jobs = 4;
        let table = arena_quick(&mut ctx);
        let text = table.to_string();
        for p in ARENA_PRESETS {
            assert!(text.contains(p.label()), "{p} missing:\n{text}");
        }
        // A leaderboard: ranks 1..=6 each appear exactly once.
        for rank in 1..=ARENA_PRESETS.len() {
            assert_eq!(
                text.matches(&format!("#{rank} ")).count(),
                1,
                "rank {rank}:\n{text}"
            );
        }
        assert!(ctx.failures().is_empty(), "{:?}", ctx.failures());
    }

    #[test]
    fn arena_respects_policy_filter() {
        let mut ctx = ExpContext::new(Scale::Quick, Store::in_memory());
        ctx.jobs = 4;
        ctx.policy = Some(PolicyPreset::MosaicPages);
        let table = arena_quick(&mut ctx);
        let text = table.to_string();
        assert!(text.contains("MOSAIC"));
        assert!(
            !text.contains("DWS++"),
            "filtered preset still ran:\n{text}"
        );
    }
}
