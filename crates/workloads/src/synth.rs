//! Seeded synthetic tenant generation for the scenario fuzzer.
//!
//! The 13 calibrated MAFIA profiles cover 13 points of the workload space;
//! the fuzzer needs arbitrary footprints, reuse/stride distributions, and
//! storm shapes beyond them. [`synthetic_profile`] draws a random
//! [`AppProfile`] from a deterministic [`SimRng`] stream, spanning (and
//! slightly exceeding) the calibrated ranges while honoring the structural
//! constraints the stream machinery assumes — the same constraints
//! `profiles_are_sane` pins for the calibrated set, re-checkable through
//! [`sanity`].

use walksteal_sim_core::SimRng;

use crate::apps::{AppId, AppProfile, HotPattern};

/// Draws one synthetic application profile. Deterministic in the RNG
/// stream: the same `SimRng` state always yields the same profile.
///
/// The `id` is drawn from [`AppId::ALL`] purely as a label (display name in
/// results and repro files); behavior comes entirely from the sampled
/// knobs, which intentionally wander outside the calibrated envelope —
/// e.g. compute intensities up to ~2× GUPS-sparse, footprints from a
/// single hot page up to 4096 cold pages, and storm duty cycles up to 50%.
#[must_use]
pub fn synthetic_profile(rng: &mut SimRng) -> AppProfile {
    let id = AppId::ALL[rng.next_below(AppId::ALL.len() as u64) as usize];

    let mean_compute = 1.0 + rng.next_f64() * 50.0;
    let divergence = 1 + rng.next_below(6) as usize;

    let hot_pages = 1 + rng.next_below(12);
    // Power-of-two-ish cold footprints with jitter: 1 page .. ~4096 pages.
    let cold_pages = (1u64 << rng.next_below(12)) + rng.next_below(16);
    // Keep hot + warm under the 1024-page structural bound with headroom.
    let warm_pages = if rng.chance(0.5) {
        rng.next_below(1000 - hot_pages)
    } else {
        0
    };

    let cold_prob = rng.next_f64() * 0.95;
    let warm_prob = if warm_pages > 0 {
        (1.0 - cold_prob) * rng.next_f64() * 0.9
    } else {
        0.0
    };

    let (storm_every_ops, storm_ops, storm_cold_prob) = if rng.chance(0.6) {
        let every = 100 + rng.next_below(1900);
        let ops = 1 + rng.next_below(every / 2);
        (every, ops, rng.next_f64())
    } else {
        (0, 0, 0.0)
    };

    let hot_pattern = match rng.next_below(3) {
        0 => HotPattern::Sequential,
        1 => HotPattern::Strided(1 + rng.next_below(15)),
        _ => HotPattern::Random,
    };

    AppProfile {
        id,
        mean_compute,
        divergence,
        hot_pages,
        cold_pages,
        cold_prob,
        warm_pages,
        warm_prob,
        storm_every_ops,
        storm_ops,
        storm_cold_prob,
        hot_pattern,
        length_scale: 0.5 + rng.next_f64() * 1.5,
    }
}

/// The structural constraints every profile — calibrated or synthetic —
/// must satisfy for the warp-stream machinery to behave: non-degenerate
/// compute/divergence, a non-empty hot region, probabilities in range and
/// jointly ≤ 1, storms no longer than their period, and hot+warm regions
/// inside the 1024-page layout bound.
pub fn sanity(p: &AppProfile) -> Result<(), String> {
    let fail = |what: &str| Err(format!("profile {}: {what}", p.id));
    if p.mean_compute < 1.0 {
        return fail("mean_compute < 1.0");
    }
    if p.divergence < 1 {
        return fail("divergence < 1");
    }
    if p.hot_pages < 1 {
        return fail("hot_pages < 1");
    }
    for (name, prob) in [
        ("cold_prob", p.cold_prob),
        ("warm_prob", p.warm_prob),
        ("storm_cold_prob", p.storm_cold_prob),
    ] {
        if !(0.0..=1.0).contains(&prob) {
            return fail(&format!("{name} outside [0, 1]"));
        }
    }
    if p.cold_prob + p.warm_prob > 1.0 {
        return fail("cold_prob + warm_prob > 1");
    }
    if p.storm_ops > p.storm_every_ops {
        return fail("storm longer than its period");
    }
    if p.warm_pages + p.hot_pages >= 1024 {
        return fail("hot + warm regions exceed the 1024-page layout bound");
    }
    if p.length_scale <= 0.0 {
        return fail("length_scale <= 0");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every synthetic draw satisfies the same structural constraints the
    /// calibrated profiles are pinned to, and JSON round-trips exactly.
    #[test]
    fn synthetic_profiles_are_sane_and_round_trip() {
        let mut rng = SimRng::new(0x5EED);
        for case in 0..500 {
            let p = synthetic_profile(&mut rng);
            sanity(&p).unwrap_or_else(|e| panic!("case {case}: {e}"));
            let back =
                AppProfile::from_json(&p.to_json()).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(p, back, "case {case}: JSON round-trip changed the profile");
        }
    }

    /// Calibrated profiles pass the library sanity check too (it is the
    /// same property `profiles_are_sane` asserts in `apps.rs`).
    #[test]
    fn calibrated_profiles_pass_sanity() {
        for app in AppId::ALL {
            sanity(&app.profile()).unwrap();
        }
    }

    /// Same RNG state, same profile — the generator is deterministic.
    #[test]
    fn generator_is_deterministic() {
        let draw = |seed: u64| {
            let mut rng = SimRng::new(seed);
            (0..32)
                .map(|_| synthetic_profile(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
