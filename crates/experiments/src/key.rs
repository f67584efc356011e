//! Content-addressed experiment cache keys.
//!
//! An [`ExpKey`] is the FNV-1a 64 hash of everything that decides a
//! simulation's result: the resolved [`GpuConfig`], each tenant's
//! [`AppProfile`], the [`ScenarioSpec`] when the run has one, and the seed.
//! They are hashed from their derived `Debug` rendering, streamed into the
//! hasher without building a string (`derive(Hash)` is out: the config and
//! the profiles hold `f64`s). No caller names a run, so two requests for
//! the same simulation share one cache entry however an experiment phrased
//! them, and a request that differs in any knob or profile constant misses.
//!
//! What the key cannot see is the simulator's code: after a change to a
//! timing model or the scheduler, start from an empty cache.

use std::fmt::{self, Write as _};
use std::hash::Hasher;

use walksteal_multitenant::{GpuConfig, ScenarioSpec};
use walksteal_sim_core::FnvHasher;
use walksteal_workloads::AppProfile;

/// One simulation's identity: the hash of its whole content (see the
/// [module docs](self)). Rendered as 16 hex digits, which also name its
/// cache file.
///
/// # Examples
///
/// ```
/// use walksteal_experiments::Job;
/// use walksteal_multitenant::{GpuConfig, PolicyPreset};
/// use walksteal_workloads::AppId;
///
/// let cfg = GpuConfig::default().for_tenants(2);
/// let apps = [AppId::Gups, AppId::Mm];
/// let dws = Job::new(cfg.clone().with_preset(PolicyPreset::Dws), &apps, 42);
/// let again = Job::new(cfg.clone().with_preset(PolicyPreset::Dws), &apps, 42);
/// let baseline = Job::new(cfg.with_preset(PolicyPreset::Baseline), &apps, 42);
/// assert_eq!(dws.key(), again.key());
/// assert_ne!(dws.key(), baseline.key());
/// assert_eq!(dws.key().to_string().len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpKey(u64);

/// Feeds formatted text straight into an FNV-1a hasher.
struct HashWriter(FnvHasher);

impl fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

impl ExpKey {
    /// The key of a run of `profiles` (one per tenant, in tenant order)
    /// under `cfg`, driven by `scenario` if set, from `seed`.
    pub(crate) fn of(
        cfg: &GpuConfig,
        profiles: &[AppProfile],
        scenario: Option<&ScenarioSpec>,
        seed: u64,
    ) -> Self {
        let mut h = HashWriter(FnvHasher::default());
        write!(h, "{:?}", (cfg, profiles, scenario, seed)).expect("hashing never fails");
        ExpKey(h.0.finish())
    }
}

impl fmt::Display for ExpKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use walksteal_multitenant::{PolicyPreset, ScenarioEvent, SloPolicy};
    use walksteal_workloads::AppId;

    #[test]
    fn every_part_of_the_content_is_in_the_key() {
        let cfg = GpuConfig::default()
            .for_tenants(2)
            .with_preset(PolicyPreset::Dws);
        let profiles = [AppId::Gups.profile(), AppId::Mm.profile()];
        let spec = ScenarioSpec::new()
            .arrive(0, AppId::Gups)
            .arrive(1_000, AppId::Mm)
            .slo_target(1, 1_200)
            .slo_policy(SloPolicy::default());
        let (p, s) = (&profiles[..], Some(&spec));
        let base = ExpKey::of(&cfg, p, s, 42);
        assert_eq!(base, ExpKey::of(&cfg.clone(), p, Some(&spec.clone()), 42));

        let mut latency = cfg.clone();
        latency.l2_tlb_latency += 1;
        let mut compute = profiles;
        compute[1].mean_compute += 0.5;
        let mut event = spec.clone();
        event.events[1] = ScenarioEvent::Arrive {
            cycle: 1_001,
            spec: AppId::Mm.into(),
        };
        let mut policy = spec.clone();
        policy.slo = policy.slo.map(|slo| SloPolicy {
            evict_after: slo.evict_after + 1,
            ..slo
        });
        for (what, key) in [
            ("a config field", ExpKey::of(&latency, p, s, 42)),
            ("a profile constant", ExpKey::of(&cfg, &compute, s, 42)),
            ("the tenant order", ExpKey::of(&cfg, &[p[1], p[0]], s, 42)),
            ("the seed", ExpKey::of(&cfg, p, s, 43)),
            ("a scenario event", ExpKey::of(&cfg, p, Some(&event), 42)),
            ("the SLO policy", ExpKey::of(&cfg, p, Some(&policy), 42)),
            ("no scenario", ExpKey::of(&cfg, p, None, 42)),
        ] {
            assert_ne!(key, base, "changing {what} must change the key");
        }
    }
}
