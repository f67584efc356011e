//! Typed experiment cache keys.
//!
//! The store used to be keyed on `format!`-built strings, which put a heap
//! allocation and a formatting pass on every cache lookup — measurable once
//! the experiment engine started replaying thousands of lookups per suite.
//! [`ExpKey`] is a plain value type (hashable without formatting); rendering
//! to the legacy string form now happens only when naming a cache file on
//! disk or printing progress, and produces exactly the strings the old keys
//! used, so existing on-disk caches remain valid.

use std::fmt;

use walksteal_multitenant::PolicyPreset;
use walksteal_workloads::{AppId, WorkloadPair};

/// Maximum tenants any experiment runs (Fig. 13's four-tenant combos).
pub const MAX_APPS: usize = 4;

/// What kind of run a key names (and the non-app parameters of that run).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyKind {
    /// A two-tenant pair under a policy preset at the scale's base config.
    Pair(PolicyPreset),
    /// A mix (2..=[`MAX_APPS`] tenants) under a custom config; the label
    /// must uniquely describe the tweaks (e.g. `"f12|2048e|DWS"`).
    /// Two-tenant keys render with the legacy `pairx|` prefix, larger
    /// mixes with `mixx|`.
    Custom(String),
    /// A stand-alone baseline run on `sms` SMs with the tripled budget.
    Solo {
        /// SMs the lone tenant runs on.
        sms: usize,
    },
    /// A three-or-more-tenant combination under a preset (Fig. 13).
    Multi(PolicyPreset),
}

/// One simulation's identity: what ran, on what, at which scale and seed.
///
/// # Examples
///
/// ```
/// use walksteal_experiments::key::ExpKey;
/// use walksteal_multitenant::PolicyPreset;
/// use walksteal_workloads::{AppId, WorkloadPair};
///
/// let pair = WorkloadPair::new(AppId::Gups, AppId::Mm);
/// let key = ExpKey::pair(PolicyPreset::Dws, pair, "quick", 42);
/// assert_eq!(key.to_string(), "pair|DWS|GUPS.MM|quick|s42");
/// assert_eq!(key.apps(), [AppId::Gups, AppId::Mm]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExpKey {
    /// Run kind and its non-app parameters.
    pub kind: KeyKind,
    /// The tenants' applications, in tenant order (`MAX_APPS` capacity).
    apps: [Option<AppId>; MAX_APPS],
    /// The scale label (see [`Scale::label`](crate::Scale::label)).
    pub scale: &'static str,
    /// The base workload seed.
    pub seed: u64,
}

impl ExpKey {
    fn pack(kind: KeyKind, apps: &[AppId], scale: &'static str, seed: u64) -> Self {
        assert!(apps.len() <= MAX_APPS, "at most {MAX_APPS} tenants");
        let mut packed = [None; MAX_APPS];
        for (slot, &app) in packed.iter_mut().zip(apps) {
            *slot = Some(app);
        }
        ExpKey {
            kind,
            apps: packed,
            scale,
            seed,
        }
    }

    /// Key of a preset pair run.
    #[must_use]
    pub fn pair(preset: PolicyPreset, pair: WorkloadPair, scale: &'static str, seed: u64) -> Self {
        Self::pack(KeyKind::Pair(preset), &pair.apps(), scale, seed)
    }

    /// Key of a custom-config pair run.
    #[must_use]
    pub fn custom(label: &str, pair: WorkloadPair, scale: &'static str, seed: u64) -> Self {
        Self::pack(KeyKind::Custom(label.to_owned()), &pair.apps(), scale, seed)
    }

    /// Key of a custom-config N-tenant mix run; identical to
    /// [`custom`](Self::custom) for two apps.
    #[must_use]
    pub fn custom_mix(label: &str, apps: &[AppId], scale: &'static str, seed: u64) -> Self {
        Self::pack(KeyKind::Custom(label.to_owned()), apps, scale, seed)
    }

    /// Key of a stand-alone run.
    #[must_use]
    pub fn solo(app: AppId, sms: usize, scale: &'static str, seed: u64) -> Self {
        Self::pack(KeyKind::Solo { sms }, &[app], scale, seed)
    }

    /// Key of a multi-tenant (3+) combination run.
    #[must_use]
    pub fn multi(preset: PolicyPreset, combo: &[AppId], scale: &'static str, seed: u64) -> Self {
        Self::pack(KeyKind::Multi(preset), combo, scale, seed)
    }

    /// The tenants' applications, in tenant order.
    #[must_use]
    pub fn apps(&self) -> Vec<AppId> {
        self.apps.iter().copied().flatten().collect()
    }

    fn write_apps(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, app) in self.apps.iter().flatten().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{app}")?;
        }
        Ok(())
    }
}

/// Renders the legacy string key (also the disk-cache identity).
impl fmt::Display for ExpKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            KeyKind::Pair(preset) => write!(f, "pair|{}|", preset.label())?,
            KeyKind::Custom(label) => {
                // Two-tenant custom keys keep the historical `pairx|`
                // prefix so existing on-disk caches stay valid; larger
                // mixes get their own prefix.
                let prefix = if self.apps.iter().flatten().count() == 2 {
                    "pairx"
                } else {
                    "mixx"
                };
                write!(f, "{prefix}|{label}|")?;
            }
            KeyKind::Solo { sms } => {
                let app = self.apps[0].expect("solo key has an app");
                return write!(f, "solo|{app}|{sms}sms|{}|s{}", self.scale, self.seed);
            }
            KeyKind::Multi(preset) => write!(f, "multi|{}|", preset.label())?,
        }
        self.write_apps(f)?;
        write!(f, "|{}|s{}", self.scale, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gups_mm() -> WorkloadPair {
        WorkloadPair::new(AppId::Gups, AppId::Mm)
    }

    #[test]
    fn renders_legacy_pair_string() {
        let k = ExpKey::pair(PolicyPreset::DwsPlusPlus, gups_mm(), "paper", 42);
        assert_eq!(k.to_string(), "pair|DWS++|GUPS.MM|paper|s42");
    }

    #[test]
    fn renders_legacy_custom_string() {
        let k = ExpKey::custom("f14|DWS", gups_mm(), "quick", 7);
        assert_eq!(k.to_string(), "pairx|f14|DWS|GUPS.MM|quick|s7");
    }

    #[test]
    fn renders_legacy_solo_string() {
        let k = ExpKey::solo(AppId::Tds, 15, "paper", 42);
        assert_eq!(k.to_string(), "solo|3DS|15sms|paper|s42");
    }

    #[test]
    fn renders_legacy_multi_string() {
        let combo = [AppId::Gups, AppId::Tds, AppId::Mm, AppId::Hs];
        let k = ExpKey::multi(PolicyPreset::Dws, &combo, "quick", 42);
        assert_eq!(k.to_string(), "multi|DWS|GUPS.3DS.MM.HS|quick|s42");
        assert_eq!(k.apps(), combo);
    }

    #[test]
    fn custom_mix_renders_pairx_for_two_apps_and_mixx_beyond() {
        let two = ExpKey::custom_mix("sens|ptw8|DWS", &[AppId::Gups, AppId::Mm], "quick", 42);
        assert_eq!(two.to_string(), "pairx|sens|ptw8|DWS|GUPS.MM|quick|s42");
        assert_eq!(
            two,
            ExpKey::custom("sens|ptw8|DWS", gups_mm(), "quick", 42),
            "two-app custom_mix must alias custom"
        );
        let three = ExpKey::custom_mix(
            "sens|ptw9|DWS",
            &[AppId::Gups, AppId::Tds, AppId::Mm],
            "quick",
            42,
        );
        assert_eq!(
            three.to_string(),
            "mixx|sens|ptw9|DWS|GUPS.3DS.MM|quick|s42"
        );
    }

    #[test]
    fn distinct_parameters_are_distinct_keys() {
        let a = ExpKey::pair(PolicyPreset::Dws, gups_mm(), "paper", 42);
        assert_ne!(
            a,
            ExpKey::pair(PolicyPreset::Baseline, gups_mm(), "paper", 42)
        );
        assert_ne!(a, ExpKey::pair(PolicyPreset::Dws, gups_mm(), "quick", 42));
        assert_ne!(a, ExpKey::pair(PolicyPreset::Dws, gups_mm(), "paper", 43));
        let flipped = WorkloadPair::new(AppId::Mm, AppId::Gups);
        assert_ne!(a, ExpKey::pair(PolicyPreset::Dws, flipped, "paper", 42));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_apps_panics() {
        let five = [AppId::Mm; 5];
        let _ = ExpKey::multi(PolicyPreset::Dws, &five, "quick", 1);
    }
}
