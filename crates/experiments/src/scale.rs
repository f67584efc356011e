//! Simulation scale presets.

use walksteal_multitenant::GpuConfig;

/// How big the simulations are.
///
/// [`Scale::Paper`] matches the Table I machine (30 SMs, 24 warps/SM) with
/// an execution length long enough that warm-up effects wash out.
/// [`Scale::Quick`] is a smoke-test scale for CI and iteration: the same
/// mechanisms fire, but class magnitudes are noisier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Full evaluation scale (paper Table I machine).
    #[default]
    Paper,
    /// Reduced smoke-test scale.
    Quick,
}

impl Scale {
    /// A short identifier: the scale's cache subdirectory and its name in
    /// messages.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }

    /// The base [`GpuConfig`] at this scale (before policy presets).
    #[must_use]
    pub fn base_config(self) -> GpuConfig {
        match self {
            Scale::Paper => GpuConfig::default(),
            Scale::Quick => GpuConfig::default()
                .with_n_sms(8)
                .with_warps_per_sm(8)
                .with_instructions_per_warp(1_200),
        }
    }

    /// SMs assigned to a tenant when `n_tenants` share the GPU — also the
    /// SM count its stand-alone baseline uses.
    #[must_use]
    pub fn sms_per_tenant(self, n_tenants: usize) -> usize {
        let total = self.base_config().n_sms;
        // Fig. 13 uses 28 SMs for four tenants (30 is not divisible by 4).
        let usable = total - total % n_tenants;
        usable / n_tenants
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_table_one() {
        let c = Scale::Paper.base_config();
        assert_eq!(c.n_sms, 30);
        assert_eq!(c.warps_per_sm, 24);
    }

    #[test]
    fn quick_scale_is_smaller() {
        let q = Scale::Quick.base_config();
        assert!(q.n_sms < 30);
        assert!(q.instructions_per_warp < 6_000);
    }

    #[test]
    fn sm_split() {
        assert_eq!(Scale::Paper.sms_per_tenant(2), 15);
        assert_eq!(Scale::Paper.sms_per_tenant(3), 10);
        assert_eq!(Scale::Paper.sms_per_tenant(4), 7);
        assert_eq!(Scale::Quick.sms_per_tenant(2), 4);
    }

    #[test]
    fn labels() {
        assert_eq!(Scale::Paper.to_string(), "paper");
        assert_eq!(Scale::Quick.label(), "quick");
    }
}
