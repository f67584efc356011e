//! The 13 modeled applications and their behavioral profiles.

use std::fmt;

/// The application's L2-TLB miss intensity class (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MpmiClass {
    /// MPMI < 25: barely exercises the virtual-memory system.
    Light,
    /// 25 < MPMI < 80.
    Medium,
    /// MPMI > 80: walk-intensive.
    Heavy,
}

impl fmt::Display for MpmiClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpmiClass::Light => write!(f, "L"),
            MpmiClass::Medium => write!(f, "M"),
            MpmiClass::Heavy => write!(f, "H"),
        }
    }
}

/// How a warp selects pages within its hot region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HotPattern {
    /// Sequential lines, page by page (streaming kernels).
    Sequential,
    /// Fixed page stride between consecutive accesses (FFT/3DS-style).
    Strided(u64),
    /// Uniformly random page in the hot region (lookup tables).
    Random,
}

/// One modeled application (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// Matrix multiplication (Parboil) — Light.
    Mm,
    /// Hotspot: chip temperature map (Rodinia) — Light.
    Hs,
    /// Ray tracing — Light.
    Ray,
    /// Fast Fourier transform (Parboil) — Light.
    Fft,
    /// 3D Laplace solver (MAFIA) — Medium.
    Lps,
    /// JPEG encode/decode (MAFIA) — Medium.
    Jpeg,
    /// LIBOR swaption portfolio (MAFIA) — Medium.
    Lib,
    /// Speckle-reducing anisotropic diffusion (Rodinia) — Medium.
    Srad,
    /// 3DS: patterned array updates (MAFIA) — Medium.
    Tds,
    /// BlackScholes market-equation solver (MAFIA) — Heavy in practice:
    /// good cache locality, but co-scheduled warps with disjoint working
    /// sets thrash the TLB (paper §III).
    Blk,
    /// Quality-threshold clustering (SHOC) — Heavy.
    Qtc,
    /// Sum of absolute differences (Parboil) — Heavy.
    Sad,
    /// GUPS: multi-threaded random access — Heavy.
    Gups,
}

impl AppId {
    /// All 13 applications, in the paper's Table II order.
    pub const ALL: [AppId; 13] = [
        AppId::Mm,
        AppId::Hs,
        AppId::Ray,
        AppId::Fft,
        AppId::Lps,
        AppId::Jpeg,
        AppId::Lib,
        AppId::Srad,
        AppId::Tds,
        AppId::Blk,
        AppId::Qtc,
        AppId::Sad,
        AppId::Gups,
    ];

    /// The short name the paper uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppId::Mm => "MM",
            AppId::Hs => "HS",
            AppId::Ray => "RAY",
            AppId::Fft => "FFT",
            AppId::Lps => "LPS",
            AppId::Jpeg => "JPEG",
            AppId::Lib => "LIB",
            AppId::Srad => "SRAD",
            AppId::Tds => "3DS",
            AppId::Blk => "BLK",
            AppId::Qtc => "QTC",
            AppId::Sad => "SAD",
            AppId::Gups => "GUPS",
        }
    }

    /// Parses a paper-style short name ("GUPS", "3DS", …), case-insensitive.
    /// Inverse of [`name`](Self::name); used by the CLI and the JSON cache.
    #[must_use]
    pub fn from_name(name: &str) -> Option<AppId> {
        AppId::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// The MPMI class this app is calibrated to.
    #[must_use]
    pub fn class(self) -> MpmiClass {
        match self {
            AppId::Mm | AppId::Hs | AppId::Ray | AppId::Fft => MpmiClass::Light,
            AppId::Lps | AppId::Jpeg | AppId::Lib | AppId::Srad | AppId::Tds => MpmiClass::Medium,
            AppId::Blk | AppId::Qtc | AppId::Sad | AppId::Gups => MpmiClass::Heavy,
        }
    }

    /// The behavioral profile driving this app's [`crate::WarpStream`]s.
    #[must_use]
    pub fn profile(self) -> AppProfile {
        // Knob guide (see crate docs): standalone thread-level MPMI is
        // approximately cold_prob * divergence / (mean_compute + 1) / 32 * 1e6
        // when the aggregate cold region dwarfs the 1024-entry L2 TLB.
        match self {
            AppId::Mm => AppProfile {
                id: self,
                mean_compute: 24.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 8,
                cold_prob: 0.003,
                warm_pages: 320,
                warm_prob: 0.35,
                storm_every_ops: 800,
                storm_ops: 80,
                storm_cold_prob: 0.012,
                hot_pattern: HotPattern::Sequential,
                length_scale: 1.0,
            },
            AppId::Hs => AppProfile {
                id: self,
                mean_compute: 20.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 6,
                cold_prob: 0.006,
                warm_pages: 256,
                warm_prob: 0.35,
                storm_every_ops: 800,
                storm_ops: 80,
                storm_cold_prob: 0.024,
                hot_pattern: HotPattern::Sequential,
                length_scale: 0.9,
            },
            AppId::Ray => AppProfile {
                id: self,
                mean_compute: 28.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 16,
                cold_prob: 0.009,
                warm_pages: 320,
                warm_prob: 0.3,
                storm_every_ops: 800,
                storm_ops: 80,
                storm_cold_prob: 0.037,
                hot_pattern: HotPattern::Random,
                length_scale: 1.2,
            },
            AppId::Fft => AppProfile {
                id: self,
                mean_compute: 20.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 16,
                cold_prob: 0.0046,
                warm_pages: 256,
                warm_prob: 0.35,
                storm_every_ops: 800,
                storm_ops: 80,
                storm_cold_prob: 0.018,
                hot_pattern: HotPattern::Strided(3),
                length_scale: 0.8,
            },
            AppId::Lps => AppProfile {
                id: self,
                mean_compute: 16.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 64,
                cold_prob: 0.004,
                warm_pages: 512,
                warm_prob: 0.45,
                storm_every_ops: 1200,
                storm_ops: 200,
                storm_cold_prob: 0.028,
                hot_pattern: HotPattern::Sequential,
                length_scale: 1.0,
            },
            AppId::Jpeg => AppProfile {
                id: self,
                mean_compute: 16.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 64,
                cold_prob: 0.004,
                warm_pages: 512,
                warm_prob: 0.45,
                storm_every_ops: 1200,
                storm_ops: 200,
                storm_cold_prob: 0.036,
                hot_pattern: HotPattern::Sequential,
                length_scale: 1.1,
            },
            AppId::Lib => AppProfile {
                id: self,
                mean_compute: 18.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 96,
                cold_prob: 0.006,
                warm_pages: 448,
                warm_prob: 0.42,
                storm_every_ops: 1200,
                storm_ops: 200,
                storm_cold_prob: 0.048,
                hot_pattern: HotPattern::Random,
                length_scale: 1.0,
            },
            AppId::Srad => AppProfile {
                id: self,
                mean_compute: 16.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 64,
                cold_prob: 0.004,
                warm_pages: 512,
                warm_prob: 0.45,
                storm_every_ops: 1200,
                storm_ops: 200,
                storm_cold_prob: 0.03,
                hot_pattern: HotPattern::Sequential,
                length_scale: 0.9,
            },
            AppId::Tds => AppProfile {
                id: self,
                mean_compute: 16.0,
                divergence: 1,
                hot_pages: 2,
                cold_pages: 128,
                cold_prob: 0.004,
                warm_pages: 512,
                warm_prob: 0.48,
                storm_every_ops: 1200,
                storm_ops: 200,
                storm_cold_prob: 0.034,
                hot_pattern: HotPattern::Strided(5),
                length_scale: 1.0,
            },
            AppId::Blk => AppProfile {
                id: self,
                // Good cache locality (small aggregate line working set)
                // but warps' disjoint page sets thrash the TLB.
                mean_compute: 12.0,
                divergence: 1,
                hot_pages: 4,
                cold_pages: 40,
                cold_prob: 0.15,
                warm_pages: 0,
                warm_prob: 0.0,
                storm_every_ops: 600,
                storm_ops: 90,
                storm_cold_prob: 0.5,
                hot_pattern: HotPattern::Random,
                length_scale: 1.1,
            },
            AppId::Qtc => AppProfile {
                id: self,
                mean_compute: 12.0,
                divergence: 2,
                hot_pages: 2,
                cold_pages: 256,
                cold_prob: 0.15,
                warm_pages: 0,
                warm_prob: 0.0,
                storm_every_ops: 600,
                storm_ops: 90,
                storm_cold_prob: 0.45,
                hot_pattern: HotPattern::Random,
                length_scale: 1.2,
            },
            AppId::Sad => AppProfile {
                id: self,
                mean_compute: 10.0,
                divergence: 2,
                hot_pages: 2,
                cold_pages: 512,
                cold_prob: 0.25,
                warm_pages: 0,
                warm_prob: 0.0,
                storm_every_ops: 600,
                storm_ops: 90,
                storm_cold_prob: 0.65,
                hot_pattern: HotPattern::Random,
                length_scale: 0.9,
            },
            AppId::Gups => AppProfile {
                id: self,
                mean_compute: 16.0,
                divergence: 4,
                hot_pages: 1,
                cold_pages: 2048,
                cold_prob: 0.9,
                warm_pages: 0,
                warm_prob: 0.0,
                storm_every_ops: 0,
                storm_ops: 0,
                storm_cold_prob: 0.0,
                hot_pattern: HotPattern::Random,
                length_scale: 1.0,
            },
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Behavioral parameters of one modeled application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Which application this is.
    pub id: AppId,
    /// Mean compute instructions between memory instructions (geometric).
    pub mean_compute: f64,
    /// Distinct pages touched per memory instruction after coalescing
    /// (1 = fully coalesced; >1 = divergent).
    pub divergence: usize,
    /// Per-warp hot region, in pages: reused heavily, collectively sized to
    /// (mostly) fit the TLBs for Light apps.
    pub hot_pages: u64,
    /// Per-warp cold region, in pages: touched with `cold_prob`, disjoint
    /// per warp, collectively far exceeding TLB reach.
    pub cold_pages: u64,
    /// Probability a page reference targets the cold region.
    pub cold_prob: f64,
    /// Tenant-shared warm region, in pages: swept sequentially with a long
    /// reuse interval. Standalone it fits the L2 TLB (low MPMI); under a
    /// walk-intensive co-tenant its entries are evicted between reuses, so
    /// the miss rate inflates — the TLB-thrash channel of §IV.
    pub warm_pages: u64,
    /// Probability a page reference targets the warm region.
    pub warm_prob: f64,
    /// Miss-storm period, in warp operations (0 disables storms). Real
    /// kernels change phase — a new tile, a new input block — and emit a
    /// burst of first-touch misses. Storms are what make walker *sharing*
    /// valuable (a storming tenant briefly wants every walker) and thus
    /// what separates DWS from naive static partitioning (Fig. 11).
    pub storm_every_ops: u64,
    /// Storm duration, in warp operations.
    pub storm_ops: u64,
    /// Cold-region probability during a storm (replaces `cold_prob`).
    pub storm_cold_prob: f64,
    /// Page-selection pattern within the hot region.
    pub hot_pattern: HotPattern,
    /// Relative execution length (multiplies the configured per-warp
    /// instruction budget), so co-tenants finish at different times and the
    /// relaunch methodology matters.
    pub length_scale: f64,
}

impl AppProfile {
    /// Total pages in one warp's working set (shared regions excluded).
    #[must_use]
    pub fn pages_per_warp(&self) -> u64 {
        self.hot_pages + self.cold_pages
    }

    /// Serializes the full profile, so synthetic (non-calibrated) tenants
    /// round-trip through fuzz repro files. The `id` only labels the
    /// tenant; behavior comes entirely from the knobs.
    #[must_use]
    pub fn to_json(&self) -> walksteal_sim_core::Json {
        use walksteal_sim_core::Json;
        let (pattern, stride) = match self.hot_pattern {
            HotPattern::Sequential => ("sequential", None),
            HotPattern::Strided(s) => ("strided", Some(s)),
            HotPattern::Random => ("random", None),
        };
        let mut obj = vec![
            ("id".into(), Json::Str(self.id.name().into())),
            ("mean_compute".into(), Json::Num(self.mean_compute)),
            ("divergence".into(), Json::UInt(self.divergence as u64)),
            ("hot_pages".into(), Json::UInt(self.hot_pages)),
            ("cold_pages".into(), Json::UInt(self.cold_pages)),
            ("cold_prob".into(), Json::Num(self.cold_prob)),
            ("warm_pages".into(), Json::UInt(self.warm_pages)),
            ("warm_prob".into(), Json::Num(self.warm_prob)),
            ("storm_every_ops".into(), Json::UInt(self.storm_every_ops)),
            ("storm_ops".into(), Json::UInt(self.storm_ops)),
            ("storm_cold_prob".into(), Json::Num(self.storm_cold_prob)),
            ("hot_pattern".into(), Json::Str(pattern.into())),
            ("length_scale".into(), Json::Num(self.length_scale)),
        ];
        if let Some(s) = stride {
            obj.push(("hot_stride".into(), Json::UInt(s)));
        }
        Json::Obj(obj)
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(v: &walksteal_sim_core::Json) -> Result<AppProfile, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(walksteal_sim_core::Json::as_str)
                .ok_or_else(|| format!("profile: missing string field `{k}`"))
        };
        let num = |k: &str| {
            v.get(k)
                .and_then(walksteal_sim_core::Json::as_f64)
                .ok_or_else(|| format!("profile: missing numeric field `{k}`"))
        };
        let uint = |k: &str| {
            v.get(k)
                .and_then(walksteal_sim_core::Json::as_u64)
                .ok_or_else(|| format!("profile: missing integer field `{k}`"))
        };
        let id_name = str_field("id")?;
        let id = AppId::from_name(id_name)
            .ok_or_else(|| format!("profile: unknown app id `{id_name}`"))?;
        let hot_pattern = match str_field("hot_pattern")? {
            "sequential" => HotPattern::Sequential,
            "random" => HotPattern::Random,
            "strided" => HotPattern::Strided(uint("hot_stride")?),
            other => return Err(format!("profile: unknown hot_pattern `{other}`")),
        };
        Ok(AppProfile {
            id,
            mean_compute: num("mean_compute")?,
            divergence: uint("divergence")? as usize,
            hot_pages: uint("hot_pages")?,
            cold_pages: uint("cold_pages")?,
            cold_prob: num("cold_prob")?,
            warm_pages: uint("warm_pages")?,
            warm_prob: num("warm_prob")?,
            storm_every_ops: uint("storm_every_ops")?,
            storm_ops: uint("storm_ops")?,
            storm_cold_prob: num("storm_cold_prob")?,
            hot_pattern,
            length_scale: num("length_scale")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_apps() {
        assert_eq!(AppId::ALL.len(), 13);
    }

    #[test]
    fn from_name_round_trips() {
        for app in AppId::ALL {
            assert_eq!(AppId::from_name(app.name()), Some(app));
            assert_eq!(AppId::from_name(&app.name().to_lowercase()), Some(app));
        }
        assert_eq!(AppId::from_name("nope"), None);
    }

    #[test]
    fn classes_match_paper_table() {
        use MpmiClass::*;
        let expect = [
            (AppId::Mm, Light),
            (AppId::Hs, Light),
            (AppId::Ray, Light),
            (AppId::Fft, Light),
            (AppId::Lps, Medium),
            (AppId::Jpeg, Medium),
            (AppId::Lib, Medium),
            (AppId::Srad, Medium),
            (AppId::Tds, Medium),
            (AppId::Blk, Heavy),
            (AppId::Qtc, Heavy),
            (AppId::Sad, Heavy),
            (AppId::Gups, Heavy),
        ];
        for (app, class) in expect {
            assert_eq!(app.class(), class, "{app}");
        }
    }

    #[test]
    fn profiles_are_sane() {
        for app in AppId::ALL {
            let p = app.profile();
            assert!(p.mean_compute >= 1.0, "{app}");
            assert!(p.divergence >= 1, "{app}");
            assert!(p.hot_pages >= 1, "{app}");
            assert!((0.0..=1.0).contains(&p.cold_prob), "{app}");
            assert!((0.0..=1.0).contains(&p.warm_prob), "{app}");
            assert!((0.0..=1.0).contains(&p.storm_cold_prob), "{app}");
            assert!(p.storm_ops <= p.storm_every_ops, "{app}");
            assert!(p.cold_prob + p.warm_prob <= 1.0, "{app}");
            // Warm regions must fit the 1024-entry L2 TLB standalone.
            assert!(p.warm_pages + p.hot_pages < 1024, "{app}");
            assert!(p.length_scale > 0.0, "{app}");
            assert_eq!(p.pages_per_warp(), p.hot_pages + p.cold_pages);
        }
    }

    #[test]
    fn heavier_classes_have_heavier_knobs() {
        // The product cold_prob*divergence/(mean_compute+1) orders the
        // classes (it is the analytic MPMI estimate).
        let intensity = |a: AppId| {
            let p = a.profile();
            let storm_frac = if p.storm_every_ops > 0 {
                p.storm_ops as f64 / p.storm_every_ops as f64
            } else {
                0.0
            };
            let eff_cold = p.cold_prob * (1.0 - storm_frac) + p.storm_cold_prob * storm_frac;
            eff_cold * p.divergence as f64 / (p.mean_compute + 1.0)
        };
        let max_light = AppId::ALL
            .iter()
            .filter(|a| a.class() == MpmiClass::Light)
            .map(|&a| intensity(a))
            .fold(0.0, f64::max);
        let min_medium = AppId::ALL
            .iter()
            .filter(|a| a.class() == MpmiClass::Medium)
            .map(|&a| intensity(a))
            .fold(f64::INFINITY, f64::min);
        let max_medium = AppId::ALL
            .iter()
            .filter(|a| a.class() == MpmiClass::Medium)
            .map(|&a| intensity(a))
            .fold(0.0, f64::max);
        let min_heavy = AppId::ALL
            .iter()
            .filter(|a| a.class() == MpmiClass::Heavy)
            .map(|&a| intensity(a))
            .fold(f64::INFINITY, f64::min);
        assert!(max_light < min_medium);
        assert!(max_medium < min_heavy);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(AppId::Tds.name(), "3DS");
        assert_eq!(AppId::Gups.to_string(), "GUPS");
        assert_eq!(MpmiClass::Heavy.to_string(), "H");
    }
}
