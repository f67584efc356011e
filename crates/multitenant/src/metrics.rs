//! Evaluation metrics: total IPC, weighted IPC, and fairness.
//!
//! Definitions follow §IV of the paper:
//!
//! * **Total IPC** (throughput): the sum of co-running tenants' IPCs —
//!   indicative of overall GPU utilization.
//! * **Weighted IPC**: Σᵢ IPCᶜ\[i\] / IPCˢᴬ\[i\], where IPCˢᴬ\[i\] is
//!   tenant i's stand-alone IPC (same SMs, whole memory system to itself).
//!   Ranges 0..n; higher means tenants are slowed less by co-running.
//! * **Fairness**: min(Sᵢ)/max(Sᵢ) over the tenants' slowdowns
//!   Sᵢ = IPCᶜ\[i\]/IPCˢᴬ\[i\] (Eyerman & Eeckhout). 1 is perfectly fair.

use walksteal_sim_core::Json;
use walksteal_workloads::AppId;

use crate::scenario::ChurnReport;

/// Per-tenant results of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantResult {
    /// The application this tenant ran.
    pub app: AppId,
    /// IPC over completed executions (warp instructions per cycle).
    pub ipc: f64,
    /// Warp instructions retired in completed executions.
    pub instructions: u64,
    /// Number of fully completed executions.
    pub completed_executions: u32,
    /// L2-TLB misses per million thread-level instructions (the paper's
    /// MPMI classification metric).
    pub mpmi: f64,
    /// Demand misses at the L2 TLB.
    pub l2_tlb_misses: u64,
    /// Mean page-walk latency, arrival to completion (cycles).
    pub mean_walk_latency: f64,
    /// Mean number of other-tenant walks one of this tenant's walks waited
    /// for (Tables III / V).
    pub mean_interleave: f64,
    /// Fraction of this tenant's walks serviced by stealing (Table VI).
    pub stolen_fraction: f64,
    /// Time-averaged fraction of walkers servicing this tenant (Fig. 9).
    pub pw_share: f64,
    /// Time-averaged fraction of (shared) L2 TLB capacity held (Fig. 9).
    pub tlb_share: f64,
}

/// One periodic snapshot of simulator state (see
/// [`GpuConfig::sample_interval`](crate::GpuConfig)).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// When the snapshot was taken.
    pub cycle: u64,
    /// Walks queued (not in service) at the walk subsystem.
    pub queued_walks: usize,
    /// Walkers busy servicing a walk.
    pub busy_walkers: usize,
    /// Warp instructions each tenant retired since the previous sample.
    pub instructions_delta: Vec<u64>,
}

/// Results of one complete simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-tenant metrics, indexed by tenant id.
    pub tenants: Vec<TenantResult>,
    /// Cycle at which the run's stop condition was met.
    pub cycles: u64,
    /// Total discrete events processed (diagnostics).
    pub events: u64,
    /// Periodic snapshots, when sampling was enabled (else empty).
    /// Defaults to empty on deserialization so results cached before
    /// sampling existed still load.
    pub timeline: Vec<Sample>,
    /// Fairness-under-churn metrics: `Some` exactly when a
    /// [`ScenarioSpec`](crate::ScenarioSpec) supplied the tenants, `None`
    /// for a tenant list (the JSON omits the key, so cached results of
    /// tenant lists stay byte-identical).
    pub churn: Option<ChurnReport>,
}

impl SimResult {
    /// Sum of tenants' IPCs (the paper's throughput metric).
    #[must_use]
    pub fn total_ipc(&self) -> f64 {
        self.tenants.iter().map(|t| t.ipc).sum()
    }

    /// Serializes to a [`Json`] document (the experiment cache format).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            (
                "tenants".to_string(),
                Json::Arr(self.tenants.iter().map(TenantResult::to_json).collect()),
            ),
            ("cycles".into(), Json::UInt(self.cycles)),
            ("events".into(), Json::UInt(self.events)),
            (
                "timeline".into(),
                Json::Arr(self.timeline.iter().map(Sample::to_json).collect()),
            ),
        ];
        if let Some(churn) = &self.churn {
            obj.push(("churn".into(), churn.to_json()));
        }
        Json::Obj(obj)
    }

    /// Deserializes from [`to_json`](Self::to_json) output. A missing
    /// `timeline` reads as empty so results cached before sampling existed
    /// still load.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<SimResult> {
        Some(SimResult {
            tenants: v
                .get("tenants")?
                .as_array()?
                .iter()
                .map(TenantResult::from_json)
                .collect::<Option<_>>()?,
            cycles: v.get("cycles")?.as_u64()?,
            events: v.get("events")?.as_u64()?,
            timeline: match v.get("timeline") {
                Some(t) => t
                    .as_array()?
                    .iter()
                    .map(Sample::from_json)
                    .collect::<Option<_>>()?,
                None => Vec::new(),
            },
            churn: v.get("churn").and_then(ChurnReport::from_json),
        })
    }
}

impl TenantResult {
    /// Serializes to a [`Json`] object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("app".into(), Json::Str(self.app.name().to_string())),
            ("ipc".into(), Json::Num(self.ipc)),
            ("instructions".into(), Json::UInt(self.instructions)),
            (
                "completed_executions".into(),
                Json::UInt(u64::from(self.completed_executions)),
            ),
            ("mpmi".into(), Json::Num(self.mpmi)),
            ("l2_tlb_misses".into(), Json::UInt(self.l2_tlb_misses)),
            (
                "mean_walk_latency".into(),
                Json::Num(self.mean_walk_latency),
            ),
            ("mean_interleave".into(), Json::Num(self.mean_interleave)),
            ("stolen_fraction".into(), Json::Num(self.stolen_fraction)),
            ("pw_share".into(), Json::Num(self.pw_share)),
            ("tlb_share".into(), Json::Num(self.tlb_share)),
        ])
    }

    /// Deserializes from [`to_json`](Self::to_json) output.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<TenantResult> {
        Some(TenantResult {
            app: AppId::from_name(v.get("app")?.as_str()?)?,
            ipc: v.get("ipc")?.as_f64()?,
            instructions: v.get("instructions")?.as_u64()?,
            completed_executions: u32::try_from(v.get("completed_executions")?.as_u64()?).ok()?,
            mpmi: v.get("mpmi")?.as_f64()?,
            l2_tlb_misses: v.get("l2_tlb_misses")?.as_u64()?,
            mean_walk_latency: v.get("mean_walk_latency")?.as_f64()?,
            mean_interleave: v.get("mean_interleave")?.as_f64()?,
            stolen_fraction: v.get("stolen_fraction")?.as_f64()?,
            pw_share: v.get("pw_share")?.as_f64()?,
            tlb_share: v.get("tlb_share")?.as_f64()?,
        })
    }
}

impl Sample {
    /// Serializes to a [`Json`] object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycle".into(), Json::UInt(self.cycle)),
            ("queued_walks".into(), Json::UInt(self.queued_walks as u64)),
            ("busy_walkers".into(), Json::UInt(self.busy_walkers as u64)),
            (
                "instructions_delta".into(),
                Json::Arr(
                    self.instructions_delta
                        .iter()
                        .map(|&d| Json::UInt(d))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes from [`to_json`](Self::to_json) output.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<Sample> {
        Some(Sample {
            cycle: v.get("cycle")?.as_u64()?,
            queued_walks: usize::try_from(v.get("queued_walks")?.as_u64()?).ok()?,
            busy_walkers: usize::try_from(v.get("busy_walkers")?.as_u64()?).ok()?,
            instructions_delta: v
                .get("instructions_delta")?
                .as_array()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()?,
        })
    }
}

/// Weighted IPC of `run` given each tenant's stand-alone IPC.
///
/// # Panics
///
/// Panics if `standalone_ipc.len()` differs from the tenant count or any
/// stand-alone IPC is non-positive.
#[must_use]
pub fn weighted_ipc(run: &SimResult, standalone_ipc: &[f64]) -> f64 {
    assert_eq!(
        run.tenants.len(),
        standalone_ipc.len(),
        "stand-alone IPC per tenant required"
    );
    run.tenants
        .iter()
        .zip(standalone_ipc)
        .map(|(t, &sa)| {
            assert!(sa > 0.0, "stand-alone IPC must be positive");
            t.ipc / sa
        })
        .sum()
}

/// Fairness of `run`: min slowdown over max slowdown (1 = perfectly fair).
///
/// # Panics
///
/// Panics if `standalone_ipc.len()` differs from the tenant count or any
/// stand-alone IPC is non-positive.
#[must_use]
pub fn fairness(run: &SimResult, standalone_ipc: &[f64]) -> f64 {
    assert_eq!(
        run.tenants.len(),
        standalone_ipc.len(),
        "stand-alone IPC per tenant required"
    );
    let slowdowns: Vec<f64> = run
        .tenants
        .iter()
        .zip(standalone_ipc)
        .map(|(t, &sa)| {
            assert!(sa > 0.0, "stand-alone IPC must be positive");
            t.ipc / sa
        })
        .collect();
    let min = slowdowns.iter().copied().fold(f64::INFINITY, f64::min);
    let max = slowdowns.iter().copied().fold(0.0, f64::max);
    if max == 0.0 {
        0.0
    } else {
        min / max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(app: AppId, ipc: f64) -> TenantResult {
        TenantResult {
            app,
            ipc,
            instructions: 1000,
            completed_executions: 1,
            mpmi: 0.0,
            l2_tlb_misses: 0,
            mean_walk_latency: 0.0,
            mean_interleave: 0.0,
            stolen_fraction: 0.0,
            pw_share: 0.0,
            tlb_share: 0.0,
        }
    }

    fn run(ipcs: &[f64]) -> SimResult {
        SimResult {
            tenants: ipcs.iter().map(|&i| tenant(AppId::Mm, i)).collect(),
            cycles: 100,
            events: 0,
            timeline: Vec::new(),
            churn: None,
        }
    }

    #[test]
    fn total_ipc_sums() {
        assert_eq!(run(&[0.5, 0.7]).total_ipc(), 1.2);
    }

    #[test]
    fn weighted_ipc_normalizes() {
        // Both tenants at half their stand-alone speed -> weighted IPC 1.0.
        let w = weighted_ipc(&run(&[0.5, 1.0]), &[1.0, 2.0]);
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_ipc_max_is_n() {
        let w = weighted_ipc(&run(&[1.0, 2.0]), &[1.0, 2.0]);
        assert!((w - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_one_when_equal_slowdowns() {
        let f = fairness(&run(&[0.5, 1.0]), &[1.0, 2.0]);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_low_when_one_tenant_starves() {
        let f = fairness(&run(&[0.1, 1.9]), &[2.0, 2.0]);
        assert!((f - (0.05 / 0.95)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "stand-alone IPC per tenant")]
    fn mismatched_lengths_panic() {
        let _ = weighted_ipc(&run(&[1.0]), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_standalone_panics() {
        let _ = fairness(&run(&[1.0]), &[0.0]);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut r = run(&[0.123_456_789, 1.5]);
        r.tenants[1].app = AppId::Tds;
        r.tenants[0].mpmi = 87.3;
        r.tenants[0].l2_tlb_misses = u64::MAX;
        r.timeline.push(Sample {
            cycle: 1000,
            queued_walks: 12,
            busy_walkers: 16,
            instructions_delta: vec![5, 7],
        });
        let text = r.to_json().dump();
        let back = SimResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn json_missing_timeline_defaults_empty() {
        let r = run(&[1.0]);
        let Json::Obj(mut entries) = r.to_json() else {
            panic!("expected object")
        };
        entries.retain(|(k, _)| k != "timeline");
        let back = SimResult::from_json(&Json::Obj(entries)).unwrap();
        assert!(back.timeline.is_empty());
        assert_eq!(back.tenants, r.tenants);
    }

    #[test]
    fn json_round_trips_churn_and_defaults_to_none() {
        use crate::scenario::TenantChurn;
        let mut r = run(&[1.0]);
        let plain = r.to_json().dump();
        assert!(!plain.contains("churn"), "static results omit the key");
        assert!(SimResult::from_json(&Json::parse(&plain).unwrap())
            .unwrap()
            .churn
            .is_none());

        r.churn = Some(ChurnReport {
            tenants: vec![TenantChurn {
                arrived: Some(0),
                departed: None,
                evicted: false,
                slo_target: Some(900),
                slo_checks: 2,
                slo_met: 2,
                throttled_checks: 0,
                cancelled_walks: 0,
                lifetime_instructions: 10,
                lifetime_cycles: 100,
            }],
            evictions: 0,
            repartitions: 1,
            throttles: 0,
        });
        let text = r.to_json().dump();
        let back = SimResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(SimResult::from_json(&Json::parse("{}").unwrap()).is_none());
        assert!(SimResult::from_json(&Json::parse("[1,2]").unwrap()).is_none());
        let bad_app = r#"{"tenants":[{"app":"NOPE"}],"cycles":1,"events":0}"#;
        assert!(SimResult::from_json(&Json::parse(bad_app).unwrap()).is_none());
    }
}
