//! Dynamic tenancy: arrivals, departures, and an SLO-driven controller.
//!
//! A real multi-tenant GPU is not a fixed pair of apps — tenants arrive,
//! run for a while, and leave, and the operator promises each a walk-
//! latency SLO. This example scripts such a timeline with the scenario
//! DSL: MM is resident from cycle 0 with a p99 walk-latency target, GUPS
//! arrives later as a noisy neighbor, and the QoS controller samples MM's
//! walk-latency histogram, throttles the aggressor when MM's target is
//! violated, and evicts it if the violations persist.
//!
//! ```text
//! cargo run --release --example churn_slo
//! ```

use walksteal::multitenant::{PolicyPreset, ScenarioSpec, SimulationBuilder, SloPolicy};
use walksteal::workloads::AppId;

fn main() {
    // The timeline: MM at cycle 0 under a 900-cycle p99 SLO; GUPS crashes
    // the party at cycle 10k and would leave on its own at 80k — if the
    // controller tolerates it that long.
    let spec = ScenarioSpec::new()
        .arrive(0, AppId::Mm)
        .slo_target(0, 900)
        .arrive(10_000, AppId::Gups)
        .depart(80_000, 1)
        .slo_policy(SloPolicy {
            check_interval: 5_000, // sample each tenant's p99 every 5k cycles
            evict_after: 3,        // three straight violations evict the aggressor
            min_samples: 32,       // don't judge a quiet tenant
        });

    for preset in [PolicyPreset::Baseline, PolicyPreset::Dws] {
        let r = SimulationBuilder::new()
            .n_sms(8)
            .warps_per_sm(8)
            .instructions_per_warp(1_200)
            .walkers(16)
            .preset(preset)
            .scenario(spec.clone())
            .seed(42)
            .build()
            .run();
        let churn = r.churn.expect("scenario runs report churn");
        println!("== {} ==", preset.label());
        for (t, ch) in churn.tenants.iter().enumerate() {
            let fate = match (ch.departed, ch.evicted) {
                (Some(c), true) => format!("evicted @{c}"),
                (Some(c), false) => format!("departed @{c}"),
                (None, _) => "ran to the end".into(),
            };
            println!(
                "  tenant {t} ({:<4}) {:<16} lifetime IPC {:.3}  SLO {:>5.1}%",
                r.tenants[t].app.name(),
                fate,
                ch.lifetime_ipc(),
                100.0 * ch.slo_compliance(),
            );
        }
        println!(
            "  evictions {}  throttles {}  walker repartitions {}\n",
            churn.evictions, churn.throttles, churn.repartitions
        );
    }
    println!(
        "The controller watches the victim's p99, not the aggressor's\n\
         traffic: under DWS the extra stolen walkers often keep MM inside\n\
         its target, so GUPS is tolerated longer than under the baseline."
    );
}
