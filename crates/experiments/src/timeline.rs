//! Reconstructs walk-scheduler behavior from a JSONL trace.
//!
//! [`TraceReplay`] re-derives, from the walk-lifecycle events alone, the
//! same per-tenant statistics the simulator reports in its
//! [`TenantResult`](walksteal_multitenant::TenantResult)s — *PW share*
//! (the paper's Fig. 9 walker-occupancy fraction), the stolen-walk
//! fraction (Table VI), and mean cross-tenant interleaving (Table III).
//! The replay integrates busy walkers with the walk subsystem's own
//! [`ShareIntegral`], advanced at the same cycles, so on a trace recorded
//! with the `walk` kind enabled the reconstructed `pw_share` values compare
//! equal (`f64::to_bits`) to the simulator's own.
//!
//! [`first_mismatch`] is that comparison, the self-check `repro --trace`,
//! the fuzzer and the tests run. [`render`] turns a replay into the
//! terminal timeline `repro --trace` prints: a per-tenant sparkline of
//! walker occupancy over time (the pw-share curve) plus an
//! interleave/steal breakdown table.

use walksteal_multitenant::SimResult;
use walksteal_sim_core::trace::TraceEvent;
use walksteal_sim_core::{Cycle, Json, ShareIntegral, TenantId};

/// Per-tenant statistics reconstructed from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReplay {
    /// Time-averaged fraction of all walkers busy for this tenant over
    /// `[0, end]` — the paper's *PW share* (Fig. 9).
    pub pw_share: f64,
    /// Completed walks.
    pub completed: u64,
    /// Completed walks that were serviced by a stolen walker.
    pub stolen: u64,
    /// Fraction of completed walks serviced by stealing (Table VI).
    pub stolen_fraction: f64,
    /// Mean number of other-tenant walks interleaved ahead at dispatch
    /// (Table III).
    pub mean_interleave: f64,
    /// Mean arrival-to-completion walk latency in cycles.
    pub mean_latency: f64,
    /// Walks rejected at enqueue for lack of queue space.
    pub rejected: u64,
}

/// Everything [`replay`] reconstructs from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReplay {
    /// Tenant count from the `run_start` header.
    pub n_tenants: usize,
    /// Walker count from the `run_start` header.
    pub n_walkers: usize,
    /// Workload seed from the `run_start` header.
    pub seed: u64,
    /// Final cycle from the `run_end` footer.
    pub end_cycle: u64,
    /// Events the simulator processed (from `run_end`).
    pub sim_events: u64,
    /// Trace events replayed.
    pub trace_events: u64,
    /// Steal dispatches observed (`steal` events).
    pub steals_observed: u64,
    /// DWS++ epoch rollovers observed (`epoch_update` events).
    pub epoch_updates: u64,
    /// Per-tenant reconstruction.
    pub tenants: Vec<TenantReplay>,
    /// Per-tenant walker occupancy per time bucket, `buckets[tenant][i]`
    /// in `0.0..=1.0` of the whole walker pool — the pw-share curve.
    pub occupancy: Vec<Vec<f64>>,
}

/// Time buckets the occupancy curve is rendered into (terminal columns).
const CURVE_COLS: usize = 72;

/// Sparkline glyphs, lowest to highest.
const BARS: [char; 8] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇'];

/// Parses one JSONL trace (one event per line, as written by
/// [`JsonlTracer`](walksteal_sim_core::JsonlTracer)).
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_trace(jsonl: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let ev = TraceEvent::from_json(&json).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// Replays `events` (in file order) into per-tenant statistics and the
/// occupancy curve.
///
/// Requires the `meta` events (`run_start` / `run_end`), which every
/// [`TraceFilter`](walksteal_sim_core::TraceFilter) retains; exact
/// `pw_share` reconstruction additionally needs the `walk` kind to have
/// been enabled when the trace was recorded.
///
/// # Errors
///
/// Returns a message if the header or footer is missing, the header
/// declares more tenants than a [`TenantId`] can name, or an event
/// references a tenant/cycle outside the declared run.
pub fn replay(events: &[TraceEvent]) -> Result<TraceReplay, String> {
    let Some(TraceEvent::RunStart {
        n_tenants,
        n_walkers,
        seed,
        ..
    }) = events.first()
    else {
        return Err("trace does not begin with a run_start event".into());
    };
    let (n_tenants, n_walkers, seed) = (*n_tenants as usize, *n_walkers as usize, *seed);
    if n_tenants > TenantId::COUNT {
        return Err(format!(
            "run_start declares {n_tenants} tenants; a tenant id names at most {}",
            TenantId::COUNT
        ));
    }
    let Some(TraceEvent::RunEnd {
        cycle: end_cycle,
        events: sim_events,
    }) = events.last()
    else {
        return Err("trace does not end with a run_end event (aborted run?)".into());
    };
    let (end_cycle, sim_events) = (*end_cycle, *sim_events);

    let mut busy = ShareIntegral::new(n_tenants, n_walkers);
    let mut completed = vec![0u64; n_tenants];
    let mut stolen = vec![0u64; n_tenants];
    let mut interleave_sum = vec![0u64; n_tenants];
    let mut latency_sum = vec![0u64; n_tenants];
    let mut rejected = vec![0u64; n_tenants];
    let mut steals_observed = 0u64;
    let mut epoch_updates = 0u64;

    // The occupancy curve: integrate busy counts into fixed-width buckets.
    let cols = CURVE_COLS.min(end_cycle.max(1) as usize);
    let bucket_width = end_cycle.max(1).div_ceil(cols as u64).max(1);
    let mut curve = vec![vec![0.0f64; cols]; n_tenants];
    let mut curve_last = 0u64;
    let mut integrate = |count: &[usize], last: &mut u64, now: u64| {
        // Spread each tenant's busy time across the buckets it spans.
        let (mut from, to) = (*last, now.min(end_cycle));
        while from < to {
            let bucket = (from / bucket_width) as usize;
            let bucket_end = ((bucket as u64 + 1) * bucket_width).min(to);
            let span = (bucket_end - from) as f64;
            // `from < end_cycle <= cols * bucket_width`, so `bucket < cols`.
            for (row, &c) in curve.iter_mut().zip(count) {
                row[bucket] += c as f64 * span;
            }
            from = bucket_end;
        }
        *last = (*last).max(now);
    };

    let check = |t: u8| -> Result<usize, String> {
        let t = t as usize;
        if t >= n_tenants {
            return Err(format!("event references tenant {t} of {n_tenants}"));
        }
        Ok(t)
    };

    for ev in events {
        match ev {
            TraceEvent::WalkAssign {
                cycle,
                tenant,
                interleaved,
                ..
            } => {
                let t = check(*tenant)?;
                busy.advance(Cycle(*cycle));
                integrate(busy.counts(), &mut curve_last, *cycle);
                busy.add(TenantId(*tenant), 1);
                interleave_sum[t] += interleaved;
            }
            TraceEvent::WalkComplete {
                cycle,
                tenant,
                stolen: was_stolen,
                latency,
                ..
            } => {
                let t = check(*tenant)?;
                busy.advance(Cycle(*cycle));
                integrate(busy.counts(), &mut curve_last, *cycle);
                if busy.count(TenantId(*tenant)) == 0 {
                    return Err(format!(
                        "walk_complete for tenant {t} at cycle {cycle} with no walk in flight"
                    ));
                }
                busy.sub(TenantId(*tenant), 1);
                completed[t] += 1;
                latency_sum[t] += latency;
                if *was_stolen {
                    stolen[t] += 1;
                }
            }
            TraceEvent::WalkReject { tenant, .. } => {
                rejected[check(*tenant)?] += 1;
            }
            TraceEvent::Steal { tenant, .. } => {
                let _ = check(*tenant)?;
                steals_observed += 1;
            }
            TraceEvent::EpochUpdate { .. } => epoch_updates += 1,
            _ => {}
        }
    }
    integrate(busy.counts(), &mut curve_last, end_cycle);

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let tenants = (0..n_tenants)
        .map(|t| TenantReplay {
            pw_share: busy.share(TenantId(t as u8), Cycle(end_cycle)),
            completed: completed[t],
            stolen: stolen[t],
            stolen_fraction: ratio(stolen[t], completed[t]),
            mean_interleave: ratio(interleave_sum[t], completed[t]),
            mean_latency: ratio(latency_sum[t], completed[t]),
            rejected: rejected[t],
        })
        .collect();

    // Normalize bucket integrals to a fraction of the whole walker pool.
    for row in &mut curve {
        for (i, v) in row.iter_mut().enumerate() {
            let start = i as u64 * bucket_width;
            let width = bucket_width.min(end_cycle.saturating_sub(start)).max(1);
            *v /= width as f64 * n_walkers as f64;
        }
    }

    Ok(TraceReplay {
        n_tenants,
        n_walkers,
        seed,
        end_cycle,
        sim_events,
        trace_events: events.len() as u64,
        steals_observed,
        epoch_updates,
        tenants,
        occupancy: curve,
    })
}

/// Compares a replay with the run that recorded the trace: each tenant's
/// replayed `pw_share`, stolen fraction, mean interleave and mean walk
/// latency must equal the simulator's own bit for bit (`f64::to_bits`).
/// Returns the first mismatch, described, or `None` when all agree.
///
/// Exact agreement needs the trace to have been recorded with the `walk`
/// kind enabled.
#[must_use]
pub fn first_mismatch(replay: &TraceReplay, result: &SimResult) -> Option<String> {
    if replay.tenants.len() != result.tenants.len() {
        return Some(format!(
            "replayed {} tenants, simulated {}",
            replay.tenants.len(),
            result.tenants.len()
        ));
    }
    for (t, (rep, sim)) in replay.tenants.iter().zip(&result.tenants).enumerate() {
        for (what, got, want) in [
            ("pw_share", rep.pw_share, sim.pw_share),
            ("stolen_fraction", rep.stolen_fraction, sim.stolen_fraction),
            ("mean_interleave", rep.mean_interleave, sim.mean_interleave),
            ("mean_walk_latency", rep.mean_latency, sim.mean_walk_latency),
        ] {
            if got.to_bits() != want.to_bits() {
                return Some(format!(
                    "tenant {t} {what}: replayed {got} != simulated {want}"
                ));
            }
        }
    }
    None
}

fn sparkline(values: &[f64], max: f64) -> String {
    values
        .iter()
        .map(|&v| {
            let idx = if max > 0.0 {
                ((v / max) * (BARS.len() - 1) as f64).round() as usize
            } else {
                0
            };
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

/// Renders the replay as the terminal timeline `repro --trace` prints:
/// header, per-tenant pw-share sparklines (Fig. 9's curve), and the
/// Table III/VI-style interleave and steal breakdown.
#[must_use]
pub fn render(replay: &TraceReplay, tenant_names: &[String]) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} tenants, {} walkers, seed {}, {} cycles, {} sim events, {} trace events",
        replay.n_tenants,
        replay.n_walkers,
        replay.seed,
        replay.end_cycle,
        replay.sim_events,
        replay.trace_events,
    );
    let peak = replay
        .occupancy
        .iter()
        .flatten()
        .copied()
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nwalker occupancy over time (peak {:.0}% of pool):",
        peak * 100.0
    );
    let name_of = |t: usize| -> String {
        tenant_names
            .get(t)
            .cloned()
            .unwrap_or_else(|| format!("T{t}"))
    };
    for (t, row) in replay.occupancy.iter().enumerate() {
        let _ = writeln!(out, "  {:<6} {}", name_of(t), sparkline(row, peak));
    }
    let _ = writeln!(
        out,
        "\n{:<6} {:>9} {:>8} {:>9} {:>11} {:>10} {:>9}",
        "tenant", "completed", "stolen%", "pw share", "interleave", "mean lat", "rejected"
    );
    for (t, r) in replay.tenants.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>7.1}% {:>9.4} {:>11.2} {:>10.0} {:>9}",
            name_of(t),
            r.completed,
            r.stolen_fraction * 100.0,
            r.pw_share,
            r.mean_interleave,
            r.mean_latency,
            r.rejected,
        );
    }
    if replay.epoch_updates > 0 {
        let _ = writeln!(
            out,
            "\n{} steal dispatches, {} DWS++ epoch rollovers",
            replay.steals_observed, replay.epoch_updates
        );
    } else if replay.steals_observed > 0 {
        let _ = writeln!(out, "\n{} steal dispatches", replay.steals_observed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use walksteal_multitenant::{PolicyPreset, RingTracer, SimulationBuilder};
    use walksteal_workloads::AppId;

    fn traced_run(preset: PolicyPreset) -> (Vec<TraceEvent>, SimResult) {
        let trace = RingTracer::unbounded();
        let result = SimulationBuilder::new()
            .n_sms(4)
            .warps_per_sm(4)
            .instructions_per_warp(400)
            .preset(preset)
            .tenants([AppId::Gups, AppId::Mm])
            .seed(9)
            .tracer(trace.clone())
            .build()
            .run();
        (trace.events(), result)
    }

    #[test]
    fn replay_reconstructs_pw_share_exactly() {
        for preset in [PolicyPreset::Baseline, PolicyPreset::Dws] {
            let (events, result) = traced_run(preset);
            let replay = replay(&events).expect("trace replays");
            assert_eq!(replay.end_cycle, result.cycles);
            assert_eq!(replay.sim_events, result.events);
            assert_eq!(first_mismatch(&replay, &result), None, "{preset:?}");
        }
    }

    #[test]
    fn first_mismatch_names_the_first_differing_statistic() {
        let (events, mut result) = traced_run(PolicyPreset::Dws);
        let replay = replay(&events).unwrap();
        result.tenants[1].mean_walk_latency += 1.0;
        result.tenants[1].stolen_fraction += 1.0;
        let found = first_mismatch(&replay, &result).expect("a mismatch");
        assert!(
            found.starts_with("tenant 1 stolen_fraction: replayed"),
            "{found}"
        );
        result.tenants.pop();
        let found = first_mismatch(&replay, &result).expect("a mismatch");
        assert_eq!(found, "replayed 2 tenants, simulated 1");
    }

    #[test]
    fn replay_round_trips_through_jsonl() {
        let (events, _) = traced_run(PolicyPreset::Dws);
        let jsonl: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json().dump()))
            .collect();
        let parsed = parse_trace(&jsonl).expect("parses");
        assert_eq!(parsed, events);
        assert_eq!(replay(&parsed).unwrap(), replay(&events).unwrap());
    }

    #[test]
    fn steals_only_under_stealing_policies() {
        let (baseline, _) = traced_run(PolicyPreset::Baseline);
        let (dws, _) = traced_run(PolicyPreset::Dws);
        assert_eq!(replay(&baseline).unwrap().steals_observed, 0);
        let r = replay(&dws).unwrap();
        assert!(r.steals_observed > 0, "DWS run should steal");
        let stolen: u64 = r.tenants.iter().map(|t| t.stolen).sum();
        assert_eq!(stolen, r.steals_observed, "every steal completes once");
    }

    #[test]
    fn render_is_total() {
        let (events, result) = traced_run(PolicyPreset::Dws);
        let replay = replay(&events).unwrap();
        let names: Vec<String> = result
            .tenants
            .iter()
            .map(|t| t.app.name().to_string())
            .collect();
        let text = render(&replay, &names);
        assert!(text.contains("walker occupancy"));
        assert!(text.contains("GUPS"));
        assert!(text.contains("pw share"));
    }

    #[test]
    fn more_tenants_than_ids_is_an_error() {
        let (mut events, _) = traced_run(PolicyPreset::Baseline);
        for n in [256, 257] {
            if let TraceEvent::RunStart { n_tenants, .. } = &mut events[0] {
                *n_tenants = n;
            }
            match replay(&events) {
                Ok(r) => assert_eq!((n, r.tenants.len()), (256, 256)),
                Err(e) => assert!(n == 257 && e.contains("257 tenants"), "{e}"),
            }
        }
    }

    #[test]
    fn truncated_trace_is_an_error() {
        let (mut events, _) = traced_run(PolicyPreset::Baseline);
        events.pop();
        assert!(replay(&events).unwrap_err().contains("run_end"));
        assert!(replay(&events[1..]).unwrap_err().contains("run_start"));
    }
}
