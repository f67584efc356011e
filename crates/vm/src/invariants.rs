//! Reusable, non-panicking invariant checks for the page-walk subsystem.
//!
//! These are the N-tenant scheduler properties the test suite asserts
//! (`tests/properties.rs`) factored into library form so the scenario
//! fuzzer can evaluate the same checks without unwinding: every function
//! returns `Err(description)` instead of panicking, which lets the
//! delta-debugging shrinker re-run a failing scenario thousands of times
//! cheaply and lets the test suite keep its panic semantics by unwrapping.
//!
//! The checks only look at the subsystem's public inspection views
//! ([`WalkSubsystem::pend_walks`], [`WalkSubsystem::walker_queue_depths`],
//! [`WalkSubsystem::walker_owners`], [`WalkSubsystem::walker_stolen_bits`],
//! [`WalkSubsystem::stats`]), so they hold for any scheduler
//! implementation behind the `PartScheduler` trait.

use walksteal_sim_core::TenantId;

use crate::walk::WalkSubsystem;

/// Conservation and occupancy invariants of the partitioned scheduler,
/// checked against its own PEND_WALKS / queue-depth / ownership views:
///
/// * per tenant, `enqueued == completed + PEND_WALKS`;
/// * per tenant, `PEND_WALKS == occupancy of the tenant's own walkers'
///   queues + its in-service walks` (stolen walks run elsewhere but queue
///   only at home);
/// * every enqueue attempt was either accepted or rejected;
/// * the aggregate queue occupancy agrees with the per-walker view.
///
/// For non-partitioned policies (shared queue, private pools) the
/// per-tenant PEND_WALKS views do not exist; only the attempt-accounting
/// check applies there.
///
/// `attempts` is the caller-counted number of `try_enqueue` attempts so
/// far; `at` labels the check point in the error message.
///
/// The per-tenant ownership decomposition assumes walker ownership has not
/// changed while walks were queued. After a mid-run repartition
/// ([`WalkSubsystem::set_active_tenants`]) a departing tenant's queued
/// walks drain from walkers now owned by someone else, transiently
/// violating it — use [`check_accounting`] across that window instead.
pub fn check_scheduler(ws: &WalkSubsystem, attempts: u64, at: &str) -> Result<(), String> {
    check_accounting(ws, attempts, at)?;

    let (Some(pend), Some(depths), Some(owners)) = (
        ws.pend_walks(),
        ws.walker_queue_depths(),
        ws.walker_owners(),
    ) else {
        return Ok(()); // Not partitioned: no per-tenant views to check.
    };
    let busy = ws.busy_per_tenant();

    for (t, &p) in pend.iter().enumerate() {
        // PEND_WALKS is exactly the tenant's queued walks (which live only
        // in its own walkers' queues) plus its in-service walks (wherever
        // they run, stolen or not).
        let queued: usize = depths
            .iter()
            .zip(&owners)
            .filter(|&(_, &o)| o == TenantId(t as u8))
            .map(|(&d, _)| d)
            .sum();
        if p as usize != queued + busy[t] {
            return Err(format!(
                "{at}: tenant {t} PEND_WALKS {p} != owned-queue occupancy \
                 {queued} + in-service {}",
                busy[t]
            ));
        }
    }
    Ok(())
}

/// The ownership-free subset of [`check_scheduler`]: attempt and walk
/// conservation plus aggregate-occupancy agreement. These hold across
/// mid-run repartitions and tenant attach/detach, where the full ownership
/// decomposition does not: a walk accepted into the subsystem is either
/// completed, cancelled by a departure
/// ([`WalkSubsystem::cancel_tenant`]), or still pending.
pub fn check_accounting(ws: &WalkSubsystem, attempts: u64, at: &str) -> Result<(), String> {
    let stats = ws.stats();

    // Every enqueue attempt was either accepted or rejected.
    let accepted: u64 = stats.enqueued.iter().sum();
    let rejected: u64 = stats.rejected.iter().sum();
    if attempts != accepted + rejected {
        return Err(format!(
            "{at}: attempts unaccounted: {attempts} attempted, \
             {accepted} accepted + {rejected} rejected"
        ));
    }

    let (Some(pend), Some(depths)) = (ws.pend_walks(), ws.walker_queue_depths()) else {
        // Not partitioned: no PEND_WALKS views, but aggregate conservation
        // still holds — accepted walks are completed, cancelled, queued, or
        // in service.
        let completed: u64 = stats.completed.iter().sum();
        let cancelled: u64 = stats.cancelled.iter().sum();
        let outstanding = (ws.queued_len() + ws.busy_walkers()) as u64;
        if accepted != completed + cancelled + outstanding {
            return Err(format!(
                "{at}: aggregate walk conservation: enqueued {accepted} != \
                 completed {completed} + cancelled {cancelled} + outstanding \
                 {outstanding}"
            ));
        }
        return Ok(());
    };

    for (t, &p) in pend.iter().enumerate() {
        // Every accepted walk is completed, cancelled, or still pending,
        // per tenant — the form that survives tenant attach/detach.
        if stats.enqueued[t] != stats.completed[t] + stats.cancelled[t] + u64::from(p) {
            return Err(format!(
                "{at}: tenant {t} walk conservation (PEND_WALKS): \
                 enqueued {} != completed {} + cancelled {} + pending {p}",
                stats.enqueued[t], stats.completed[t], stats.cancelled[t]
            ));
        }
    }

    // The aggregate queue occupancy agrees with the per-walker view.
    let per_walker: usize = depths.iter().sum();
    if ws.queued_len() != per_walker {
        return Err(format!(
            "{at}: queued_len {} != sum of walker queue depths {per_walker}",
            ws.queued_len()
        ));
    }
    Ok(())
}

/// The FWA no-consecutive-steals rule, checked from the outside: a walker
/// whose previous walk was stolen and whose own queue had work must not
/// have picked up another stolen walk.
///
/// `pre_depths` and `pre_stolen` are the [`WalkSubsystem::walker_queue_depths`]
/// and [`WalkSubsystem::walker_stolen_bits`] views captured immediately
/// before the `on_walker_done` call whose follow-on dispatch landed on
/// walker `w`; the post-dispatch stolen bits are read from `ws`.
pub fn check_no_consecutive_steal(
    ws: &WalkSubsystem,
    pre_depths: &[usize],
    pre_stolen: &[bool],
    w: usize,
) -> Result<(), String> {
    let Some(post_stolen) = ws.walker_stolen_bits() else {
        return Ok(()); // Not partitioned: stealing does not exist.
    };
    if post_stolen[w] && pre_depths[w] > 0 && pre_stolen[w] {
        return Err(format!(
            "walker {w} stole twice in a row with its own queue non-empty"
        ));
    }
    Ok(())
}

/// Two subsystems driven in lockstep must expose identical inspection
/// views: PEND_WALKS, per-walker queue depths, stolen bits, walker
/// ownership, aggregate occupancy, and busy-walker counts.
pub fn check_views_agree(a: &WalkSubsystem, b: &WalkSubsystem, at: &str) -> Result<(), String> {
    if a.pend_walks() != b.pend_walks() {
        return Err(format!(
            "{at}: PEND_WALKS diverged: {:?} vs {:?}",
            a.pend_walks(),
            b.pend_walks()
        ));
    }
    if a.walker_queue_depths() != b.walker_queue_depths() {
        return Err(format!(
            "{at}: walker queue depths diverged: {:?} vs {:?}",
            a.walker_queue_depths(),
            b.walker_queue_depths()
        ));
    }
    if a.walker_stolen_bits() != b.walker_stolen_bits() {
        return Err(format!(
            "{at}: walker stolen bits diverged: {:?} vs {:?}",
            a.walker_stolen_bits(),
            b.walker_stolen_bits()
        ));
    }
    if a.walker_owners() != b.walker_owners() {
        return Err(format!(
            "{at}: walker ownership diverged: {:?} vs {:?}",
            a.walker_owners(),
            b.walker_owners()
        ));
    }
    if a.queued_len() != b.queued_len() {
        return Err(format!(
            "{at}: queued_len diverged: {} vs {}",
            a.queued_len(),
            b.queued_len()
        ));
    }
    if a.busy_walkers() != b.busy_walkers() {
        return Err(format!(
            "{at}: busy_walkers diverged: {} vs {}",
            a.busy_walkers(),
            b.busy_walkers()
        ));
    }
    Ok(())
}

/// Terminal-state check after all outstanding walks drained: nothing left
/// in flight or queued, and the scheduler invariants still hold.
pub fn check_drained(ws: &WalkSubsystem, attempts: u64, at: &str) -> Result<(), String> {
    check_scheduler(ws, attempts, at)?;
    if ws.busy_walkers() != 0 {
        return Err(format!("{at}: {} walks left in flight", ws.busy_walkers()));
    }
    if ws.queued_len() != 0 {
        return Err(format!("{at}: {} walks left queued", ws.queued_len()));
    }
    Ok(())
}
