//! Structured errors and run budgets for the simulation kernel.
//!
//! The run path used to be panic-on-failure: a mis-configured simulation
//! could spin forever, and the only stop was a hard-coded cycle ceiling.
//! [`RunBudget`] bounds a run along three independent axes — events,
//! cycles, and wall-clock time — and a blown budget surfaces as a
//! [`SimError::BudgetExceeded`] carrying a [`RunDiag`] snapshot of how far
//! the run got, so the caller can report a partial-result diagnostic
//! instead of hanging or dying.

use std::fmt;
use std::time::Duration;

/// Which budget axis a run blew through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// Discrete events processed.
    Events,
    /// Simulated cycles elapsed.
    Cycles,
    /// Host wall-clock time elapsed.
    WallClock,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Events => "events",
            BudgetKind::Cycles => "cycles",
            BudgetKind::WallClock => "wall-clock",
        })
    }
}

/// Watchdog limits on one simulation run. `None` on an axis disables it.
///
/// # Examples
///
/// ```
/// use walksteal_sim_core::RunBudget;
///
/// let b = RunBudget::unlimited().with_max_events(1_000_000);
/// assert!(!b.is_unlimited());
/// assert_eq!(b.max_events, Some(1_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Abort after this many discrete events.
    pub max_events: Option<u64>,
    /// Abort once simulated time passes this cycle.
    pub max_cycles: Option<u64>,
    /// Abort once this much host time has elapsed.
    pub max_wall: Option<Duration>,
}

impl RunBudget {
    /// No limits on any axis (the default).
    #[must_use]
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Limits discrete events.
    #[must_use]
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    /// Limits simulated cycles.
    #[must_use]
    pub fn with_max_cycles(mut self, n: u64) -> Self {
        self.max_cycles = Some(n);
        self
    }

    /// Limits host wall-clock time.
    #[must_use]
    pub fn with_max_wall(mut self, d: Duration) -> Self {
        self.max_wall = Some(d);
        self
    }

    /// Whether every axis is unlimited (budget checks can be skipped).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none() && self.max_cycles.is_none() && self.max_wall.is_none()
    }
}

/// Snapshot of how far a run got when it was aborted — the partial-result
/// diagnostic attached to [`SimError::BudgetExceeded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDiag {
    /// Discrete events processed before the abort.
    pub events: u64,
    /// Simulated cycle reached.
    pub cycles: u64,
    /// Tenants that had completed at least one execution.
    pub tenants_done: usize,
    /// Total tenants in the run.
    pub tenants_total: usize,
}

impl fmt::Display for RunDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, cycle {}, {}/{} tenants complete",
            self.events, self.cycles, self.tenants_done, self.tenants_total
        )
    }
}

/// Why a configuration was rejected before any simulation started.
///
/// Construction helpers like `GpuConfig::try_for_tenants` return these
/// instead of panicking, so a CLI-supplied tenant count surfaces as a
/// diagnostic (and a non-zero exit code) rather than a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A simulation was requested with zero tenants.
    NoTenants,
    /// A simulation was requested with more tenants than a
    /// [`TenantId`](crate::TenantId) can name.
    TooManyTenants {
        /// The requested tenant count.
        count: usize,
        /// The most tenants a simulation can hold.
        max: usize,
    },
    /// A per-GPU resource cannot be split evenly among the tenants.
    UnevenSplit {
        /// What would have to split ("SMs", "walkers").
        resource: &'static str,
        /// How many of it the configuration has.
        count: usize,
        /// The requested tenant count.
        n_tenants: usize,
    },
    /// A machine with no SM or no warp per SM, or with more SMs or warps
    /// per SM than the simulator's events can index.
    Machine {
        /// The configured SM count.
        n_sms: usize,
        /// The configured warps per SM.
        warps_per_sm: usize,
        /// The most SMs, and the most warps per SM, a simulation holds.
        max: usize,
    },
    /// A TLB geometry no TLB can be built with: a set count that is not a
    /// power of two, or no ways.
    TlbGeometry {
        /// Which TLB ("L2 TLB").
        what: &'static str,
        /// The configured set count.
        sets: usize,
        /// The configured associativity.
        ways: usize,
    },
    /// A walk subsystem with no walker, more walkers than it supports, or
    /// no walk-queue entry.
    Walkers {
        /// The configured walker count.
        count: usize,
        /// The configured walk-queue entries.
        queue_entries: usize,
        /// The most walkers the walk subsystem supports.
        max: usize,
    },
    /// A partitioned walker policy asks for more walkers than its
    /// scheduler supports.
    TooManyWalkers {
        /// The configured walker count.
        count: usize,
        /// The most the partitioned scheduler supports.
        max: usize,
    },
    /// A partitioned walker policy with fewer walk-queue entries than
    /// walkers, which leaves a walker no queue entry of its own.
    ShortWalkQueue {
        /// The configured walk-queue entries.
        queue_entries: usize,
        /// The configured walker count.
        walkers: usize,
    },
    /// A scenario timeline failed validation (depart-before-arrive,
    /// out-of-range tenant index, a window with no resident tenant, ...).
    Scenario(String),
    /// A tenant's behavioral profile breaks the warp streams' structural
    /// constraints (an empty hot region, a probability out of range, ...),
    /// lays out pages past its page table's reach, or, with the tenants
    /// before it, could allocate more frames than a 32-bit page-table
    /// entry can hold.
    Profile {
        /// Index of the offending tenant.
        tenant: usize,
        /// What is wrong with its profile.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoTenants => write!(f, "need at least one tenant"),
            ConfigError::TooManyTenants { count, max } => {
                write!(f, "{count} tenants exceed the {max} a tenant id can name")
            }
            ConfigError::UnevenSplit {
                resource,
                count,
                n_tenants,
            } => write!(
                f,
                "{count} {resource} do not divide evenly among {n_tenants} tenants"
            ),
            ConfigError::Machine {
                n_sms,
                warps_per_sm,
                max,
            } => write!(
                f,
                "{n_sms} SMs with {warps_per_sm} warps per SM: need 1 to {max} SMs \
                 and 1 to {max} warps per SM"
            ),
            ConfigError::TlbGeometry { what, sets, ways } => write!(
                f,
                "{what} of {sets} sets x {ways} ways: the set count must be a power of two \
                 and the ways positive"
            ),
            ConfigError::Walkers {
                count,
                queue_entries,
                max,
            } => write!(
                f,
                "{count} walkers with {queue_entries} walk-queue entries: \
                 need 1 to {max} walkers and at least one queue entry"
            ),
            ConfigError::TooManyWalkers { count, max } => write!(
                f,
                "{count} walkers exceed the partitioned scheduler's limit of {max}"
            ),
            ConfigError::ShortWalkQueue {
                queue_entries,
                walkers,
            } => write!(
                f,
                "{queue_entries} walk-queue entries for {walkers} walkers: a partitioned \
                 policy needs at least one entry per walker"
            ),
            ConfigError::Scenario(msg) => write!(f, "invalid scenario: {msg}"),
            ConfigError::Profile { tenant, reason } => write!(f, "tenant {tenant}: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Structured failure of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The run blew through a [`RunBudget`] axis; `diag` records how far it
    /// got so callers can report a partial result instead of nothing.
    BudgetExceeded {
        /// The axis that tripped.
        kind: BudgetKind,
        /// The configured limit on that axis (events, cycles, or
        /// milliseconds for wall-clock).
        limit: u64,
        /// Where the run was when the watchdog fired.
        diag: RunDiag,
    },
    /// The configuration was rejected before the run started.
    InvalidConfig(ConfigError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BudgetExceeded { kind, limit, diag } => {
                let unit = match kind {
                    BudgetKind::Events => "events",
                    BudgetKind::Cycles => "cycles",
                    BudgetKind::WallClock => "ms",
                };
                write!(
                    f,
                    "{kind} budget exceeded (limit {limit} {unit}; at {diag})"
                )
            }
            SimError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidConfig(e) => Some(e),
            SimError::BudgetExceeded { .. } => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::InvalidConfig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_by_default() {
        assert!(RunBudget::default().is_unlimited());
        assert!(RunBudget::unlimited().is_unlimited());
    }

    #[test]
    fn builders_set_axes() {
        let b = RunBudget::unlimited()
            .with_max_events(10)
            .with_max_cycles(20)
            .with_max_wall(Duration::from_millis(30));
        assert!(!b.is_unlimited());
        assert_eq!(b.max_events, Some(10));
        assert_eq!(b.max_cycles, Some(20));
        assert_eq!(b.max_wall, Some(Duration::from_millis(30)));
    }

    #[test]
    fn error_display_names_the_axis() {
        let e = SimError::BudgetExceeded {
            kind: BudgetKind::Events,
            limit: 100,
            diag: RunDiag {
                events: 100,
                cycles: 7,
                tenants_done: 0,
                tenants_total: 2,
            },
        };
        let s = e.to_string();
        assert!(s.contains("events budget exceeded"), "{s}");
        assert!(s.contains("0/2 tenants"), "{s}");
    }
}
