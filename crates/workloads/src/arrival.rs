//! Seeded arrival-process generators for churn scenarios.
//!
//! The scenario engine replays a timeline of tenant arrivals and
//! departures against the simulator. This module generates those
//! timelines as *plain data* — `(cycle, app)` arrivals and
//! `(cycle, tenant)` departures — so the experiment layer can lower a
//! [`ChurnPlan`] into a scenario without this crate depending on the
//! simulator. Generation is a pure function of the seed: split
//! [`SimRng`] streams draw inter-arrival gaps, application choices, and
//! residency spans independently, so tweaking one knob never reshuffles
//! the draws behind another.
//!
//! Every plan satisfies the scenario engine's timeline rules by
//! construction: the first arrival is at cycle 0, arrival cycles are
//! non-decreasing (arrival order defines tenant indices), each departure
//! falls strictly after its tenant's arrival, no tenant departs twice,
//! and tenant 0 never departs — the GPU is never left empty.

use walksteal_sim_core::SimRng;

use crate::apps::AppId;

/// A generated churn timeline: tenant *i* runs `arrivals[i].1` starting
/// at cycle `arrivals[i].0`; `departures` lists `(cycle, tenant)` exits
/// in chronological order. Tenants with no entry in `departures` stay
/// resident to the end of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPlan {
    /// `(cycle, app)` per tenant, in tenant (= arrival) order.
    pub arrivals: Vec<(u64, AppId)>,
    /// `(cycle, tenant)` exits, sorted by cycle (ties by tenant index).
    pub departures: Vec<(u64, usize)>,
}

impl ChurnPlan {
    /// How many tenants arrive over the plan's lifetime.
    #[must_use]
    pub fn n_tenants(&self) -> usize {
        self.arrivals.len()
    }

    /// The applications in tenant order (the static-mix view of the
    /// plan, e.g. for cache keys and table labels).
    #[must_use]
    pub fn apps(&self) -> Vec<AppId> {
        self.arrivals.iter().map(|&(_, app)| app).collect()
    }

    /// The cycle of the last timeline event (arrival or departure).
    #[must_use]
    pub fn last_event_cycle(&self) -> u64 {
        let arr = self.arrivals.iter().map(|&(c, _)| c).max().unwrap_or(0);
        let dep = self.departures.iter().map(|&(c, _)| c).max().unwrap_or(0);
        arr.max(dep)
    }
}

/// A seeded arrival process: geometric inter-arrival gaps, uniform
/// application choice from a pool, and geometric residency spans for the
/// tenants that depart. [`generate`](ArrivalProcess::generate) lowers it
/// to a concrete [`ChurnPlan`] for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    /// How many tenants arrive in total (the simulator sizes its SM and
    /// walker partitions for all of them up front).
    pub n_tenants: usize,
    /// Mean inter-arrival gap in cycles (geometric; every gap ≥ 1).
    pub mean_gap: u64,
    /// Probability that a given tenant (other than tenant 0, which is
    /// pinned) departs before the run ends.
    pub depart_chance: f64,
    /// Mean resident span in cycles for departing tenants (geometric;
    /// every span ≥ 1, so departures fall strictly after arrival).
    pub mean_residency: u64,
    /// Applications drawn uniformly per arrival.
    pub pool: Vec<AppId>,
}

impl ArrivalProcess {
    /// Light churn: four tenants trickle in over tens of thousands of
    /// cycles and mostly stay — roughly one departure per run.
    #[must_use]
    pub fn light() -> Self {
        ArrivalProcess {
            n_tenants: 4,
            mean_gap: 8_000,
            depart_chance: 0.35,
            mean_residency: 40_000,
            pool: AppId::ALL.to_vec(),
        }
    }

    /// Heavy churn: four tenants arrive back-to-back and most leave
    /// again quickly, forcing frequent repartitions mid-run.
    #[must_use]
    pub fn heavy() -> Self {
        ArrivalProcess {
            n_tenants: 4,
            mean_gap: 1_500,
            depart_chance: 0.85,
            mean_residency: 10_000,
            pool: AppId::ALL.to_vec(),
        }
    }

    /// Generates the plan for one seed. Identical process + seed always
    /// yields an identical plan.
    ///
    /// # Panics
    ///
    /// Panics if the process has no tenants, an empty pool, a zero mean,
    /// or a departure chance outside `[0, 1]`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> ChurnPlan {
        assert!(self.n_tenants > 0, "a plan needs at least one tenant");
        assert!(!self.pool.is_empty(), "the application pool is empty");
        assert!(
            self.mean_gap > 0 && self.mean_residency > 0,
            "means must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.depart_chance),
            "depart_chance must be a probability, got {}",
            self.depart_chance
        );

        let root = SimRng::new(seed);
        let mut gaps = root.split(1);
        let mut picks = root.split(2);
        let mut spans = root.split(3);

        let mut arrivals = Vec::with_capacity(self.n_tenants);
        let mut cycle = 0u64;
        for t in 0..self.n_tenants {
            if t > 0 {
                cycle += gaps.next_geometric(1.0 / self.mean_gap as f64);
            }
            let app = self.pool[picks.next_below(self.pool.len() as u64) as usize];
            arrivals.push((cycle, app));
        }

        // Tenant 0 is pinned resident so the GPU is never empty.
        let mut departures: Vec<(u64, usize)> = (1..self.n_tenants)
            .filter_map(|t| {
                let leaves = spans.chance(self.depart_chance);
                let span = spans.next_geometric(1.0 / self.mean_residency as f64);
                leaves.then(|| (arrivals[t].0 + span, t))
            })
            .collect();
        departures.sort_unstable();

        ChurnPlan {
            arrivals,
            departures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: [u64; 6] = [0, 1, 2, 42, 0x5EED, u64::MAX];

    #[test]
    fn generation_is_deterministic_per_seed() {
        for proc in [ArrivalProcess::light(), ArrivalProcess::heavy()] {
            for seed in SEEDS {
                assert_eq!(proc.generate(seed), proc.generate(seed));
            }
            assert_ne!(proc.generate(1), proc.generate(2), "seed is ignored");
        }
    }

    #[test]
    fn plans_satisfy_the_scenario_timeline_rules() {
        for proc in [ArrivalProcess::light(), ArrivalProcess::heavy()] {
            for seed in SEEDS {
                let plan = proc.generate(seed);
                assert_eq!(plan.n_tenants(), proc.n_tenants);
                assert_eq!(plan.arrivals[0].0, 0, "first arrival must be at cycle 0");
                assert!(
                    plan.arrivals.windows(2).all(|w| w[0].0 <= w[1].0),
                    "arrivals must be non-decreasing"
                );
                assert!(
                    plan.departures.windows(2).all(|w| w[0] <= w[1]),
                    "departures must be sorted"
                );
                let mut seen = vec![false; proc.n_tenants];
                for &(cycle, t) in &plan.departures {
                    assert_ne!(t, 0, "tenant 0 is pinned resident");
                    assert!(!seen[t], "tenant {t} departs twice");
                    seen[t] = true;
                    assert!(
                        cycle > plan.arrivals[t].0,
                        "tenant {t} departs at {cycle} but arrives at {}",
                        plan.arrivals[t].0
                    );
                }
                assert!(plan.apps().iter().all(|a| proc.pool.contains(a)));
                assert!(plan.last_event_cycle() >= plan.arrivals[proc.n_tenants - 1].0);
            }
        }
    }

    #[test]
    fn heavy_preset_churns_more_than_light() {
        let (mut light_dep, mut heavy_dep) = (0usize, 0usize);
        let (mut light_span, mut heavy_span) = (0u64, 0u64);
        for seed in 0..32 {
            let l = ArrivalProcess::light().generate(seed);
            let h = ArrivalProcess::heavy().generate(seed);
            light_dep += l.departures.len();
            heavy_dep += h.departures.len();
            light_span += l.arrivals[l.n_tenants() - 1].0;
            heavy_span += h.arrivals[h.n_tenants() - 1].0;
        }
        assert!(
            heavy_dep > light_dep,
            "heavy churn should depart more ({heavy_dep} vs {light_dep})"
        );
        assert!(heavy_span < light_span, "heavy churn should arrive faster");
        assert!(heavy_dep > 0, "heavy preset never departs anyone");
    }

    #[test]
    fn streams_are_independent_knobs() {
        // Disabling departures must not reshuffle arrivals or app picks.
        let mut still = ArrivalProcess::light();
        still.depart_chance = 0.0;
        for seed in SEEDS {
            let churn = ArrivalProcess::light().generate(seed);
            let fixed = still.generate(seed);
            assert_eq!(churn.arrivals, fixed.arrivals);
            assert!(fixed.departures.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_depart_chance_panics() {
        let mut p = ArrivalProcess::light();
        p.depart_chance = 1.5;
        let _ = p.generate(0);
    }
}
