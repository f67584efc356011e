//! A registry of named counters and histograms: the export form of a run's
//! final counters.
//!
//! The simulator counts each fact once, in an always-on typed counter of
//! the layer that owns it. When a run ends it fills an attached
//! [`SharedMetrics`] with those counters under stable names; nothing in the
//! run reads the registry back, so attaching one never changes a result.
//! Metrics are keyed by a `&'static str` name plus an optional tenant
//! index.
//!
//! # Examples
//!
//! ```
//! use walksteal_sim_core::metrics::MetricsRegistry;
//! use walksteal_sim_core::Histogram;
//!
//! let mut latency = Histogram::new(128, 32);
//! latency.record(180);
//!
//! let mut m = MetricsRegistry::new();
//! m.set_counter("steal_success", None, 3);
//! m.set_histogram("walk_latency", Some(0), latency);
//!
//! assert_eq!(m.counter("steal_success", None), 3);
//! assert_eq!(m.histogram("walk_latency", Some(0)).unwrap().total(), 1);
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::json::Json;
use crate::stats::Histogram;

/// Key of one metric: a static name plus an optional tenant index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    name: &'static str,
    tenant: Option<u8>,
}

impl Key {
    fn label(&self) -> String {
        match self.tenant {
            Some(t) => format!("{}[t{}]", self.name, t),
            None => self.name.to_string(),
        }
    }
}

/// Named counters and histograms, in the order they were set.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(Key, u64)>,
    hists: Vec<(Key, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets a counter to `value`.
    pub fn set_counter(&mut self, name: &'static str, tenant: Option<u8>, value: u64) {
        let key = Key { name, tenant };
        match self.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.counters.push((key, value)),
        }
    }

    /// Current value of a counter (0 when never set).
    #[must_use]
    pub fn counter(&self, name: &'static str, tenant: Option<u8>) -> u64 {
        let key = Key { name, tenant };
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }

    /// Sets a histogram.
    pub fn set_histogram(&mut self, name: &'static str, tenant: Option<u8>, hist: Histogram) {
        let key = Key { name, tenant };
        match self.hists.iter_mut().find(|(k, _)| *k == key) {
            Some((_, h)) => *h = hist,
            None => self.hists.push((key, hist)),
        }
    }

    /// A histogram, if one was set.
    #[must_use]
    pub fn histogram(&self, name: &'static str, tenant: Option<u8>) -> Option<&Histogram> {
        let key = Key { name, tenant };
        self.hists.iter().find(|(k, _)| *k == key).map(|(_, h)| h)
    }

    /// Whether nothing was set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Snapshot of everything set, for reports:
    /// `{"counters": {...}, "histograms": {...}}`.
    ///
    /// Histograms export `count`, `mean`, `max`, `p50`, `p95`, and `p99`
    /// rather than raw buckets.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.label(), Json::UInt(*v)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, h)| {
                (
                    k.label(),
                    Json::Obj(vec![
                        ("count".to_string(), Json::UInt(h.total())),
                        ("mean".to_string(), Json::Num(h.mean())),
                        ("max".to_string(), Json::UInt(h.max())),
                        ("p50".to_string(), Json::UInt(h.percentile(0.50))),
                        ("p95".to_string(), Json::UInt(h.percentile(0.95))),
                        ("p99".to_string(), Json::UInt(h.percentile(0.99))),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("histograms".to_string(), Json::Obj(hists)),
        ])
    }
}

/// A cloneable handle to a [`MetricsRegistry`].
///
/// The simulation consumes itself on `run()`, so callers that want the
/// final counters attach a handle and keep a clone; the run replaces the
/// handle's contents when it ends:
///
/// ```
/// use walksteal_sim_core::metrics::{MetricsRegistry, SharedMetrics};
///
/// let metrics = SharedMetrics::new();
/// let sink = metrics.clone(); // handed to the simulation
/// let mut last = MetricsRegistry::new();
/// last.set_counter("steal_success", None, 1);
/// sink.replace(last);
/// assert_eq!(metrics.counter("steal_success", None), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedMetrics(Rc<RefCell<MetricsRegistry>>);

impl SharedMetrics {
    /// A handle to a fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        SharedMetrics::default()
    }

    /// Replaces everything the registry holds with `registry`.
    pub fn replace(&self, registry: MetricsRegistry) {
        *self.0.borrow_mut() = registry;
    }

    /// Current value of a counter (0 when never set).
    #[must_use]
    pub fn counter(&self, name: &'static str, tenant: Option<u8>) -> u64 {
        self.0.borrow().counter(name, tenant)
    }

    /// Runs `f` against the underlying registry, for reads that need more
    /// than a scalar (histograms).
    pub fn with<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Snapshot of everything set (see [`MetricsRegistry::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.0.borrow().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new(8, 10);
        samples.iter().for_each(|&s| h.record(s));
        h
    }

    #[test]
    fn replace_drops_everything_held_before() {
        let metrics = SharedMetrics::new();
        let sink = metrics.clone();
        let mut first = MetricsRegistry::new();
        first.set_counter("old", None, 9);
        first.set_histogram("h", None, hist(&[1, 2]));
        sink.replace(first);
        assert_eq!(metrics.counter("old", None), 9);

        let mut second = MetricsRegistry::new();
        second.set_counter("c", Some(0), 1);
        sink.replace(second);
        assert_eq!(metrics.counter("old", None), 0, "earlier contents survived");
        assert_eq!(metrics.counter("c", Some(0)), 1);
        assert!(metrics.with(|m| m.histogram("h", None).is_none()));
    }

    #[test]
    fn counters_are_keyed_by_name_and_tenant() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.set_counter("steals", Some(0), 2);
        m.set_counter("steals", Some(1), 1);
        m.set_counter("steals", Some(0), 5);
        assert_eq!(m.counter("steals", Some(0)), 5, "a second set overwrites");
        assert_eq!(m.counter("steals", Some(1)), 1);
        assert_eq!(m.counter("steals", None), 0, "tenant is part of the key");
        assert_eq!(m.counter("absent", Some(0)), 0);
        assert!(!m.is_empty());
    }

    #[test]
    fn json_snapshot_has_both_sections() {
        let mut m = MetricsRegistry::new();
        m.set_counter("c", None, 1);
        m.set_histogram("h", Some(1), hist(&[5]));
        let json = m.to_json();
        let c = json.get("counters").unwrap().get("c").unwrap();
        assert_eq!(c.as_u64(), Some(1));
        let h = json.get("histograms").unwrap().get("h[t1]").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert!(json.get("series").is_none());
    }
}
