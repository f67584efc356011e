//! Walk-lifecycle tracing: typed events, filters, and pluggable sinks.
//!
//! The simulator's hot paths report what they are doing through an
//! [`Observer`], which holds an optional [`Tracer`] sink. It defaults to
//! *off*, in which case every instrumentation site reduces to a single
//! branch on a `None` discriminant: no event is constructed, nothing
//! allocates, and simulation output is bit-identical to an uninstrumented
//! build. Counters are not the tracer's job: each layer keeps its own, and
//! a run exports them once, at its end (see [`crate::metrics`]).
//!
//! Events are typed ([`TraceEvent`]) and serialize to one JSON object per
//! line (JSONL) via [`TraceEvent::to_json`] / [`TraceEvent::from_json`], so a
//! trace written by [`JsonlTracer`] can be re-read and *replayed*: the
//! `timeline` renderer in the experiments crate reconstructs the paper's
//! PW-share curve (Fig. 9) and interleave breakdown (Table III) exactly from
//! the event stream alone.
//!
//! # Examples
//!
//! ```
//! use walksteal_sim_core::trace::{RingTracer, TraceEvent, TraceFilter, Tracer};
//!
//! let filter: TraceFilter = "walk,steal".parse().unwrap();
//! let mut ring = RingTracer::unbounded().with_filter(filter);
//! let ev = TraceEvent::WalkEnqueue { cycle: 7, tenant: 0, vpn: 42 };
//! assert!(ring.wants(ev.kind()));
//! ring.record(&ev);
//! assert_eq!(ring.events(), vec![ev]);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::rc::Rc;
use std::str::FromStr;

use crate::json::Json;

/// Category of a [`TraceEvent`], used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Walk lifecycle: enqueue, reject, walker-assign, complete.
    Walk,
    /// A walker servicing a foreign tenant's walk.
    Steal,
    /// Page-walk-cache probes.
    Pwc,
    /// Per-level PTE fetches issued to the memory system.
    Pte,
    /// DWS++ epoch rollovers (`ENQ_EPOCH` rates, `DIFF_THRES` updates).
    Epoch,
    /// Periodic queue-depth / walker-occupancy samples.
    Queue,
    /// Run bracketing (start / end).
    Meta,
}

impl TraceKind {
    /// Every kind, in serialization order.
    pub const ALL: [TraceKind; 7] = [
        TraceKind::Walk,
        TraceKind::Steal,
        TraceKind::Pwc,
        TraceKind::Pte,
        TraceKind::Epoch,
        TraceKind::Queue,
        TraceKind::Meta,
    ];

    fn bit(self) -> u8 {
        match self {
            TraceKind::Walk => 1 << 0,
            TraceKind::Steal => 1 << 1,
            TraceKind::Pwc => 1 << 2,
            TraceKind::Pte => 1 << 3,
            TraceKind::Epoch => 1 << 4,
            TraceKind::Queue => 1 << 5,
            TraceKind::Meta => 1 << 6,
        }
    }

    /// The name used by [`TraceFilter`]'s `FromStr` syntax.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Walk => "walk",
            TraceKind::Steal => "steal",
            TraceKind::Pwc => "pwc",
            TraceKind::Pte => "pte",
            TraceKind::Epoch => "epoch",
            TraceKind::Queue => "queue",
            TraceKind::Meta => "meta",
        }
    }
}

/// A set of [`TraceKind`]s, parsed from comma-separated names
/// (`"walk,epoch,steal"`, or `"all"`).
///
/// [`TraceKind::Meta`] events (run start/end) are always included — a trace
/// without its run bracket cannot be replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter(u8);

impl TraceFilter {
    /// Every event kind.
    pub const ALL: TraceFilter = TraceFilter(0x7f);

    /// Only the run bracket (Meta), which every filter includes.
    pub const NONE: TraceFilter = TraceFilter(1 << 6);

    /// Whether `kind` passes this filter.
    #[must_use]
    pub fn contains(self, kind: TraceKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// This filter plus `kind`.
    #[must_use]
    pub fn with(self, kind: TraceKind) -> TraceFilter {
        TraceFilter(self.0 | kind.bit())
    }
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter::ALL
    }
}

impl fmt::Display for TraceFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TraceFilter::ALL {
            return write!(f, "all");
        }
        let mut first = true;
        for kind in TraceKind::ALL {
            if self.contains(kind) {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{}", kind.name())?;
                first = false;
            }
        }
        Ok(())
    }
}

impl FromStr for TraceFilter {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut filter = TraceFilter::NONE;
        for part in s.split(',') {
            let part = part.trim();
            match part.to_ascii_lowercase().as_str() {
                "" => continue,
                "all" => return Ok(TraceFilter::ALL),
                name => {
                    let kind = TraceKind::ALL
                        .into_iter()
                        .find(|k| k.name() == name)
                        .ok_or_else(|| {
                            format!(
                                "unknown trace kind {part:?} (expected one of \
                                 walk, steal, pwc, pte, epoch, queue, meta, all)"
                            )
                        })?;
                    filter = filter.with(kind);
                }
            }
        }
        Ok(filter)
    }
}

/// A typed event from the walk lifecycle. One event serializes to one JSONL
/// line; see [`TraceEvent::to_json`] for the schema.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Simulation started.
    RunStart {
        /// Always 0; present so every line carries a cycle.
        cycle: u64,
        /// Co-running tenants.
        n_tenants: u32,
        /// Page-table walkers in the subsystem.
        n_walkers: u32,
        /// RNG seed of the run.
        seed: u64,
    },
    /// A walk was accepted into the subsystem.
    WalkEnqueue {
        /// Arrival cycle.
        cycle: u64,
        /// Requesting tenant.
        tenant: u8,
        /// Virtual page being translated.
        vpn: u64,
    },
    /// A walk was rejected (queue full; the requester will retry).
    WalkReject {
        /// Cycle of the rejected attempt.
        cycle: u64,
        /// Requesting tenant.
        tenant: u8,
        /// Virtual page being translated.
        vpn: u64,
    },
    /// A walker began servicing a walk.
    WalkAssign {
        /// Dispatch cycle.
        cycle: u64,
        /// Requesting tenant.
        tenant: u8,
        /// Virtual page being translated.
        vpn: u64,
        /// Servicing walker.
        walker: u8,
        /// Whether the walker is owned by another tenant.
        stolen: bool,
        /// Cycles spent queued before dispatch.
        queue_wait: u64,
        /// Other-tenant walks dispatched onto eligible walkers while this
        /// one waited (the paper's interleaving metric, per walk).
        interleaved: u64,
    },
    /// A walker owned by one tenant picked up another tenant's walk.
    /// Emitted alongside the corresponding stolen [`TraceEvent::WalkAssign`].
    Steal {
        /// Dispatch cycle.
        cycle: u64,
        /// The walker doing the stealing.
        walker: u8,
        /// The walker's owner (the thief tenant).
        owner: u8,
        /// The tenant whose walk was stolen (the beneficiary).
        tenant: u8,
        /// Virtual page of the stolen walk.
        vpn: u64,
    },
    /// Page-walk-cache probe at dispatch.
    PwcProbe {
        /// Dispatch cycle.
        cycle: u64,
        /// Requesting tenant.
        tenant: u8,
        /// Virtual page being translated.
        vpn: u64,
        /// Top page-table levels skipped thanks to the PWC hit.
        hit_levels: u8,
        /// Total levels in this tenant's page table.
        levels: u8,
    },
    /// One page-table-entry fetch issued to the memory system.
    PteFetch {
        /// Cycle the fetch was issued.
        cycle: u64,
        /// Requesting tenant.
        tenant: u8,
        /// Servicing walker.
        walker: u8,
        /// Page-table level (0 = root).
        level: u8,
        /// Memory-system latency of the fetch.
        latency: u64,
    },
    /// A walk finished.
    WalkComplete {
        /// Completion cycle.
        cycle: u64,
        /// Requesting tenant.
        tenant: u8,
        /// Translated virtual page.
        vpn: u64,
        /// Walker that serviced it.
        walker: u8,
        /// Whether a foreign-owned walker serviced it.
        stolen: bool,
        /// Cycles from arrival to completion.
        latency: u64,
    },
    /// DWS++ epoch rollover: per-tenant `ENQ_EPOCH` arrival counts for the
    /// epoch just ended, and the resulting `DIFF_THRES`.
    EpochUpdate {
        /// Cycle of the arrival that closed the epoch.
        cycle: u64,
        /// `ENQ_EPOCH` per tenant, before the reset.
        enq_epoch: Vec<u32>,
        /// New `DIFF_THRES`; `None` disables imbalance stealing this epoch.
        diff_thres: Option<f64>,
    },
    /// Periodic sample of queue depth and walker occupancy.
    QueueSample {
        /// Sample cycle.
        cycle: u64,
        /// Walks queued (not in service).
        queued: u64,
        /// Walkers busy.
        busy: u64,
        /// Walkers busy servicing each tenant.
        busy_per_tenant: Vec<u32>,
    },
    /// Simulation ended.
    RunEnd {
        /// Final cycle (the run's `cycles` figure).
        cycle: u64,
        /// Events processed by the event loop.
        events: u64,
    },
}

impl TraceEvent {
    /// The filtering category of this event.
    #[must_use]
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceEvent::RunStart { .. } | TraceEvent::RunEnd { .. } => TraceKind::Meta,
            TraceEvent::WalkEnqueue { .. }
            | TraceEvent::WalkReject { .. }
            | TraceEvent::WalkAssign { .. }
            | TraceEvent::WalkComplete { .. } => TraceKind::Walk,
            TraceEvent::Steal { .. } => TraceKind::Steal,
            TraceEvent::PwcProbe { .. } => TraceKind::Pwc,
            TraceEvent::PteFetch { .. } => TraceKind::Pte,
            TraceEvent::EpochUpdate { .. } => TraceKind::Epoch,
            TraceEvent::QueueSample { .. } => TraceKind::Queue,
        }
    }

    /// The cycle stamped on this event.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::RunStart { cycle, .. }
            | TraceEvent::WalkEnqueue { cycle, .. }
            | TraceEvent::WalkReject { cycle, .. }
            | TraceEvent::WalkAssign { cycle, .. }
            | TraceEvent::Steal { cycle, .. }
            | TraceEvent::PwcProbe { cycle, .. }
            | TraceEvent::PteFetch { cycle, .. }
            | TraceEvent::WalkComplete { cycle, .. }
            | TraceEvent::EpochUpdate { cycle, .. }
            | TraceEvent::QueueSample { cycle, .. }
            | TraceEvent::RunEnd { cycle, .. } => *cycle,
        }
    }

    /// Serializes to a JSON object with an `"ev"` discriminant, e.g.
    /// `{"ev":"walk_assign","cycle":12,"tenant":0,...}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        fn obj(ev: &str, fields: Vec<(String, Json)>) -> Json {
            let mut all = vec![("ev".to_string(), Json::Str(ev.to_string()))];
            all.extend(fields);
            Json::Obj(all)
        }
        fn u(v: u64) -> Json {
            Json::UInt(v)
        }
        match self {
            TraceEvent::RunStart {
                cycle,
                n_tenants,
                n_walkers,
                seed,
            } => obj(
                "run_start",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("n_tenants".into(), u(u64::from(*n_tenants))),
                    ("n_walkers".into(), u(u64::from(*n_walkers))),
                    ("seed".into(), u(*seed)),
                ],
            ),
            TraceEvent::WalkEnqueue { cycle, tenant, vpn } => obj(
                "walk_enqueue",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("tenant".into(), u(u64::from(*tenant))),
                    ("vpn".into(), u(*vpn)),
                ],
            ),
            TraceEvent::WalkReject { cycle, tenant, vpn } => obj(
                "walk_reject",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("tenant".into(), u(u64::from(*tenant))),
                    ("vpn".into(), u(*vpn)),
                ],
            ),
            TraceEvent::WalkAssign {
                cycle,
                tenant,
                vpn,
                walker,
                stolen,
                queue_wait,
                interleaved,
            } => obj(
                "walk_assign",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("tenant".into(), u(u64::from(*tenant))),
                    ("vpn".into(), u(*vpn)),
                    ("walker".into(), u(u64::from(*walker))),
                    ("stolen".into(), Json::Bool(*stolen)),
                    ("queue_wait".into(), u(*queue_wait)),
                    ("interleaved".into(), u(*interleaved)),
                ],
            ),
            TraceEvent::Steal {
                cycle,
                walker,
                owner,
                tenant,
                vpn,
            } => obj(
                "steal",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("walker".into(), u(u64::from(*walker))),
                    ("owner".into(), u(u64::from(*owner))),
                    ("tenant".into(), u(u64::from(*tenant))),
                    ("vpn".into(), u(*vpn)),
                ],
            ),
            TraceEvent::PwcProbe {
                cycle,
                tenant,
                vpn,
                hit_levels,
                levels,
            } => obj(
                "pwc_probe",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("tenant".into(), u(u64::from(*tenant))),
                    ("vpn".into(), u(*vpn)),
                    ("hit_levels".into(), u(u64::from(*hit_levels))),
                    ("levels".into(), u(u64::from(*levels))),
                ],
            ),
            TraceEvent::PteFetch {
                cycle,
                tenant,
                walker,
                level,
                latency,
            } => obj(
                "pte_fetch",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("tenant".into(), u(u64::from(*tenant))),
                    ("walker".into(), u(u64::from(*walker))),
                    ("level".into(), u(u64::from(*level))),
                    ("latency".into(), u(*latency)),
                ],
            ),
            TraceEvent::WalkComplete {
                cycle,
                tenant,
                vpn,
                walker,
                stolen,
                latency,
            } => obj(
                "walk_complete",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("tenant".into(), u(u64::from(*tenant))),
                    ("vpn".into(), u(*vpn)),
                    ("walker".into(), u(u64::from(*walker))),
                    ("stolen".into(), Json::Bool(*stolen)),
                    ("latency".into(), u(*latency)),
                ],
            ),
            TraceEvent::EpochUpdate {
                cycle,
                enq_epoch,
                diff_thres,
            } => obj(
                "epoch_update",
                vec![
                    ("cycle".into(), u(*cycle)),
                    (
                        "enq_epoch".into(),
                        Json::Arr(enq_epoch.iter().map(|&c| u(u64::from(c))).collect()),
                    ),
                    (
                        "diff_thres".into(),
                        diff_thres.map_or(Json::Null, Json::Num),
                    ),
                ],
            ),
            TraceEvent::QueueSample {
                cycle,
                queued,
                busy,
                busy_per_tenant,
            } => obj(
                "queue_sample",
                vec![
                    ("cycle".into(), u(*cycle)),
                    ("queued".into(), u(*queued)),
                    ("busy".into(), u(*busy)),
                    (
                        "busy_per_tenant".into(),
                        Json::Arr(busy_per_tenant.iter().map(|&c| u(u64::from(c))).collect()),
                    ),
                ],
            ),
            TraceEvent::RunEnd { cycle, events } => obj(
                "run_end",
                vec![("cycle".into(), u(*cycle)), ("events".into(), u(*events))],
            ),
        }
    }

    /// Deserializes an event written by [`TraceEvent::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description when the object is missing its `"ev"`
    /// discriminant or a required field.
    pub fn from_json(json: &Json) -> Result<TraceEvent, String> {
        fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace event missing field {key:?}"))
        }
        fn u8_field(json: &Json, key: &str) -> Result<u8, String> {
            u64_field(json, key).and_then(|v| {
                u8::try_from(v).map_err(|_| format!("trace field {key:?} out of range: {v}"))
            })
        }
        fn u32_field(json: &Json, key: &str) -> Result<u32, String> {
            u64_field(json, key).and_then(|v| {
                u32::try_from(v).map_err(|_| format!("trace field {key:?} out of range: {v}"))
            })
        }
        fn bool_field(json: &Json, key: &str) -> Result<bool, String> {
            json.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("trace event missing field {key:?}"))
        }
        fn u32_arr(json: &Json, key: &str) -> Result<Vec<u32>, String> {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("trace event missing field {key:?}"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| format!("trace field {key:?} has a non-u32 element"))
                })
                .collect()
        }
        let ev = json
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| "trace event missing \"ev\" discriminant".to_string())?;
        let cycle = u64_field(json, "cycle")?;
        match ev {
            "run_start" => Ok(TraceEvent::RunStart {
                cycle,
                n_tenants: u32_field(json, "n_tenants")?,
                n_walkers: u32_field(json, "n_walkers")?,
                seed: u64_field(json, "seed")?,
            }),
            "walk_enqueue" => Ok(TraceEvent::WalkEnqueue {
                cycle,
                tenant: u8_field(json, "tenant")?,
                vpn: u64_field(json, "vpn")?,
            }),
            "walk_reject" => Ok(TraceEvent::WalkReject {
                cycle,
                tenant: u8_field(json, "tenant")?,
                vpn: u64_field(json, "vpn")?,
            }),
            "walk_assign" => Ok(TraceEvent::WalkAssign {
                cycle,
                tenant: u8_field(json, "tenant")?,
                vpn: u64_field(json, "vpn")?,
                walker: u8_field(json, "walker")?,
                stolen: bool_field(json, "stolen")?,
                queue_wait: u64_field(json, "queue_wait")?,
                interleaved: u64_field(json, "interleaved")?,
            }),
            "steal" => Ok(TraceEvent::Steal {
                cycle,
                walker: u8_field(json, "walker")?,
                owner: u8_field(json, "owner")?,
                tenant: u8_field(json, "tenant")?,
                vpn: u64_field(json, "vpn")?,
            }),
            "pwc_probe" => Ok(TraceEvent::PwcProbe {
                cycle,
                tenant: u8_field(json, "tenant")?,
                vpn: u64_field(json, "vpn")?,
                hit_levels: u8_field(json, "hit_levels")?,
                levels: u8_field(json, "levels")?,
            }),
            "pte_fetch" => Ok(TraceEvent::PteFetch {
                cycle,
                tenant: u8_field(json, "tenant")?,
                walker: u8_field(json, "walker")?,
                level: u8_field(json, "level")?,
                latency: u64_field(json, "latency")?,
            }),
            "walk_complete" => Ok(TraceEvent::WalkComplete {
                cycle,
                tenant: u8_field(json, "tenant")?,
                vpn: u64_field(json, "vpn")?,
                walker: u8_field(json, "walker")?,
                stolen: bool_field(json, "stolen")?,
                latency: u64_field(json, "latency")?,
            }),
            "epoch_update" => Ok(TraceEvent::EpochUpdate {
                cycle,
                enq_epoch: u32_arr(json, "enq_epoch")?,
                diff_thres: match json.get("diff_thres") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_f64()
                            .ok_or_else(|| "trace field \"diff_thres\" not a number".to_string())?,
                    ),
                },
            }),
            "queue_sample" => Ok(TraceEvent::QueueSample {
                cycle,
                queued: u64_field(json, "queued")?,
                busy: u64_field(json, "busy")?,
                busy_per_tenant: u32_arr(json, "busy_per_tenant")?,
            }),
            "run_end" => Ok(TraceEvent::RunEnd {
                cycle,
                events: u64_field(json, "events")?,
            }),
            other => Err(format!("unknown trace event type {other:?}")),
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// Instrumentation sites call [`Observer::trace`], which constructs the
/// event only when a tracer is attached *and* [`Tracer::wants`] passes —
/// `wants` must therefore be cheap.
pub trait Tracer {
    /// Whether this sink wants events of `kind`. Called before the event is
    /// constructed; return `false` to skip construction entirely.
    fn wants(&self, kind: TraceKind) -> bool;

    /// Records one event. Only called when [`Tracer::wants`] returned true.
    fn record(&mut self, ev: &TraceEvent);

    /// Flushes any buffered output. Called at run end.
    fn flush(&mut self) {}
}

/// Writes one JSON object per line (JSONL) to any [`Write`] sink.
///
/// Write errors latch: the first error stops further output and is
/// retrievable via [`JsonlTracer::io_error`].
pub struct JsonlTracer<W: Write> {
    out: W,
    filter: TraceFilter,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTracer<W> {
    /// A tracer writing every event kind to `out`.
    pub fn new(out: W) -> Self {
        JsonlTracer {
            out,
            filter: TraceFilter::ALL,
            lines: 0,
            error: None,
        }
    }

    /// Restricts the recorded kinds to `filter`.
    #[must_use]
    pub fn with_filter(mut self, filter: TraceFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Lines written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first write error, if any output failed.
    #[must_use]
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the first latched write error, or the flush error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Tracer for JsonlTracer<W> {
    fn wants(&self, kind: TraceKind) -> bool {
        self.error.is_none() && self.filter.contains(kind)
    }

    fn record(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{}", ev.to_json().dump()) {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// An in-memory ring buffer of the last `capacity` events.
///
/// Clones share the buffer, so tests can keep a handle while the simulation
/// owns the tracer:
///
/// ```
/// use walksteal_sim_core::trace::{RingTracer, TraceEvent, Tracer};
///
/// let ring = RingTracer::unbounded();
/// let mut sink = ring.clone(); // handed to the simulation
/// sink.record(&TraceEvent::RunEnd { cycle: 10, events: 3 });
/// assert_eq!(ring.events().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: Rc<RefCell<VecDeque<TraceEvent>>>,
    capacity: usize,
    filter: TraceFilter,
}

impl RingTracer {
    /// A ring keeping only the last `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingTracer {
            buf: Rc::new(RefCell::new(VecDeque::new())),
            capacity,
            filter: TraceFilter::ALL,
        }
    }

    /// A ring that keeps every event.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Restricts the recorded kinds to `filter`.
    #[must_use]
    pub fn with_filter(mut self, filter: TraceFilter) -> Self {
        self.filter = filter;
        self
    }

    /// A snapshot of the buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.borrow().iter().cloned().collect()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }
}

impl Tracer for RingTracer {
    fn wants(&self, kind: TraceKind) -> bool {
        self.filter.contains(kind)
    }

    fn record(&mut self, ev: &TraceEvent) {
        let mut buf = self.buf.borrow_mut();
        if buf.len() >= self.capacity {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

/// The trace sink threaded through the simulator.
///
/// With no tracer attached (the default), every instrumentation site is a
/// branch on a `None` — no event construction, no allocation, bit-identical
/// output.
#[derive(Default)]
pub struct Observer {
    /// The attached trace sink, if any.
    pub tracer: Option<Box<dyn Tracer>>,
}

impl Observer {
    /// An observer with tracing off.
    #[must_use]
    pub fn off() -> Self {
        Observer::default()
    }

    /// Whether tracing is off.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.tracer.is_none()
    }

    /// Records the event built by `f` if a tracer is attached and wants
    /// `kind`. `f` runs only in that case, so instrumentation sites pay one
    /// branch when tracing is off.
    #[inline]
    pub fn trace(&mut self, kind: TraceKind, f: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            if t.wants(kind) {
                let ev = f();
                t.record(&ev);
            }
        }
    }

    /// Flushes the attached tracer, if any.
    pub fn flush(&mut self) {
        if let Some(t) = self.tracer.as_mut() {
            t.flush();
        }
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("tracer", &self.tracer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                cycle: 0,
                n_tenants: 2,
                n_walkers: 16,
                seed: 42,
            },
            TraceEvent::WalkEnqueue {
                cycle: 5,
                tenant: 0,
                vpn: 100,
            },
            TraceEvent::WalkReject {
                cycle: 6,
                tenant: 1,
                vpn: 200,
            },
            TraceEvent::WalkAssign {
                cycle: 7,
                tenant: 0,
                vpn: 100,
                walker: 3,
                stolen: true,
                queue_wait: 2,
                interleaved: 1,
            },
            TraceEvent::Steal {
                cycle: 7,
                walker: 3,
                owner: 1,
                tenant: 0,
                vpn: 100,
            },
            TraceEvent::PwcProbe {
                cycle: 7,
                tenant: 0,
                vpn: 100,
                hit_levels: 2,
                levels: 4,
            },
            TraceEvent::PteFetch {
                cycle: 9,
                tenant: 0,
                walker: 3,
                level: 2,
                latency: 150,
            },
            TraceEvent::WalkComplete {
                cycle: 300,
                tenant: 0,
                vpn: 100,
                walker: 3,
                stolen: true,
                latency: 295,
            },
            TraceEvent::EpochUpdate {
                cycle: 400,
                enq_epoch: vec![120, 80],
                diff_thres: Some(0.4),
            },
            TraceEvent::EpochUpdate {
                cycle: 600,
                enq_epoch: vec![199, 1],
                diff_thres: None,
            },
            TraceEvent::QueueSample {
                cycle: 500,
                queued: 12,
                busy: 16,
                busy_per_tenant: vec![9, 7],
            },
            TraceEvent::RunEnd {
                cycle: 1000,
                events: 12345,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json() {
        for ev in sample_events() {
            let json = ev.to_json();
            let back = TraceEvent::from_json(&json).expect("round trip");
            assert_eq!(back, ev, "mismatch for {}", json.dump());
            // And through the textual form, as the JSONL reader will see it.
            let reparsed = Json::parse(&json.dump()).expect("reparse");
            assert_eq!(TraceEvent::from_json(&reparsed).unwrap(), ev);
        }
    }

    #[test]
    fn filter_parses_and_displays() {
        let f: TraceFilter = "walk,epoch,steal".parse().unwrap();
        assert!(f.contains(TraceKind::Walk));
        assert!(f.contains(TraceKind::Epoch));
        assert!(f.contains(TraceKind::Steal));
        assert!(!f.contains(TraceKind::Pte));
        assert!(!f.contains(TraceKind::Queue));
        // Meta is always included so traces stay replayable.
        assert!(f.contains(TraceKind::Meta));
        assert_eq!(f.to_string(), "walk,steal,epoch,meta");
        assert_eq!(f.to_string().parse::<TraceFilter>().unwrap(), f);

        assert_eq!("all".parse::<TraceFilter>().unwrap(), TraceFilter::ALL);
        assert_eq!(TraceFilter::ALL.to_string(), "all");
        assert!(" Walk , STEAL ".parse::<TraceFilter>().is_ok());
        assert!("walk,bogus".parse::<TraceFilter>().is_err());
    }

    #[test]
    fn jsonl_tracer_writes_one_line_per_event() {
        let mut tracer = JsonlTracer::new(Vec::new());
        for ev in sample_events() {
            if tracer.wants(ev.kind()) {
                tracer.record(&ev);
            }
        }
        assert_eq!(tracer.lines(), sample_events().len() as u64);
        let bytes = tracer.finish().expect("no io errors on a Vec");
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn jsonl_tracer_respects_filter() {
        let filter: TraceFilter = "walk".parse().unwrap();
        let mut tracer = JsonlTracer::new(Vec::new()).with_filter(filter);
        for ev in sample_events() {
            if tracer.wants(ev.kind()) {
                tracer.record(&ev);
            }
        }
        let bytes = tracer.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        for line in text.lines() {
            let ev = TraceEvent::from_json(&Json::parse(line).unwrap()).unwrap();
            assert!(matches!(ev.kind(), TraceKind::Walk | TraceKind::Meta));
        }
    }

    #[test]
    fn ring_tracer_shares_buffer_and_caps_length() {
        let ring = RingTracer::new(3);
        let mut sink = ring.clone();
        for ev in sample_events() {
            sink.record(&ev);
        }
        assert_eq!(ring.len(), 3);
        let tail = sample_events();
        assert_eq!(ring.events(), tail[tail.len() - 3..].to_vec());
    }

    #[test]
    fn observer_off_never_builds_events() {
        let mut obs = Observer::off();
        assert!(obs.is_off());
        obs.trace(TraceKind::Walk, || panic!("built an event while off"));
    }
}
