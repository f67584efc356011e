//! Layer replays: host time per layer, attributed from outside the program.
//!
//! Each replay calls one layer's own public functions on inputs captured
//! from the traced run (or, for the data path, rebuilt from the run's seeds)
//! and times them in chunks of [`CHUNK`] calls, minus an empty pass over
//! the same chunk. Where a layer's next input depends on its own earlier
//! outputs (the L1 TLB refills after a miss, the walk scheduler dispatches
//! on completions), an untimed *driver* instance decides the call sequence
//! and a fresh *twin* replays exactly that sequence under the timer, so the
//! twin's state evolves exactly as the driver's did.
//!
//! Fidelity limits: the data path interleaves warps by spreading each
//! warp's operations evenly over its tenant's residency instead of by
//! simulated timing, translations fill the TLBs at once instead of after
//! the walk, and the walk replay serves completions before same-cycle
//! arrivals. The `*.replay_fidelity` metrics report how close each replay
//! stays to the run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use walksteal_gpu::{MemRef, SmState};
use walksteal_mem::{AccessKind, HitLevel, MemSystem};
use walksteal_multitenant::{GpuConfig, SimResult};
use walksteal_sim_core::trace::Observer;
use walksteal_sim_core::{Cycle, LineAddr, Ppn, TenantId, Vpn, WalkerId};
use walksteal_vm::walk::WalkContext;
use walksteal_vm::{
    ArenaTlb, ArenaTlbKind, DispatchedWalk, FrameAlloc, PageTable, PwCache, Tlb, WalkPath,
    WalkRequest, WalkSubsystem, MOSAIC_GROUP,
};
use walksteal_workloads::{AppProfile, WarpStream};

use crate::measure::Spans;
use crate::traced::Capture;

/// Calls per timed chunk.
pub const CHUNK: usize = 4096;

/// Net host time a layer spent in its replay, and the calls it served.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub ns: f64,
    pub calls: u64,
}

impl LayerTime {
    pub fn add(&mut self, other: LayerTime) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Runs `body` over `ops` in timed chunks of [`CHUNK`], recording a span
/// per chunk and charging each chunk's time net of an empty pass.
fn timed<T>(
    ops: &mut [T],
    spans: &mut Spans,
    name: &'static str,
    parent: usize,
    acc: &mut LayerTime,
    mut body: impl FnMut(&mut T),
) {
    for chunk in ops.chunks_mut(CHUNK) {
        let start = Instant::now();
        for op in chunk.iter_mut() {
            body(op);
        }
        let end = Instant::now();
        for op in chunk.iter_mut() {
            black_box(op);
        }
        let empty = end.elapsed();
        spans.record(name, parent, start, end, chunk.len() as u64);
        acc.ns += (end - start).saturating_sub(empty).as_nanos() as f64;
        acc.calls += chunk.len() as u64;
    }
}

/// What the replays need to know about one traced simulation.
pub struct SimInputs<'a> {
    pub cfg: &'a GpuConfig,
    pub profiles: Vec<AppProfile>,
    pub seed: u64,
    pub result: &'a SimResult,
}

impl SimInputs<'_> {
    fn n_tenants(&self) -> usize {
        self.profiles.len()
    }

    fn sms_per_tenant(&self) -> usize {
        self.cfg.n_sms / self.n_tenants()
    }

    fn n_warps(&self) -> usize {
        self.cfg.n_sms * self.cfg.warps_per_sm
    }

    fn tenant_of_warp(&self, warp: usize) -> usize {
        warp / self.cfg.warps_per_sm / self.sms_per_tenant()
    }

    /// The stream of global warp `warp`, seeded as the simulator seeds it.
    fn warp_stream(&self, warp: usize) -> WarpStream {
        let (sm, w) = (warp / self.cfg.warps_per_sm, warp % self.cfg.warps_per_sm);
        let t = sm / self.sms_per_tenant();
        let local = sm % self.sms_per_tenant();
        WarpStream::new(
            self.profiles[t],
            self.seed ^ (0x9E37 * (t as u64 + 1)),
            (local * self.cfg.warps_per_sm + w) as u64,
            self.cfg.instructions_per_warp,
        )
    }

    /// Executions of tenant `t` the run completed (and the replays cover).
    fn executions(&self, t: usize) -> u32 {
        self.result.tenants[t].completed_executions
    }

    /// The cycles tenant `t` was resident.
    fn residency(&self, t: usize) -> (u64, u64) {
        match &self.result.churn {
            Some(churn) => {
                let c = &churn.tenants[t];
                (
                    c.arrived.unwrap_or(0),
                    c.departed.unwrap_or(self.result.cycles),
                )
            }
            None => (0, self.result.cycles),
        }
    }
}

/// Per-tenant page tables, built as the simulator builds them.
fn page_tables(cfg: &GpuConfig, n: usize) -> Vec<PageTable> {
    (0..n)
        .map(|t| {
            let t = TenantId(t as u8);
            if cfg.l2_arena == Some(ArenaTlbKind::Mosaic) {
                PageTable::with_reservation(t, cfg.page_size, MOSAIC_GROUP)
            } else {
                PageTable::new(t, cfg.page_size)
            }
        })
        .collect()
}

pub struct StreamReplay {
    /// Net time of `WarpStream::next_op_into`; `calls` counts ops.
    pub time: LayerTime,
    pub refs: u64,
    /// Warp instructions per tenant over the completed executions.
    pub instructions: Vec<u64>,
    /// Ops per global warp over its tenant's completed executions.
    pub ops_per_warp: Vec<u64>,
}

/// Regenerates every warp's op stream for the executions the run
/// completed, timing the generator.
pub fn stream(inp: &SimInputs, spans: &mut Spans, parent: usize) -> StreamReplay {
    let mut out = StreamReplay {
        time: LayerTime::default(),
        refs: 0,
        instructions: vec![0; inp.n_tenants()],
        ops_per_warp: vec![0; inp.n_warps()],
    };
    let mut refs: Vec<MemRef> = Vec::new();
    for warp in 0..inp.n_warps() {
        let t = inp.tenant_of_warp(warp);
        let executions = inp.executions(t);
        let mut stream = inp.warp_stream(warp);
        let mut done = 0;
        while done < executions {
            let (mut ops, mut instr, mut nrefs) = (0u64, 0u64, 0u64);
            let start = Instant::now();
            while ops < CHUNK as u64 {
                match stream.next_op_into(&mut refs) {
                    Some(compute) => {
                        ops += 1;
                        instr += compute + 1;
                        nrefs += refs.len() as u64;
                    }
                    None => {
                        done += 1;
                        stream.relaunch();
                        if done == executions {
                            break;
                        }
                    }
                }
            }
            let end = Instant::now();
            for i in 0..ops {
                black_box(i);
            }
            let empty = end.elapsed();
            spans.record("stream", parent, start, end, ops);
            out.time.ns += (end - start).saturating_sub(empty).as_nanos() as f64;
            out.time.calls += ops;
            out.refs += nrefs;
            out.instructions[t] += instr;
            out.ops_per_warp[warp] += ops;
        }
    }
    out
}

/// The L2 TLB organization the configuration selects.
enum L2 {
    Shared(Tlb),
    Private(Vec<Tlb>),
    Arena(ArenaTlb),
}

impl L2 {
    fn new(cfg: &GpuConfig, n: usize) -> L2 {
        match cfg.l2_arena {
            Some(kind) => L2::Arena(ArenaTlb::new(kind, cfg.l2_tlb, n, cfg.page_size)),
            None if cfg.l2_tlb_private => {
                L2::Private((0..n).map(|_| Tlb::new(cfg.l2_tlb, n)).collect())
            }
            None => L2::Shared(Tlb::new(cfg.l2_tlb, n)),
        }
    }

    fn probe(&mut self, t: TenantId, vpn: Vpn) -> Option<Ppn> {
        match self {
            L2::Shared(tlb) => tlb.probe(t, vpn),
            L2::Private(tlbs) => tlbs[t.index()].probe(t, vpn),
            L2::Arena(arena) => arena.probe(t, vpn),
        }
    }

    fn fill(&mut self, t: TenantId, vpn: Vpn, ppn: Ppn, now: Cycle) {
        match self {
            L2::Shared(tlb) => {
                tlb.fill(t, vpn, ppn, now);
            }
            L2::Private(tlbs) => {
                tlbs[t.index()].fill(t, vpn, ppn, now);
            }
            L2::Arena(arena) => arena.fill(t, vpn, ppn, now),
        }
    }
}

/// The module serving the L2 TLB under `cfg`.
pub fn l2_organization(cfg: &GpuConfig) -> String {
    match cfg.l2_arena {
        Some(kind) => format!("vm::arena {kind:?}"),
        None => "vm::tlb".to_string(),
    }
}

enum TlbOp {
    /// `probe_l1_tlb_run` over `vpns[start..start + len]`.
    Run { sm: usize, start: usize, len: usize },
    Fill {
        sm: usize,
        vpn: Vpn,
        ppn: Ppn,
        now: Cycle,
    },
}

enum L2Op {
    Probe(TenantId, Vpn),
    Fill(TenantId, Vpn, Ppn, Cycle),
}

struct CacheOp {
    sm: usize,
    line: LineAddr,
    now: Cycle,
    hit: bool,
}

struct MemOp {
    line: LineAddr,
    now: Cycle,
    l2_hit: bool,
}

#[derive(Default)]
pub struct DataPath {
    pub l1_tlb: LayerTime,
    pub l1_tlb_probes: u64,
    pub l1_tlb_hits: u64,
    pub l1_cache: LayerTime,
    pub l1_cache_hits: u64,
    pub l2: LayerTime,
    pub l2_probes: u64,
    pub l2_hits: u64,
    pub mem: LayerTime,
    pub mem_l2_hits: u64,
}

/// Pending twin calls of the data-path layers.
#[derive(Default)]
struct DataOps {
    tlb: Vec<TlbOp>,
    tlb_vpns: Vec<Vpn>,
    l2: Vec<L2Op>,
    cache: Vec<CacheOp>,
    mem: Vec<MemOp>,
}

/// The timed twins of the data-path layers.
struct DataTwins {
    sms: Vec<SmState>,
    l2: L2,
    mem: MemSystem,
    probed: Vec<Option<Ppn>>,
    l1_hit_latency: u64,
}

impl DataTwins {
    /// Replays every pending call; with `all` unset, only full chunks.
    fn flush(
        &mut self,
        ops: &mut DataOps,
        out: &mut DataPath,
        spans: &mut Spans,
        parent: usize,
        all: bool,
    ) {
        let due = |n: usize| if all { n > 0 } else { n >= CHUNK };
        if due(ops.tlb.len()) {
            let (sms, probed, vpns) = (&mut self.sms, &mut self.probed, &ops.tlb_vpns);
            timed(
                &mut ops.tlb,
                spans,
                "l1_tlb",
                parent,
                &mut out.l1_tlb,
                |op| match *op {
                    TlbOp::Run { sm, start, len } => {
                        sms[sm].probe_l1_tlb_run(&vpns[start..start + len], probed);
                    }
                    TlbOp::Fill { sm, vpn, ppn, now } => sms[sm].fill_l1_tlb(vpn, ppn, now),
                },
            );
            ops.tlb.clear();
            ops.tlb_vpns.clear();
        }
        if due(ops.l2.len()) {
            let l2 = &mut self.l2;
            timed(
                &mut ops.l2,
                spans,
                "l2_tlb",
                parent,
                &mut out.l2,
                |op| match *op {
                    L2Op::Probe(t, vpn) => {
                        l2.probe(t, vpn);
                    }
                    L2Op::Fill(t, vpn, ppn, now) => l2.fill(t, vpn, ppn, now),
                },
            );
            ops.l2.clear();
        }
        if due(ops.cache.len()) {
            let sms = &mut self.sms;
            timed(
                &mut ops.cache,
                spans,
                "l1_cache",
                parent,
                &mut out.l1_cache,
                |op| {
                    op.hit = sms[op.sm].access_l1_cache(op.line);
                },
            );
            for op in ops.cache.drain(..) {
                if op.hit {
                    out.l1_cache_hits += 1;
                } else {
                    ops.mem.push(MemOp {
                        line: op.line,
                        now: op.now + self.l1_hit_latency,
                        l2_hit: false,
                    });
                }
            }
        }
        if due(ops.mem.len()) {
            let mem = &mut self.mem;
            timed(&mut ops.mem, spans, "mem", parent, &mut out.mem, |op| {
                op.l2_hit = mem.access(op.line, op.now, AccessKind::Data).level == HitLevel::L2;
            });
            out.mem_l2_hits += ops.mem.iter().filter(|op| op.l2_hit).count() as u64;
            ops.mem.clear();
        }
    }
}

/// Replays the data path — L1 TLB, L2 TLB, L1 cache, data L2/DRAM — over
/// the run's regenerated warp operations, adding to `out`.
pub fn datapath(
    inp: &SimInputs,
    stream: &StreamReplay,
    spans: &mut Spans,
    parent: usize,
    out: &mut DataPath,
) {
    let cfg = inp.cfg;
    let (n, wps) = (inp.n_tenants(), cfg.warps_per_sm);
    let sms = || -> Vec<SmState> {
        (0..cfg.n_sms)
            .map(|sm| SmState::new(cfg.sm, TenantId((sm / inp.sms_per_tenant()) as u8)))
            .collect()
    };
    let mut drv_sms = sms();
    let mut drv_l2 = L2::new(cfg, n);
    let mut twins = DataTwins {
        sms: sms(),
        l2: L2::new(cfg, n),
        mem: MemSystem::new(cfg.mem),
        probed: Vec::new(),
        l1_hit_latency: cfg.sm.l1_hit_latency,
    };
    let mut pts = page_tables(cfg, n);
    let mut frames = FrameAlloc::new();
    let mut path = WalkPath::default();
    let mut ops = DataOps::default();

    // Warp `w`'s op `j` issues at the j-th of its evenly spread slots over
    // its tenant's residency; a heap merges all warps in slot order.
    let slot = |w: usize, j: u64| -> u64 {
        let (lo, hi) = inp.residency(inp.tenant_of_warp(w));
        let n_ops = u128::from(stream.ops_per_warp[w]);
        lo + ((2 * u128::from(j) + 1) * u128::from(hi - lo) / (2 * n_ops)) as u64
    };
    let mut streams: Vec<WarpStream> = (0..inp.n_warps()).map(|w| inp.warp_stream(w)).collect();
    let mut issued = vec![0u64; inp.n_warps()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..inp.n_warps())
        .filter(|&w| stream.ops_per_warp[w] > 0)
        .map(|w| Reverse((slot(w, 0), w)))
        .collect();
    let (mut refs, mut vpns, mut probed) = (Vec::new(), Vec::new(), Vec::new());

    while let Some(Reverse((at, w))) = heap.pop() {
        while streams[w].next_op_into(&mut refs).is_none() {
            streams[w].relaunch();
        }
        issued[w] += 1;
        if issued[w] < stream.ops_per_warp[w] {
            heap.push(Reverse((slot(w, issued[w]), w)));
        }
        let (sm, now) = (w / wps, Cycle(at));
        let t = drv_sms[sm].tenant();
        // The simulator's warp memory path: probe runs that stop at each
        // miss, the miss resolved through the L2 TLB (or a translation)
        // and refilled before the run resumes.
        let mut i = 0;
        while i < refs.len() {
            vpns.clear();
            vpns.extend(refs[i..].iter().map(|r: &MemRef| r.vpn));
            ops.tlb.push(TlbOp::Run {
                sm,
                start: ops.tlb_vpns.len(),
                len: vpns.len(),
            });
            ops.tlb_vpns.extend_from_slice(&vpns);
            let consumed = drv_sms[sm].probe_l1_tlb_run(&vpns, &mut probed);
            out.l1_tlb_probes += consumed as u64;
            for k in 0..consumed {
                let r = refs[i + k];
                let ppn = match probed[k] {
                    Some(ppn) => {
                        out.l1_tlb_hits += 1;
                        ppn
                    }
                    None => {
                        out.l2_probes += 1;
                        ops.l2.push(L2Op::Probe(t, r.vpn));
                        let ppn = match drv_l2.probe(t, r.vpn) {
                            Some(ppn) => {
                                out.l2_hits += 1;
                                ppn
                            }
                            None => {
                                pts[t.index()].walk_path_into(r.vpn, &mut frames, &mut path);
                                ops.l2.push(L2Op::Fill(t, r.vpn, path.ppn, now));
                                drv_l2.fill(t, r.vpn, path.ppn, now);
                                path.ppn
                            }
                        };
                        ops.tlb.push(TlbOp::Fill {
                            sm,
                            vpn: r.vpn,
                            ppn,
                            now,
                        });
                        drv_sms[sm].fill_l1_tlb(r.vpn, ppn, now);
                        ppn
                    }
                };
                ops.cache.push(CacheOp {
                    sm,
                    line: LineAddr(ppn.0 * 32 + u64::from(r.line_in_page)),
                    now,
                    hit: false,
                });
            }
            i += consumed;
        }
        twins.flush(&mut ops, out, spans, parent, false);
    }
    twins.flush(&mut ops, out, spans, parent, true);
}

/// A walk subsystem with everything a dispatch touches.
struct WalkRig {
    walk: WalkSubsystem,
    pts: Vec<PageTable>,
    frames: FrameAlloc,
    mem: MemSystem,
    obs: Observer,
}

impl WalkRig {
    fn new(cfg: &GpuConfig, n: usize) -> WalkRig {
        WalkRig {
            walk: WalkSubsystem::new(cfg.walk.clone()),
            pts: page_tables(cfg, n),
            frames: FrameAlloc::new(),
            mem: MemSystem::new(cfg.mem),
            obs: Observer::off(),
        }
    }

    fn call(&mut self, op: WalkOp) -> (bool, Option<DispatchedWalk>) {
        let mut ctx = WalkContext {
            page_tables: &mut self.pts,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        match op {
            WalkOp::Enqueue(req, now) => match self.walk.try_enqueue(req, now, &mut ctx) {
                Ok(d) => (true, d),
                Err(_) => (false, None),
            },
            WalkOp::Done(walker, now) => (true, self.walk.on_walker_done(walker, now, &mut ctx).1),
        }
    }
}

#[derive(Clone, Copy)]
enum WalkOp {
    Enqueue(WalkRequest, Cycle),
    Done(WalkerId, Cycle),
}

#[derive(Default)]
pub struct WalkReplay {
    /// Net time of `try_enqueue` and `on_walker_done`, PWC and PTE chain
    /// included.
    pub time: LayerTime,
    pub attempts: u64,
    /// Attempts whose accept/reject verdict matched the run's.
    pub matched: u64,
}

/// Replays the traced walk attempts, at their traced cycles, through the
/// walk scheduler; completions are served as the replay's own walks finish.
pub fn walk(inp: &SimInputs, cap: &Capture, spans: &mut Spans, parent: usize) -> WalkReplay {
    let n = inp.n_tenants();
    let (mut drv, mut twin) = (WalkRig::new(inp.cfg, n), WalkRig::new(inp.cfg, n));
    let mut out = WalkReplay::default();
    let mut ops: Vec<WalkOp> = Vec::with_capacity(CHUNK);
    // In-flight walks as (done cycle, dispatch order, walker).
    let mut busy: BinaryHeap<Reverse<(u64, u64, u8)>> = BinaryHeap::new();
    let mut order = 0u64;
    let mut attempts = cap.attempts.iter();
    let mut next = attempts.next();
    loop {
        // Completions due by the next attempt go first; after the last
        // attempt, the remaining walks drain.
        let done = busy
            .peek()
            .map(|&Reverse((at, _, w))| (at, w))
            .filter(|&(at, _)| next.is_none_or(|a| at <= a.cycle));
        let (op, want) = match (done, next) {
            (Some((at, w)), _) => {
                busy.pop();
                (WalkOp::Done(WalkerId(w), Cycle(at)), None)
            }
            (None, Some(a)) => {
                next = attempts.next();
                let req = WalkRequest {
                    tenant: TenantId(a.tenant),
                    vpn: Vpn(a.vpn),
                };
                (WalkOp::Enqueue(req, Cycle(a.cycle)), Some(a.accepted))
            }
            (None, None) => break,
        };
        let (accepted, dispatched) = drv.call(op);
        if let Some(want) = want {
            out.attempts += 1;
            out.matched += u64::from(accepted == want);
        }
        if let Some(d) = dispatched {
            order += 1;
            busy.push(Reverse((d.done_at.0, order, d.walker.0)));
        }
        ops.push(op);
        if ops.len() == CHUNK {
            replay_walks(&mut ops, &mut twin, &mut out.time, spans, parent);
        }
    }
    replay_walks(&mut ops, &mut twin, &mut out.time, spans, parent);
    out
}

fn replay_walks(
    ops: &mut Vec<WalkOp>,
    twin: &mut WalkRig,
    time: &mut LayerTime,
    spans: &mut Spans,
    parent: usize,
) {
    timed(ops, spans, "walk", parent, time, |op| {
        black_box(twin.call(*op));
    });
    ops.clear();
}

pub struct PtReplay {
    /// Net time of `PwCache::probe` + `fill_walk`; `calls` counts probes.
    pub pwc: LayerTime,
    /// Net time of `PageTable::walk_path_into` + `MemSystem::access_chain`.
    pub pte: LayerTime,
    pub fetches: u64,
    /// Probes whose skipped-level count matched the run's.
    pub pwc_matched: u64,
}

struct PtOp {
    tenant: TenantId,
    vpn: Vpn,
    levels: usize,
    /// Levels the run's PWC probe skipped.
    first: usize,
    /// Cycle the run's PTE chain started.
    start: Cycle,
    /// Index of this dispatch's walk path in the chunk's path buffer.
    path: usize,
    found: usize,
}

/// Replays the traced dispatches through the page-walk cache, and through
/// the page table and PTE fetch chain.
pub fn pwc_pte(inp: &SimInputs, cap: &Capture, spans: &mut Spans, parent: usize) -> PtReplay {
    let cfg = inp.cfg;
    let n = inp.n_tenants();
    let mut out = PtReplay {
        pwc: LayerTime::default(),
        pte: LayerTime::default(),
        fetches: 0,
        pwc_matched: 0,
    };
    // The node addresses a PWC fill caches come from the page tables; the
    // run allocated frames in dispatch order, and so does this replay.
    let (mut drv_pts, mut drv_frames) = (page_tables(cfg, n), FrameAlloc::new());
    let mut paths: Vec<WalkPath> = vec![WalkPath::default(); CHUNK];
    let mut pwc = PwCache::new(cfg.walk.pwc_entries);
    let (mut pts, mut frames, mut mem) = (
        page_tables(cfg, n),
        FrameAlloc::new(),
        MemSystem::new(cfg.mem),
    );
    let (mut path, mut lines, mut fetched) = (WalkPath::default(), Vec::new(), Vec::new());
    let lead = cfg.walk.dispatch_overhead + cfg.walk.pwc_latency;
    let mut fetches = 0u64;
    for records in cap.pwc.chunks(CHUNK) {
        let mut ops: Vec<PtOp> = records
            .iter()
            .enumerate()
            .map(|(path, p)| PtOp {
                tenant: TenantId(p.tenant),
                vpn: Vpn(p.vpn),
                levels: usize::from(p.levels),
                first: usize::from(p.hit_levels),
                start: Cycle(p.cycle + lead),
                path,
                found: 0,
            })
            .collect();
        for (op, path) in ops.iter().zip(paths.iter_mut()) {
            drv_pts[op.tenant.index()].walk_path_into(op.vpn, &mut drv_frames, path);
        }
        timed(&mut ops, spans, "pwc", parent, &mut out.pwc, |op| {
            op.found = pwc
                .probe(op.tenant, op.vpn, op.levels)
                .map_or(0, |h| h.level + 1);
            pwc.fill_walk(op.tenant, op.vpn, &paths[op.path].node_addrs);
        });
        out.pwc_matched += ops.iter().filter(|op| op.found == op.first).count() as u64;
        timed(&mut ops, spans, "pte", parent, &mut out.pte, |op| {
            pts[op.tenant.index()].walk_path_into(op.vpn, &mut frames, &mut path);
            lines.clear();
            lines.extend(path.entry_addrs[op.first..].iter().map(|e| e.line(128)));
            fetched.clear();
            mem.access_chain(&lines, op.start, AccessKind::PageTable, &mut fetched);
            fetches += lines.len() as u64;
        });
    }
    out.fetches = fetches;
    out
}
