//! Microbenchmarks of the substrate data structures: the event queue,
//! caches, TLBs, the page-walk cache, the page table, and the walk
//! subsystem's dispatch path. These are the hot loops of the simulator.

use std::hint::black_box;

use walksteal_mem::{AccessKind, Cache, CacheConfig, MemSystem, MemSystemConfig};
use walksteal_sim_core::{
    BinaryHeapQueue, Cycle, EventQueue, LineAddr, Observer, PhysAddr, Ppn, SimRng, TenantId, Vpn,
};
use walksteal_vm::walk::WalkContext;
use walksteal_vm::{
    DispatchedWalk, FrameAlloc, PageSize, PageTable, PwCache, Replacement, StealMode, Tlb,
    TlbConfig, WalkConfig, WalkPolicyKind, WalkRequest, WalkSubsystem,
};

use crate::harness::{bench, BenchResult};

/// Runs every subsystem group whose name contains `filter`.
pub fn run(filter: &str) -> Vec<BenchResult> {
    let mut out = Vec::new();

    if "event_queue".contains(filter) {
        out.push(bench("event_queue/push_pop_10k", || {
            let mut q = EventQueue::new();
            let mut rng = SimRng::new(1);
            for i in 0..10_000u64 {
                q.push(Cycle(rng.next_below(1_000_000)), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc);
        }));
        out.push(bench("event_queue/push_pop_10k_heap_reference", || {
            let mut q = BinaryHeapQueue::new();
            let mut rng = SimRng::new(1);
            for i in 0..10_000u64 {
                q.push(Cycle(rng.next_below(1_000_000)), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc);
        }));
    }

    if "cache".contains(filter) {
        let mut cache = Cache::new(CacheConfig { sets: 64, ways: 16 });
        let mut rng = SimRng::new(2);
        out.push(bench("cache/probe_fill_mixed", || {
            let line = LineAddr(rng.next_below(4096));
            if !cache.probe(line) {
                cache.fill(line);
            }
        }));
    }

    if "tlb".contains(filter) {
        for (label, replacement) in [("lru", Replacement::Lru), ("random", Replacement::Random)] {
            let mut tlb = Tlb::new(
                TlbConfig {
                    sets: 64,
                    ways: 16,
                    replacement,
                },
                2,
            );
            let mut rng = SimRng::new(3);
            let mut now = Cycle::ZERO;
            out.push(bench(&format!("tlb/probe_fill/{label}"), || {
                now += 1;
                let t = TenantId((rng.next_below(2)) as u8);
                let vpn = Vpn(rng.next_below(4096));
                if tlb.probe(t, vpn).is_none() {
                    tlb.fill(t, vpn, Ppn(vpn.0), now);
                }
            }));
        }
    }

    if "pwc".contains(filter) {
        let mut pwc = PwCache::new(128);
        let mut rng = SimRng::new(4);
        out.push(bench("pwc/probe_fill_walk", || {
            let vpn = Vpn(rng.next_below(1 << 24));
            if pwc.probe(TenantId(0), vpn, 4).is_none() {
                let nodes = [
                    PhysAddr(0x1000),
                    PhysAddr(0x2000),
                    PhysAddr(0x3000),
                    PhysAddr(0x4000),
                ];
                pwc.fill_walk(TenantId(0), vpn, &nodes);
            }
        }));
    }

    if "page_table".contains(filter) {
        let mut pt = PageTable::new(TenantId(0), PageSize::Small4K);
        let mut frames = FrameAlloc::new();
        // Pre-populate so the bench measures steady-state lookups.
        for v in 0..1024 {
            pt.walk_path(Vpn(v), &mut frames);
        }
        let mut rng = SimRng::new(5);
        out.push(bench("page_table/walk_path_hot", || {
            let vpn = Vpn(rng.next_below(1024));
            black_box(pt.walk_path(vpn, &mut frames));
        }));
    }

    if "walk_subsystem".contains(filter) {
        for (label, policy) in [
            ("shared", WalkPolicyKind::SharedQueue),
            ("dws", WalkPolicyKind::Partitioned(StealMode::Dws)),
        ] {
            out.push(bench(&format!("walk_subsystem/enqueue_complete/{label}"), || {
                let mut ws = WalkSubsystem::new(WalkConfig {
                    policy: policy.clone(),
                    ..WalkConfig::default()
                });
                let mut pts = vec![
                    PageTable::new(TenantId(0), PageSize::Small4K),
                    PageTable::new(TenantId(1), PageSize::Small4K),
                ];
                let mut frames = FrameAlloc::new();
                let mut mem = MemSystem::new(MemSystemConfig::default());
                let mut rng = SimRng::new(6);
                let mut scheduled: Vec<DispatchedWalk> = Vec::new();
                let mut obs = Observer::off();
                let mut now = Cycle::ZERO;
                for _ in 0..200 {
                    now += 13;
                    let t = TenantId(rng.next_below(2) as u8);
                    let mut ctx = WalkContext {
                        page_tables: &mut pts,
                        frames: &mut frames,
                        mem: &mut mem,
                        mask: None,
                        obs: &mut obs,
                    };
                    if let Ok(Some(d)) = ws.try_enqueue(
                        WalkRequest {
                            tenant: t,
                            vpn: Vpn(u64::from(t.0) * 0x10_0000 + rng.next_below(512)),
                        },
                        now,
                        &mut ctx,
                    ) {
                        scheduled.push(d);
                    }
                    scheduled.sort_by_key(|d| d.done_at);
                    while let Some(first) = scheduled.first().copied() {
                        if first.done_at > now {
                            break;
                        }
                        scheduled.remove(0);
                        let mut ctx = WalkContext {
                            page_tables: &mut pts,
                            frames: &mut frames,
                            mem: &mut mem,
                            mask: None,
                            obs: &mut obs,
                        };
                        let (_, next) = ws.on_walker_done(first.walker, first.done_at, &mut ctx);
                        if let Some(n) = next {
                            scheduled.push(n);
                            scheduled.sort_by_key(|d| d.done_at);
                        }
                    }
                }
                black_box(ws.queued_len());
            }));
        }
    }

    if "mem_system".contains(filter) {
        let mut mem = MemSystem::new(MemSystemConfig::default());
        let mut rng = SimRng::new(7);
        let mut now = Cycle::ZERO;
        out.push(bench("mem_system/access_mixed", || {
            now += 2;
            let line = LineAddr(rng.next_below(1 << 16));
            let kind = if rng.chance(0.2) {
                AccessKind::PageTable
            } else {
                AccessKind::Data
            };
            black_box(mem.access(line, now, kind));
        }));
    }

    out
}
