//! Wall-clock microbenchmarks of the host-side UTLB operations — the
//! implementation analog of the paper's Table 1. The *simulated* costs are
//! the calibrated model; these numbers show what our data structures
//! actually cost on the machine running the simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use utlb_core::{CacheConfig, PinBitVector, PinnedSet, Policy, SharedUtlbCache};
use utlb_mem::{Host, PhysAddr, ProcessId, VirtPage};

fn bench_bitvec_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitvec_check");
    let mut v = PinBitVector::new();
    for i in 0..4096 {
        v.set(VirtPage::new(i));
    }
    for pages in [1u64, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(pages), &pages, |b, &pages| {
            b.iter(|| black_box(v.check_run(VirtPage::new(128), pages)))
        });
    }
    group.finish();
}

fn bench_pin_unpin(c: &mut Criterion) {
    let mut group = c.benchmark_group("driver_pin_unpin");
    for pages in [1u64, 8, 32] {
        group.bench_with_input(BenchmarkId::new("pin", pages), &pages, |b, &pages| {
            let mut host = Host::new(1 << 14);
            let pid = host.spawn_process();
            let mut next = 0u64;
            let mut pinned = Vec::new();
            b.iter(|| {
                // Wrap within a 4096-page window: after the first cycle the
                // pages are already mapped, so iterations measure the pin
                // bookkeeping (refcounts) without unbounded frame growth.
                let start = VirtPage::new(next % 4096);
                next += pages;
                host.driver_pin(pid, start, pages, &mut pinned).unwrap();
                black_box(&pinned);
            })
        });
        group.bench_with_input(BenchmarkId::new("pin_unpin", pages), &pages, |b, &pages| {
            let mut host = Host::new(1 << 12);
            let pid = host.spawn_process();
            let mut pinned = Vec::new();
            b.iter(|| {
                host.driver_pin(pid, VirtPage::new(0), pages, &mut pinned)
                    .unwrap();
                for p in VirtPage::new(0).range(pages) {
                    host.driver_unpin(pid, p).unwrap();
                }
            })
        });
    }
    group.finish();
}

fn bench_paging(c: &mut Criterion) {
    let mut group = c.benchmark_group("paging");
    group.bench_function("reclaim_restore", |b| {
        let mut host = Host::new(1 << 12);
        let pid = host.spawn_process();
        host.process_mut(pid)
            .unwrap()
            .write(utlb_mem::VirtAddr::new(0x5000), &[7u8; 64])
            .unwrap();
        b.iter(|| {
            assert!(host.reclaim_page(pid, VirtPage::new(5)).unwrap());
            assert!(host.ensure_resident(pid, VirtPage::new(5)).unwrap());
        })
    });
    group.finish();
}

/// Pages in the replacement-set benches: the Table 5 limit, 4 MB of
/// 4 KiB pages.
const LIMIT_PAGES: u64 = 1024;

/// A full set of `LIMIT_PAGES` pages with uneven recency and frequency, so
/// every policy has a non-trivial order to keep.
fn full_set(policy: Policy) -> PinnedSet {
    let mut set = PinnedSet::new(policy, 7);
    for p in 0..LIMIT_PAGES {
        set.insert(VirtPage::new(p));
    }
    for i in 0..4 * LIMIT_PAGES {
        set.touch(VirtPage::new(i * 7 % LIMIT_PAGES));
    }
    set
}

fn bench_pinned_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("pinned_set");
    for policy in Policy::ALL {
        // Steady state at the limit: evict one victim, pin one new page.
        group.bench_function(BenchmarkId::new("evict_insert", policy), |b| {
            let mut set = full_set(policy);
            let mut next = LIMIT_PAGES;
            let mut victims = Vec::new();
            b.iter(|| {
                set.select_victims(1, &mut victims);
                let victim = victims[0];
                set.remove(victim);
                set.insert(VirtPage::new(next));
                next += 1;
                black_box(victim)
            })
        });
    }
    // The hit path's recency update; identical for every policy.
    group.bench_function("touch", |b| {
        let mut set = full_set(Policy::Lru);
        let mut i = 0u64;
        b.iter(|| {
            set.touch(VirtPage::new(i % LIMIT_PAGES));
            i += 1;
        })
    });
    group.finish();
}

/// A connection's close on a shared cache the other processes keep busy:
/// a fresh process fills 8 lines, then `invalidate_process` drops them.
/// The close walks only the closing process' lines, so its cost should
/// not grow with the cache.
fn bench_cache_close(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_close");
    for entries in [256usize, 8192] {
        group.bench_with_input(
            BenchmarkId::from_parameter(entries),
            &entries,
            |b, &entries| {
                let mut cache = SharedUtlbCache::new(CacheConfig::direct(entries));
                for v in 0..entries as u64 {
                    let pid = ProcessId::new(1 + (v % 16) as u32);
                    cache.insert(pid, VirtPage::new(v), PhysAddr::new(v << 12));
                }
                let mut next_pid = 100u32;
                b.iter(|| {
                    next_pid += 1;
                    let pid = ProcessId::new(next_pid);
                    for v in 0..8u64 {
                        cache.insert(pid, VirtPage::new(v), PhysAddr::new(v << 12));
                    }
                    black_box(cache.invalidate_process(pid))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bitvec_check,
    bench_pin_unpin,
    bench_paging,
    bench_pinned_set,
    bench_cache_close
);
criterion_main!(benches);
