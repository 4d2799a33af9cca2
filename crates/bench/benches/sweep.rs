//! The sweep executor and the cache hot path it feeds.
//!
//! Three angles: raw cache probe latency (the per-lookup cost the flat line
//! array + validity bitmap rework targets), sweep executor overhead on
//! trivial cells, and a real experiment grid (Figure 7-shaped) sequential
//! vs parallel.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use std::hint::black_box;
use utlb_bench::scalar_run_mechanism;
use utlb_core::obs::NoopProbe;
use utlb_core::{
    CacheConfig, IndexedEngine, IntrEngine, LookupBatch, OutcomeBuf, PerProcessEngine,
    SharedUtlbCache, TranslationMechanism, UtlbEngine,
};
use utlb_mem::{Host, PhysAddr, ProcessId, VirtPage, PAGE_SIZE};
use utlb_nic::Board;
use utlb_sim::sweep::{SweepGrid, THREADS_ENV};
use utlb_sim::RunOutputExt;
use utlb_sim::{sweep, Mechanism, Run, SimConfig};
use utlb_trace::{gen, GenConfig, SplashApp, Trace};

fn small_cfg() -> GenConfig {
    GenConfig {
        seed: 1998,
        scale: 0.1,
        app_processes: 4,
    }
}

/// Per-probe latency of the shared cache: a resident working set looked up
/// round-robin, so every lookup is a hit probing exactly one line.
fn bench_cache_probe(c: &mut Criterion) {
    let entries = 8192usize;
    let mut cache = SharedUtlbCache::new(CacheConfig::direct(entries));
    let pid = ProcessId::new(1);
    for v in 0..entries as u64 {
        cache.insert(pid, VirtPage::new(v), PhysAddr::new(v << 12));
    }
    let mut group = c.benchmark_group("sweep");
    group.throughput(Throughput::Elements(entries as u64));
    group.bench_function("cache_probe_hit", |b| {
        b.iter(|| {
            for v in 0..entries as u64 {
                black_box(cache.lookup(pid, VirtPage::new(v)));
            }
        })
    });
    group.finish();
}

/// Executor overhead: fanning out cells that do almost nothing, so the
/// scheduling cost itself dominates.
fn bench_executor_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    for cells in [16usize, 256] {
        group.bench_with_input(BenchmarkId::new("overhead", cells), &cells, |b, &cells| {
            b.iter(|| black_box(sweep(cells, |ix| ix.wrapping_mul(2654435761))))
        });
    }
    group.finish();
}

/// A real grid — one app × four cache sizes, Figure 7-shaped — swept
/// sequentially (`UTLB_SIM_THREADS=1`) and at the machine's parallelism.
fn bench_grid(c: &mut Criterion) {
    let trace = gen::generate_shared(SplashApp::Water, &small_cfg());
    let sizes = [1024usize, 4096, 8192, 16384];
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(sizes.len() as u64));
    for (label, threads) in [("grid_sequential", Some("1")), ("grid_parallel", None)] {
        group.bench_function(label, |b| {
            match threads {
                Some(n) => std::env::set_var(THREADS_ENV, n),
                None => std::env::remove_var(THREADS_ENV),
            }
            b.iter(|| {
                black_box(sweep(sizes.len(), |ix| {
                    Run::new(Mechanism::Utlb)
                        .config(&SimConfig::study(sizes[ix]))
                        .execute(&trace)
                        .into_sim()
                        .unwrap()
                        .stats
                        .ni_miss_rate()
                }))
            })
        });
    }
    std::env::remove_var(THREADS_ENV);
    group.finish();
}

/// Cost-ordered dispatch overhead: the trivial-cell fan-out again, but
/// through the grid builder with a cost function, so the delta against
/// `overhead` is the LPT sort plus the order indirection.
fn bench_cost_ordered_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    for cells in [16usize, 256] {
        let grid: Vec<usize> = (0..cells).collect();
        group.bench_with_input(
            BenchmarkId::new("overhead_cost_ordered", cells),
            &grid,
            |b, grid| {
                b.iter(|| {
                    black_box(
                        SweepGrid::over(grid)
                            .cost(|&ix| (ix % 7) as u64)
                            .run(|&ix| ix.wrapping_mul(2654435761)),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The zero-overhead claim of the observability layer: a full trace
/// replay with a `NoopProbe` attached must track the probe-free replay
/// within noise (<10%, enforced strictly by the `obs_guard` binary).
fn bench_noop_probe(c: &mut Criterion) {
    let trace = gen::generate_shared(SplashApp::Water, &small_cfg());
    let cfg = SimConfig::study(1024);
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("replay_no_probe", |b| {
        b.iter(|| {
            let mut engine = UtlbEngine::new(cfg.utlb_config());
            black_box(
                Run::with_config(&cfg)
                    .execute_with(&mut engine, &trace)
                    .into_sim()
                    .unwrap()
                    .stats
                    .lookups,
            )
        })
    });
    group.bench_function("replay_noop_probe", |b| {
        b.iter(|| {
            let mut engine = UtlbEngine::new(cfg.utlb_config());
            engine.set_probe(Box::new(NoopProbe));
            black_box(
                Run::with_config(&cfg)
                    .execute_with(&mut engine, &trace)
                    .into_sim()
                    .unwrap()
                    .stats
                    .lookups,
            )
        })
    });
    group.finish();
}

/// Batched vs scalar replay throughput on a Table 4 workload, all four
/// mechanisms. `replay_scalar_*` is the pre-batching loop (one outcome
/// `Vec` per record, per-page classification); `replay_batched_*` is the
/// library runner on the batched `lookup_run_into` path.
fn bench_replay_paths(c: &mut Criterion) {
    let trace = gen::generate_shared(SplashApp::Water, &small_cfg());
    let cfg = SimConfig::study(1024);
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.records.len() as u64));
    for mech in Mechanism::ALL {
        group.bench_function(format!("replay_scalar_{mech}"), |b| {
            b.iter(|| black_box(scalar_run_mechanism(mech, &trace, &cfg).stats.lookups))
        });
        group.bench_function(format!("replay_batched_{mech}"), |b| {
            b.iter(|| {
                black_box(
                    Run::new(mech)
                        .config(&cfg)
                        .execute(&trace)
                        .into_sim()
                        .unwrap()
                        .stats
                        .lookups,
                )
            })
        });
    }
    group.finish();
}

/// Registers one warmed engine's scalar/batched steady-state pair: spawn,
/// register, replay the trace once to absorb compulsory misses, then bench
/// each lookup path over the whole trace per iteration.
fn hot_pair<M: TranslationMechanism>(
    group: &mut BenchmarkGroup<'_>,
    prefix: &str,
    mech: Mechanism,
    mut engine: M,
    trace: &Trace,
) {
    let mut host = Host::new(1 << 20);
    let mut board = Board::new();
    for expected in &trace.process_ids() {
        let got = host.spawn_process();
        assert_eq!(got, *expected, "trace pids must be dense from 1");
        engine
            .register_process(&mut host, &mut board, got)
            .expect("registration succeeds on a fresh host");
    }
    let mut out = OutcomeBuf::new();
    for rec in &trace.records {
        out.clear();
        engine
            .lookup_run_into(
                &mut host,
                &mut board,
                LookupBatch::for_buffer(rec.pid, rec.va, rec.nbytes),
                &mut out,
            )
            .expect("warmup lookups succeed");
    }
    group.bench_function(format!("{prefix}_scalar_{mech}"), |b| {
        b.iter(|| {
            let mut pages = 0usize;
            for rec in &trace.records {
                let npages = rec.va.span_pages(rec.nbytes);
                pages += engine
                    .lookup_run(&mut host, &mut board, rec.pid, rec.va.page(), npages)
                    .expect("trace lookups succeed")
                    .len();
            }
            black_box(pages)
        })
    });
    group.bench_function(format!("{prefix}_batched_{mech}"), |b| {
        b.iter(|| {
            let mut pages = 0usize;
            for rec in &trace.records {
                out.clear();
                engine
                    .lookup_run_into(
                        &mut host,
                        &mut board,
                        LookupBatch::for_buffer(rec.pid, rec.va, rec.nbytes),
                        &mut out,
                    )
                    .expect("trace lookups succeed");
                pages += out.len();
            }
            black_box(pages)
        })
    });
}

/// Dispatches [`hot_pair`] for a mechanism.
fn hot_pair_for(
    group: &mut BenchmarkGroup<'_>,
    prefix: &str,
    mech: Mechanism,
    cfg: &SimConfig,
    trace: &Trace,
) {
    match mech {
        Mechanism::Utlb => hot_pair(
            group,
            prefix,
            mech,
            UtlbEngine::new(cfg.utlb_config()),
            trace,
        ),
        Mechanism::PerProc => hot_pair(
            group,
            prefix,
            mech,
            PerProcessEngine::new(cfg.perproc_config()),
            trace,
        ),
        Mechanism::Indexed => hot_pair(
            group,
            prefix,
            mech,
            IndexedEngine::new(cfg.indexed_config()),
            trace,
        ),
        Mechanism::Intr => hot_pair(
            group,
            prefix,
            mech,
            IntrEngine::new(cfg.intr_config()),
            trace,
        ),
    }
}

/// Steady-state lookup throughput, warmed: compulsory misses absorbed by a
/// warmup pass, so the scalar/batched gap is the per-page software cost the
/// batch API removes (per-record outcome `Vec`, per-page cost-model clone
/// and µs→ns conversions, per-page clock advances).
fn bench_hot_replay(c: &mut Criterion) {
    let trace = gen::generate_shared(SplashApp::Water, &small_cfg());
    let cfg = SimConfig::study(8192);
    let pages: u64 = trace.records.iter().map(|r| r.lookups()).sum();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pages));
    for mech in Mechanism::ALL {
        hot_pair_for(&mut group, "hot", mech, &cfg, &trace);
    }
    group.finish();
}

/// The same steady-state comparison on bulk transfers — every record
/// widened to a 16-page run, the shape the run-coalescing fast path is
/// built for: per-process state resolved once per record and consecutive
/// hit pages walked with one coalesced clock advance.
fn bench_bulk_replay(c: &mut Criterion) {
    let base = gen::generate_shared(SplashApp::Water, &small_cfg());
    let records = base
        .records
        .iter()
        .map(|r| utlb_trace::TraceRecord {
            nbytes: 16 * PAGE_SIZE,
            ..*r
        })
        .collect();
    let trace = Trace::new("water-bulk", base.seed, records);
    let cfg = SimConfig::study(16384);
    let pages: u64 = trace.records.iter().map(|r| r.lookups()).sum();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pages));
    for mech in Mechanism::ALL {
        hot_pair_for(&mut group, "bulk", mech, &cfg, &trace);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_probe,
    bench_executor_overhead,
    bench_grid,
    bench_cost_ordered_overhead,
    bench_noop_probe,
    bench_replay_paths,
    bench_hot_replay,
    bench_bulk_replay
);
criterion_main!(benches);
