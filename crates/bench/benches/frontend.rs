//! The request plane's reactor cost: the same workload served live (full
//! connection lifecycle — handshake frames, credit admission, teardown)
//! and replayed serially from its materialized trace. The delta is what
//! the front end itself costs per request on top of translation; a churn
//! row measures the lifecycle machinery under connection turnover.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use utlb_sim::frontend::{frontend_trace, FrontendConfig};
use utlb_sim::RunOutputExt;
use utlb_sim::{Live, Mechanism, Run, SimConfig};

fn steady_cfg() -> FrontendConfig {
    // All connections open for the whole run: comparable to the trace.
    FrontendConfig {
        connections: 32,
        open_window: 32,
        requests_per_conn: 256,
        credit_window: 256,
        queue_depth: 0,
        ..FrontendConfig::default()
    }
}

fn churn_cfg() -> FrontendConfig {
    // Same request volume, but 512 connections churning through 16 slots.
    FrontendConfig {
        connections: 512,
        open_window: 16,
        requests_per_conn: 16,
        ..FrontendConfig::default()
    }
}

/// Live front end vs serial replay of its own materialized trace.
fn bench_frontend(c: &mut Criterion) {
    // The cache size `run_all frontend` runs at.
    let sim = SimConfig::study(8192);
    let fcfg = steady_cfg();
    let requests = (fcfg.connections * fcfg.requests_per_conn) as u64;
    let trace = frontend_trace(&fcfg);

    let mut group = c.benchmark_group("frontend");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests));
    let live = Run::new(Mechanism::Utlb).config(&sim).frontend(fcfg);
    group.bench_function("live", |b| {
        b.iter(|| black_box(live.execute(Live).into_frontend().unwrap().served))
    });
    let serial = Run::new(Mechanism::Utlb).config(&sim);
    group.bench_function("trace_replay", |b| {
        b.iter(|| black_box(serial.execute(&trace).into_sim().unwrap().stats.lookups))
    });
    let churn = Run::new(Mechanism::Indexed)
        .config(&sim)
        .frontend(churn_cfg());
    group.bench_function("churn", |b| {
        b.iter(|| black_box(churn.execute(Live).into_frontend().unwrap().served))
    });
    group.finish();
}

criterion_group!(benches, bench_frontend);
criterion_main!(benches);
