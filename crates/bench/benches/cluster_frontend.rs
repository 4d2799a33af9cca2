//! The clustered request plane's driver cost: the same live churn served
//! by 1 board and by 8, and a redirect-heavy row where half the
//! connections must re-home off a full directory. The 1-board row prices
//! the homing/shared-station machinery against the plain front end; the
//! 8-board rows price cross-board arbitration and re-homing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use utlb_sim::frontend::FrontendConfig;
use utlb_sim::RunOutputExt;
use utlb_sim::{ClusterConfig, HomingPolicy, Live, Mechanism, Run, SimConfig};

fn churn_cfg() -> FrontendConfig {
    FrontendConfig {
        connections: 2_048,
        open_window: 256,
        requests_per_conn: 8,
        ..FrontendConfig::default()
    }
}

fn bench_cluster_frontend(c: &mut Criterion) {
    // The cache size `run_all cluster_frontend` runs at.
    let sim = SimConfig::study(8192);
    let fcfg = churn_cfg();
    let requests = (fcfg.connections * fcfg.requests_per_conn) as u64;

    let mut group = c.benchmark_group("cluster_frontend");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests));
    for nodes in [1usize, 8] {
        let run = Run::new(Mechanism::Indexed)
            .config(&sim)
            .frontend(fcfg.clone())
            .cluster(ClusterConfig::new(nodes));
        group.bench_function(format!("indexed_{nodes}_boards"), |b| {
            b.iter(|| black_box(run.execute(Live).into_cluster_frontend().unwrap().served))
        });
    }
    // Redirect-heavy: the hierarchical directory (64 lifetime slots per
    // board) forces most of the churn through refusal/redirect handling.
    let redirecting = Run::new(Mechanism::Utlb)
        .config(&sim)
        .frontend(fcfg.clone())
        .cluster(ClusterConfig::new(8).homing(HomingPolicy::HashByClient));
    group.bench_function("utlb_8_boards_redirecting", |b| {
        b.iter(|| {
            black_box(
                redirecting
                    .execute(Live)
                    .into_cluster_frontend()
                    .unwrap()
                    .redirects,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cluster_frontend);
criterion_main!(benches);
