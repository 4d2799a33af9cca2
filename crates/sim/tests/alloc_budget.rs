//! Allocation ratchet: heap allocations per unit of steady-state work.
//!
//! A count of heap allocations is exact for a seed, like the simulated
//! metrics, so it can gate host cost where wall-clock time cannot. Each
//! shape runs the same configuration twice, at a small and a large size,
//! and divides the difference in allocations by the difference in work.
//! Everything a run builds once — engines, hosts, buffers grown to steady
//! state, the result — cancels out, and what is left is the per-epoch or
//! per-connection cost:
//!
//! * **Hit path.** Barnes looped 2 vs 6 epochs on `SimConfig::study(8192)`:
//!   after the first epoch the working set sits in the NIC cache.
//! * **Miss path.** The same loop on `study(256).limit_mb(4)`, serially and
//!   under `DesConfig::contended(1.0)`: NIC misses, pins, evictions.
//! * **Churn.** 2 000 vs 6 000 live connections on one board and on eight:
//!   registration, unregistration, process spawn and exit, credit windows.
//!
//! The hit and miss paths must allocate nothing per extra epoch. Churn
//! recycles every per-connection structure through pools bounded by the
//! peak live state, but a longer run meets new peaks (more connections
//! homed on one board at once, a process pinning more pages than any
//! before it), and the pools grow to them: a few allocations per thousand
//! connections, against 49–63 (Indexed) and ≈25 (Intr) per connection
//! before the pools existed. The counting allocator keeps one count per
//! thread, so the harness may run these tests in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use utlb_sim::{
    ClusterConfig, DesConfig, FrontendConfig, HomingPolicy, Live, Mechanism, Run, SimConfig,
};
use utlb_trace::{gen, GenConfig, Looped, SplashApp, Trace, TraceView};

/// Counts every allocation and reallocation of the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// count is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, including dropping what it built.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations per extra unit of work between a run of size `small` and
/// one of size `large`.
fn marginal(small: u64, large: u64, run: impl Fn(u64)) -> f64 {
    let a = allocations(|| run(small));
    let b = allocations(|| run(large));
    (b as f64 - a as f64) / (large - small) as f64
}

/// `trace` looped `epochs` times through `run`. Each epoch replays the
/// materialized trace, so the count covers the replay and not the trace
/// generator, which builds its process streams anew every epoch.
fn looped(run: &Run, trace: &Trace, epochs: u64) {
    let mut stream = Looped::new(TraceView::new(trace), epochs, 20_000, |_| {
        TraceView::new(trace)
    });
    run.execute(&mut stream).expect("looped replay");
}

/// Barnes under the default generator.
fn barnes() -> Trace {
    gen::generate(SplashApp::Barnes, &GenConfig::default())
}

#[test]
fn hit_path_allocates_nothing_per_epoch() {
    let cfg = SimConfig::study(8192);
    let trace = barnes();
    for mech in Mechanism::ALL {
        let run = Run::new(mech).config(&cfg);
        let per_epoch = marginal(2, 6, |epochs| looped(&run, &trace, epochs));
        eprintln!("hit {mech}: {per_epoch} allocations per extra epoch");
        assert_eq!(per_epoch, 0.0, "{mech}: allocations per extra epoch");
    }
}

#[test]
fn miss_path_allocates_nothing_per_epoch() {
    let cfg = SimConfig::study(256).limit_mb(4);
    let trace = barnes();
    for mech in Mechanism::ALL {
        let serial = Run::new(mech).config(&cfg);
        let des = serial.clone().des(DesConfig::contended(1.0));
        for (label, run) in [("serial", serial), ("contended DES", des)] {
            let per_epoch = marginal(2, 6, |epochs| looped(&run, &trace, epochs));
            eprintln!("miss {mech} {label}: {per_epoch} allocations per extra epoch");
            assert_eq!(
                per_epoch, 0.0,
                "{mech} {label}: allocations per extra epoch"
            );
        }
    }
}

/// The live peers of the repository benchmark's `live-churn` and
/// `live-cluster` workloads, at `connections` connections.
fn live_peers(connections: u64) -> FrontendConfig {
    FrontendConfig {
        connections: connections as usize,
        open_window: 16,
        requests_per_conn: 8,
        credit_window: 4,
        queue_depth: 8,
        think_ns: 2_000_000,
        drain_ns: 4_000,
        payload_bytes: 4096,
        buffer_pages: 64,
        seed: 1998,
    }
}

/// Allocations allowed per extra connection: pool growth toward a new
/// peak, never a per-connection cost.
const CHURN_BUDGET: f64 = 0.01;

#[test]
fn connection_churn_stays_within_its_allocation_budget() {
    let cfg = SimConfig {
        table_entries: 256,
        ..SimConfig::study(256)
    };
    for nodes in [1, 8] {
        for mech in [Mechanism::Indexed, Mechanism::Intr] {
            let per_conn = marginal(2_000, 6_000, |connections| {
                let run = Run::new(mech)
                    .config(&cfg)
                    .frontend(live_peers(connections));
                let run = match nodes {
                    1 => run,
                    n => run.cluster(ClusterConfig::new(n).homing(HomingPolicy::HashByClient)),
                };
                run.execute(Live).expect("live run");
            });
            eprintln!(
                "churn {mech} on {nodes} board(s): {per_conn} allocations per extra connection"
            );
            assert!(
                per_conn <= CHURN_BUDGET,
                "{mech} on {nodes} board(s): {per_conn} allocations per extra connection"
            );
        }
    }
}
