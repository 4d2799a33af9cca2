//! Closing the paper's methodological loop: §6 instrumented the live VMMC
//! software to record communication traces, then fed them to a simulator.
//! This test does the same with our stack — run a live cluster workload
//! with tracing on, replay the captured trace through the trace-driven
//! simulator, and check the two views agree where they must.

use utlb_core::TranslationMechanism;
use utlb_mem::{VirtAddr, PAGE_SIZE};
use utlb_sim::RunOutputExt;
use utlb_sim::{Mechanism, Run, SimConfig};
use utlb_vmmc::Cluster;

/// Drives a small producer/consumer workload on a live cluster and returns
/// (captured trace, live sender-side stats).
fn live_run() -> (utlb_trace::Trace, utlb_core::TranslationStats) {
    let mut c = Cluster::new(2).unwrap();
    let tx = c.spawn_process(0).unwrap();
    let rx = c.spawn_process(1).unwrap();
    let export = c
        .export(1, rx, VirtAddr::new(0x4000_0000), 16 * PAGE_SIZE)
        .unwrap();
    let import = c.import(0, tx, 1, export).unwrap();

    c.enable_tracing();
    // A working set of 8 source pages, sent repeatedly with some reuse.
    for round in 0..6u64 {
        for page in 0..8u64 {
            let src = VirtAddr::new(0x1000_0000 + page * PAGE_SIZE);
            if round == 0 {
                c.write_local(0, tx, src, &[page as u8; 256]).unwrap();
            }
            c.remote_store(0, tx, import, src, (page % 16) * PAGE_SIZE, 256)
                .unwrap();
        }
        c.run_until_quiet().unwrap();
    }
    let trace = c.take_trace("live-producer");
    let live = c.node(0).unwrap().utlb().aggregate_stats();
    (trace, live)
}

#[test]
fn live_trace_replays_consistently_through_the_simulator() {
    let (trace, live) = live_run();
    assert_eq!(trace.records.len(), 48, "6 rounds × 8 sends");
    assert_eq!(trace.footprint_pages(), 8);

    let sim = SimConfig::study(8192); // same default geometry as the cluster
    let replay = Run::new(Mechanism::Utlb)
        .config(&sim)
        .execute(&trace)
        .into_sim()
        .unwrap();

    // The simulator accounts exactly the traced requests.
    assert_eq!(replay.stats.lookups, trace.total_lookups());
    // Identical engine + identical geometry ⇒ the send-side pinning the
    // simulator derives matches the live run's (the live side additionally
    // pinned the export and receive-path pages, so live ≥ replay).
    assert_eq!(replay.stats.check_misses, 8, "one per distinct source page");
    assert!(live.pins >= replay.stats.pins);
    assert!(live.check_misses >= replay.stats.check_misses);
    // Neither view ever interrupts.
    assert_eq!(replay.stats.interrupts, 0);
    assert_eq!(live.interrupts, 0);
    // Steady-state sends hit everywhere in both views.
    assert_eq!(replay.stats.ni_misses, 8, "compulsory only");
}

#[test]
fn live_trace_round_trips_through_jsonl() {
    let (trace, _) = live_run();
    let mut buf = Vec::new();
    utlb_trace::write_jsonl(&trace, &mut buf).unwrap();
    let back = utlb_trace::read_jsonl(buf.as_slice()).unwrap();
    assert_eq!(trace, back);
    // And the deserialized trace drives the simulator identically.
    let sim = SimConfig::study(1024);
    let a = Run::new(Mechanism::Utlb)
        .config(&sim)
        .execute(&trace)
        .into_sim()
        .unwrap();
    let b = Run::new(Mechanism::Utlb)
        .config(&sim)
        .execute(&back)
        .into_sim()
        .unwrap();
    assert_eq!(a.stats, b.stats);
}
