//! Ping-pong latency microbenchmark over the messaging fabric.
//!
//! Bounces a message between two nodes through a `utlb-msg` channel and
//! reports the simulated round-trip time for the *cold* round (demand
//! pinning, NIC cache fills, ring export) versus *warm* rounds (pure fast
//! path through the exported ring) — the end-to-end view of the paper's
//! §5 microbenchmarks, now including the messaging layer the UTLB exists
//! to serve. Both sides receive into reused buffers (`recv_reuse`), so
//! the steady-state loop allocates nothing per message. Run with:
//!
//! ```text
//! cargo run --example ping_pong [rounds] [bytes]
//! ```

use utlb_core::TranslationMechanism;
use utlb_msg::{ChannelConfig, Fabric, RecvBuf};
use utlb_vmmc::Cluster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let rounds: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(16);
    let nbytes: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(4096);

    let mut fabric = Fabric::new(Cluster::new(2)?);
    let ping = fabric.add_endpoint(0)?;
    let pong = fabric.add_endpoint(1)?;
    // A ring sized so the payload always travels the eager path (slots
    // carry a 16-byte header): the warm-round number then measures the
    // fast path, not rendezvous handshakes.
    let slot_bytes = (nbytes as u64 + 16).max(1024);
    let cfg = ChannelConfig {
        slot_bytes,
        bulk_bytes: (64 * 1024).max(slot_bytes),
        ..ChannelConfig::default()
    };
    assert!(cfg.max_eager() >= nbytes as u64);
    let channel = fabric.connect(ping, pong, cfg)?;

    let payload = vec![0xABu8; nbytes];
    // One reused landing buffer per direction — no per-round allocation.
    let mut at_pong = RecvBuf::new();
    let mut at_ping = RecvBuf::new();

    println!("ping-pong: {rounds} rounds of {nbytes} bytes over the fabric");
    println!("{:<8}{:>16}{:>16}", "round", "simulated µs", "interrupts");
    let mut warm_total = 0.0;
    let mut warm_rounds = 0;
    for round in 0..rounds {
        let t0 = fabric.cluster().node(0)?.board().clock.now();
        fabric.send(channel, ping, &payload)?;
        fabric.recv_reuse(channel, pong, &mut at_pong)?;
        fabric.send(channel, pong, &payload)?;
        fabric.recv_reuse(channel, ping, &mut at_ping)?;
        let t1 = fabric.cluster().node(0)?.board().clock.now();
        assert_eq!(at_pong.as_slice(), payload);
        assert_eq!(at_ping.as_slice(), payload);
        let us = (t1 - t0).as_micros();
        let c = fabric.cluster();
        let intr = c.node(0)?.board().intr.raised() + c.node(1)?.board().intr.raised();
        println!("{round:<8}{us:>16.2}{intr:>16}");
        if round > 0 {
            warm_total += us;
            warm_rounds += 1;
        }
    }
    if warm_rounds > 0 {
        println!(
            "\nwarm round-trip average: {:.2} µs (translation fast path: {:.1} µs/lookup)",
            warm_total / warm_rounds as f64,
            utlb_core::CostModel::default().fast_path().as_micros(),
        );
    }
    let s = fabric.cluster().node(0)?.utlb().aggregate_stats();
    println!(
        "node 0 translation: {} lookups, {} check misses, {} NI misses, {} pins",
        s.lookups, s.check_misses, s.ni_misses, s.pins
    );
    Ok(())
}
