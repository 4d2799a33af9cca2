//! Property-based tests of the NIC substrate: reliable delivery under
//! arbitrary loss patterns, switch FIFO-ness, and SRAM/DMA integrity.

use proptest::prelude::*;
use utlb_mem::{PhysAddr, PhysicalMemory};
use utlb_nic::packet::{DeliveryInfo, Packet, PacketKind};
use utlb_nic::reliable::{ReliableReceiver, ReliableSender, RemapTable, DEFAULT_RTO};
use utlb_nic::{DmaEngine, Link, Nanos, NodeId, SimClock, Sram, Switch};

fn data_packet(tag: u8) -> Packet {
    Packet::data(
        NodeId::new(0),
        NodeId::new(1),
        0,
        DeliveryInfo {
            export_id: 0,
            offset: tag as u64,
            nbytes: 1,
        },
        vec![tag],
    )
}

proptest! {
    /// Go-back-N delivers every message exactly once, in order, when fewer
    /// packets are lost in total than the per-packet retry budget.
    ///
    /// (An unbounded adversary *can* defeat a capped go-back-N sender by
    /// dropping the same sequence number on every retransmission — proptest
    /// found exactly that counterexample with a periodic pattern aligned to
    /// the window — so the property is stated for sub-budget loss, which is
    /// the regime the paper's "very low error rate" Myrinet operates in;
    /// persistent loss is the *node remapping* path instead.)
    #[test]
    fn reliable_delivery_under_arbitrary_loss(
        n_msgs in 1usize..24,
        drops in proptest::collection::hash_set(0usize..256, 0..7),
        window in 1usize..8,
    ) {
        let mut switch = Switch::new(2, Link::default());
        // Drop wire data-packet number k iff k ∈ drops (at most 7 losses,
        // below the retry cap of 8).
        let mut k = 0usize;
        switch.set_fault_hook(Some(Box::new(move |p: &Packet| {
            if p.kind == PacketKind::Ack {
                return false; // keep acks; data loss is the interesting case
            }
            let drop = drops.contains(&k);
            k += 1;
            drop
        })));
        let remap = RemapTable::new();
        let mut tx = ReliableSender::new(NodeId::new(0), NodeId::new(1), window);
        let mut rx = ReliableReceiver::new();
        let mut now = Nanos::ZERO;
        for i in 0..n_msgs {
            tx.send(data_packet(i as u8), &mut switch, &remap, now).unwrap();
        }
        let mut delivered = Vec::new();
        // Pump for a bounded number of rounds.
        for _ in 0..200 {
            now += DEFAULT_RTO;
            // Drain arrivals at the receiver, acking cumulatively.
            let mut last_ack = None;
            while let Some(p) = switch.recv(NodeId::new(1), now).unwrap() {
                let (d, ack) = rx.accept(p);
                if let Some(p) = d {
                    delivered.push(p.payload[0]);
                }
                if ack > 0 {
                    last_ack = Some(ack);
                }
            }
            if let Some(ack) = last_ack {
                switch.send(Packet::ack(NodeId::new(1), NodeId::new(0), ack), now).unwrap();
            }
            // Drain acks at the sender.
            while let Some(p) = switch.recv(NodeId::new(0), now).unwrap() {
                if p.kind == PacketKind::Ack {
                    tx.on_ack(p.ack_seq, &mut switch, &remap, now).unwrap();
                }
            }
            if tx.is_drained() {
                break;
            }
            // Retransmission timers.
            let _ = tx.tick(&mut switch, &remap, now);
        }
        prop_assert!(tx.is_drained(), "channel failed to drain");
        let expect: Vec<u8> = (0..n_msgs as u8).collect();
        prop_assert_eq!(delivered, expect, "exactly-once, in-order");
    }

    /// The switch is FIFO per destination regardless of send times.
    #[test]
    fn switch_is_fifo(count in 1usize..64) {
        let mut sw = Switch::new(2, Link::default());
        for i in 0..count {
            sw.send(data_packet(i as u8), Nanos::from_nanos(i as u64)).unwrap();
        }
        let late = Nanos::from_micros(10_000.0);
        let mut seen = Vec::new();
        while let Some(p) = sw.recv(NodeId::new(1), late).unwrap() {
            seen.push(p.payload[0]);
        }
        let expect: Vec<u8> = (0..count as u8).collect();
        prop_assert_eq!(seen, expect);
    }

    /// SRAM read/write roundtrips over arbitrary regions.
    #[test]
    fn sram_roundtrip(
        len in 1u64..512,
        data in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let mut sram = Sram::new(4096);
        let region = sram.alloc(len.max(data.len() as u64)).unwrap();
        let take = data.len().min(len as usize);
        sram.write(region.base(), &data[..take]).unwrap();
        let mut back = vec![0u8; take];
        sram.read(region.base(), &mut back).unwrap();
        prop_assert_eq!(&back[..], &data[..take]);
    }

    /// DMA word fetches see exactly what host memory holds, and the charged
    /// time is the bus model's (deterministic, batch-size dependent).
    #[test]
    fn dma_fetch_integrity(words in proptest::collection::vec(any::<u64>(), 1..64)) {
        let mut host = PhysicalMemory::new(16);
        for (i, w) in words.iter().enumerate() {
            host.write_u64(PhysAddr::new(i as u64 * 8), *w).unwrap();
        }
        let mut clock = SimClock::new();
        let mut dma = DmaEngine::default();
        let mut got = vec![0u64; words.len()];
        let cost = dma
            .fetch_words(&mut clock, &host, PhysAddr::new(0), &mut got)
            .unwrap();
        prop_assert_eq!(&got, &words);
        prop_assert_eq!(cost, dma.bus().dma_words(words.len() as u64));
        prop_assert_eq!(clock.now(), cost);
    }

    /// Remapping is involutive bookkeeping: remap then restore is identity.
    #[test]
    fn remap_restore_identity(logical in 0u32..16, physical in 0u32..16) {
        let mut t = RemapTable::new();
        let l = NodeId::new(logical);
        let p = NodeId::new(physical);
        t.remap(l, p);
        prop_assert_eq!(t.resolve(l), p);
        t.restore(l);
        prop_assert_eq!(t.resolve(l), l);
    }
}
