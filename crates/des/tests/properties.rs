//! Property tests of the single-server station against the multi-server
//! bank it replaced.

use proptest::prelude::*;
use utlb_des::{Grant, Resource, ResourceStats};
use utlb_nic::Nanos;

/// The one-server FIFO bank `Resource::fifo(name, 1)` built before stations
/// became single-server, kept as the reference its replacement must agree
/// with on every grant and counter. Only the immediate-admission path is
/// kept; the batched priority path had no caller.
#[derive(Debug)]
struct BankReference {
    /// Free-at time per server.
    servers: Vec<Nanos>,
    stats: ResourceStats,
}

impl BankReference {
    fn fifo(servers: usize) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        BankReference {
            servers: vec![Nanos::ZERO; servers],
            stats: ResourceStats::default(),
        }
    }

    /// Index of the server that frees up earliest (lowest index on ties).
    fn earliest_server(&self) -> usize {
        self.servers
            .iter()
            .enumerate()
            .min_by_key(|(i, free)| (**free, *i))
            .map(|(i, _)| i)
            .expect("finite station has servers")
    }

    fn acquire(&mut self, now: Nanos, service: Nanos) -> Grant {
        self.acquire_with(now, |start| start + service)
    }

    fn acquire_with(&mut self, now: Nanos, occupy: impl FnOnce(Nanos) -> Nanos) -> Grant {
        self.stats.arrivals += 1;
        let s = self.earliest_server();
        let start = now.max(self.servers[s]);
        let end = occupy(start);
        assert!(end >= start, "occupancy cannot end before it starts");
        self.servers[s] = end;
        let wait = start.saturating_sub(now);
        self.stats.served += 1;
        self.stats.busy_ns += (end - start).as_nanos();
        self.stats.wait_ns += wait.as_nanos();
        Grant { start, end, wait }
    }
}

/// One admission: how it is made, when, for how long, and (for a held
/// acquisition) the external instant the holder waits for.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `acquire(now, service)`.
    Acquire { now: u64, service: u64 },
    /// `acquire_with(now, |start| start + service)`.
    With { now: u64, service: u64 },
    /// `acquire_with(now, |start| start.max(until) + service)`: the holder
    /// keeps the station until an instant computed elsewhere.
    Hold { now: u64, service: u64, until: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..3, 0u64..5_000, 0u64..400, 0u64..6_000).prop_map(|(kind, now, service, until)| match kind
    {
        0 => Op::Acquire { now, service },
        1 => Op::With { now, service },
        _ => Op::Hold {
            now,
            service,
            until,
        },
    })
}

/// Applies `op` to both stations and returns both grants.
fn apply(op: Op, station: &mut Resource, bank: &mut BankReference) -> (Grant, Grant) {
    let ns = Nanos::from_nanos;
    match op {
        Op::Acquire { now, service } => (
            station.acquire(ns(now), ns(service)),
            bank.acquire(ns(now), ns(service)),
        ),
        Op::With { now, service } => (
            station.acquire_with(ns(now), |s| s + ns(service)),
            bank.acquire_with(ns(now), |s| s + ns(service)),
        ),
        Op::Hold {
            now,
            service,
            until,
        } => (
            station.acquire_with(ns(now), |s| s.max(ns(until)) + ns(service)),
            bank.acquire_with(ns(now), |s| s.max(ns(until)) + ns(service)),
        ),
    }
}

/// Rewrites every admission time as a running sum of small steps, so the
/// sequence is nondecreasing (the replayer's case).
fn forward_only(ops: &mut [Op]) {
    let mut clock = 0u64;
    for op in ops {
        let (Op::Acquire { now, .. } | Op::With { now, .. } | Op::Hold { now, .. }) = op;
        clock += *now % 300;
        *now = clock;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The single-server station returns the same grant as the one-server
    /// FIFO bank on every admission, and the same counters at the end, over
    /// random interleavings of `acquire` and `acquire_with` whose admission
    /// times either run forward only or jump backwards in time.
    #[test]
    fn station_matches_the_one_server_fifo_bank(
        mut ops in proptest::collection::vec(op(), 1..200),
        monotone in any::<bool>(),
    ) {
        if monotone {
            forward_only(&mut ops);
        }
        let mut station = Resource::new("io_bus");
        let mut bank = BankReference::fifo(1);
        for (i, op) in ops.iter().enumerate() {
            let (got, want) = apply(*op, &mut station, &mut bank);
            prop_assert_eq!(got, want, "admission {} ({:?})", i, op);
        }
        prop_assert_eq!(station.stats(), bank.stats);
        let report = station.report();
        prop_assert_eq!(report.name.as_str(), "io_bus");
        prop_assert_eq!(report.stats, bank.stats);
    }
}
