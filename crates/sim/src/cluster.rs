//! Multi-NIC cluster topology: N boards sharding one multiprogrammed stream
//! over shared host-memory and I/O-bus stations.
//!
//! The paper's evaluation stops at one NIC shared by one node's processes
//! (§6); the ROADMAP's cluster item asks what happens when many boards
//! contend for the resources a single node *assumed* were private. A
//! `.cluster(cfg)` run splits a merged stream (see
//! [`utlb_trace::merge_multiprogram`]) across `nodes` simulated boards by a
//! per-process [`ShardMap`], through the same replay loop every trace run
//! uses (one board is its degenerate case), with the station overlay on:
//!
//! * **per board** — its own engine instance (same mechanism and SRAM/cache
//!   geometry on every board), its own NIC firmware station, and its own
//!   DMA engine, exactly the private resources a physical NIC carries;
//! * **shared** — one host-memory station (driver pin/unpin work from every
//!   board funnels through the host memory system), one I/O bus, and one
//!   host interrupt service, the `utlb-des` stations a cluster backplane
//!   cannot replicate per board.
//!
//! **Draw-order contract.** Records are replayed in global stream order
//! (non-decreasing timestamps), and shared stations admit work in exactly
//! that order — so the admission sequence is a pure function of the input
//! stream, never of host-side scheduling, and a cluster run is
//! byte-deterministic under any sweep worker count. On one board the
//! firmware holds every walk, so no shared-station acquisition ever queues
//! behind another board, which is why the 1-board cluster is *bit-exact*
//! with the plain `.des()` run at any load (pinned by `tests/cluster.rs`).
//!
//! **Migration.** A [`Migration`] rehomes one process mid-trace: its stats
//! are snapshotted, the source board's engine drops the process through the
//! existing `unregister_process` path — invalidating every translation and
//! releasing every pinned page it held there — and the destination board
//! registers it fresh, so its working set demand-repins. A stale
//! translation surviving on the source board would be a correctness bug;
//! `tests/cluster.rs` prop-tests that none ever does. (The clustered
//! *front end* re-homes at admission instead of on a schedule — see
//! [`HomingPolicy`] and [`crate::frontend::cluster`].)

use crate::SimResult;
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_core::obs::{Histogram, Metrics};
use utlb_core::TranslationStats;
use utlb_des::ResourceReport;
use utlb_trace::ShardMap;

/// One scheduled cross-board process migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Migration {
    /// Raw pid of the process to rehome.
    pub pid: u32,
    /// Trace time at which the move takes effect: the migration is applied
    /// before the first record with `ts_ns >= at_ns` (or at end of stream).
    pub at_ns: u64,
    /// Destination board.
    pub to_board: usize,
}

/// How a clustered front end picks the home board for a new connection.
///
/// Homing happens at admission time; when the chosen board's registration
/// SRAM is exhausted, the handshake falls over to the next candidate via
/// [`Frame::Redirect`](utlb_msg::Frame::Redirect) — see
/// [`crate::frontend::cluster`]. Trace-driven cluster runs place by
/// [`ShardMap`] instead and ignore this field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HomingPolicy {
    /// Hash the client index onto a board: stateless, uniform in
    /// expectation, oblivious to load. Candidate order on refusal is the
    /// ring successor of the hashed home.
    #[default]
    HashByClient,
    /// Home to the board with the fewest open connections (ties to the
    /// lowest index): load-aware, needs cluster-wide state at admission.
    /// Candidate order on refusal is ascending load.
    LeastLoaded,
}

impl HomingPolicy {
    /// Every policy, in study-grid order.
    pub const ALL: [HomingPolicy; 2] = [HomingPolicy::HashByClient, HomingPolicy::LeastLoaded];

    /// Short kebab-case label used in archives and plots.
    pub fn label(&self) -> &'static str {
        match self {
            HomingPolicy::HashByClient => "hash-by-client",
            HomingPolicy::LeastLoaded => "least-loaded",
        }
    }
}

impl fmt::Display for HomingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Topology of a cluster run: board count, process placement, scheduled
/// migrations, and (for live front ends) the connection homing policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated boards.
    pub nodes: usize,
    /// Initial process placement; `None` means round-robin over the
    /// stream's pids ([`ShardMap::round_robin`]). Trace runs only: a live
    /// front end homes connections by `homing` and rejects a shard map.
    pub shard: Option<ShardMap>,
    /// Scheduled migrations, applied in `(at_ns, insertion order)` order.
    /// Trace runs only; a live front end re-homes at admission instead.
    pub migrations: Vec<Migration>,
    /// Connection homing policy for live front-end runs
    /// (`.frontend(..).cluster(..)`). Ignored by trace runs.
    pub homing: HomingPolicy,
}

impl ClusterConfig {
    /// A round-robin cluster of `nodes` boards with no migrations. A run
    /// on zero boards fails at execute time with
    /// [`RunError::IncompatibleConfig`](crate::RunError::IncompatibleConfig).
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            shard: None,
            migrations: Vec::new(),
            homing: HomingPolicy::default(),
        }
    }

    /// Uses an explicit placement instead of round-robin.
    pub fn shard(mut self, map: ShardMap) -> Self {
        self.shard = Some(map);
        self
    }

    /// Sets the connection homing policy for live front-end runs.
    pub fn homing(mut self, policy: HomingPolicy) -> Self {
        self.homing = policy;
        self
    }

    /// Schedules a migration of `pid` to `to_board` at trace time `at_ns`.
    pub fn migrate(mut self, pid: u32, at_ns: u64, to_board: usize) -> Self {
        self.migrations.push(Migration {
            pid,
            at_ns,
            to_board,
        });
        self
    }
}

/// What one migration did when it was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// The process that moved.
    pub pid: u32,
    /// Scheduled trace time of the move.
    pub at_ns: u64,
    /// Source board.
    pub from: usize,
    /// Destination board.
    pub to: usize,
    /// Pages the source board had pinned for the process — all invalidated
    /// and released by the move, to be demand-repinned at the destination.
    pub pages_invalidated: u64,
}

/// One board's share of a cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoardCell {
    /// Board index.
    pub board: usize,
    /// Raw pids homed on this board when the run ended.
    pub pids: Vec<u32>,
    /// The board's serial-half result. `stats`/`per_process` include the
    /// full history of processes that migrated away (snapshotted at each
    /// departure); `sim_time_ns` is relative to this board's registration
    /// end. On a 1-board cluster this is byte-identical to the serial
    /// runner's [`SimResult`].
    pub sim: SimResult,
    /// When this board's last translation finished on the stations,
    /// relative to the same origin as `sim.sim_time_ns`.
    pub des_time_ns: u64,
    /// Per-request latency of requests served by this board.
    pub latency_ns: Histogram,
    /// Queueing delay behind this board's firmware processor.
    pub fw_wait_ns: u64,
    /// Queueing delay behind this board's DMA engine.
    pub dma_wait_ns: u64,
    /// This board's share of queueing behind the shared I/O bus.
    pub bus_wait_ns: u64,
    /// This board's share of queueing behind shared interrupt service.
    pub intr_wait_ns: u64,
    /// This board's share of queueing behind the shared host memory system.
    pub host_mem_wait_ns: u64,
    /// Full per-board observability: event counts and latency/wait
    /// histograms from this board's collector.
    pub metrics: Metrics,
    /// Whether `metrics` reconciled exactly with the board's engine stats.
    pub reconciled: bool,
    /// This board's private stations (firmware, DMA engine).
    pub resources: Vec<ResourceReport>,
}

/// Outcome of a cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterResult {
    /// Workload name of the driving stream.
    pub workload: String,
    /// Number of boards.
    pub nodes: usize,
    /// Cluster completion time: the maximum over boards of their
    /// `des_time_ns`. Equals the serial `des_time_ns` on one board.
    pub des_time_ns: u64,
    /// Cluster-wide per-request latency (all boards merged).
    pub latency_ns: Histogram,
    /// Per-board results, board 0 first.
    pub boards: Vec<BoardCell>,
    /// The shared stations (host memory, I/O bus, interrupt service), in
    /// that order.
    pub shared: Vec<ResourceReport>,
    /// Total queueing behind the shared host memory station.
    pub host_mem_wait_ns: u64,
    /// Total queueing behind the shared I/O bus.
    pub bus_wait_ns: u64,
    /// Total queueing behind shared interrupt service.
    pub intr_wait_ns: u64,
    /// Migrations applied, in application order.
    pub migrations: Vec<MigrationReport>,
    /// Background payload transfers injected across all boards.
    pub payload_transfers: u64,
    /// Total background payload words moved across the shared bus.
    pub payload_words: u64,
}

impl ClusterResult {
    /// Translation counters summed over every board (migrated process
    /// histories included). Lookups equal the input stream's lookups.
    pub fn aggregate_stats(&self) -> TranslationStats {
        self.boards
            .iter()
            .map(|b| b.sim.stats)
            .fold(TranslationStats::default(), |a, b| a + b)
    }

    /// Total queueing delay across all stations, shared and per-board.
    pub fn total_wait_ns(&self) -> u64 {
        let per_board: u64 = self
            .boards
            .iter()
            .map(|b| b.fw_wait_ns + b.dma_wait_ns)
            .sum();
        per_board + self.host_mem_wait_ns + self.bus_wait_ns + self.intr_wait_ns
    }

    /// Mean per-request translation latency in µs.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency_ns.mean_ns() / 1000.0
    }

    /// Worst per-request translation latency in µs.
    pub fn max_latency_us(&self) -> f64 {
        self.latency_ns.max_ns() as f64 / 1000.0
    }

    /// Load imbalance: slowest board's `des_time_ns` over the mean.
    pub fn imbalance(&self) -> f64 {
        let times: Vec<u64> = self.boards.iter().map(|b| b.des_time_ns).collect();
        let sum: u64 = times.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / times.len() as f64;
        *times.iter().max().expect("at least one board") as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mechanism, Run, RunError, RunOutputExt, SimConfig};
    use utlb_mem::{ProcessId, VirtAddr, PAGE_SIZE};
    use utlb_trace::{Op, Trace, TraceRecord};

    fn rec(ts: u64, pid: u32, page: u64) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            pid: ProcessId::new(pid),
            op: Op::Send,
            va: VirtAddr::new(page * PAGE_SIZE),
            nbytes: PAGE_SIZE,
        }
    }

    /// Two pids touching disjoint pages: pid 1 on board 0, pid 2 on board 1.
    fn two_pid_trace() -> Trace {
        Trace::new(
            "two",
            7,
            vec![
                rec(0, 1, 10),
                rec(1_000, 2, 20),
                rec(2_000, 1, 11),
                rec(3_000, 2, 21),
                rec(4_000, 1, 10),
                rec(5_000, 2, 20),
            ],
        )
    }

    #[test]
    fn boards_partition_lookups_and_stats() {
        let trace = two_pid_trace();
        let cfg = SimConfig::study(256);
        let r = Run::new(Mechanism::Utlb)
            .config(&cfg)
            .cluster(ClusterConfig::new(2))
            .execute(&trace)
            .into_cluster()
            .unwrap();
        assert_eq!(r.nodes, 2);
        assert_eq!(r.boards[0].pids, vec![1]);
        assert_eq!(r.boards[1].pids, vec![2]);
        assert_eq!(r.boards[0].sim.stats.lookups, 3);
        assert_eq!(r.boards[1].sim.stats.lookups, 3);
        assert_eq!(r.aggregate_stats().lookups, trace.total_lookups());
        assert_eq!(
            r.latency_ns.count(),
            trace.records.len() as u64,
            "every request gets a latency sample"
        );
        assert!(r.boards.iter().all(|b| b.reconciled));
        assert_eq!(r.shared.len(), 3);
        assert_eq!(r.shared[0].name, "host_mem");
    }

    #[test]
    fn migration_invalidates_source_and_repins_at_destination() {
        // pid 1 touches pages {10, 11} before the move and the same pages
        // after; pid 2 keeps board 1 busy so both boards stay live.
        let trace = Trace::new(
            "mig",
            7,
            vec![
                rec(0, 1, 10),
                rec(1_000, 1, 11),
                rec(2_000, 2, 20),
                rec(10_000, 1, 10),
                rec(11_000, 1, 11),
            ],
        );
        let cfg = SimConfig::study(256);
        let r = Run::new(Mechanism::Utlb)
            .config(&cfg)
            .cluster(ClusterConfig::new(2).migrate(1, 5_000, 1))
            .execute(&trace)
            .into_cluster()
            .unwrap();
        assert_eq!(r.migrations.len(), 1);
        let m = r.migrations[0];
        assert_eq!((m.pid, m.from, m.to), (1, 0, 1));
        assert_eq!(m.pages_invalidated, 2, "both pinned pages released");
        // Board 0 served the first residency: 2 lookups, 2 pins.
        let b0: Vec<_> = r.boards[0].sim.per_process.clone();
        assert_eq!(b0, vec![(1, r.boards[0].sim.stats)]);
        assert_eq!(r.boards[0].sim.stats.lookups, 2);
        assert_eq!(r.boards[0].sim.stats.pins, 2);
        // Board 1 re-pinned the same pages: no stale translation survived,
        // so both re-touches check-missed again.
        let b1_pid1 = r.boards[1]
            .sim
            .per_process
            .iter()
            .find(|(p, _)| *p == 1)
            .expect("pid 1 ends on board 1")
            .1;
        assert_eq!(b1_pid1.lookups, 2);
        assert_eq!(b1_pid1.check_misses, 2, "demand re-pin after migration");
        assert_eq!(b1_pid1.pins, 2);
        assert_eq!(r.boards[1].pids, vec![1, 2]);
        assert!(r.boards[0].pids.is_empty());
        assert_eq!(r.aggregate_stats().lookups, trace.total_lookups());
    }

    #[test]
    fn migration_after_last_record_still_applies() {
        let trace = Trace::new("late", 7, vec![rec(0, 1, 10), rec(1_000, 2, 20)]);
        let cfg = SimConfig::study(64);
        let r = Run::new(Mechanism::Utlb)
            .config(&cfg)
            .cluster(ClusterConfig::new(2).migrate(1, 1_000_000, 1))
            .execute(&trace)
            .into_cluster()
            .unwrap();
        assert_eq!(r.migrations.len(), 1);
        assert_eq!(r.boards[1].pids, vec![1, 2]);
        // The carried snapshot keeps the history even though the engine
        // dropped the process at the source.
        assert_eq!(r.boards[0].sim.stats.lookups, 1);
    }

    #[test]
    fn noop_migration_reports_nothing() {
        let trace = two_pid_trace();
        let r = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .cluster(ClusterConfig::new(2).migrate(1, 2_500, 0))
            .execute(&trace)
            .into_cluster()
            .unwrap();
        assert!(r.migrations.is_empty(), "pid 1 already lives on board 0");
    }

    #[test]
    fn migration_to_unknown_board_panics() {
        let trace = two_pid_trace();
        let err = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .cluster(ClusterConfig::new(2).migrate(1, 0, 5))
            .execute(&trace)
            .unwrap_err();
        assert!(matches!(err, RunError::IncompatibleConfig(_)), "{err}");
        assert!(err.to_string().contains("out-of-range"), "{err}");
    }
}
