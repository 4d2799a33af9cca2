//! The four workloads: how their inputs are built, which cells a pass runs,
//! how one cell executes, and what its result must satisfy.
//!
//! A *cell* is one (mechanism × input) execution through `Run::execute`;
//! a *pass* runs every cell of a workload once. Each workload stresses a
//! different set of crates (see the README's glossary), so a change to one
//! layer has a workload that exercises it and one that bypasses it.

use crate::stats::fnv1a;
use utlb_core::obs::Histogram;
use utlb_core::{CacheStats, TranslationStats};
use utlb_des::{AdmissionStats, ResourceReport};
use utlb_sim::{
    frontend_trace, ClusterConfig, ClusterFrontendResult, DesConfig, DesResult, FrontendConfig,
    FrontendResult, HomingPolicy, Live, Mechanism, Run, RunError, RunOutput, RunOutputExt,
    SimConfig, SimResult,
};
use utlb_trace::{gen, GenConfig, Looped, SplashApp, Trace, TraceStream};

/// Seed `run` and `trace` use when none is given.
pub const DEFAULT_SEED: u64 = 1998;

/// The looped application of `replay-hot`: Barnes has the suite's highest
/// per-page reuse, so after one epoch its working set sits in the NIC cache.
pub(crate) const HOT_APP: SplashApp = SplashApp::Barnes;
/// Epochs `replay-hot` loops its trace for.
const HOT_EPOCHS: u64 = 40;
/// Gap between epochs: one mean inter-request step.
const HOT_EPOCH_GAP_NS: u64 = 20_000;
/// NIC cache entries of `replay-hot`, large enough to hold an epoch.
const HOT_CACHE: usize = 8192;
/// NIC cache entries of `replay-thrash` and the live workloads.
const SMALL_CACHE: usize = 256;
/// Per-process pin limit of `replay-thrash` (the paper's Table 5 setup).
const THRASH_LIMIT_MB: u64 = 4;
/// Offered background payload load of `replay-thrash`'s DES stations.
const THRASH_LOAD: f64 = 1.0;
/// Boards of `live-cluster`.
const CLUSTER_NODES: usize = 8;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fused generate+replay of Barnes, looped: the engine hit path.
    ReplayHot,
    /// All seven SPLASH-2 traces under a small cache, a pin limit and
    /// contended DES stations: the miss, pin and eviction paths.
    ReplayThrash,
    /// Connection churn on one board: handshakes, reactor, codec, credits.
    LiveChurn,
    /// The same churn over eight boards: homing, redirects, shared stations.
    LiveCluster,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayHot,
        Workload::ReplayThrash,
        Workload::LiveChurn,
        Workload::LiveCluster,
    ];

    /// The workload's name, as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayHot => "replay-hot",
            Workload::ReplayThrash => "replay-thrash",
            Workload::LiveChurn => "live-churn",
            Workload::LiveCluster => "live-cluster",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload serves live connections (no trace input).
    pub fn is_live(self) -> bool {
        matches!(self, Workload::LiveChurn | Workload::LiveCluster)
    }

    /// The mechanisms the workload runs. On one board only Indexed and Intr
    /// survive 50 000 connections of churn: UTLB's process directory and
    /// PerProc's static tables are lifetime allocations that refuse almost
    /// every connection.
    pub fn mechanisms(self) -> &'static [Mechanism] {
        match self {
            Workload::LiveChurn => &[Mechanism::Indexed, Mechanism::Intr],
            _ => &Mechanism::ALL,
        }
    }

    /// Builds the workload's inputs from `seed` together with the planned
    /// counts its checks hold the results against. This is the work
    /// `setup_s` times.
    pub fn setup(self, seed: u64) -> Inputs {
        self.inputs(seed).planned()
    }

    /// The inputs the cells run on, without the planned counts.
    pub fn inputs(self, seed: u64) -> Inputs {
        let gen = GenConfig {
            seed,
            scale: 1.0,
            app_processes: 4,
        };
        let source = match self {
            Workload::ReplayHot => Source::Looped { gen },
            Workload::ReplayThrash => Source::Traces {
                traces: SplashApp::ALL
                    .iter()
                    .map(|&app| gen::generate(app, &gen))
                    .collect(),
                gen,
            },
            Workload::LiveChurn | Workload::LiveCluster => Source::Live {
                fcfg: live_config(seed),
                cluster: (self == Workload::LiveCluster)
                    .then(|| ClusterConfig::new(CLUSTER_NODES).homing(HomingPolicy::HashByClient)),
            },
        };
        Inputs {
            workload: self,
            sim: self.sim_config(),
            source,
            planned: None,
        }
    }

    /// The engine configuration of the workload's cells.
    fn sim_config(self) -> SimConfig {
        match self {
            Workload::ReplayHot => SimConfig::study(HOT_CACHE),
            Workload::ReplayThrash => SimConfig::study(SMALL_CACHE).limit_mb(THRASH_LIMIT_MB),
            Workload::LiveChurn | Workload::LiveCluster => SimConfig {
                table_entries: SMALL_CACHE,
                ..SimConfig::study(SMALL_CACHE)
            },
        }
    }
}

/// The live workloads' peers: an open loop of 50 000 connections, 16 open
/// at a time, each issuing 8 one-page requests 2 ms apart on average —
/// 8 000 requests/s offered, below the board's capacity, so no request
/// stalls and simulated latency does not depend on run length.
fn live_config(seed: u64) -> FrontendConfig {
    FrontendConfig {
        connections: 50_000,
        open_window: 16,
        requests_per_conn: 8,
        credit_window: 4,
        queue_depth: 8,
        think_ns: 2_000_000,
        drain_ns: 4_000,
        payload_bytes: 4096,
        buffer_pages: 64,
        seed,
    }
}

/// Where a workload's records come from.
#[derive(Debug)]
pub(crate) enum Source {
    /// Fused generate+replay: every cell regenerates the looped stream
    /// inside its timed region.
    Looped { gen: GenConfig },
    /// Traces materialized during setup from `gen`, one input per trace.
    Traces { gen: GenConfig, traces: Vec<Trace> },
    /// Live peers; a cluster topology for `live-cluster`.
    Live {
        fcfg: FrontendConfig,
        cluster: Option<ClusterConfig>,
    },
}

/// Counts a cell must reproduce, where its input does not carry them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Planned {
    /// Page lookups each cell performs if every request is served.
    pub(crate) lookups: u64,
    /// Trace records each cell replays.
    pub(crate) records: u64,
}

/// A workload's built inputs.
#[derive(Debug)]
pub struct Inputs {
    /// The workload they belong to.
    pub workload: Workload,
    pub(crate) sim: SimConfig,
    pub(crate) source: Source,
    /// The planned counts, once computed ([`Inputs::planned`]).
    pub(crate) planned: Option<Planned>,
}

/// One (mechanism × input) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The mechanism under test.
    pub mech: Mechanism,
    /// Index of the input (the trace, for `replay-thrash`; else 0).
    pub input: usize,
}

/// A cell's raw output, as `Run::execute` produced it.
#[derive(Debug)]
pub enum Raw {
    /// Serial replay.
    Sim(SimResult),
    /// Discrete-event replay.
    Des(Box<DesResult>),
    /// Single-board front end.
    Frontend(Box<FrontendResult>),
    /// Clustered front end.
    Cluster(Box<ClusterFrontendResult>),
}

impl Inputs {
    /// Computes the planned counts: for the looped stream, one epoch
    /// materialized; for live peers, their requests materialized with every
    /// connection open from time zero — a peer's addresses and sizes depend
    /// only on the seed and its index, never on when it opens, so that
    /// image requests exactly the pages the churned run does. Materialized
    /// traces carry their own counts.
    pub fn planned(mut self) -> Inputs {
        self.planned = match &self.source {
            Source::Looped { gen } => {
                let epoch = gen::generate(HOT_APP, gen);
                Some(Planned {
                    lookups: epoch.total_lookups() * HOT_EPOCHS,
                    records: epoch.records.len() as u64 * HOT_EPOCHS,
                })
            }
            Source::Traces { .. } => None,
            Source::Live { fcfg, .. } => {
                let all_open = FrontendConfig {
                    open_window: fcfg.connections,
                    ..fcfg.clone()
                };
                Some(Planned {
                    lookups: frontend_trace(&all_open).total_lookups(),
                    records: 0,
                })
            }
        };
        self
    }

    /// The cells one pass runs, mechanism-major.
    pub fn cells(&self) -> Vec<Cell> {
        let inputs = match &self.source {
            Source::Traces { traces, .. } => traces.len(),
            _ => 1,
        };
        self.workload
            .mechanisms()
            .iter()
            .flat_map(|&mech| (0..inputs).map(move |input| Cell { mech, input }))
            .collect()
    }

    /// Trace records `cell` replays (0 for live cells, and before the
    /// planned counts exist).
    pub fn records(&self, cell: Cell) -> u64 {
        match &self.source {
            Source::Traces { traces, .. } => traces[cell.input].records.len() as u64,
            _ => self.planned.map_or(0, |p| p.records),
        }
    }

    /// Requests a live cell's peers plan to issue: every connection's full
    /// quota, refused connections included (0 for trace cells).
    pub fn planned_requests(&self) -> u64 {
        match &self.source {
            Source::Live { fcfg, .. } => fcfg.offered_requests(),
            _ => 0,
        }
    }

    /// A cell's label, `mechanism/input`.
    pub fn label(&self, cell: Cell) -> String {
        let input = match &self.source {
            Source::Looped { .. } => format!("{}x{HOT_EPOCHS}", HOT_APP.name()),
            Source::Traces { traces, .. } => traces[cell.input].workload.clone(),
            Source::Live { cluster: None, .. } => "frontend".to_string(),
            Source::Live {
                cluster: Some(c), ..
            } => format!("cluster{}", c.nodes),
        };
        format!("{}/{input}", cell.mech)
    }

    /// `live-cluster`'s single-board counterpart: the same peers and
    /// engine configuration on one board, for the cells `live-churn` shares
    /// with it (Indexed and Intr).
    pub(crate) fn single_board(&self) -> Option<Inputs> {
        match &self.source {
            Source::Live {
                fcfg,
                cluster: Some(_),
            } => Some(Inputs {
                workload: Workload::LiveChurn,
                sim: self.sim.clone(),
                source: Source::Live {
                    fcfg: fcfg.clone(),
                    cluster: None,
                },
                planned: self.planned,
            }),
            _ => None,
        }
    }

    /// Layers the workload's timing model and input source onto `run`: the
    /// one definition the plain and the traced cells share.
    pub(crate) fn configure(&self, run: Run) -> Run {
        let run = run.config(&self.sim);
        match &self.source {
            Source::Looped { .. } => run,
            Source::Traces { .. } => run.des(DesConfig::contended(THRASH_LOAD)),
            Source::Live { fcfg, cluster } => {
                let run = run.frontend(fcfg.clone());
                match cluster {
                    Some(c) => run.cluster(c.clone()),
                    None => run,
                }
            }
        }
    }

    /// Executes `cell` through `Run::execute`. This call is what a pass
    /// times.
    pub fn execute(&self, cell: Cell) -> Raw {
        let run = self.configure(Run::new(cell.mech));
        let out = match &self.source {
            Source::Looped { gen } => run.execute(&mut looped(|_| gen::stream(HOT_APP, gen))),
            Source::Traces { traces, .. } => run.execute(&traces[cell.input]),
            Source::Live { .. } => run.execute(Live),
        };
        self.raw(out)
    }

    /// The same cell replayed serially, without the DES stations: the
    /// reference that isolates the DES overlay's host time.
    pub(crate) fn execute_serial(&self, cell: Cell) -> SimResult {
        let Source::Traces { traces, .. } = &self.source else {
            unreachable!("only replay-thrash has DES cells")
        };
        Run::new(cell.mech)
            .config(&self.sim)
            .execute(&traces[cell.input])
            .into_sim()
            .expect("serial replay of a trace")
    }

    /// Reads a run's output as the shape this workload produces.
    ///
    /// # Panics
    ///
    /// Panics if the run was misconfigured, which is a bug in this file.
    pub(crate) fn raw(&self, out: Result<RunOutput, RunError>) -> Raw {
        match &self.source {
            Source::Looped { .. } => Raw::Sim(out.into_sim().expect("serial run")),
            Source::Traces { .. } => Raw::Des(Box::new(out.into_des().expect("DES run"))),
            Source::Live { cluster: None, .. } => {
                Raw::Frontend(Box::new(out.into_frontend().expect("frontend run")))
            }
            Source::Live {
                cluster: Some(_), ..
            } => Raw::Cluster(Box::new(
                out.into_cluster_frontend().expect("clustered frontend run"),
            )),
        }
    }

    /// Checks the invariants a cell's result must satisfy; returns one
    /// message per violation.
    ///
    /// # Panics
    ///
    /// Panics if the planned counts a looped or live cell needs were never
    /// computed.
    pub fn check(&self, cell: Cell, r: &CellResult) -> Vec<String> {
        let mut bad = Vec::new();
        let label = self.label(cell);
        let mut expect = |ok: bool, what: String| {
            if !ok {
                bad.push(format!("{label}: {what}"));
            }
        };
        let planned = || self.planned.expect("planned counts are computed").lookups;
        match &self.source {
            Source::Looped { .. } => {
                let want = planned();
                expect(
                    r.lookups == want,
                    format!("lookups {} != trace total {want}", r.lookups),
                );
            }
            Source::Traces { traces, .. } => {
                let want = traces[cell.input].total_lookups();
                expect(
                    r.lookups == want,
                    format!("lookups {} != trace total {want}", r.lookups),
                );
            }
            Source::Live { .. } => {
                let live = r.live.as_ref().expect("live cells report live counts");
                let want = planned();
                // Refused connections and rejected requests leave pages
                // unrequested; otherwise every planned page is looked up.
                if live.refused == 0 && live.admission.rejected == 0 {
                    expect(
                        r.lookups == want,
                        format!("served lookups {} != planned {want}", r.lookups),
                    );
                } else {
                    expect(
                        r.lookups <= want,
                        format!("served lookups {} > planned {want}", r.lookups),
                    );
                }
                expect(
                    live.accepted + live.refused == live.connections,
                    format!(
                        "accepted {} + refused {} != connections {}",
                        live.accepted, live.refused, live.connections
                    ),
                );
                expect(
                    live.served + live.admission.rejected == live.offered,
                    format!(
                        "served {} + rejected {} != offered {}",
                        live.served, live.admission.rejected, live.offered
                    ),
                );
                if let Some(pinned) = live.pinned_pages_end {
                    expect(
                        pinned == 0,
                        format!("{pinned} pages still pinned at the end"),
                    );
                }
            }
        }
        bad
    }
}

/// `replay-hot`'s looped stream over the epochs `epoch` builds.
pub(crate) fn looped<S: TraceStream, F: FnMut(u64) -> S>(mut epoch: F) -> Looped<S, F> {
    let first = epoch(0);
    Looped::new(first, HOT_EPOCHS, HOT_EPOCH_GAP_NS, epoch)
}

/// Per-station view of a DES-timed cell: firmware, DMA engine, I/O bus,
/// interrupt service.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesView {
    /// Queueing delay behind each station, ns.
    pub wait_ns: [u64; 4],
    /// Busy time of each station, ns (summed over boards).
    pub busy_ns: [u64; 4],
    /// Horizon each station's busy time is a share of, ns (the run's
    /// station completion time, times the boards that own one).
    pub horizon_ns: [u64; 4],
}

/// Connection-level counts of a live cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveView {
    /// Connections attempted.
    pub connections: u64,
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused by every candidate board.
    pub refused: u64,
    /// Registrations the engines refused (one per `Redirect` hop plus one
    /// per refused connection on a cluster).
    pub register_refusals: u64,
    /// Requests offered by accepted connections.
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Credit-window counters.
    pub admission: AdmissionStats,
    /// Simulated span of the run, ns.
    pub sim_time_ns: u64,
    /// `Redirect` hops (cluster only).
    pub redirects: u64,
    /// Busiest board's served requests over the mean (cluster only).
    pub imbalance: f64,
    /// Queueing behind the shared host-memory station, ns (cluster only).
    pub host_mem_wait_ns: u64,
    /// Pages left pinned at the end (cluster only).
    pub pinned_pages_end: Option<u64>,
}

/// What the benchmark reads from one cell's result.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// FNV-1a of the result's JSON: equal digests mean identical output.
    pub digest: u64,
    /// Page lookups performed (served lookups for live cells).
    pub lookups: u64,
    /// Translation counters.
    pub stats: TranslationStats,
    /// NIC cache counters.
    pub cache: CacheStats,
    /// Simulated request latency, where the run measures one.
    pub latency: Option<Histogram>,
    /// DES station counts, where the run has stations.
    pub des: Option<DesView>,
    /// Connection counts of a live cell.
    pub live: Option<LiveView>,
}

fn busy(r: &ResourceReport) -> u64 {
    r.stats.busy_ns
}

impl Raw {
    /// Reads the cell result, digesting the serialized output.
    pub fn summarize(&self) -> CellResult {
        let json = match self {
            Raw::Sim(r) => serde_json::to_string(r),
            Raw::Des(r) => serde_json::to_string(r.as_ref()),
            Raw::Frontend(r) => serde_json::to_string(r.as_ref()),
            Raw::Cluster(r) => serde_json::to_string(r.as_ref()),
        }
        .expect("results serialize");
        let digest = fnv1a(json.as_bytes());
        match self {
            Raw::Sim(r) => CellResult {
                digest,
                lookups: r.stats.lookups,
                stats: r.stats,
                cache: r.cache,
                latency: None,
                des: None,
                live: None,
            },
            Raw::Des(r) => {
                let horizon = r.des_time_ns;
                let mut des = DesView {
                    wait_ns: [r.fw_wait_ns, r.dma_wait_ns, r.bus_wait_ns, r.intr_wait_ns],
                    horizon_ns: [horizon; 4],
                    ..DesView::default()
                };
                // Station reports come in a fixed order: firmware, DMA
                // engine, I/O bus, interrupt service.
                for (slot, rep) in des.busy_ns.iter_mut().zip(&r.resources) {
                    *slot = busy(rep);
                }
                CellResult {
                    digest,
                    lookups: r.base.stats.lookups,
                    stats: r.base.stats,
                    cache: r.base.cache,
                    latency: Some(r.latency_ns.clone()),
                    des: Some(des),
                    live: None,
                }
            }
            Raw::Frontend(r) => CellResult {
                digest,
                lookups: r.served_lookups,
                stats: r.stats,
                cache: r.cache,
                latency: Some(r.latency_ns.clone()),
                des: None,
                live: Some(LiveView {
                    connections: r.connections,
                    accepted: r.accepted,
                    refused: r.refused,
                    register_refusals: r.refused,
                    offered: r.offered,
                    served: r.served,
                    admission: r.admission,
                    sim_time_ns: r.sim_time_ns,
                    ..LiveView::default()
                }),
            },
            Raw::Cluster(r) => {
                let nodes = r.boards.len() as u64;
                let horizon = r.des_time_ns;
                let mut des = DesView {
                    wait_ns: [
                        r.boards.iter().map(|b| b.fw_wait_ns).sum(),
                        r.boards.iter().map(|b| b.dma_wait_ns).sum(),
                        r.bus_wait_ns,
                        r.intr_wait_ns,
                    ],
                    horizon_ns: [horizon * nodes, horizon * nodes, horizon, horizon],
                    ..DesView::default()
                };
                // Per-board stations: firmware, DMA engine. Shared stations:
                // host memory, I/O bus, interrupt service.
                for b in &r.boards {
                    des.busy_ns[0] += busy(&b.resources[0]);
                    des.busy_ns[1] += busy(&b.resources[1]);
                }
                des.busy_ns[2] = busy(&r.shared[1]);
                des.busy_ns[3] = busy(&r.shared[2]);
                CellResult {
                    digest,
                    lookups: r.served_lookups,
                    stats: r.stats,
                    cache: r.cache,
                    latency: Some(r.latency_ns.clone()),
                    des: Some(des),
                    live: Some(LiveView {
                        connections: r.connections,
                        accepted: r.accepted,
                        refused: r.refused,
                        register_refusals: r.boards.iter().map(|b| b.refusals).sum(),
                        offered: r.offered,
                        served: r.served,
                        admission: r.admission,
                        sim_time_ns: r.sim_time_ns,
                        redirects: r.redirects,
                        imbalance: r.imbalance(),
                        host_mem_wait_ns: r.host_mem_wait_ns,
                        pinned_pages_end: Some(r.pinned_pages_end),
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
impl Inputs {
    /// A small instance of `w`'s inputs: the same shapes and engine
    /// configuration, a fraction of the work.
    pub(crate) fn small(w: Workload) -> Inputs {
        let gen = GenConfig {
            seed: 5,
            scale: 0.02,
            app_processes: 4,
        };
        let fcfg = FrontendConfig {
            connections: 40,
            open_window: 8,
            requests_per_conn: 4,
            ..live_config(5)
        };
        let source = match w {
            Workload::ReplayHot => Source::Looped { gen },
            Workload::ReplayThrash => Source::Traces {
                traces: [SplashApp::Water, SplashApp::Radix]
                    .iter()
                    .map(|&app| gen::generate(app, &gen))
                    .collect(),
                gen,
            },
            Workload::LiveChurn => Source::Live {
                fcfg,
                cluster: None,
            },
            Workload::LiveCluster => Source::Live {
                fcfg,
                cluster: Some(ClusterConfig::new(2)),
            },
        };
        Inputs {
            workload: w,
            sim: w.sim_config(),
            source,
            planned: None,
        }
        .planned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_every_mechanism_and_input() {
        let thrash = Inputs::small(Workload::ReplayThrash);
        assert_eq!(thrash.cells().len(), 4 * 2);
        assert_eq!(thrash.label(thrash.cells()[1]), "UTLB/radix");
        let churn = Inputs::small(Workload::LiveChurn);
        let mechs: Vec<Mechanism> = churn.cells().iter().map(|c| c.mech).collect();
        assert_eq!(mechs, [Mechanism::Indexed, Mechanism::Intr]);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn every_small_cell_passes_its_checks() {
        for w in Workload::ALL {
            let inputs = Inputs::small(w);
            for cell in inputs.cells() {
                let r = inputs.execute(cell).summarize();
                assert!(r.lookups > 0, "{}", inputs.label(cell));
                assert_eq!(inputs.check(cell, &r), Vec::<String>::new());
            }
        }
    }

    #[test]
    fn a_wrong_lookup_count_fails_the_check() {
        let inputs = Inputs::small(Workload::ReplayHot);
        let cell = inputs.cells()[0];
        let mut r = inputs.execute(cell).summarize();
        r.lookups += 1;
        assert_eq!(inputs.check(cell, &r).len(), 1);
    }
}
