//! The live driver: connections homed, served, and re-homed across
//! `nodes >= 1` boards.
//!
//! Every `Run::frontend(cfg).execute(Live)` run — on one board, or on N
//! with `.cluster(topology)` — drives the connection reactor through the
//! driver below, which supplies the board side:
//!
//! * **Homing** — a new connection's [`Frame::Hello`] is routed to a home
//!   board by the topology's [`HomingPolicy`]: `hash-by-client` hashes the
//!   client index onto the ring, `least-loaded` picks the board with the
//!   fewest open connections.
//! * **Redirect re-homing** — when the home board's registration SRAM is
//!   exhausted (the §3.1 per-process engine's static tables, the §3.3
//!   hierarchical engine's 64-process directory — both lifetime bump
//!   allocations), the board answers with [`Frame::Redirect`] naming the
//!   next candidate, and the handshake re-runs there. A full ring of
//!   refusals is the only way a connection dies, so the per-board
//!   registration cliffs become cluster-wide capacity gradients.
//! * **Shared-station pricing** — on a `.cluster()` run every board owns
//!   its engine, firmware station, and DMA engine, but handshake pin work,
//!   demand pins, interrupts, and translation-entry DMA cross the *shared*
//!   host-memory / I/O-bus / interrupt-service stations
//!   (the `stations` module), so cross-board contention is real
//!   and tail latency reflects it. A plain run prices nothing on stations:
//!   its translations complete on the serial board clock.
//!
//! **Determinism contract.** The reactor admits events in
//! `(timestamp, pid)` order; shared stations admit work in exactly that
//! order; nothing reads wall-clock time. A 1-board cluster under
//! [`DesConfig::zero_contention`] prices every station grant at its
//! cursor, so its [`single_board_image`](ClusterFrontendResult::single_board_image)
//! is byte-identical to the plain [`Run::frontend`](crate::Run::frontend)
//! run on the same inputs — pinned by `tests/cluster_frontend.rs` and CI.

use super::reactor::{run_reactor, through_wire, Conn};
use super::{FrontendConfig, FrontendResult};
use crate::cluster::HomingPolicy;
use crate::des_runner::DesConfig;
use crate::observe::{Collect, ObsReport};
use crate::stations::{emit_wait, BoardStations, SharedStations, StationWaits};
use crate::SimConfig;
use serde::{Deserialize, Serialize};
use utlb_core::obs::{Event, Histogram, Metrics, Probe, SharedCollector, WaitResource};
use utlb_core::{
    CacheStats, LookupBatch, OutcomeBuf, PageDemand, TranslationMechanism, TranslationStats,
};
use utlb_des::{AdmissionStats, ResourceReport};
use utlb_mem::{Host, ProcessId, VirtAddr, PAGE_SIZE};
use utlb_msg::{Frame, FRAME_BYTES};
use utlb_nic::{Board, Nanos};

/// Multiplier of the Fibonacci-hash home-board assignment
/// (`hash-by-client`): `home = (index * PHI64 >> 32) % nodes`. The
/// migration proptest's reference residency model replays this exact
/// function.
pub(crate) const HOME_HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The home board `hash-by-client` assigns to connection `index` on an
/// `nodes`-board cluster.
pub(crate) fn hash_home(index: u64, nodes: usize) -> usize {
    ((index.wrapping_mul(HOME_HASH_MULT) >> 32) as usize) % nodes
}

/// One board of the live driver: its engine (borrowed from the caller),
/// clock, and per-board accounting, plus its collector and private
/// stations when the run asks for them.
struct FrontBoard<'e, M: ?Sized> {
    engine: &'e mut M,
    board: Board,
    collector: Option<SharedCollector>,
    /// Where wait and lifecycle events go: the collector, if any.
    probe: Option<Box<dyn Probe>>,
    /// The board's DES stations, when the overlay is on.
    stations: Option<BoardStations>,
    t0: Nanos,
    /// Latest *serial* translation completion on this board.
    last_service: Nanos,
    open_conns: usize,
    accepted: u64,
    redirected_in: u64,
    refusals: u64,
    served: u64,
    stats_acc: TranslationStats,
    latency: Histogram,
}

/// The board side of the reactor, over `nodes >= 1` boards. See the
/// [module docs](self).
pub(crate) struct ClusterDriver<'a, 'e, M: ?Sized> {
    fcfg: &'a FrontendConfig,
    policy: HomingPolicy,
    host: Host,
    boards: Vec<FrontBoard<'e, M>>,
    /// The overlay's timing and shared stations, when it is on.
    overlay: Option<(&'a DesConfig, SharedStations)>,
    kernel_pins: bool,
    out: OutcomeBuf,
    events: Vec<Event>,
    demands: Vec<PageDemand>,
    /// Reused candidate-order scratch (O(nodes), no per-open allocation).
    order: Vec<usize>,
    accepted: u64,
    refused: u64,
    /// Connections accepted on a board other than their first choice.
    redirected: u64,
    /// Total [`Frame::Redirect`] hops, over accepted and refused alike.
    redirects: u64,
}

impl<M: TranslationMechanism + ?Sized> ClusterDriver<'_, '_, M> {
    /// Fills `self.order` with the candidate boards for connection
    /// `index`, first choice first.
    fn candidate_order(&mut self, index: u64) {
        let nodes = self.boards.len();
        self.order.clear();
        match self.policy {
            HomingPolicy::HashByClient => {
                let home = hash_home(index, nodes);
                self.order.extend((0..nodes).map(|k| (home + k) % nodes));
            }
            HomingPolicy::LeastLoaded => {
                self.order.extend(0..nodes);
                let boards = &self.boards;
                self.order.sort_by_key(|&i| (boards[i].open_conns, i));
            }
        }
    }

    /// Prices board work that ran on the serial board clock between `pre`
    /// and now — a (possibly failed) registration or an unregistration —
    /// onto the board's firmware station and the shared stations, keeping
    /// the station timeline in lock-step with the serial clock. The tap's
    /// drained events supply the pin/interrupt/DMA components; the serial
    /// delta is the total, so pure-firmware admin time is charged too.
    /// Under zero contention the resulting grant ends exactly at the
    /// serial clock, preserving the 1-board bit-exactness induction.
    /// Without the overlay there is nothing to price.
    fn price_admin_from(&mut self, ix: usize, pid: ProcessId, pre: Nanos) {
        let Self {
            boards,
            overlay,
            kernel_pins,
            events,
            demands,
            ..
        } = self;
        let b = &mut boards[ix];
        let (Some(st), Some((des, shared))) = (&mut b.stations, overlay) else {
            return;
        };
        st.drain(events, demands);
        let mut d = PageDemand::default();
        for p in demands.iter() {
            d.pin_ns += p.pin_ns;
            d.intr_ns += p.intr_ns;
            d.dma_ns += p.dma_ns;
            d.dma_entries += p.dma_entries;
        }
        d.total_ns = (b.board.clock.now() - pre).as_nanos();
        if d.total_ns == 0 && d.is_fast_path() {
            return; // No work: don't pollute station job counts.
        }
        st.price(pre, &[d], *kernel_pins, pid, des, shared, &mut b.probe);
    }

    /// Attempts to open connection `index` — the full handshake, including
    /// any redirect hops. Returns the accepted connection's process and
    /// home board, or `None` if every candidate board refused.
    pub(crate) fn open(
        &mut self,
        index: u64,
        wire: &mut [u8; FRAME_BYTES],
    ) -> Option<(ProcessId, usize)> {
        let hello = through_wire(
            Frame::Hello {
                client: index,
                buffer_bytes: self.fcfg.buffer_pages * PAGE_SIZE,
            },
            wire,
        );
        debug_assert!(hello.is_request());
        let pid = self.host.spawn_process();
        self.candidate_order(index);
        let order = std::mem::take(&mut self.order);
        let mut opened = None;
        for (attempt, &ix) in order.iter().enumerate() {
            let pre = self.boards[ix].board.clock.now();
            let registered = {
                let Self { host, boards, .. } = self;
                let b = &mut boards[ix];
                b.engine.register_process(host, &mut b.board, pid)
            };
            match registered {
                Ok(()) => {
                    self.price_admin_from(ix, pid, pre);
                    let welcome = through_wire(
                        Frame::Welcome {
                            conn: pid.raw(),
                            credits: self.fcfg.credit_window as u32,
                        },
                        wire,
                    );
                    debug_assert!(!welcome.is_request());
                    self.accepted += 1;
                    if attempt > 0 {
                        self.redirected += 1;
                        self.boards[ix].redirected_in += 1;
                    }
                    let b = &mut self.boards[ix];
                    b.accepted += 1;
                    b.open_conns += 1;
                    if let Some(p) = &mut b.probe {
                        p.on_event(pid, Event::Connect);
                    }
                    opened = Some((pid, ix));
                    break;
                }
                Err(_) => {
                    // Registration SRAM exhausted here. Price whatever the
                    // failed attempt charged, then redirect the client to
                    // the next candidate (if any) and re-run the Hello.
                    self.boards[ix].refusals += 1;
                    self.price_admin_from(ix, pid, pre);
                    if let Some(&next) = order.get(attempt + 1) {
                        let redirect = through_wire(
                            Frame::Redirect {
                                client: index,
                                board: next as u32,
                            },
                            wire,
                        );
                        debug_assert!(!redirect.is_request());
                        self.redirects += 1;
                        through_wire(
                            Frame::Hello {
                                client: index,
                                buffer_bytes: self.fcfg.buffer_pages * PAGE_SIZE,
                            },
                            wire,
                        );
                    }
                }
            }
        }
        self.order = order;
        if opened.is_none() {
            // Every candidate refused: the connection dies for real.
            self.host
                .kill_process(pid)
                .expect("freshly spawned process");
            self.refused += 1;
        }
        opened
    }

    /// Called once after the initial connection wave: simulated run time
    /// is measured from the end of each board's wave registration work.
    pub(crate) fn initial_wave_done(&mut self) {
        for b in &mut self.boards {
            b.t0 = b.board.clock.now();
            b.last_service = b.t0;
            if let Some(st) = &mut b.stations {
                st.des_end = st.des_end.max(b.t0);
            }
        }
    }

    /// Serves one admitted request at admission instant `at`: translate
    /// `nbytes` from `va` on the connection's board. Returns when the
    /// translation completed — on the stations when the overlay is on,
    /// else on the serial board clock. The reactor adds the drain.
    pub(crate) fn serve(&mut self, conn: &Conn, va: VirtAddr, nbytes: u64, at: Nanos) -> Nanos {
        let Self {
            host,
            boards,
            overlay,
            kernel_pins,
            out,
            events,
            demands,
            ..
        } = self;
        let b = &mut boards[conn.board];
        b.board.clock.advance_to(at);
        out.clear();
        b.engine
            .lookup_run_into(
                host,
                &mut b.board,
                LookupBatch::for_buffer(conn.pid, va, nbytes),
                out,
            )
            .expect("frontend lookups succeed");
        let translated = b.board.clock.now();
        b.last_service = b.last_service.max(translated);
        b.served += 1;
        // DES overlay: this lookup's demands walk the board's firmware
        // and the shared stations.
        let (Some(st), Some((des, shared))) = (&mut b.stations, overlay) else {
            return translated;
        };
        st.drain(events, demands);
        let grant = st.price(
            at,
            demands,
            *kernel_pins,
            conn.pid,
            des,
            shared,
            &mut b.probe,
        );
        emit_wait(&mut b.probe, conn.pid, WaitResource::Firmware, grant.wait);
        grant.end
    }

    /// Records a served request's end-to-end latency against its board.
    pub(crate) fn record_latency(&mut self, conn: &Conn, lat_ns: u64) {
        self.boards[conn.board].latency.record(lat_ns);
    }

    /// Emits a lifecycle event to the connection's board probe.
    pub(crate) fn emit(&mut self, conn: &Conn, event: Event) {
        if let Some(p) = &mut self.boards[conn.board].probe {
            p.on_event(conn.pid, event);
        }
    }

    /// Tears down a closing connection: snapshot its translation counters,
    /// unregister it from its board, reclaim the host process, and emit
    /// the close event.
    pub(crate) fn close(&mut self, conn: &Conn) {
        let ix = conn.board;
        let pre = {
            let Self { host, boards, .. } = self;
            let b = &mut boards[ix];
            b.stats_acc += b
                .engine
                .stats(conn.pid)
                .expect("open connection is registered");
            let pre = b.board.clock.now();
            b.engine
                .unregister_process(host, &mut b.board, conn.pid)
                .expect("open connection is registered");
            pre
        };
        self.price_admin_from(ix, conn.pid, pre);
        self.host
            .kill_process(conn.pid)
            .expect("connection process is live");
        let b = &mut self.boards[ix];
        b.open_conns -= 1;
        if let Some(p) = &mut b.probe {
            p.on_event(conn.pid, Event::Close);
        }
    }
}

/// One board's share of a clustered front-end run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendBoardCell {
    /// Board index.
    pub board: usize,
    /// Connections this board accepted (first-choice and redirected).
    pub accepted: u64,
    /// Accepted connections that arrived here via [`Frame::Redirect`].
    pub redirected_in: u64,
    /// Handshake attempts this board refused (SRAM exhausted).
    pub refusals: u64,
    /// Requests this board served.
    pub served: u64,
    /// Translation counters of every connection homed here (snapshotted
    /// at each close).
    pub stats: TranslationStats,
    /// This board's NIC translation-cache counters at end of run.
    pub cache: CacheStats,
    /// Serial board time from the end of the initial handshake wave to
    /// this board's last translation, ns.
    pub sim_time_ns: u64,
    /// When this board's last work left the stations, same origin, ns.
    pub des_time_ns: u64,
    /// Queueing behind this board's firmware processor, ns.
    pub fw_wait_ns: u64,
    /// Queueing behind this board's DMA engine, ns.
    pub dma_wait_ns: u64,
    /// This board's share of queueing behind the shared I/O bus, ns.
    pub bus_wait_ns: u64,
    /// This board's share of queueing behind shared interrupt service, ns.
    pub intr_wait_ns: u64,
    /// This board's share of queueing behind shared host memory, ns.
    pub host_mem_wait_ns: u64,
    /// End-to-end latency of requests served by this board.
    pub latency_ns: Histogram,
    /// Per-board observability: event counts and histograms from this
    /// board's collector.
    pub metrics: Metrics,
    /// Whether `metrics` reconciled exactly with this board's stats.
    pub reconciled: bool,
    /// This board's private stations (firmware, DMA engine).
    pub resources: Vec<ResourceReport>,
}

/// Outcome of a clustered front-end run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterFrontendResult {
    /// Workload label (`"cluster_frontend"`).
    pub workload: String,
    /// Number of boards.
    pub nodes: usize,
    /// The homing policy connections were placed by.
    pub homing: HomingPolicy,
    /// Connections the run attempted.
    pub connections: u64,
    /// Connections some board accepted.
    pub accepted: u64,
    /// Connections every candidate board refused.
    pub refused: u64,
    /// Accepted connections that landed off their first-choice board.
    pub redirected: u64,
    /// Total [`Frame::Redirect`] hops (accepted and refused attempts).
    pub redirects: u64,
    /// Requests offered by accepted connections.
    pub offered: u64,
    /// Requests admitted and translated.
    pub served: u64,
    /// Page-granular lookups those requests cost, cluster-wide.
    pub served_lookups: u64,
    /// Flow-control counters summed over all connections.
    pub admission: AdmissionStats,
    /// Translation counters summed over every board.
    pub stats: TranslationStats,
    /// Translation-cache counters summed over every board.
    pub cache: CacheStats,
    /// Slowest board's serial span (handshake-wave end to last
    /// translation), ns.
    pub sim_time_ns: u64,
    /// Cluster completion on the stations: max over boards, ns.
    pub des_time_ns: u64,
    /// End-to-end request latency, all boards merged (arrival to credit
    /// return, queueing included).
    pub latency_ns: Histogram,
    /// Per-board results, board 0 first.
    pub boards: Vec<FrontendBoardCell>,
    /// The shared stations (host memory, I/O bus, interrupt service), in
    /// that order.
    pub shared: Vec<ResourceReport>,
    /// Total queueing behind the shared host memory station, ns.
    pub host_mem_wait_ns: u64,
    /// Total queueing behind the shared I/O bus, ns.
    pub bus_wait_ns: u64,
    /// Total queueing behind shared interrupt service, ns.
    pub intr_wait_ns: u64,
    /// Pages still pinned anywhere when the run ended. Every connection
    /// closes and unregisters, so this must be zero — the migration
    /// proptest pins it.
    pub pinned_pages_end: u64,
}

impl ClusterFrontendResult {
    /// Served requests per second of simulated time.
    pub fn throughput_rps(&self) -> f64 {
        if self.sim_time_ns == 0 {
            return 0.0;
        }
        self.served as f64 * 1e9 / self.sim_time_ns as f64
    }

    /// Request-latency quantile in µs (`q` in (0, 1]).
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        self.latency_ns.quantile_ns(q) as f64 / 1000.0
    }

    /// Median request latency in µs.
    pub fn p50_us(&self) -> f64 {
        self.latency_quantile_us(0.50)
    }

    /// 99th-percentile request latency in µs.
    pub fn p99_us(&self) -> f64 {
        self.latency_quantile_us(0.99)
    }

    /// 99.9th-percentile request latency in µs.
    pub fn p999_us(&self) -> f64 {
        self.latency_quantile_us(0.999)
    }

    /// Service imbalance: the busiest board's served-request count over
    /// the per-board mean. 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.boards.iter().map(|b| b.served).sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.boards.len() as f64;
        self.boards.iter().map(|b| b.served).max().unwrap_or(0) as f64 / mean
    }

    /// Projects a 1-board run onto the single-board [`FrontendResult`]
    /// shape — what [`Run::frontend`](crate::Run::frontend) returns for a
    /// run without `.cluster()`, and what the byte-identity gate compares a
    /// 1-board cluster's station-priced run against.
    ///
    /// # Panics
    ///
    /// Panics if the run used more than one board: the projection is only
    /// meaningful (and only byte-exact) for `nodes == 1`.
    pub fn single_board_image(&self) -> FrontendResult {
        assert_eq!(
            self.nodes, 1,
            "single_board_image is the 1-board determinism gate"
        );
        FrontendResult {
            workload: "frontend".to_string(),
            connections: self.connections,
            accepted: self.accepted,
            refused: self.refused,
            offered: self.offered,
            served: self.served,
            served_lookups: self.served_lookups,
            admission: self.admission,
            stats: self.stats,
            cache: self.cache,
            sim_time_ns: self.boards[0].sim_time_ns,
            latency_ns: self.latency_ns.clone(),
        }
    }
}

/// The live driver: serves `fcfg`'s peers over one board per engine,
/// homed by `homing`. With `des` set, every board prices its work on its
/// own firmware and DMA engine and the shared stations; with `collect`
/// set, every board carries a collector, and an observed run's report is
/// returned. See the [module docs](self); the public entry points are
/// `Run::frontend(cfg).execute(Live)` and its `.cluster(topology)` form.
pub(crate) fn serve_live<M>(
    engines: Vec<&mut M>,
    cfg: &SimConfig,
    fcfg: &FrontendConfig,
    homing: HomingPolicy,
    des: Option<&DesConfig>,
    collect: Option<Collect>,
) -> (ClusterFrontendResult, Option<ObsReport>)
where
    M: TranslationMechanism + ?Sized,
{
    let nodes = engines.len();
    let boards: Vec<FrontBoard<M>> = engines
        .into_iter()
        .map(|engine| {
            let collector = collect.map(Collect::collector);
            let stations = des.map(|_| BoardStations::new());
            let inner = collector.as_ref().map(SharedCollector::boxed);
            let probe = match &stations {
                Some(st) => Some(st.tap(inner)),
                None => inner,
            };
            if let Some(p) = probe {
                engine.set_probe(p);
            }
            FrontBoard {
                engine,
                board: Board::new(),
                probe: collector.as_ref().map(SharedCollector::boxed),
                collector,
                stations,
                t0: Nanos::ZERO,
                last_service: Nanos::ZERO,
                open_conns: 0,
                accepted: 0,
                redirected_in: 0,
                refusals: 0,
                served: 0,
                stats_acc: TranslationStats::default(),
                latency: Histogram::new(),
            }
        })
        .collect();
    let kernel_pins = boards[0].engine.kernel_pins();

    let mut drv = ClusterDriver {
        fcfg,
        policy: homing,
        host: Host::new(cfg.host_frames),
        boards,
        overlay: des.map(|d| (d, SharedStations::new())),
        kernel_pins,
        out: OutcomeBuf::new(),
        events: Vec::new(),
        demands: Vec::new(),
        order: Vec::with_capacity(nodes),
        accepted: 0,
        refused: 0,
        redirected: 0,
        redirects: 0,
    };
    let counts = run_reactor(&mut drv, fcfg);

    // Nothing may stay pinned: every connection closed and unregistered.
    let pinned_pages_end = drv.host.driver().pins().total_pinned_pages();

    let mut cells: Vec<FrontendBoardCell> = Vec::with_capacity(nodes);
    let mut cluster_latency = Histogram::new();
    let mut stats = TranslationStats::default();
    let mut cache = CacheStats::default();
    let mut totals = StationWaits::default();
    let mut obs = None;
    for (ix, b) in drv.boards.into_iter().enumerate() {
        if b.collector.is_some() || b.stations.is_some() {
            b.engine.take_probe();
        }
        let board_cache = b.engine.cache_stats();
        let (metrics, reconciled, report) = match (collect, &b.collector) {
            (Some(k), Some(c)) => k.finish(
                c,
                b.engine.name(),
                "frontend",
                &b.stats_acc,
                b.board.snapshot(),
            ),
            _ => (Metrics::new(), true, None),
        };
        let (waits, des_end, resources) = BoardStations::summary(b.stations.as_ref(), b.t0);
        stats += b.stats_acc;
        cache.hits += board_cache.hits;
        cache.misses += board_cache.misses;
        cache.probes += board_cache.probes;
        cache.evictions += board_cache.evictions;
        totals.host_mem += waits.host_mem;
        totals.bus += waits.bus;
        totals.intr += waits.intr;
        cluster_latency.merge(&b.latency);
        cells.push(FrontendBoardCell {
            board: ix,
            accepted: b.accepted,
            redirected_in: b.redirected_in,
            refusals: b.refusals,
            served: b.served,
            stats: b.stats_acc,
            cache: board_cache,
            sim_time_ns: (b.last_service - b.t0).as_nanos(),
            des_time_ns: (des_end - b.t0).as_nanos(),
            fw_wait_ns: waits.fw.as_nanos(),
            dma_wait_ns: waits.dma.as_nanos(),
            bus_wait_ns: waits.bus.as_nanos(),
            intr_wait_ns: waits.intr.as_nanos(),
            host_mem_wait_ns: waits.host_mem.as_nanos(),
            latency_ns: b.latency,
            metrics,
            reconciled,
            resources,
        });
        obs = obs.or(report);
    }

    let result = ClusterFrontendResult {
        workload: "cluster_frontend".to_string(),
        nodes,
        homing,
        connections: fcfg.connections as u64,
        accepted: drv.accepted,
        refused: drv.refused,
        redirected: drv.redirected,
        redirects: drv.redirects,
        offered: counts.offered,
        served: counts.served,
        served_lookups: stats.lookups,
        admission: counts.admission,
        stats,
        cache,
        sim_time_ns: cells.iter().map(|c| c.sim_time_ns).max().unwrap_or(0),
        des_time_ns: cells.iter().map(|c| c.des_time_ns).max().unwrap_or(0),
        latency_ns: cluster_latency,
        boards: cells,
        shared: drv.overlay.map_or_else(Vec::new, |(_, s)| s.reports()),
        host_mem_wait_ns: totals.host_mem.as_nanos(),
        bus_wait_ns: totals.bus.as_nanos(),
        intr_wait_ns: totals.intr.as_nanos(),
        pinned_pages_end,
    };
    (result, obs)
}
