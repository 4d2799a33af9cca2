//! The trace replay loop: every trace-driven run, serial, discrete-event or
//! clustered, on one board or many.
//!
//! Unlike the paper's count-only simulator, the loop drives the *actual*
//! engines from `utlb-core` on the simulated host and NIC: pages really get
//! pinned, translation tables really live in simulated DRAM, and the Shared
//! UTLB-Cache really fills over the simulated I/O bus. The statistics
//! reported are therefore the mechanism's own counters, not a re-model.
//!
//! Each run builds its own replay buffers (stream chunk, outcome buffer,
//! DES event and demand vectors) and drops them when it ends: nothing a
//! run allocates outlives it or is shared with another run.

use crate::cluster::{BoardCell, ClusterConfig, ClusterResult, Migration, MigrationReport};
use crate::des_runner::{DesConfig, DesResult};
use crate::observe::{Collect, ObsReport};
use crate::stations::{emit_wait, BoardStations, SharedStations, StationWaits};
use crate::{MissBreakdown, MissClassifier, SimConfig};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use utlb_core::obs::{Event, Histogram, Metrics, Probe, SharedCollector, WaitResource};
use utlb_core::{
    CacheStats, LookupBatch, LookupRates, OutcomeBuf, PageDemand, TranslationMechanism,
    TranslationStats,
};
use utlb_mem::{Host, ProcessId};
use utlb_nic::{Board, Nanos};
use utlb_trace::{fill_chunk, ShardMap, TraceRecord, TraceStream};

/// Records pulled per refill of the streaming replay loop. The loop's
/// resident trace state is one chunk, whatever the stream's total size.
pub const STREAM_CHUNK: usize = 1024;

/// The replay loop's reusable buffers, built once per run and reused
/// across its whole stream. Once they have grown to steady state, a record
/// whose pages all hit allocates nothing. The miss path still allocates:
/// UTLB, Indexed and Intr make ≈0.49 allocations per steady-state lookup
/// on a 256-entry cache under a 4 MB pin limit, because
/// `DmaEngine::fetch_words_timed` and `HostDriver::pin_and_translate` each
/// return a fresh `Vec`.
#[derive(Default)]
struct ReplayBuffers {
    /// Stream refill buffer ([`STREAM_CHUNK`] records at steady state).
    chunk: Vec<TraceRecord>,
    /// Per-record page outcomes from the batched lookup path.
    out: OutcomeBuf,
    /// Drained engine events, decomposed into demands (DES overlay only).
    events: Vec<Event>,
    /// Per-page resource demands (DES overlay only).
    demands: Vec<PageDemand>,
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Aggregate translation counters across all processes.
    pub stats: TranslationStats,
    /// NIC-cache counters.
    pub cache: CacheStats,
    /// 3C classification of NIC misses.
    pub breakdown: MissBreakdown,
    /// Per-process counters, keyed by raw pid — lets multiprogrammed runs
    /// attribute interference to each program.
    pub per_process: Vec<(u32, TranslationStats)>,
    /// Total simulated time spent in translation work (ns).
    pub sim_time_ns: u64,
}

impl SimResult {
    /// Per-lookup rates for the §6.2 cost formulas.
    pub fn rates(&self) -> LookupRates {
        self.stats.rates()
    }

    /// Counters summed over a pid subset (one program of a multiprogrammed
    /// trace).
    pub fn stats_for_pids(&self, pids: &[u32]) -> TranslationStats {
        self.per_process
            .iter()
            .filter(|(p, _)| pids.contains(p))
            .map(|(_, s)| *s)
            .fold(TranslationStats::default(), |a, b| a + b)
    }

    /// Average UTLB lookup cost in µs under `cfg`'s cost model.
    pub fn utlb_lookup_cost(&self, cfg: &SimConfig) -> f64 {
        cfg.cost.utlb_lookup_cost(&self.rates())
    }

    /// Average cache-line probes per lookup (1.0 for a direct-mapped cache;
    /// up to k for a k-way set, probed serially by the firmware).
    pub fn probes_per_lookup(&self) -> f64 {
        if self.cache.lookups() == 0 {
            1.0
        } else {
            self.cache.probes as f64 / self.cache.lookups() as f64
        }
    }

    /// Average UTLB lookup cost including the serial tag-check penalty of
    /// set-associative organizations (§6.3).
    pub fn utlb_lookup_cost_serial(&self, cfg: &SimConfig) -> f64 {
        cfg.cost
            .utlb_lookup_cost_with_probes(&self.rates(), self.probes_per_lookup())
    }

    /// Average interrupt-based lookup cost in µs under `cfg`'s cost model.
    pub fn intr_lookup_cost(&self, cfg: &SimConfig) -> f64 {
        cfg.cost.intr_lookup_cost(&self.rates())
    }

    /// Simulated translation time per lookup, in µs.
    pub fn sim_us_per_lookup(&self) -> f64 {
        if self.stats.lookups == 0 {
            return 0.0;
        }
        self.sim_time_ns as f64 / 1000.0 / self.stats.lookups as f64
    }
}

/// One board of the replay loop: its engine (borrowed from the caller),
/// clock, miss classifier, and — when the run asks for them — its
/// collector and private stations.
struct BoardState<'e, M: ?Sized> {
    engine: &'e mut M,
    board: Board,
    classifier: MissClassifier,
    /// Registration end: the origin of the board's simulated time.
    t0: Nanos,
    collector: Option<SharedCollector>,
    /// Where wait and lifecycle events go: the collector, if any.
    probe: Option<Box<dyn Probe>>,
    /// The board's DES stations, when the overlay is on.
    stations: Option<BoardStations>,
    latency: Histogram,
    payload_transfers: u64,
    payload_words: u64,
    /// Stats of completed residencies, keyed by raw pid — the engine drops
    /// a process's counters at `unregister_process`, so they are
    /// snapshotted here before every migration away from this board.
    carried: BTreeMap<u32, TranslationStats>,
    /// Every pid that was ever resident on this board.
    ever_resident: BTreeSet<u32>,
}

/// What the replay loop produced. Every trace payload is a projection of
/// it: a cluster run returns `result` whole, a single-board run reads its
/// one board.
pub(crate) struct Replayed {
    /// The N-board result (one board unless the run is clustered).
    pub(crate) result: ClusterResult,
    /// Per-pid request latency, pid order (overlay runs only).
    pub(crate) per_process_latency: Vec<(u32, Histogram)>,
    /// The one board's report, when the run was observed.
    pub(crate) obs: Option<ObsReport>,
}

impl Replayed {
    /// The single board's serial result.
    pub(crate) fn into_sim(self) -> SimResult {
        let mut boards = self.result.boards;
        boards.swap_remove(0).sim
    }

    /// The single board's discrete-event result. Its stations are the
    /// board's firmware and DMA engine plus the shared bus and interrupt
    /// service (one board never queues behind shared host memory).
    pub(crate) fn into_des(self) -> DesResult {
        let ClusterResult {
            mut boards,
            shared,
            payload_transfers,
            payload_words,
            ..
        } = self.result;
        let board = boards.swap_remove(0);
        let mut resources = board.resources;
        resources.extend(shared.into_iter().skip(1));
        DesResult {
            base: board.sim,
            des_time_ns: board.des_time_ns,
            latency_ns: board.latency_ns,
            per_process_latency: self.per_process_latency,
            fw_wait_ns: board.fw_wait_ns,
            dma_wait_ns: board.dma_wait_ns,
            bus_wait_ns: board.bus_wait_ns,
            intr_wait_ns: board.intr_wait_ns,
            resources,
            payload_transfers,
            payload_words,
        }
    }
}

/// The trace replay loop, written once against [`TranslationMechanism`]
/// and [`TraceStream`] for `engines.len() >= 1` boards sharing one host.
///
/// It spawns the stream's processes, registering each on the board
/// `topology` homes it to, then consumes records in [`STREAM_CHUNK`]-sized
/// refills of one buffer: applying due migrations, advancing the home
/// board's clock to the record's timestamp, translating its buffer through
/// the batched lookup path, and classifying every NIC miss. With `des`
/// set, each record's demands are then priced on the board's firmware and
/// DMA engine and the shared stations, and its payload traffic crosses the
/// shared bus. With `collect` set, every board carries a collector.
///
/// Records are replayed in stream order (non-decreasing timestamps), and
/// every station admits work in exactly that order, so the result is a
/// pure function of the inputs. A materialized [`Trace`](utlb_trace::Trace)
/// enters through a [`utlb_trace::TraceView`] and a fused generate+replay
/// run hands in the generator stream directly, so their results are
/// identical by construction, and replay memory is O(chunk) either way.
///
/// `pids` are the stream's processes, ascending. The builder checks that
/// they are dense from 1 and validates `topology` against them before
/// calling.
pub(crate) fn replay<M, S>(
    engines: Vec<&mut M>,
    stream: &mut S,
    pids: Vec<ProcessId>,
    cfg: &SimConfig,
    topology: &ClusterConfig,
    des: Option<&DesConfig>,
    collect: Option<Collect>,
) -> Replayed
where
    M: TranslationMechanism + ?Sized,
    S: TraceStream + ?Sized,
{
    let nodes = engines.len();
    let mut host = Host::new(cfg.host_frames);
    let round_robin;
    let shard = match &topology.shard {
        Some(map) => map,
        None => {
            round_robin = ShardMap::round_robin(&pids, nodes);
            &round_robin
        }
    };

    let mut boards: Vec<BoardState<M>> = engines
        .into_iter()
        .map(|engine| {
            let collector = collect.map(Collect::collector);
            // A plain collector sees registration; the overlay's tap is
            // attached after it (below), because registration precedes all
            // traffic and is not priced.
            if let (Some(c), None) = (&collector, des) {
                engine.set_probe(c.boxed());
            }
            BoardState {
                engine,
                board: Board::new(),
                classifier: MissClassifier::new(cfg.cache_entries),
                t0: Nanos::ZERO,
                probe: collector.as_ref().map(SharedCollector::boxed),
                collector,
                stations: des.map(|_| BoardStations::new()),
                latency: Histogram::new(),
                payload_transfers: 0,
                payload_words: 0,
                carried: BTreeMap::new(),
                ever_resident: BTreeSet::new(),
            }
        })
        .collect();
    let mut overlay = des.map(|d| (d, SharedStations::new()));
    let kernel_pins = boards[0].engine.kernel_pins();

    // Spawn every process on the shared host in pid order (dense from 1),
    // registering each on its home board.
    let mut route: Vec<usize> = Vec::with_capacity(pids.len());
    for expected in &pids {
        let got = host.spawn_process();
        assert_eq!(got, *expected, "trace pids must be dense from 1");
        let home = shard.board_of(got).expect("shard covers every pid");
        let b = &mut boards[home];
        b.engine
            .register_process(&mut host, &mut b.board, got)
            .expect("registration succeeds on a fresh host");
        b.ever_resident.insert(got.raw());
        route.push(home);
    }

    // Registration work precedes all traffic on each board: its firmware
    // starts busy until that board's registration end, and its time origin
    // is that same instant.
    for b in &mut boards {
        b.t0 = b.board.clock.now();
        if let Some(st) = &mut b.stations {
            if b.t0 > Nanos::ZERO {
                st.firmware.acquire(Nanos::ZERO, b.t0);
            }
            st.des_end = b.t0;
            b.engine
                .set_probe(st.tap(b.collector.as_ref().map(SharedCollector::boxed)));
        }
    }
    let workload = stream.workload().to_string();

    let mut migrations = topology.migrations.clone();
    migrations.sort_by_key(|m| m.at_ns);
    let mut next_migration = 0usize;
    let mut applied: Vec<MigrationReport> = Vec::new();
    let mut per_process_latency: Vec<(u32, Histogram)> = match des {
        Some(_) => pids.iter().map(|p| (p.raw(), Histogram::new())).collect(),
        None => Vec::new(),
    };

    let mut buffers = ReplayBuffers::default();
    let ReplayBuffers {
        chunk,
        out,
        events,
        demands,
    } = &mut buffers;
    while fill_chunk(stream, chunk, STREAM_CHUNK) > 0 {
        for rec in chunk.iter() {
            while next_migration < migrations.len() && migrations[next_migration].at_ns <= rec.ts_ns
            {
                let m = migrations[next_migration];
                next_migration += 1;
                applied.extend(apply_migration(&mut host, &mut boards, &mut route, m));
            }

            let pid = rec.pid;
            let slot = (pid.raw() - 1) as usize;
            let b = &mut boards[route[slot]];
            let arrival = Nanos::from_nanos(rec.ts_ns);
            b.board.clock.advance_to(arrival);
            out.clear();
            b.engine
                .lookup_run_into(
                    &mut host,
                    &mut b.board,
                    LookupBatch::for_buffer(pid, rec.va, rec.nbytes),
                    out,
                )
                .expect("trace lookups succeed");
            b.classifier.access_batch(pid, out.as_slice());

            // DES overlay: the firmware is held while the record's demands
            // walk the stations.
            let (Some(st), Some((des, shared))) = (&mut b.stations, &mut overlay) else {
                continue;
            };
            st.drain(events, demands);
            let grant = st.price(
                arrival,
                demands,
                kernel_pins,
                pid,
                des,
                shared,
                &mut b.probe,
            );
            emit_wait(&mut b.probe, pid, WaitResource::Firmware, grant.wait);
            let lat = (grant.end - arrival).as_nanos();
            b.latency.record(lat);
            per_process_latency[slot].1.record(lat);

            // Background payload traffic: the record's own transfer bytes
            // (scaled by the offered load) cross the shared bus after
            // translation, optionally raising a completion interrupt.
            // Fire-and-forget: it loads the stations but the sender does
            // not block on it. The notification is admitted at its
            // already-known completion time right here, so station
            // admission follows stream order regardless of load — which
            // keeps results reproducible and latency monotone in load.
            if des.payload_load > 0.0 {
                let words = des.payload_words(rec.nbytes);
                if words > 0 {
                    b.payload_transfers += 1;
                    b.payload_words += words;
                    let g1 = st.dma.acquire(grant.end, des.bus.setup());
                    let g2 = shared.io_bus.acquire(g1.end, des.bus.per_word() * words);
                    if des.notify_interrupts {
                        let g = shared.intr_svc.acquire(g2.end, des.intr_dispatch);
                        st.waits.intr += g.wait;
                        emit_wait(&mut b.probe, pid, WaitResource::IntrService, g.wait);
                    }
                }
            }
        }
    }

    // Migrations scheduled past the last record still execute: the process
    // ends the run homed where the plan says, with its state invalidated at
    // the source.
    for &m in &migrations[next_migration..] {
        applied.extend(apply_migration(&mut host, &mut boards, &mut route, m));
    }

    let mut cells: Vec<BoardCell> = Vec::with_capacity(nodes);
    let mut latency_ns = Histogram::new();
    let mut totals = StationWaits::default();
    let (mut payload_transfers, mut payload_words) = (0u64, 0u64);
    let mut obs = None;
    for (ix, b) in boards.into_iter().enumerate() {
        if b.collector.is_some() || b.stations.is_some() {
            b.engine.take_probe();
        }
        // Per-pid totals over every residency on this board: the carried
        // snapshots of departed stays plus live engine counters.
        let per_process: Vec<(u32, TranslationStats)> = b
            .ever_resident
            .iter()
            .map(|&pid| {
                let mut stats = b.carried.get(&pid).copied().unwrap_or_default();
                if route[(pid - 1) as usize] == ix {
                    stats += b
                        .engine
                        .stats(ProcessId::new(pid))
                        .expect("resident pid is registered");
                }
                (pid, stats)
            })
            .collect();
        let stats = per_process
            .iter()
            .map(|(_, s)| *s)
            .fold(TranslationStats::default(), |a, b| a + b);
        let (metrics, reconciled, report) = match (collect, &b.collector) {
            (Some(k), Some(c)) => {
                k.finish(c, b.engine.name(), &workload, &stats, b.board.snapshot())
            }
            _ => (Metrics::new(), true, None),
        };
        let (waits, des_end, resources) = BoardStations::summary(b.stations.as_ref(), b.t0);
        latency_ns.merge(&b.latency);
        totals.bus += waits.bus;
        totals.intr += waits.intr;
        totals.host_mem += waits.host_mem;
        payload_transfers += b.payload_transfers;
        payload_words += b.payload_words;

        cells.push(BoardCell {
            board: ix,
            pids: (1..=route.len() as u32)
                .filter(|&pid| route[(pid - 1) as usize] == ix)
                .collect(),
            sim: SimResult {
                workload: workload.clone(),
                stats,
                cache: b.engine.cache_stats(),
                breakdown: b.classifier.breakdown(),
                per_process,
                sim_time_ns: (b.board.clock.now() - b.t0).as_nanos(),
            },
            des_time_ns: (des_end - b.t0).as_nanos(),
            latency_ns: b.latency,
            fw_wait_ns: waits.fw.as_nanos(),
            dma_wait_ns: waits.dma.as_nanos(),
            bus_wait_ns: waits.bus.as_nanos(),
            intr_wait_ns: waits.intr.as_nanos(),
            host_mem_wait_ns: waits.host_mem.as_nanos(),
            metrics,
            reconciled,
            resources,
        });
        obs = obs.or(report);
    }

    Replayed {
        result: ClusterResult {
            workload,
            nodes,
            des_time_ns: cells.iter().map(|c| c.des_time_ns).max().unwrap_or(0),
            latency_ns,
            boards: cells,
            shared: overlay.map_or_else(Vec::new, |(_, shared)| shared.reports()),
            host_mem_wait_ns: totals.host_mem.as_nanos(),
            bus_wait_ns: totals.bus.as_nanos(),
            intr_wait_ns: totals.intr.as_nanos(),
            migrations: applied,
            payload_transfers,
            payload_words,
        },
        per_process_latency,
        obs,
    }
}

/// Rehomes one process: snapshot its counters (the engine drops them at
/// unregister), invalidate + unpin everything it held on the source board,
/// register it fresh on the destination. Probes are parked during the move
/// so registration bookkeeping never pollutes the demand tap or the
/// per-board metrics. Returns `None` for a no-op move (already home).
fn apply_migration<M: TranslationMechanism + ?Sized>(
    host: &mut Host,
    boards: &mut [BoardState<'_, M>],
    route: &mut [usize],
    m: Migration,
) -> Option<MigrationReport> {
    let slot = (m.pid - 1) as usize;
    let from = route[slot];
    if from == m.to_board {
        return None;
    }
    let pid = ProcessId::new(m.pid);
    let pages_invalidated = host.driver().pins().pinned_pages(pid);

    let src = &mut boards[from];
    let src_probe = src.engine.take_probe();
    let snapshot = src.engine.stats(pid).expect("migrating pid is registered");
    *src.carried.entry(m.pid).or_default() += snapshot;
    src.engine
        .unregister_process(host, &mut src.board, pid)
        .expect("unregister succeeds for a registered pid");
    if let Some(p) = src_probe {
        src.engine.set_probe(p);
    }

    let dst = &mut boards[m.to_board];
    let dst_probe = dst.engine.take_probe();
    dst.engine
        .register_process(host, &mut dst.board, pid)
        .expect("re-registration succeeds");
    if let Some(p) = dst_probe {
        dst.engine.set_probe(p);
    }
    dst.ever_resident.insert(m.pid);

    route[slot] = m.to_board;
    Some(MigrationReport {
        pid: m.pid,
        at_ns: m.at_ns,
        from,
        to: m.to_board,
        pages_invalidated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mechanism, Run, RunOutputExt};
    use utlb_trace::{gen, GenConfig, SplashApp, Trace};

    fn tiny(app: SplashApp) -> Trace {
        gen::generate(
            app,
            &GenConfig {
                seed: 21,
                scale: 0.05,
                app_processes: 4,
            },
        )
    }

    fn exec(mech: Mechanism, trace: &Trace, cfg: &SimConfig) -> SimResult {
        Run::new(mech)
            .config(cfg)
            .execute(trace)
            .into_sim()
            .unwrap()
    }

    #[test]
    fn utlb_unpins_nothing_with_infinite_memory() {
        let trace = tiny(SplashApp::Water);
        let r = exec(Mechanism::Utlb, &trace, &SimConfig::study(1024));
        assert_eq!(r.stats.unpins, 0, "Table 4: UTLB never unpins");
        assert_eq!(r.stats.lookups, trace.total_lookups());
        // Check misses equal distinct pages (every page pinned exactly once).
        assert_eq!(r.stats.check_misses, trace.footprint_pages());
        assert_eq!(r.stats.pins, trace.footprint_pages());
    }

    #[test]
    fn intr_unpins_on_every_eviction() {
        let trace = tiny(SplashApp::Water);
        // Cache much smaller than footprint forces evictions.
        let r = exec(Mechanism::Intr, &trace, &SimConfig::study(64));
        assert!(r.stats.unpins > 0);
        assert_eq!(r.stats.interrupts, r.stats.ni_misses);
        // pins - unpins = pages still cached, bounded by the cache size.
        let resident = r.stats.pins - r.stats.unpins;
        assert!(resident > 0 && resident <= 64, "resident {resident}");
    }

    #[test]
    fn utlb_and_intr_see_identical_miss_streams_on_same_cache() {
        // §6.2: "we assume that the cache structures are the same for both".
        let trace = tiny(SplashApp::Volrend);
        let cfg = SimConfig::study(256);
        let u = exec(Mechanism::Utlb, &trace, &cfg);
        let i = exec(Mechanism::Intr, &trace, &cfg);
        assert_eq!(u.stats.ni_misses, i.stats.ni_misses);
        assert_eq!(u.breakdown, i.breakdown);
    }

    #[test]
    fn classification_totals_match_ni_misses() {
        let trace = tiny(SplashApp::Radix);
        let r = exec(Mechanism::Utlb, &trace, &SimConfig::study(128));
        assert_eq!(r.breakdown.total(), r.stats.ni_misses);
    }

    #[test]
    fn bigger_cache_never_increases_compulsory_misses() {
        let trace = tiny(SplashApp::Barnes);
        let small = exec(Mechanism::Utlb, &trace, &SimConfig::study(64));
        let big = exec(Mechanism::Utlb, &trace, &SimConfig::study(4096));
        assert_eq!(small.breakdown.compulsory, big.breakdown.compulsory);
        assert!(big.stats.ni_misses <= small.stats.ni_misses);
    }

    #[test]
    fn per_process_stats_sum_to_aggregate() {
        let trace = tiny(SplashApp::Volrend);
        let r = exec(Mechanism::Utlb, &trace, &SimConfig::study(256));
        assert_eq!(r.per_process.len(), 5);
        let all: Vec<u32> = r.per_process.iter().map(|(p, _)| *p).collect();
        assert_eq!(r.stats_for_pids(&all), r.stats);
        assert_eq!(r.stats_for_pids(&[]).lookups, 0);
    }

    #[test]
    fn observed_run_reconciles_and_changes_nothing() {
        let trace = tiny(SplashApp::Water);
        let cfg = SimConfig::study(256).limit_mb(1);
        for mech in Mechanism::ALL {
            let plain = exec(mech, &trace, &cfg);
            let (result, obs) = Run::new(mech)
                .config(&cfg)
                .observed_ring(32)
                .execute(&trace)
                .into_observed()
                .unwrap();
            // The probe is passive: observed and plain runs agree exactly.
            assert_eq!(result.stats, plain.stats, "{mech}");
            assert_eq!(result.sim_time_ns, plain.sim_time_ns, "{mech}");
            // And the event stream reconciles with the engine counters.
            assert!(obs.reconciled, "{mech} mismatches: {:?}", obs.mismatches);
            assert_eq!(obs.mechanism, mech.to_string());
            // Batching may coalesce clock charges, never probe events: one
            // Lookup/CheckMiss/NiMiss event per counted occurrence.
            assert_eq!(obs.metrics.counts.lookups, result.stats.lookups);
            assert_eq!(obs.metrics.counts.check_misses, result.stats.check_misses);
            assert_eq!(obs.metrics.counts.ni_misses, result.stats.ni_misses);
            assert_eq!(obs.metrics.lookup_ns.count(), result.stats.lookups);
            assert_eq!(obs.traces.len(), trace.process_ids().len());
            assert_eq!(obs.board.interrupts_raised, result.stats.interrupts);
        }
    }

    #[test]
    fn lookup_costs_are_positive_and_reflect_misses() {
        let trace = tiny(SplashApp::Fft);
        let cfg = SimConfig::study(128);
        let r = exec(Mechanism::Utlb, &trace, &cfg);
        let utlb = r.utlb_lookup_cost(&cfg);
        assert!(utlb > 1.0, "at least the two check hits: {utlb}");
        assert!(r.sim_us_per_lookup() > 0.0);
    }
}
