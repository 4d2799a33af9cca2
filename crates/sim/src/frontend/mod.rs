//! Request-plane front end: serve translations to live simulated peers.
//!
//! The trace runs replay *recorded* communication; this module generates
//! it live. N simulated peers connect to a board, export a buffer, and
//! issue remote stores and fetches that the configured
//! [`TranslationMechanism`](utlb_core::TranslationMechanism) translates on
//! demand — the full connection lifecycle the paper's VMMC software ran
//! above the UTLB, driven by a poll-free deterministic reactor stepped by
//! simulated time:
//!
//! * **Handshake** — a peer's [`Frame::Hello`](utlb_msg::Frame::Hello)
//!   spawns a host process and registers it with the mechanism
//!   ([`Frame::Welcome`](utlb_msg::Frame::Welcome) carries its credit
//!   window). A registration the mechanism cannot satisfy — the §3.1
//!   engine's statically allocated SRAM tables are a bump allocation that
//!   outlives the process, so they *will* run out under connection churn —
//!   refuses the connection instead of failing the run: that capacity
//!   cliff is a result, not an error. (On a cluster, refusal first becomes
//!   a [`utlb_msg::Frame::Redirect`] hop to the next
//!   candidate board — see [`cluster`].)
//! * **Admission** — each connection owns a bounded
//!   [`CreditWindow`](utlb_des::CreditWindow): requests beyond the window
//!   stall to the instant a credit returns (charged as wait time and
//!   emitted as
//!   [`Event::Backpressure`](utlb_core::obs::Event::Backpressure)),
//!   requests beyond the stall queue are rejected with
//!   [`Frame::Busy`](utlb_msg::Frame::Busy).
//! * **Service** — admitted requests go through the same batched
//!   [`LookupBatch`](utlb_core::LookupBatch) /
//!   [`OutcomeBuf`](utlb_core::OutcomeBuf) path as the trace replay, on
//!   the same serial board clock, so firmware FIFO queueing emerges from
//!   the clock rather than being modeled separately.
//! * **Teardown** — [`Frame::Bye`](utlb_msg::Frame::Bye) snapshots the
//!   connection's counters, unregisters the process (releasing its pins),
//!   and kills it, so live state is O(open connections) however many
//!   connections a run churns.
//!
//! The per-connection state machine is the private `reactor` module; the
//! board side is one driver over `nodes >= 1` boards ([`cluster`]), with
//! homing policies, redirect re-homing, and — on a `.cluster()` run —
//! shared discrete-event stations. A plain run is its one-board case
//! without stations, which is what makes the 1-board clustered front end
//! bit-exact with it.
//!
//! Determinism contract: the whole run is a pure function of
//! ([`FrontendConfig`], [`SimConfig`], mechanism). Peers are deterministic
//! generators; the reactor admits events in `(timestamp, pid)` order from a
//! binary heap; nothing reads wall-clock time or ambient randomness. The
//! zero-backpressure image of the workload is also available as a
//! materialized [`Trace`] ([`frontend_trace`]), and a one-connection run
//! with ample credits is bit-exact with serially replaying that trace —
//! `tests/frontend.rs` and CI pin both.

pub mod cluster;
mod reactor;

use crate::{Mechanism, Run, RunOutputExt, SimConfig};
use reactor::ReqGen;
use serde::{Deserialize, Serialize};
use utlb_core::obs::Histogram;
use utlb_core::{CacheStats, TranslationStats};
use utlb_des::AdmissionStats;
use utlb_mem::{ProcessId, PAGE_SIZE};
use utlb_trace::{Trace, TraceRecord};

/// Shape of one front-end run: how many peers connect, how hard each one
/// pushes, and how much credit the board extends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendConfig {
    /// Total connections over the run's lifetime.
    pub connections: usize,
    /// Connections open simultaneously; the rest wait for a slot. Live
    /// reactor state is O(`open_window`), never O(`connections`).
    pub open_window: usize,
    /// Requests each connection issues before its [`Frame::Bye`](utlb_msg::Frame::Bye).
    pub requests_per_conn: usize,
    /// Credits per connection: requests in service at once.
    pub credit_window: usize,
    /// Stall-queue depth per connection; a request beyond window + queue
    /// is rejected with [`Frame::Busy`](utlb_msg::Frame::Busy).
    pub queue_depth: usize,
    /// Mean think time between a connection's requests (ns). Lower = more
    /// offered load.
    pub think_ns: u64,
    /// Time a served request keeps its credit after translation while the
    /// payload drains (ns) — the window's service-time component.
    pub drain_ns: u64,
    /// Bytes per remote store/fetch.
    pub payload_bytes: u64,
    /// Pages in each connection's exported buffer.
    pub buffer_pages: u64,
    /// Seed for the per-connection request generators.
    pub seed: u64,
}

impl Default for FrontendConfig {
    /// A moderate study point: 1 K connections through a 256-wide open
    /// window, credit window 4 over an 8-deep stall queue.
    fn default() -> Self {
        FrontendConfig {
            connections: 1024,
            open_window: 256,
            requests_per_conn: 8,
            credit_window: 4,
            queue_depth: 8,
            think_ns: 2_000,
            drain_ns: 4_000,
            payload_bytes: 4096,
            buffer_pages: 64,
            seed: 0xF00D,
        }
    }
}

impl FrontendConfig {
    /// Checks the shape can run at all.
    ///
    /// # Errors
    ///
    /// Rejects a zero connection/window/request count or a payload larger
    /// than the exported buffer — every one of those silently degenerates
    /// the workload, which a study config must not do.
    pub fn validate(&self) -> Result<(), &'static str> {
        let checks = [
            (
                self.connections > 0,
                "frontend needs at least one connection",
            ),
            (self.open_window > 0, "open window must admit a connection"),
            (
                self.requests_per_conn > 0,
                "connections must issue requests",
            ),
            (self.credit_window > 0, "credit window needs a credit"),
            (self.payload_bytes > 0, "zero-byte payloads carry nothing"),
            (
                self.buffer_pages * PAGE_SIZE >= self.payload_bytes,
                "payload must fit the exported buffer",
            ),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some(&(_, msg)) => Err(msg),
            None => Ok(()),
        }
    }

    /// Total requests the run offers if no connection is refused.
    pub fn offered_requests(&self) -> u64 {
        self.connections as u64 * self.requests_per_conn as u64
    }
}

/// What one front-end run produced. Aggregates and histograms only — never
/// per-connection vectors — so the result is O(1) in the connection count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontendResult {
    /// Workload label (`"frontend"`).
    pub workload: String,
    /// Connections the run attempted.
    pub connections: u64,
    /// Connections the mechanism accepted (handshake succeeded).
    pub accepted: u64,
    /// Connections refused at the handshake — the mechanism could not
    /// register another process (e.g. §3.1 static SRAM exhaustion).
    pub refused: u64,
    /// Requests offered by accepted connections.
    pub offered: u64,
    /// Requests admitted and translated.
    pub served: u64,
    /// Page-granular lookups those requests cost.
    pub served_lookups: u64,
    /// Flow-control counters summed over all connections; `rejected` here
    /// is the [`Frame::Busy`](utlb_msg::Frame::Busy) count.
    pub admission: AdmissionStats,
    /// Translation counters summed over all connections (snapshotted at
    /// each close, before unregistration drops the per-process state).
    pub stats: TranslationStats,
    /// NIC translation-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Simulated time from the end of the initial handshake wave to the
    /// last translation, ns.
    pub sim_time_ns: u64,
    /// End-to-end request latency (arrival to credit return).
    pub latency_ns: Histogram,
}

impl FrontendResult {
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
}

/// Materializes the zero-backpressure image of a front-end workload as a
/// [`Trace`]: every connection's full request sequence at its *arrival*
/// times, sorted into the reactor's `(timestamp, pid)` admission order.
///
/// With `connections <= open_window` every peer opens at time zero in index
/// order, so connection *i* is pid *i + 1* and the trace replays through
/// [`Run::execute`] exactly as the reactor would admit it when no request
/// ever stalls — the equivalence `tests/frontend.rs` pins bit-exactly for a
/// one-connection run with ample credits.
///
/// # Panics
///
/// Panics on a shape [`FrontendConfig::validate`] rejects, or if
/// `connections > open_window`: connections beyond the window open mid-run
/// at times only the reactor knows, so no arrival-time trace exists for
/// them.
pub fn frontend_trace(fcfg: &FrontendConfig) -> Trace {
    if let Err(msg) = fcfg.validate() {
        panic!("{msg}");
    }
    assert!(
        fcfg.connections <= fcfg.open_window,
        "a materialized frontend trace needs every connection open from time zero"
    );
    let mut records = Vec::with_capacity(fcfg.connections * fcfg.requests_per_conn);
    for index in 0..fcfg.connections {
        let pid = ProcessId::new(index as u32 + 1);
        let mut g = ReqGen::new(fcfg, index as u64, 0);
        while let Some(req) = g.next(fcfg) {
            records.push(TraceRecord {
                ts_ns: req.ts_ns,
                pid,
                op: req.op,
                va: req.va,
                nbytes: req.nbytes,
            });
        }
    }
    // Arrivals strictly increase within a connection, so `(ts, pid)` is
    // unique and sorting by it yields the reactor's admission order.
    records.sort_unstable_by_key(|r| (r.ts_ns, r.pid));
    Trace::new("frontend", fcfg.seed, records)
}

/// Convenience: the serial replay of [`frontend_trace`] under `cfg` — the
/// reference run the equivalence gate compares a live front end against.
pub fn frontend_reference(
    mech: Mechanism,
    cfg: &SimConfig,
    fcfg: &FrontendConfig,
) -> crate::SimResult {
    Run::new(mech)
        .config(cfg)
        .execute(&frontend_trace(fcfg))
        .into_sim()
        .expect("a plain trace replay produces a serial result")
}

#[cfg(test)]
mod tests {
    use super::reactor::BUFFER_BASE;
    use super::*;

    fn tiny() -> FrontendConfig {
        FrontendConfig {
            connections: 8,
            open_window: 4,
            requests_per_conn: 5,
            ..FrontendConfig::default()
        }
    }

    /// The k-way heap merge `frontend_trace` used before it sorted: one
    /// generator per connection, admitted in `(timestamp, pid)` order.
    fn heap_merged_trace(fcfg: &FrontendConfig) -> Vec<TraceRecord> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
        let mut gens: Vec<ReqGen> = Vec::with_capacity(fcfg.connections);
        let mut pending: Vec<Option<reactor::Req>> = Vec::with_capacity(fcfg.connections);
        for index in 0..fcfg.connections {
            let mut g = ReqGen::new(fcfg, index as u64, 0);
            let first = g.next(fcfg).expect("validated config issues requests");
            heap.push(Reverse((first.ts_ns, index as u32 + 1, index)));
            gens.push(g);
            pending.push(Some(first));
        }
        let mut records = Vec::with_capacity(fcfg.connections * fcfg.requests_per_conn);
        while let Some(Reverse((_, praw, index))) = heap.pop() {
            let req = pending[index].take().expect("heap entries have a request");
            records.push(TraceRecord {
                ts_ns: req.ts_ns,
                pid: ProcessId::new(praw),
                op: req.op,
                va: req.va,
                nbytes: req.nbytes,
            });
            if let Some(next) = gens[index].next(fcfg) {
                heap.push(Reverse((next.ts_ns, praw, index)));
                pending[index] = Some(next);
            }
        }
        records
    }

    /// Sorting every connection's requests by `(timestamp, pid)` yields
    /// the heap merge's order, also when `think_ns: 1` puts every
    /// connection's n-th request at the same instant.
    #[test]
    fn frontend_trace_matches_heap_merge() {
        for connections in [1, 3, 1_000] {
            for think_ns in [1, 2_000] {
                let fcfg = FrontendConfig {
                    connections,
                    open_window: connections,
                    think_ns,
                    ..FrontendConfig::default()
                };
                let heap = heap_merged_trace(&fcfg);
                assert_eq!(heap.len(), connections * fcfg.requests_per_conn);
                if think_ns == 1 && connections > 1 {
                    assert_eq!(heap[0].ts_ns, heap[connections - 1].ts_ns, "ties");
                }
                assert_eq!(
                    frontend_trace(&fcfg).records,
                    heap,
                    "{connections} connections, think_ns {think_ns}"
                );
            }
        }
    }

    #[test]
    fn generators_are_deterministic_and_strictly_increasing() {
        let fcfg = tiny();
        let draw = || {
            let mut g = ReqGen::new(&fcfg, 3, 100);
            std::iter::from_fn(|| g.next(&fcfg)).collect::<Vec<_>>()
        };
        let a = draw();
        let b = draw();
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.ts_ns, x.va, x.nbytes), (y.ts_ns, y.va, y.nbytes));
        }
        assert!(a.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
        assert!(a.iter().all(|r| r.ts_ns > 100));
        // Different connections draw different sequences.
        let mut other = ReqGen::new(&fcfg, 4, 100);
        let o = other.next(&fcfg).unwrap();
        assert!((o.ts_ns, o.va.raw()) != (a[0].ts_ns, a[0].va.raw()));
    }

    #[test]
    fn requests_stay_inside_the_exported_buffer() {
        let fcfg = FrontendConfig {
            buffer_pages: 2,
            payload_bytes: 4096,
            ..tiny()
        };
        let mut g = ReqGen::new(&fcfg, 0, 0);
        while let Some(r) = g.next(&fcfg) {
            assert!(r.va.raw() >= BUFFER_BASE);
            assert!(r.va.raw() + r.nbytes <= BUFFER_BASE + fcfg.buffer_pages * PAGE_SIZE);
            assert_eq!(r.va.raw() % 64, 0, "link-granularity alignment");
        }
    }

    #[test]
    fn frontend_trace_is_sorted_with_dense_pids() {
        let fcfg = FrontendConfig {
            connections: 4,
            open_window: 4,
            ..tiny()
        };
        let t = frontend_trace(&fcfg);
        assert_eq!(t.records.len(), 4 * fcfg.requests_per_conn);
        assert_eq!(t.process_ids().len(), 4);
        assert_eq!(t.process_ids()[0].raw(), 1);
        assert!(t.records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    #[should_panic(expected = "open from time zero")]
    fn frontend_trace_rejects_churned_configs() {
        frontend_trace(&tiny());
    }

    #[test]
    fn oversized_payloads_are_rejected() {
        let oversized = FrontendConfig {
            payload_bytes: PAGE_SIZE * 3,
            buffer_pages: 2,
            ..tiny()
        };
        assert_eq!(
            oversized.validate(),
            Err("payload must fit the exported buffer")
        );
        assert_eq!(tiny().validate(), Ok(()));
    }
}
