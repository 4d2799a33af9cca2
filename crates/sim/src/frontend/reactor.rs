//! The connection reactor: the request-plane state machine every live run
//! drives.
//!
//! The reactor owns everything that is *connection* lifecycle — the event
//! heap, the open-window slots, credit-window admission, the wire frames a
//! peer exchanges, and the offered/served/latency accounting. Everything
//! that is *board* — which board a connection homes to, how its handshake
//! and lookups are priced, where its counters are snapshotted at close —
//! goes through the [`ClusterDriver`] over the run's boards.

use super::cluster::ClusterDriver;
use super::FrontendConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use utlb_core::obs::Event;
use utlb_core::TranslationMechanism;
use utlb_des::{AdmissionOutcome, AdmissionStats, CreditWindow};
use utlb_mem::{ProcessId, VirtAddr, PAGE_SIZE};
use utlb_msg::{Frame, FRAME_BYTES};
use utlb_nic::Nanos;
use utlb_trace::Op;

/// Base of every connection's exported buffer (each process has its own
/// address space, so the bases coincide harmlessly).
pub(crate) const BUFFER_BASE: u64 = 0x4000_0000;

/// One generated request, before admission.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Req {
    pub(crate) ts_ns: u64,
    pub(crate) op: Op,
    pub(crate) va: VirtAddr,
    pub(crate) nbytes: u64,
}

/// Deterministic per-connection request generator — the *peer*. The live
/// reactor and [`frontend_trace`](super::frontend_trace) all draw from
/// this one definition, which is what makes the trace the exact
/// zero-backpressure image of the run.
#[derive(Debug)]
pub(crate) struct ReqGen {
    rng: StdRng,
    clock_ns: u64,
    remaining: usize,
}

impl ReqGen {
    pub(crate) fn new(fcfg: &FrontendConfig, conn: u64, open_ns: u64) -> Self {
        ReqGen {
            rng: StdRng::seed_from_u64(
                fcfg.seed ^ (conn.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            clock_ns: open_ns,
            remaining: fcfg.requests_per_conn,
        }
    }

    /// Think time to the next request: uniform in [think/2, 3·think/2),
    /// never zero so per-connection arrivals strictly increase.
    fn gap(&mut self, fcfg: &FrontendConfig) -> u64 {
        let think = fcfg.think_ns.max(1);
        (think / 2 + self.rng.gen_range(0..think)).max(1)
    }

    pub(crate) fn next(&mut self, fcfg: &FrontendConfig) -> Option<Req> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock_ns += self.gap(fcfg);
        let span = fcfg.buffer_pages * PAGE_SIZE - fcfg.payload_bytes;
        let offset = if span == 0 {
            0
        } else {
            // 64-byte-aligned offsets, the transfer granularity of the
            // simulated data link.
            self.rng.gen_range(0..=span / 64) * 64
        };
        let op = if self.rng.gen_bool(0.5) {
            Op::Send
        } else {
            Op::Fetch
        };
        Some(Req {
            ts_ns: self.clock_ns,
            op,
            va: VirtAddr::new(BUFFER_BASE + offset),
            nbytes: fcfg.payload_bytes,
        })
    }
}

/// One open connection's reactor state.
#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) pid: ProcessId,
    /// The board this connection was homed to at admission: the accepted
    /// candidate after any redirect hops.
    pub(crate) board: usize,
    pub(crate) gen: ReqGen,
    pub(crate) window: CreditWindow,
    /// The request scheduled in the event heap, generated ahead of time so
    /// the heap knows its timestamp.
    pub(crate) pending: Option<Req>,
    /// Latest completion (translation + drain) of this connection, for
    /// timing the close.
    pub(crate) last_done_ns: u64,
    pub(crate) seq: u64,
}

/// Runs the peer's side of the wire for a request: encode into the reused
/// frame buffer, then decode as the board would. The decoded frame is what
/// the board dispatches on, so the protocol is load-bearing, and the round
/// trip allocates nothing.
pub(crate) fn through_wire(frame: Frame, wire: &mut [u8; FRAME_BYTES]) -> Frame {
    frame.encode_into(wire);
    Frame::decode(wire).expect("reactor frames are well-formed")
}

/// What the reactor loop itself accounts for: connection-lifecycle
/// counters that are board-independent. Accepted/refused/redirect counts
/// are the driver's (they depend on homing), as are per-board stats and
/// latency histograms.
#[derive(Debug)]
pub(crate) struct ReactorCounts {
    pub(crate) offered: u64,
    pub(crate) served: u64,
    pub(crate) admission: AdmissionStats,
}

/// The reactor loop. See the [module docs](self) for the split of labor
/// between the loop and the [`ClusterDriver`].
pub(crate) fn run_reactor<M: TranslationMechanism + ?Sized>(
    drv: &mut ClusterDriver<'_, '_, M>,
    fcfg: &FrontendConfig,
) -> ReactorCounts {
    fcfg.validate();
    let mut wire = [0u8; FRAME_BYTES];

    let mut offered = 0u64;
    let mut served = 0u64;
    let mut admission = AdmissionStats::default();

    // Event heap: (timestamp, pid, slot), smallest first. Each open
    // connection owns exactly one entry — its next request or its close —
    // so the heap is O(open_window).
    let mut heap: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut next_conn = 0u64;
    let total = fcfg.connections as u64;

    // Initial wave, in index order so pids stay dense.
    let initial = fcfg.open_window.min(fcfg.connections);
    while (next_conn as usize) < initial {
        if let Some(c) = drv.open(next_conn, 0, &mut wire) {
            let slot = slots.len();
            let ts = c
                .pending
                .as_ref()
                .expect("fresh connection has a request")
                .ts_ns;
            heap.push(Reverse((ts, c.pid.raw(), slot)));
            slots.push(Some(c));
        }
        next_conn += 1;
    }
    drv.initial_wave_done();

    while let Some(Reverse((ts, _pid, slot))) = heap.pop() {
        let conn = slots[slot]
            .as_mut()
            .expect("heap entries point at open slots");
        match conn.pending.take() {
            Some(req) => {
                offered += 1;
                conn.seq += 1;
                let frame = match req.op {
                    Op::Send => Frame::Store {
                        seq: conn.seq,
                        va: req.va.raw(),
                        nbytes: req.nbytes,
                    },
                    Op::Fetch => Frame::Fetch {
                        seq: conn.seq,
                        va: req.va.raw(),
                        nbytes: req.nbytes,
                    },
                };
                let (seq, va, nbytes) = match through_wire(frame, &mut wire) {
                    Frame::Store { seq, va, nbytes } | Frame::Fetch { seq, va, nbytes } => {
                        (seq, VirtAddr::new(va), nbytes)
                    }
                    other => unreachable!("request wire carried {other:?}"),
                };
                let arrival = Nanos::from_nanos(req.ts_ns);
                match conn.window.offer(arrival) {
                    AdmissionOutcome::Admitted(a) => {
                        if a.stall > Nanos::ZERO {
                            drv.emit(
                                conn,
                                Event::Backpressure {
                                    ns: a.stall.as_nanos(),
                                },
                            );
                        }
                        let translated = drv.serve(conn, va, nbytes, a.at);
                        let done = translated + Nanos::from_nanos(fcfg.drain_ns);
                        conn.window.complete(done);
                        conn.last_done_ns = conn.last_done_ns.max(done.as_nanos());
                        served += 1;
                        let lat = done - arrival;
                        drv.record_latency(conn, lat.as_nanos());
                        through_wire(
                            Frame::Done {
                                seq,
                                latency_ns: lat.as_nanos(),
                            },
                            &mut wire,
                        );
                    }
                    AdmissionOutcome::Rejected => {
                        through_wire(Frame::Busy { seq }, &mut wire);
                    }
                }
                conn.pending = conn.gen.next(fcfg);
                let next_ts = match &conn.pending {
                    Some(r) => r.ts_ns,
                    // All requests issued: close once the last payload has
                    // drained (never before the request just handled).
                    None => conn.last_done_ns.max(req.ts_ns),
                };
                heap.push(Reverse((next_ts, conn.pid.raw(), slot)));
            }
            None => {
                // Teardown: Bye → snapshot counters → unregister → ByeAck.
                let conn = slots[slot].take().expect("closing an open slot");
                debug_assert!(through_wire(Frame::Bye, &mut wire).is_request());
                let s = conn.window.stats();
                admission.admitted += s.admitted;
                admission.stalled += s.stalled;
                admission.rejected += s.rejected;
                admission.stall_ns += s.stall_ns;
                admission.max_in_flight = admission.max_in_flight.max(s.max_in_flight);
                drv.close(&conn);
                through_wire(Frame::ByeAck, &mut wire);
                // The freed slot admits the next waiting connection, at the
                // close's timestamp.
                while next_conn < total {
                    let index = next_conn;
                    next_conn += 1;
                    if let Some(c) = drv.open(index, ts, &mut wire) {
                        let next_ts = c
                            .pending
                            .as_ref()
                            .expect("fresh connection has a request")
                            .ts_ns;
                        heap.push(Reverse((next_ts, c.pid.raw(), slot)));
                        slots[slot] = Some(c);
                        break;
                    }
                    // Refused everywhere: fall through and try the next
                    // index in the same slot at the same instant.
                }
            }
        }
    }

    ReactorCounts {
        offered,
        served,
        admission,
    }
}
