//! The discrete-event overlay: the stations a request's demands are priced
//! on, and the one walk that prices them.
//!
//! Every board owns its engine, firmware station, and DMA engine — the
//! private resources a physical NIC carries ([`BoardStations`]) — but a run
//! has exactly one host memory system, one I/O bus, and one host interrupt
//! service ([`SharedStations`]): the backplane resources N boards contend
//! for. Both the trace replay loop ([`runner`](crate::runner)) and the live
//! driver ([`frontend::cluster`](crate::frontend::cluster)) price on the
//! same [`station_walk`], so "contention" means the same thing whether the
//! traffic was recorded or generated live, on one board or many.
//!
//! The walk preserves the serial charge exactly when uncontended: every
//! station grant starts at the walking cursor (the previous grant never
//! ends later under zero contention), so a zero-contention overlay
//! reproduces the serial clock bit-for-bit — the determinism contract
//! `tests/des_equivalence.rs`, `tests/cluster.rs` and
//! `tests/cluster_frontend.rs` pin.

use crate::des_runner::DesConfig;
use std::cell::RefCell;
use std::rc::Rc;
use utlb_core::obs::{Event, Probe, WaitResource};
use utlb_core::{page_demands_into, PageDemand};
use utlb_des::{Grant, Resource, ResourceReport};
use utlb_mem::ProcessId;
use utlb_nic::Nanos;

/// Captures the engine's event stream per lookup for demand decomposition,
/// forwarding to an optional downstream probe (the board's collector).
#[derive(Debug)]
struct DemandTap {
    buf: Rc<RefCell<Vec<Event>>>,
    inner: Option<Box<dyn Probe>>,
}

impl Probe for DemandTap {
    fn on_event(&mut self, pid: ProcessId, event: Event) {
        self.buf.borrow_mut().push(event);
        if let Some(p) = &mut self.inner {
            p.on_event(pid, event);
        }
    }
}

/// Emits a [`Event::Wait`] to the optional observation probe.
pub(crate) fn emit_wait(
    probe: &mut Option<Box<dyn Probe>>,
    pid: ProcessId,
    resource: WaitResource,
    wait: Nanos,
) {
    if let Some(p) = probe {
        p.on_event(
            pid,
            Event::Wait {
                resource,
                ns: wait.as_nanos(),
            },
        );
    }
}

/// The stations one backplane cannot replicate per board: host memory,
/// the I/O bus, and host interrupt service.
pub(crate) struct SharedStations {
    /// The host memory system driver pin/unpin work funnels through.
    pub(crate) host_mem: Resource,
    /// The I/O bus all DMA data transfers cross.
    pub(crate) io_bus: Resource,
    /// Host interrupt dispatch and service.
    pub(crate) intr_svc: Resource,
}

impl SharedStations {
    /// One set of idle shared stations.
    pub(crate) fn new() -> Self {
        SharedStations {
            host_mem: Resource::new("host_mem"),
            io_bus: Resource::new("io_bus"),
            intr_svc: Resource::new("intr_service"),
        }
    }

    /// Station reports in the result order every cluster payload uses:
    /// host memory, I/O bus, interrupt service.
    pub(crate) fn reports(&self) -> Vec<ResourceReport> {
        vec![
            self.host_mem.report(),
            self.io_bus.report(),
            self.intr_svc.report(),
        ]
    }
}

/// One board's accumulated queueing delays, by station.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StationWaits {
    /// Behind the board's own firmware processor.
    pub(crate) fw: Nanos,
    /// Behind the board's own DMA engine.
    pub(crate) dma: Nanos,
    /// This board's share of queueing behind the shared I/O bus.
    pub(crate) bus: Nanos,
    /// This board's share of queueing behind shared interrupt service.
    pub(crate) intr: Nanos,
    /// This board's share of queueing behind shared host memory.
    pub(crate) host_mem: Nanos,
}

/// One board's private stations — its firmware processor and DMA engine —
/// and the tap that feeds them its engine's demands.
pub(crate) struct BoardStations {
    /// The NIC firmware: a request holds it for its whole walk.
    pub(crate) firmware: Resource,
    /// The board's DMA engine.
    pub(crate) dma: Resource,
    tap: Rc<RefCell<Vec<Event>>>,
    /// Queueing this board's work accumulated, by station.
    pub(crate) waits: StationWaits,
    /// When this board's last work left the stations.
    pub(crate) des_end: Nanos,
}

impl BoardStations {
    /// One set of idle board stations.
    pub(crate) fn new() -> Self {
        BoardStations {
            firmware: Resource::new("nic_firmware"),
            dma: Resource::new("dma_engine"),
            tap: Rc::new(RefCell::new(Vec::new())),
            waits: StationWaits::default(),
            des_end: Nanos::ZERO,
        }
    }

    /// The engine probe that records into this board's tap and forwards
    /// every event to `inner`.
    pub(crate) fn tap(&self, inner: Option<Box<dyn Probe>>) -> Box<dyn Probe> {
        Box::new(DemandTap {
            buf: Rc::clone(&self.tap),
            inner,
        })
    }

    /// Drains the tap into per-page `demands`, using `events` as the swap
    /// buffer so neither allocates at steady state.
    pub(crate) fn drain(&self, events: &mut Vec<Event>, demands: &mut Vec<PageDemand>) {
        events.clear();
        std::mem::swap(&mut *self.tap.borrow_mut(), events);
        page_demands_into(events, demands);
    }

    /// Prices one request arriving at `arrival`: the firmware is held while
    /// `demands` walk the stations ([`station_walk`]) under `des` timing.
    /// Charges the firmware wait and advances `des_end`; returns the
    /// firmware grant.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn price(
        &mut self,
        arrival: Nanos,
        demands: &[PageDemand],
        kernel_pins: bool,
        pid: ProcessId,
        des: &DesConfig,
        shared: &mut SharedStations,
        probe: &mut Option<Box<dyn Probe>>,
    ) -> Grant {
        let BoardStations {
            firmware,
            dma,
            waits,
            ..
        } = self;
        let grant = firmware.acquire_with(arrival, |start| {
            station_walk(
                start,
                demands,
                kernel_pins,
                pid,
                des,
                dma,
                shared,
                waits,
                probe,
            )
        });
        self.waits.fw += grant.wait;
        self.des_end = self.des_end.max(grant.end);
        grant
    }

    /// A board's station totals: its waits, when its last work left the
    /// stations, and its station reports (firmware, then DMA engine).
    /// Without the overlay nothing waited, and the end is the origin `t0`.
    pub(crate) fn summary(
        stations: Option<&BoardStations>,
        t0: Nanos,
    ) -> (StationWaits, Nanos, Vec<ResourceReport>) {
        match stations {
            Some(st) => (
                st.waits,
                st.des_end,
                vec![st.firmware.report(), st.dma.report()],
            ),
            None => (StationWaits::default(), t0, Vec::new()),
        }
    }
}

/// Prices one request's page demands across the stations, starting at
/// `start` (the firmware grant instant): firmware compute advances the
/// cursor directly; driver pin work crosses to shared host memory (or
/// rides the interrupt occupancy when the mechanism pins from the kernel);
/// interrupts go to shared interrupt service; DMA descriptor programming
/// uses the board's private engine and the data crosses the shared bus.
/// Returns the cursor after the last demand — the firmware occupancy end.
///
/// Uncontended, every inner grant starts exactly at the cursor, so the
/// returned end equals the serial clock's charge for the same demands.
#[allow(clippy::too_many_arguments)]
fn station_walk(
    start: Nanos,
    demands: &[PageDemand],
    kernel_pins: bool,
    pid: ProcessId,
    des: &DesConfig,
    dma: &mut Resource,
    shared: &mut SharedStations,
    waits: &mut StationWaits,
    probe: &mut Option<Box<dyn Probe>>,
) -> Nanos {
    let mut cursor = start;
    for d in demands {
        cursor += Nanos::from_nanos(d.firmware_ns());
        let mut intr_occupancy = d.intr_ns;
        if kernel_pins {
            intr_occupancy += d.pin_ns;
        } else if d.pin_ns > 0 {
            // Driver pin work crosses to the shared host memory system.
            // Uncontended the grant starts at the cursor, reproducing the
            // serial charge exactly.
            let g = shared.host_mem.acquire(cursor, Nanos::from_nanos(d.pin_ns));
            waits.host_mem += g.wait;
            emit_wait(probe, pid, WaitResource::HostMem, g.wait);
            cursor = g.end;
        }
        if intr_occupancy > 0 {
            let g = shared
                .intr_svc
                .acquire(cursor, Nanos::from_nanos(intr_occupancy));
            waits.intr += g.wait;
            emit_wait(probe, pid, WaitResource::IntrService, g.wait);
            cursor = g.end;
        }
        if d.dma_ns > 0 {
            // Split the serial DMA charge into engine programming and the
            // bus data phase; the two service times sum to the serial
            // charge.
            let total = Nanos::from_nanos(d.dma_ns);
            let setup = des.bus.setup().min(total);
            let g1 = dma.acquire(cursor, setup);
            waits.dma += g1.wait;
            emit_wait(probe, pid, WaitResource::DmaEngine, g1.wait);
            let g2 = shared.io_bus.acquire(g1.end, total - setup);
            waits.bus += g2.wait;
            emit_wait(probe, pid, WaitResource::Bus, g2.wait);
            cursor = g2.end;
        }
    }
    cursor
}
