//! Structured observability for the translation engines.
//!
//! The paper's entire argument rests on *where* translation time goes —
//! user-level check vs. NIC cache probe vs. DMA table fetch vs. host
//! interrupt (§6.2's cost breakdown) — yet end-of-run counters alone cannot
//! explain a surprising sweep cell after the fact. This module adds a
//! per-event attribution substrate:
//!
//! * [`Probe`] — a lightweight trait engines emit typed [`Event`]s into.
//!   Engines hold a [`ProbeSlot`] that defaults to *detached*; with no
//!   probe attached the emission path is a single `Option` branch, so the
//!   hot path keeps its cost (guarded by `run_all obs_guard`, the
//!   overhead gate in `scripts/ci.sh`).
//! * [`Histogram`] — log₂-bucketed latency accounting, mergeable across
//!   sweep workers.
//! * [`Metrics`] — per-event counters plus pin/unpin/DMA/interrupt/lookup
//!   latency histograms, reconcilable against [`TranslationStats`].
//! * [`TraceRecorder`] — a bounded per-process ring of the most recent
//!   events, for post-mortem dumps of a run that went sideways.
//! * [`ObsCollector`] / [`SharedCollector`] — the standard probe stack the
//!   simulation runners attach: metrics + recorder behind an `Rc` so the
//!   caller keeps a handle while the engine owns the boxed probe.

use crate::TranslationStats;
use serde::{DeError, Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use utlb_mem::ProcessId;

/// Why a resident translation (or pinned page) was displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictReason {
    /// The per-process pinned-memory limit forced an unpin (§3.4).
    MemLimit,
    /// A Shared UTLB-Cache set conflict displaced the line (§3.2).
    CacheConflict,
    /// A fixed-size translation table ran out of free slots (§3.1/§3.2).
    TableFull,
}

/// A shared station a translation can queue at (see `utlb-des` and
/// `utlb-sim::run_des`): which device a [`Event::Wait`] was spent behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitResource {
    /// The NIC firmware processor serializing translation requests.
    Firmware,
    /// The NIC DMA engine (per-transfer programming).
    DmaEngine,
    /// The shared I/O bus (data movement).
    Bus,
    /// Host interrupt service (dispatch + handler occupancy).
    IntrService,
    /// The host memory system serializing pin/unpin driver work — shared
    /// across boards by the cluster runner (`utlb-sim::cluster`).
    HostMem,
}

/// One observable step of a translation engine.
///
/// Latencies are simulated nanoseconds charged to the board clock, so the
/// histogram totals reconcile exactly with the engines' own accounting.
///
/// Serializes as an object tagged by an `event` field, e.g.
/// `{"event": "DmaFetch", "entries": 8, "ns": 2500}` (implemented by hand:
/// the vendored serde derive covers only unit enum variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// One page-granular lookup completed, taking `ns` of simulated time
    /// end to end (user-level check through NIC resolution).
    Lookup {
        /// Simulated nanoseconds the lookup consumed.
        ns: u64,
    },
    /// The user-level check found an unpinned page in the run.
    CheckMiss,
    /// The NIC translation cache (or table) missed.
    NiMiss,
    /// A DMA fetched translation entries from the host-resident table.
    DmaFetch {
        /// Entries moved by the transfer (> 1 under prefetching, §6.4).
        entries: u64,
        /// Simulated nanoseconds the transfer took on the I/O bus.
        ns: u64,
    },
    /// The NIC interrupted the host.
    Interrupt {
        /// Simulated nanoseconds of handler-dispatch cost.
        ns: u64,
    },
    /// A driver call pinned a run of pages.
    Pin {
        /// Pages pinned by the one `ioctl` (> 1 under prepinning, §6.5).
        run: u64,
        /// Simulated nanoseconds of host time the call took.
        ns: u64,
    },
    /// A driver call unpinned one page.
    Unpin {
        /// Simulated nanoseconds of host time the call took.
        ns: u64,
    },
    /// A translation or pinned page was displaced.
    Evict {
        /// What forced the displacement.
        reason: EvictReason,
    },
    /// A swapped-out second-level table page was brought back (§3.3).
    SwapIn,
    /// Queueing delay spent waiting for a shared station — emitted by the
    /// discrete-event runner (`utlb-sim::run_des`), never by the engines
    /// themselves, so service histograms stay pure device cost and wait
    /// histograms pure contention.
    Wait {
        /// The station waited for.
        resource: WaitResource,
        /// Simulated nanoseconds of queueing delay (0 when uncontended).
        ns: u64,
    },
    /// A request-plane peer completed its handshake and was registered
    /// with the board (`utlb-sim::frontend`).
    Connect,
    /// A request-plane peer closed gracefully and was unregistered,
    /// releasing its pinned pages.
    Close,
    /// A request stalled at the admission point because the connection's
    /// credit window was exhausted — emitted by the request-plane front
    /// end, one event per stalled admission.
    Backpressure {
        /// Simulated nanoseconds the request waited for a credit.
        ns: u64,
    },
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let (kind, fields) = match *self {
            Event::Lookup { ns } => ("Lookup", vec![("ns", Value::U64(ns))]),
            Event::CheckMiss => ("CheckMiss", Vec::new()),
            Event::NiMiss => ("NiMiss", Vec::new()),
            Event::DmaFetch { entries, ns } => (
                "DmaFetch",
                vec![("entries", Value::U64(entries)), ("ns", Value::U64(ns))],
            ),
            Event::Interrupt { ns } => ("Interrupt", vec![("ns", Value::U64(ns))]),
            Event::Pin { run, ns } => (
                "Pin",
                vec![("run", Value::U64(run)), ("ns", Value::U64(ns))],
            ),
            Event::Unpin { ns } => ("Unpin", vec![("ns", Value::U64(ns))]),
            Event::Evict { reason } => ("Evict", vec![("reason", reason.to_value())]),
            Event::SwapIn => ("SwapIn", Vec::new()),
            Event::Wait { resource, ns } => (
                "Wait",
                vec![("resource", resource.to_value()), ("ns", Value::U64(ns))],
            ),
            Event::Connect => ("Connect", Vec::new()),
            Event::Close => ("Close", Vec::new()),
            Event::Backpressure { ns } => ("Backpressure", vec![("ns", Value::U64(ns))]),
        };
        let mut obj = vec![("event".to_string(), Value::Str(kind.to_string()))];
        obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        Value::Object(obj)
    }
}

impl Deserialize for Event {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let obj = match v {
            Value::Object(entries) => entries,
            _ => return Err(DeError::custom("Event: expected object")),
        };
        let get = |name: &str| -> std::result::Result<u64, DeError> {
            match serde::field(obj, name, "Event")? {
                Value::U64(n) => Ok(*n),
                Value::I64(n) if *n >= 0 => Ok(*n as u64),
                _ => Err(DeError::custom(format!("Event.{name}: expected u64"))),
            }
        };
        let kind = match serde::field(obj, "event", "Event")? {
            Value::Str(s) => s.as_str(),
            _ => return Err(DeError::custom("Event.event: expected string tag")),
        };
        match kind {
            "Lookup" => Ok(Event::Lookup { ns: get("ns")? }),
            "CheckMiss" => Ok(Event::CheckMiss),
            "NiMiss" => Ok(Event::NiMiss),
            "DmaFetch" => Ok(Event::DmaFetch {
                entries: get("entries")?,
                ns: get("ns")?,
            }),
            "Interrupt" => Ok(Event::Interrupt { ns: get("ns")? }),
            "Pin" => Ok(Event::Pin {
                run: get("run")?,
                ns: get("ns")?,
            }),
            "Unpin" => Ok(Event::Unpin { ns: get("ns")? }),
            "Evict" => Ok(Event::Evict {
                reason: EvictReason::from_value(serde::field(obj, "reason", "Event")?)?,
            }),
            "SwapIn" => Ok(Event::SwapIn),
            "Wait" => Ok(Event::Wait {
                resource: WaitResource::from_value(serde::field(obj, "resource", "Event")?)?,
                ns: get("ns")?,
            }),
            "Connect" => Ok(Event::Connect),
            "Close" => Ok(Event::Close),
            "Backpressure" => Ok(Event::Backpressure { ns: get("ns")? }),
            other => Err(DeError::custom(format!("Event: unknown tag `{other}`"))),
        }
    }
}

/// A sink for engine events.
///
/// Implementations must be cheap: probes run inline on the simulated fast
/// path. The engines attach at most one probe; fan-out belongs inside a
/// composite probe, not in the engines.
pub trait Probe: std::fmt::Debug {
    /// Receives one event attributed to `pid`.
    fn on_event(&mut self, pid: ProcessId, event: Event);
}

/// Logs `msg()` to stderr exactly once per `topic` per process.
///
/// For facts that hold for a whole batch run — e.g. the sweep executor's
/// resolved worker count and where it came from — where per-call logging
/// would drown a 140-cell grid's output but zero logging leaves the
/// archive guessing at the topology. `msg` is only rendered on the first
/// call for its topic.
pub fn note_once(topic: &str, msg: impl FnOnce() -> String) {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static SEEN: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut seen = seen.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if seen.insert(topic.to_string()) {
        eprintln!("[utlb:{topic}] {}", msg());
    }
}

/// A probe that discards everything — for overhead measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    #[inline]
    fn on_event(&mut self, _pid: ProcessId, _event: Event) {}
}

/// The engine-side attachment point: either detached (the default, a single
/// branch per would-be event) or one boxed [`Probe`].
#[derive(Debug, Default)]
pub struct ProbeSlot(Option<Box<dyn Probe>>);

impl ProbeSlot {
    /// A detached slot.
    pub fn detached() -> Self {
        ProbeSlot(None)
    }

    /// Attaches `probe`, replacing and returning any previous one.
    pub fn attach(&mut self, probe: Box<dyn Probe>) -> Option<Box<dyn Probe>> {
        self.0.replace(probe)
    }

    /// Detaches and returns the probe, if one was attached.
    pub fn detach(&mut self) -> Option<Box<dyn Probe>> {
        self.0.take()
    }

    /// Whether a probe is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Emits `event` if a probe is attached; a no-op branch otherwise.
    #[inline]
    pub fn emit(&mut self, pid: ProcessId, event: Event) {
        if let Some(p) = self.0.as_mut() {
            p.on_event(pid, event);
        }
    }
}

/// A log₂-bucketed latency histogram.
///
/// Bucket `i` counts samples with `floor(log2(ns)) == i - 1`; bucket 0
/// counts zero-nanosecond samples. Buckets grow lazily, so a histogram that
/// only ever sees microsecond-scale values serializes compactly. Histograms
/// from different sweep workers [`merge`](Histogram::merge) losslessly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Occupied log₂ buckets, lowest first.
    buckets: Vec<u64>,
    /// Samples recorded.
    count: u64,
    /// Sum of all samples, in nanoseconds.
    sum: u64,
    /// Smallest sample seen (0 when empty).
    min: u64,
    /// Largest sample seen.
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index of a nanosecond value: 0 for 0, else `floor(log2) + 1`.
    fn bucket_of(ns: u64) -> usize {
        (64 - ns.leading_zeros()) as usize
    }

    /// Extends the occupied buckets to `len`. The first growth reserves
    /// room for every bucket a `u64` can reach, so a histogram allocates
    /// once however far its samples later spread.
    fn grow_to(&mut self, len: usize) {
        if self.buckets.len() < len {
            self.buckets
                .reserve_exact(Self::bucket_of(u64::MAX) + 1 - self.buckets.len());
            self.buckets.resize(len, 0);
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let b = Self::bucket_of(ns);
        self.grow_to(b + 1);
        self.buckets[b] += 1;
        if self.count == 0 || ns < self.min {
            self.min = ns;
        }
        self.max = self.max.max(ns);
        self.count += 1;
        self.sum += ns;
    }

    /// Folds another histogram in (sweep workers merge into one registry).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.grow_to(other.buckets.len());
        for (b, n) in other.buckets.iter().enumerate() {
            self.buckets[b] += n;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile in nanoseconds (`0.0 < q <= 1.0`), from the
    /// log₂ buckets: the upper bound of the bucket holding the
    /// `ceil(q · count)`-th sample, clamped to the observed `[min, max]`
    /// range so p100 is exact and single-bucket histograms report exactly.
    /// Returns 0 when empty. Deterministic: a pure function of the recorded
    /// samples, so merged worker histograms report identical quantiles
    /// regardless of merge order.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.count == 0 {
            return 0;
        }
        // ceil(q * count) without floating-point edge surprises at q=1.0.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let hi = if b == 0 { 0 } else { (1u64 << b) - 1 };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// `(lower_ns, upper_ns, count)` for each occupied bucket — the shape a
    /// textual or JSON rendering wants.
    pub fn occupied_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(b, n)| {
                let (lo, hi) = if b == 0 {
                    (0, 0)
                } else {
                    (1u64 << (b - 1), (1u64 << b) - 1)
                };
                (lo, hi, *n)
            })
            .collect()
    }
}

/// Per-event-kind counters, reconcilable against [`TranslationStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// [`Event::Lookup`] events.
    pub lookups: u64,
    /// [`Event::CheckMiss`] events.
    pub check_misses: u64,
    /// [`Event::NiMiss`] events.
    pub ni_misses: u64,
    /// [`Event::DmaFetch`] events (one per transfer).
    pub dma_fetches: u64,
    /// Total entries moved across all [`Event::DmaFetch`] events.
    pub entries_fetched: u64,
    /// [`Event::Interrupt`] events.
    pub interrupts: u64,
    /// Total pages pinned across all [`Event::Pin`] events.
    pub pins: u64,
    /// [`Event::Pin`] events (driver calls).
    pub pin_calls: u64,
    /// [`Event::Unpin`] events (one page each).
    pub unpins: u64,
    /// [`Event::Evict`] events.
    pub evictions: u64,
    /// [`Event::SwapIn`] events.
    pub swap_ins: u64,
    /// [`Event::Wait`] events (one per station acquisition under the
    /// discrete-event runner, zero-delay acquisitions included).
    pub waits: u64,
    /// [`Event::Connect`] events (request-plane handshakes completed).
    pub connects: u64,
    /// [`Event::Close`] events (request-plane graceful closes).
    pub closes: u64,
    /// [`Event::Backpressure`] events (credit-window admission stalls).
    pub backpressure: u64,
}

/// The latency metrics registry: one histogram per charged phase plus the
/// event counters. One registry per run; sweep workers each fill their own
/// and [`merge`](Metrics::merge) afterwards.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Event counters.
    pub counts: EventCounts,
    /// End-to-end per-page lookup latency.
    pub lookup_ns: Histogram,
    /// Driver pin-call latency.
    pub pin_ns: Histogram,
    /// Driver unpin-call latency.
    pub unpin_ns: Histogram,
    /// Translation-entry DMA latency.
    pub dma_ns: Histogram,
    /// Host interrupt dispatch latency.
    pub intr_ns: Histogram,
    /// Queueing delay behind the NIC firmware processor
    /// ([`WaitResource::Firmware`]).
    pub fw_wait_ns: Histogram,
    /// Queueing delay behind the DMA engine ([`WaitResource::DmaEngine`]).
    pub dma_wait_ns: Histogram,
    /// Queueing delay behind the I/O bus ([`WaitResource::Bus`]).
    pub bus_wait_ns: Histogram,
    /// Queueing delay behind host interrupt service
    /// ([`WaitResource::IntrService`]).
    pub intr_wait_ns: Histogram,
    /// Queueing delay behind the shared host memory system
    /// ([`WaitResource::HostMem`]) — populated only by the cluster runner,
    /// where pin work from many boards funnels through one station.
    pub host_mem_wait_ns: Histogram,
    /// Credit-window admission stall latency ([`Event::Backpressure`]) —
    /// populated only by the request-plane front end
    /// (`utlb-sim::frontend`).
    pub backpressure_ns: Histogram,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Routes one event into the counters and histograms.
    pub fn record(&mut self, event: Event) {
        match event {
            Event::Lookup { ns } => {
                self.counts.lookups += 1;
                self.lookup_ns.record(ns);
            }
            Event::CheckMiss => self.counts.check_misses += 1,
            Event::NiMiss => self.counts.ni_misses += 1,
            Event::DmaFetch { entries, ns } => {
                self.counts.dma_fetches += 1;
                self.counts.entries_fetched += entries;
                self.dma_ns.record(ns);
            }
            Event::Interrupt { ns } => {
                self.counts.interrupts += 1;
                self.intr_ns.record(ns);
            }
            Event::Pin { run, ns } => {
                self.counts.pins += run;
                self.counts.pin_calls += 1;
                self.pin_ns.record(ns);
            }
            Event::Unpin { ns } => {
                self.counts.unpins += 1;
                self.unpin_ns.record(ns);
            }
            Event::Evict { .. } => self.counts.evictions += 1,
            Event::SwapIn => self.counts.swap_ins += 1,
            Event::Wait { resource, ns } => {
                self.counts.waits += 1;
                match resource {
                    WaitResource::Firmware => self.fw_wait_ns.record(ns),
                    WaitResource::DmaEngine => self.dma_wait_ns.record(ns),
                    WaitResource::Bus => self.bus_wait_ns.record(ns),
                    WaitResource::IntrService => self.intr_wait_ns.record(ns),
                    WaitResource::HostMem => self.host_mem_wait_ns.record(ns),
                }
            }
            Event::Connect => self.counts.connects += 1,
            Event::Close => self.counts.closes += 1,
            Event::Backpressure { ns } => {
                self.counts.backpressure += 1;
                self.backpressure_ns.record(ns);
            }
        }
    }

    /// Total queueing delay across all stations, in nanoseconds — the
    /// contention surcharge on top of the serial cost model.
    pub fn total_wait_ns(&self) -> u64 {
        self.fw_wait_ns.sum_ns()
            + self.dma_wait_ns.sum_ns()
            + self.bus_wait_ns.sum_ns()
            + self.intr_wait_ns.sum_ns()
            + self.host_mem_wait_ns.sum_ns()
    }

    /// Folds another registry in.
    pub fn merge(&mut self, other: &Metrics) {
        let c = &mut self.counts;
        let o = other.counts;
        c.lookups += o.lookups;
        c.check_misses += o.check_misses;
        c.ni_misses += o.ni_misses;
        c.dma_fetches += o.dma_fetches;
        c.entries_fetched += o.entries_fetched;
        c.interrupts += o.interrupts;
        c.pins += o.pins;
        c.pin_calls += o.pin_calls;
        c.unpins += o.unpins;
        c.evictions += o.evictions;
        c.swap_ins += o.swap_ins;
        c.waits += o.waits;
        c.connects += o.connects;
        c.closes += o.closes;
        c.backpressure += o.backpressure;
        self.lookup_ns.merge(&other.lookup_ns);
        self.pin_ns.merge(&other.pin_ns);
        self.unpin_ns.merge(&other.unpin_ns);
        self.dma_ns.merge(&other.dma_ns);
        self.intr_ns.merge(&other.intr_ns);
        self.fw_wait_ns.merge(&other.fw_wait_ns);
        self.dma_wait_ns.merge(&other.dma_wait_ns);
        self.bus_wait_ns.merge(&other.bus_wait_ns);
        self.intr_wait_ns.merge(&other.intr_wait_ns);
        self.host_mem_wait_ns.merge(&other.host_mem_wait_ns);
        self.backpressure_ns.merge(&other.backpressure_ns);
    }

    /// Cross-checks the event-derived totals against an engine's own
    /// counters. Returns one human-readable line per mismatch; empty means
    /// the two accountings agree exactly.
    pub fn reconcile(&self, stats: &TranslationStats) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, obs: u64, eng: u64| {
            if obs != eng {
                out.push(format!("{name}: observed {obs} != engine {eng}"));
            }
        };
        check("lookups", self.counts.lookups, stats.lookups);
        check("check_misses", self.counts.check_misses, stats.check_misses);
        check("ni_misses", self.counts.ni_misses, stats.ni_misses);
        check("pins", self.counts.pins, stats.pins);
        check("pin_calls", self.counts.pin_calls, stats.pin_calls);
        check("unpins", self.counts.unpins, stats.unpins);
        check("unpin_calls", self.counts.unpins, stats.unpin_calls);
        check(
            "entries_fetched",
            self.counts.entries_fetched,
            stats.entries_fetched,
        );
        check("interrupts", self.counts.interrupts, stats.interrupts);
        check("pin_time_ns", self.pin_ns.sum_ns(), stats.pin_time_ns);
        check("unpin_time_ns", self.unpin_ns.sum_ns(), stats.unpin_time_ns);
        out
    }
}

impl Probe for Metrics {
    fn on_event(&mut self, _pid: ProcessId, event: Event) {
        self.record(event);
    }
}

/// One recorded event with its global sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Position in the run's global event order (starts at 0).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// The ring dump for one process, as serialized by an obs export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessTrace {
    /// Raw process id.
    pub pid: u32,
    /// Events discarded because the ring was full.
    pub dropped: u64,
    /// The most recent events, oldest first.
    pub events: Vec<TimedEvent>,
}

/// A bounded ring of the last `capacity` events per process — enough to
/// explain *how* a run reached a surprising state without retaining the
/// full event stream.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    capacity: usize,
    rings: HashMap<ProcessId, (VecDeque<TimedEvent>, u64)>,
    seq: u64,
}

impl TraceRecorder {
    /// A recorder keeping the last `capacity` events per process.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a ring that can hold nothing records
    /// nothing and hides the misconfiguration.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be at least 1");
        TraceRecorder {
            capacity,
            rings: HashMap::new(),
            seq: 0,
        }
    }

    /// Per-process ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event for `pid`, evicting the oldest if the ring is full.
    pub fn record(&mut self, pid: ProcessId, event: Event) {
        let entry = self
            .rings
            .entry(pid)
            .or_insert_with(|| (VecDeque::with_capacity(self.capacity.min(64)), 0));
        if entry.0.len() == self.capacity {
            entry.0.pop_front();
            entry.1 += 1;
        }
        entry.0.push_back(TimedEvent {
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// The retained events of `pid`, oldest first (empty if unknown).
    pub fn events(&self, pid: ProcessId) -> Vec<TimedEvent> {
        self.rings
            .get(&pid)
            .map(|(ring, _)| ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All rings, sorted by pid — the post-mortem dump.
    pub fn dump(&self) -> Vec<ProcessTrace> {
        let mut out: Vec<ProcessTrace> = self
            .rings
            .iter()
            .map(|(pid, (ring, dropped))| ProcessTrace {
                pid: pid.raw(),
                dropped: *dropped,
                events: ring.iter().copied().collect(),
            })
            .collect();
        out.sort_by_key(|t| t.pid);
        out
    }
}

impl Probe for TraceRecorder {
    fn on_event(&mut self, pid: ProcessId, event: Event) {
        self.record(pid, event);
    }
}

/// The standard probe stack: metrics registry + bounded event recorder.
#[derive(Debug, Clone)]
pub struct ObsCollector {
    /// Counters and latency histograms.
    pub metrics: Metrics,
    /// Last-events ring per process; `None` for a metrics-only collector.
    pub recorder: Option<TraceRecorder>,
}

impl ObsCollector {
    /// A collector whose recorder keeps `ring_capacity` events per process.
    pub fn new(ring_capacity: usize) -> Self {
        ObsCollector {
            metrics: Metrics::new(),
            recorder: Some(TraceRecorder::new(ring_capacity)),
        }
    }

    /// A collector that keeps metrics and no event rings: for runs that
    /// report only totals, where a ring per process would grow with the
    /// number of processes ever seen.
    pub fn metrics_only() -> Self {
        ObsCollector {
            metrics: Metrics::new(),
            recorder: None,
        }
    }
}

impl Probe for ObsCollector {
    fn on_event(&mut self, pid: ProcessId, event: Event) {
        self.metrics.record(event);
        if let Some(recorder) = &mut self.recorder {
            recorder.record(pid, event);
        }
    }
}

/// A cloneable handle to an [`ObsCollector`]: hand [`boxed`] copies to
/// engines, keep one handle, and [`snapshot`] after the run. Single-threaded
/// by design — each sweep worker builds its own collector and the merged
/// [`Metrics`] cross threads as plain data.
///
/// [`boxed`]: SharedCollector::boxed
/// [`snapshot`]: SharedCollector::snapshot
#[derive(Debug, Clone)]
pub struct SharedCollector(Rc<RefCell<ObsCollector>>);

impl SharedCollector {
    /// A fresh collector with the given per-process ring capacity.
    pub fn new(ring_capacity: usize) -> Self {
        SharedCollector(Rc::new(RefCell::new(ObsCollector::new(ring_capacity))))
    }

    /// A fresh [`ObsCollector::metrics_only`] collector.
    pub fn metrics_only() -> Self {
        SharedCollector(Rc::new(RefCell::new(ObsCollector::metrics_only())))
    }

    /// A boxed probe for an engine, sharing this collector.
    pub fn boxed(&self) -> Box<dyn Probe> {
        Box::new(self.clone())
    }

    /// A copy of the collector's current state.
    pub fn snapshot(&self) -> ObsCollector {
        self.0.borrow().clone()
    }
}

impl Probe for SharedCollector {
    fn on_event(&mut self, pid: ProcessId, event: Event) {
        self.0.borrow_mut().on_event(pid, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for ns in [0, 1, 2, 3, 4, 1000, 1024] {
            h.record(ns);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum_ns(), 2034);
        assert_eq!(h.max_ns(), 1024);
        let occupied = h.occupied_buckets();
        // 0 → [0,0]; 1 → [1,1]; 2,3 → [2,3]; 4 → [4,7]; 1000 → [512,1023];
        // 1024 → [1024,2047].
        assert_eq!(
            occupied,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 1),
                (512, 1023, 1),
                (1024, 2047, 1),
            ]
        );
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        // 100 samples: 90 at 100 ns, 9 at 1000 ns, 1 at 100_000 ns.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(1000);
        }
        h.record(100_000);
        // p50 and p90 land in the [64,127] bucket → upper bound 127.
        assert_eq!(h.quantile_ns(0.5), 127);
        assert_eq!(h.quantile_ns(0.9), 127);
        // p99 lands in the [512,1023] bucket.
        assert_eq!(h.quantile_ns(0.99), 1023);
        // p99.9 and p100 hit the top sample's bucket, clamped to max.
        assert_eq!(h.quantile_ns(0.999), 100_000);
        assert_eq!(h.quantile_ns(1.0), 100_000);
        // Quantiles clamp to [min, max]: a single-valued histogram reports
        // the exact value at every quantile.
        let mut single = Histogram::new();
        single.record(300);
        assert_eq!(single.quantile_ns(0.5), 300);
        assert_eq!(single.quantile_ns(0.999), 300);
        assert_eq!(Histogram::new().quantile_ns(0.5), 0);
    }

    #[test]
    fn histogram_quantiles_survive_merge_in_any_order() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for ns in [10, 20, 5000] {
            a.record(ns);
        }
        for ns in [15, 700_000] {
            b.record(ns);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(ab.quantile_ns(q), ba.quantile_ns(q));
        }
    }

    #[test]
    fn frontend_events_route_and_merge() {
        let mut m = Metrics::new();
        m.record(Event::Connect);
        m.record(Event::Connect);
        m.record(Event::Close);
        m.record(Event::Backpressure { ns: 4000 });
        assert_eq!(m.counts.connects, 2);
        assert_eq!(m.counts.closes, 1);
        assert_eq!(m.counts.backpressure, 1);
        assert_eq!(m.backpressure_ns.sum_ns(), 4000);
        let mut other = Metrics::new();
        other.record(Event::Backpressure { ns: 1000 });
        other.record(Event::Close);
        m.merge(&other);
        assert_eq!(m.counts.backpressure, 2);
        assert_eq!(m.counts.closes, 2);
        assert_eq!(m.backpressure_ns.count(), 2);
        // Frontend events do not perturb engine reconciliation.
        assert!(m.reconcile(&TranslationStats::default()).is_empty());
    }

    #[test]
    fn histogram_merge_is_lossless() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for ns in [5, 90, 700] {
            a.record(ns);
            whole.record(ns);
        }
        for ns in [1, 40_000] {
            b.record(ns);
            whole.record(ns);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        // Merging an empty histogram is the identity.
        a.merge(&Histogram::new());
        assert_eq!(a, whole);
        // Merging into an empty histogram copies.
        let mut empty = Histogram::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn metrics_route_events_and_reconcile() {
        let mut m = Metrics::new();
        m.record(Event::Lookup { ns: 1000 });
        m.record(Event::Lookup { ns: 3000 });
        m.record(Event::CheckMiss);
        m.record(Event::NiMiss);
        m.record(Event::DmaFetch {
            entries: 4,
            ns: 1500,
        });
        m.record(Event::Interrupt { ns: 10_000 });
        m.record(Event::Pin { run: 8, ns: 47_000 });
        m.record(Event::Unpin { ns: 25_000 });
        m.record(Event::Evict {
            reason: EvictReason::MemLimit,
        });
        m.record(Event::SwapIn);
        m.record(Event::Wait {
            resource: WaitResource::Bus,
            ns: 64,
        });
        m.record(Event::Wait {
            resource: WaitResource::IntrService,
            ns: 5_000,
        });
        assert_eq!(m.counts.lookups, 2);
        assert_eq!(m.counts.entries_fetched, 4);
        assert_eq!(m.counts.pins, 8);
        assert_eq!(m.counts.pin_calls, 1);
        assert_eq!(m.counts.evictions, 1);
        assert_eq!(m.counts.swap_ins, 1);
        assert_eq!(m.counts.waits, 2);
        assert_eq!(m.lookup_ns.mean_ns(), 2000.0);
        assert_eq!(m.bus_wait_ns.sum_ns(), 64);
        assert_eq!(m.intr_wait_ns.sum_ns(), 5_000);
        assert_eq!(m.fw_wait_ns.count(), 0);
        assert_eq!(m.total_wait_ns(), 5_064);

        let stats = TranslationStats {
            lookups: 2,
            check_misses: 1,
            ni_misses: 1,
            pins: 8,
            unpins: 1,
            pin_calls: 1,
            unpin_calls: 1,
            entries_fetched: 4,
            interrupts: 1,
            pin_time_ns: 47_000,
            unpin_time_ns: 25_000,
        };
        assert!(m.reconcile(&stats).is_empty());
        let off = TranslationStats {
            lookups: 3,
            ..stats
        };
        let mismatches = m.reconcile(&off);
        assert_eq!(mismatches.len(), 1);
        assert!(mismatches[0].contains("lookups"));
    }

    #[test]
    fn metrics_merge_adds_everything() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.record(Event::Lookup { ns: 10 });
        a.record(Event::Pin { run: 2, ns: 100 });
        b.record(Event::Lookup { ns: 20 });
        b.record(Event::Unpin { ns: 50 });
        a.merge(&b);
        assert_eq!(a.counts.lookups, 2);
        assert_eq!(a.counts.pins, 2);
        assert_eq!(a.counts.unpins, 1);
        assert_eq!(a.lookup_ns.sum_ns(), 30);
        assert_eq!(a.unpin_ns.sum_ns(), 50);
    }

    #[test]
    fn recorder_ring_keeps_the_tail() {
        let mut r = TraceRecorder::new(3);
        for i in 0..5 {
            r.record(pid(1), Event::Lookup { ns: i });
        }
        r.record(pid(2), Event::CheckMiss);
        let one = r.events(pid(1));
        assert_eq!(one.len(), 3);
        assert_eq!(one[0].seq, 2, "oldest two were evicted");
        assert_eq!(one[2].event, Event::Lookup { ns: 4 });
        assert_eq!(r.events(pid(7)), Vec::new());
        let dump = r.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].pid, 1);
        assert_eq!(dump[0].dropped, 2);
        assert_eq!(dump[1].pid, 2);
        assert_eq!(dump[1].dropped, 0);
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_capacity_recorder_panics() {
        TraceRecorder::new(0);
    }

    #[test]
    fn probe_slot_emits_only_when_attached() {
        #[derive(Debug, Default)]
        struct Counting(u64);
        impl Probe for Counting {
            fn on_event(&mut self, _pid: ProcessId, _event: Event) {
                self.0 += 1;
            }
        }
        let mut slot = ProbeSlot::detached();
        assert!(!slot.is_attached());
        slot.emit(pid(1), Event::CheckMiss); // goes nowhere
        slot.attach(Box::new(Counting::default()));
        assert!(slot.is_attached());
        slot.emit(pid(1), Event::CheckMiss);
        slot.emit(pid(1), Event::NiMiss);
        let probe = slot.detach().expect("attached");
        let text = format!("{probe:?}");
        assert!(text.contains("Counting(2)"), "saw both events: {text}");
        assert!(slot.detach().is_none());
    }

    #[test]
    fn shared_collector_snapshot_sees_engine_side_events() {
        let shared = SharedCollector::new(8);
        let mut boxed = shared.boxed();
        boxed.on_event(pid(3), Event::Pin { run: 1, ns: 27_000 });
        boxed.on_event(pid(3), Event::Lookup { ns: 900 });
        let snap = shared.snapshot();
        assert_eq!(snap.metrics.counts.pins, 1);
        assert_eq!(snap.recorder.expect("ring kept").events(pid(3)).len(), 2);
    }

    #[test]
    fn metrics_only_collector_counts_without_rings() {
        let shared = SharedCollector::metrics_only();
        let mut boxed = shared.boxed();
        boxed.on_event(pid(3), Event::Pin { run: 1, ns: 27_000 });
        boxed.on_event(pid(4), Event::Lookup { ns: 900 });
        let snap = shared.snapshot();
        assert_eq!(snap.metrics.counts.pins, 1);
        assert_eq!(snap.metrics.counts.lookups, 1);
        assert!(snap.recorder.is_none());
    }

    #[test]
    fn events_serialize_roundtrip() {
        let events = vec![
            Event::Lookup { ns: 1 },
            Event::DmaFetch {
                entries: 8,
                ns: 2500,
            },
            Event::Evict {
                reason: EvictReason::CacheConflict,
            },
            Event::Wait {
                resource: WaitResource::DmaEngine,
                ns: 1468,
            },
            Event::Wait {
                resource: WaitResource::Firmware,
                ns: 0,
            },
            Event::Wait {
                resource: WaitResource::HostMem,
                ns: 312,
            },
            Event::Connect,
            Event::Close,
            Event::Backpressure { ns: 777 },
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<Event> = serde_json::from_str(&json).unwrap();
        assert_eq!(events, back);
    }
}
