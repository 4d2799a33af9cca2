//! The traced run: host time split by crate, measured from outside.
//!
//! Every layer is timed at the public call boundary into its crate:
//!
//! * [`Timed`] wraps a mechanism and times the calls `utlb-sim` makes into
//!   `utlb-core` (lookups, registrations, unregistrations). It delegates
//!   every method, `lookup_run_into` included, so each engine keeps its own
//!   fast path.
//! * [`TimedStream`] wraps a `TraceStream` and times the pulls into
//!   `utlb-trace`: around the whole input (`trace.pull`) and around each
//!   per-process generator before the k-way merge (`trace.gen`).
//!
//! Spans stay in memory: one raw span per cell execution, and per (cell,
//! layer) an aggregate of call count, total time and a log₂ histogram. A
//! cell's self time is its span minus its top-level children, so children
//! plus self equal the cell span by construction. Clustered cells build
//! their engines inside `utlb-sim`, so they get a cell span and result
//! counts only.

use crate::measure::{timed_pass, warm_up, Passes, Prepared};
use crate::metrics::{frames, mech_key, Values};
use crate::stats::median;
use crate::workload::{looped, Cell, CellResult, Inputs, Raw, Source, Workload, HOT_APP};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use utlb_core::obs::{Histogram, Probe};
use utlb_core::{
    CacheStats, LookupBatch, OutcomeBuf, PageOutcome, TranslationMechanism, TranslationStats,
};
use utlb_mem::{Host, ProcessId, VirtPage};
use utlb_msg::{Frame, FRAME_BYTES};
use utlb_nic::Board;
use utlb_sim::{Live, Mechanism, Run, STREAM_CHUNK};
use utlb_trace::{
    fill_chunk, gen, merge_trace_streams, GenConfig, MergedStream, ProcessStream, SplashApp, Trace,
    TraceRecord, TraceStream, TraceView,
};

/// The layers a cell's span is split into, in the order the arrays below
/// index them.
pub const LAYERS: [&str; 5] = [
    "trace.pull",
    "trace.gen",
    "core.lookup",
    "core.register",
    "core.unregister",
];
const PULL: usize = 0;
const GEN: usize = 1;
const LOOKUP: usize = 2;
const REGISTER: usize = 3;
const UNREGISTER: usize = 4;
/// Each layer's parent layer; `None` is the cell itself.
const PARENT: [Option<usize>; 5] = [None, Some(PULL), None, None, None];

/// Records a traced stream pulls per refill of its buffer. Per-record clock
/// reads would cost more than the merge they measure, so a traced stream
/// pulls its inner stream a chunk at a time and times the chunk.
const GEN_CHUNK: usize = 256;

/// Timed passes a traced run makes at least, untraced and traced each.
const MIN_TRACE_PASSES: usize = 3;
/// Repeats of each reference measurement (serial replays, the single-board
/// cells `live-cluster` is held against, the traced trace generation).
const REF_PASSES: usize = 3;

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A mechanism whose calls from `utlb-sim` are timed.
pub struct Timed {
    inner: Box<dyn TranslationMechanism>,
    /// `lookup_run`/`lookup_run_into` calls.
    pub lookup: Histogram,
    /// `register_process` calls.
    pub register: Histogram,
    /// `unregister_process` calls.
    pub unregister: Histogram,
    /// Pages looked up.
    pub pages: u64,
    /// Pages that hit: neither a check miss nor a NIC miss.
    pub hit_pages: u64,
}

impl std::fmt::Debug for Timed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timed")
            .field("inner", &self.inner.name())
            .field("pages", &self.pages)
            .finish_non_exhaustive()
    }
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn TranslationMechanism>) -> Self {
        Timed {
            inner,
            lookup: Histogram::new(),
            register: Histogram::new(),
            unregister: Histogram::new(),
            pages: 0,
            hit_pages: 0,
        }
    }

    fn count(&mut self, pages: &[PageOutcome]) {
        self.pages += pages.len() as u64;
        self.hit_pages += pages.iter().filter(|p| !p.check_miss && !p.ni_miss).count() as u64;
    }
}

impl TranslationMechanism for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kernel_pins(&self) -> bool {
        self.inner.kernel_pins()
    }

    fn register_process(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
    ) -> utlb_core::Result<()> {
        let t = Instant::now();
        let r = self.inner.register_process(host, board, pid);
        self.register.record(elapsed_ns(t));
        r
    }

    fn unregister_process(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
    ) -> utlb_core::Result<()> {
        let t = Instant::now();
        let r = self.inner.unregister_process(host, board, pid);
        self.unregister.record(elapsed_ns(t));
        r
    }

    fn lookup_run(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        start: VirtPage,
        npages: u64,
    ) -> utlb_core::Result<Vec<PageOutcome>> {
        let t = Instant::now();
        let r = self.inner.lookup_run(host, board, pid, start, npages);
        self.lookup.record(elapsed_ns(t));
        if let Ok(pages) = &r {
            self.count(pages);
        }
        r
    }

    fn lookup_run_into(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        batch: LookupBatch,
        out: &mut OutcomeBuf,
    ) -> utlb_core::Result<()> {
        let before = out.len();
        let t = Instant::now();
        let r = self.inner.lookup_run_into(host, board, batch, out);
        self.lookup.record(elapsed_ns(t));
        self.count(&out.as_slice()[before..]);
        r
    }

    fn stats(&self, pid: ProcessId) -> utlb_core::Result<TranslationStats> {
        self.inner.stats(pid)
    }

    fn aggregate_stats(&self) -> TranslationStats {
        self.inner.aggregate_stats()
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn set_probe(&mut self, probe: Box<dyn Probe>) -> Option<Box<dyn Probe>> {
        self.inner.set_probe(probe)
    }

    fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.inner.take_probe()
    }
}

/// A trace stream whose pulls into its inner stream are timed, a chunk at
/// a time, into a shared aggregate. It yields exactly the inner stream's
/// records, so a run over it is byte-identical to one over the inner
/// stream.
#[derive(Debug)]
pub struct TimedStream<S> {
    inner: S,
    buf: Vec<TraceRecord>,
    pos: usize,
    chunk: usize,
    spans: Rc<RefCell<Histogram>>,
}

impl<S: TraceStream> TimedStream<S> {
    /// Wraps `inner`, refilling `chunk` records at a time and recording
    /// each refill's duration into `spans`.
    pub fn new(inner: S, chunk: usize, spans: &Rc<RefCell<Histogram>>) -> Self {
        TimedStream {
            inner,
            buf: Vec::with_capacity(chunk),
            pos: 0,
            chunk,
            spans: Rc::clone(spans),
        }
    }
}

impl<S: TraceStream> TraceStream for TimedStream<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.pos == self.buf.len() {
            let t = Instant::now();
            fill_chunk(&mut self.inner, &mut self.buf, self.chunk);
            self.spans.borrow_mut().record(elapsed_ns(t));
            self.pos = 0;
        }
        let r = self.buf.get(self.pos).copied();
        self.pos += usize::from(r.is_some());
        r
    }

    fn remaining(&self) -> u64 {
        self.inner.remaining() + (self.buf.len() - self.pos) as u64
    }

    fn workload(&self) -> &str {
        self.inner.workload()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn process_ids(&self) -> Vec<ProcessId> {
        self.inner.process_ids()
    }
}

/// `gen::stream(app, cfg)` with each per-process generator wrapped in a
/// [`TimedStream`] before the merge — the same records in the same order.
fn timed_generator(
    app: SplashApp,
    cfg: &GenConfig,
    gen_spans: &Rc<RefCell<Histogram>>,
) -> MergedStream<TimedStream<ProcessStream>> {
    let streams = gen::process_streams(app, cfg)
        .into_iter()
        .map(|s| TimedStream::new(s, GEN_CHUNK, gen_spans))
        .collect();
    merge_trace_streams(streams, app.name(), cfg.seed)
}

/// One traced cell execution.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// Span start, ns since the traced run began.
    pub start_ns: u64,
    /// Span end, same origin.
    pub end_ns: u64,
    /// Per-layer aggregates, indexed as [`LAYERS`].
    pub layers: [Histogram; 5],
    /// Pages the engine looked up.
    pub pages: u64,
    /// Pages that hit.
    pub hit_pages: u64,
}

impl CellTrace {
    /// The cell span's duration.
    pub fn cell_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Total time in layer `l`.
    pub fn layer_ns(&self, l: usize) -> u64 {
        self.layers[l].sum_ns()
    }

    /// Time of the span with layer `parent` (`None`: the cell) not covered
    /// by its child layers. Negative only if children overlapped, which a
    /// check rejects.
    pub fn self_ns(&self, parent: Option<usize>) -> i64 {
        let total = parent.map_or(self.cell_ns(), |l| self.layer_ns(l));
        let children: u64 = (0..LAYERS.len())
            .filter(|&l| PARENT[l] == parent)
            .map(|l| self.layer_ns(l))
            .sum();
        total as i64 - children as i64
    }
}

/// Executes `cell` traced. `epoch` is the origin of span timestamps.
pub fn execute_traced(inputs: &Inputs, cell: Cell, epoch: Instant) -> (Raw, CellTrace) {
    let gen_spans = Rc::new(RefCell::new(Histogram::new()));
    let pull_spans = Rc::new(RefCell::new(Histogram::new()));
    let start = Instant::now();
    let mut timed = Timed::new(cell.mech.engine(&inputs.sim));
    let run = inputs.configure(Run::with_config(&inputs.sim));
    let out = match &inputs.source {
        Source::Looped { gen } => {
            let epochs = looped(|_| timed_generator(HOT_APP, gen, &gen_spans));
            run.execute_with(
                &mut timed,
                &mut TimedStream::new(epochs, STREAM_CHUNK, &pull_spans),
            )
        }
        Source::Traces { traces, .. } => run.execute_with(
            &mut timed,
            &mut TimedStream::new(
                TraceView::new(&traces[cell.input]),
                STREAM_CHUNK,
                &pull_spans,
            ),
        ),
        Source::Live { cluster: None, .. } => run.execute_with(&mut timed, Live),
        // The cluster runner builds one engine per board itself; the
        // unused wrapper above costs one engine construction.
        Source::Live {
            cluster: Some(_), ..
        } => inputs.configure(Run::new(cell.mech)).execute(Live),
    };
    let raw = inputs.raw(out);
    let end = Instant::now();
    let since = |t: Instant| u64::try_from((t - epoch).as_nanos()).unwrap_or(u64::MAX);
    let trace = CellTrace {
        start_ns: since(start),
        end_ns: since(end),
        layers: [
            pull_spans.take(),
            gen_spans.take(),
            timed.lookup,
            timed.register,
            timed.unregister,
        ],
        pages: timed.pages,
        hit_pages: timed.hit_pages,
    };
    (raw, trace)
}

/// One traced pass, appended to `traces` (`[cell][pass]`): like
/// [`timed_pass`], with every cell traced and held against the untraced
/// reference digest.
fn traced_pass(p: &mut Prepared, epoch: Instant, traces: &mut [Vec<CellTrace>]) {
    for (i, runs) in traces.iter_mut().enumerate() {
        let pass = runs.len() + 1;
        let (raw, t) = execute_traced(&p.inputs, p.cells[i], epoch);
        let digest = raw.summarize().digest;
        if digest != p.reference[i].digest {
            let why = format!(
                "{}: traced pass {pass} digest {digest:016x} != untraced {:016x}",
                p.labels[i], p.reference[i].digest
            );
            p.fail(i, why);
        }
        if t.self_ns(None) < 0 || t.self_ns(Some(PULL)) < 0 {
            let why = format!(
                "{}: traced pass {pass}: child spans exceed their parent",
                p.labels[i]
            );
            p.fail(i, why);
        }
        runs.push(t);
    }
}

/// `setup`'s trace generation for `replay-thrash`, traced: the generator
/// and merge time per record, and whether the traced generation produced
/// exactly the untraced traces.
fn traced_generation(traces: &[Trace], gen: &GenConfig) -> (f64, f64, bool) {
    let mut gen_ns = Vec::new();
    let mut merge_ns = Vec::new();
    let mut identical = true;
    for _ in 0..REF_PASSES {
        let gen_spans = Rc::new(RefCell::new(Histogram::new()));
        let pull_spans = Rc::new(RefCell::new(Histogram::new()));
        for want in traces {
            let app = SplashApp::ALL
                .into_iter()
                .find(|a| a.name() == want.workload)
                .expect("setup generated every trace from an application");
            let merged = timed_generator(app, gen, &gen_spans);
            let got = TimedStream::new(merged, STREAM_CHUNK, &pull_spans).collect_trace();
            identical &= got == *want;
        }
        let (g, pull) = (gen_spans.take().sum_ns(), pull_spans.take().sum_ns());
        gen_ns.push(g as f64);
        merge_ns.push(pull as f64 - g as f64);
    }
    let records: usize = traces.iter().map(|t| t.records.len()).sum();
    (
        median(&gen_ns) / records as f64,
        median(&merge_ns) / records as f64,
        identical,
    )
}

/// Host ns per frame of `Frame::encode_into` + `Frame::decode` over the
/// frame mix `results` moved, timed in isolation.
pub fn codec_ns_per_frame(results: &[CellResult]) -> f64 {
    let live: Vec<_> = results.iter().filter_map(|r| r.live).collect();
    let total = |f: fn(&crate::workload::LiveView) -> u64| live.iter().map(f).sum::<u64>();
    let mix: [(u64, Frame); 7] = [
        (
            total(|l| l.connections),
            Frame::Hello {
                client: 7,
                buffer_bytes: 1 << 18,
            },
        ),
        (
            total(|l| l.redirects),
            Frame::Redirect {
                client: 7,
                board: 3,
            },
        ),
        (
            total(|l| l.accepted),
            Frame::Welcome {
                conn: 9,
                credits: 4,
            },
        ),
        (total(|l| l.accepted), Frame::ByeAck),
        (
            total(|l| l.offered),
            Frame::Store {
                seq: 3,
                va: 0x4000_1040,
                nbytes: 4096,
            },
        ),
        (
            total(|l| l.served),
            Frame::Done {
                seq: 3,
                latency_ns: 75_000,
            },
        ),
        (total(|l| l.admission.rejected), Frame::Busy { seq: 3 }),
    ];
    let all: u64 = mix.iter().map(|(n, _)| n).sum();
    if all == 0 {
        return 0.0;
    }
    // A 4096-frame sample in the run's proportions, kinds interleaved by a
    // fixed stride so the sequence is not one long run per kind.
    const SAMPLE: usize = 4096;
    let mut frames: Vec<Frame> = Vec::with_capacity(SAMPLE + mix.len());
    for (n, f) in mix {
        let share = ((n as f64 / all as f64) * SAMPLE as f64).round() as usize;
        frames.extend(std::iter::repeat_n(f, share.max(usize::from(n > 0))));
    }
    let len = frames.len();
    let frames: Vec<Frame> = (0..len).map(|i| frames[(i * 1031) % len]).collect();
    let mut wire = [0u8; FRAME_BYTES];
    let mut trials = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..64 {
            for f in &frames {
                black_box(f).encode_into(&mut wire);
                black_box(Frame::decode(black_box(&wire)).expect("frames round-trip"));
            }
        }
        trials.push(elapsed_ns(t) as f64 / (64 * len) as f64);
    }
    median(&trials)
}

/// Host ns `f` takes.
fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    elapsed_ns(t) as f64
}

/// `REF_PASSES` differences `a − b` of the pairs `measure` returns. Each
/// pair is timed back to back, so the host's drift between spells cancels
/// in the difference.
fn paired(mut measure: impl FnMut() -> (f64, f64)) -> Vec<f64> {
    (0..REF_PASSES)
        .map(|_| {
            let (a, b) = measure();
            a - b
        })
        .collect()
}

/// Everything a traced run measured for one workload.
#[derive(Debug)]
pub struct Traced {
    /// The prepared workload (inputs, reference results, failures).
    pub prepared: Prepared,
    /// Untraced passes.
    pub untraced: Passes,
    /// Traced passes, `[cell][pass]`.
    pub traced: Vec<Vec<CellTrace>>,
    /// Per-layer metrics measured by timing (the result-derived ones come
    /// from [`crate::metrics::from_results`]).
    pub values: Values,
}

/// The traced protocol for one workload: prepare, then untraced and traced
/// passes in alternation, then the reference measurements the derived
/// layers need.
pub fn traced_run(w: Workload, seed: u64, seconds: f64) -> Traced {
    let mut p = crate::measure::prepare(w, seed);
    p.time_setup(seed);
    trace_prepared(p, seconds)
}

/// [`traced_run`] on an already prepared workload.
pub fn trace_prepared(mut p: Prepared, seconds: f64) -> Traced {
    let w = p.inputs.workload;
    // Untraced and traced passes alternate, so each traced pass has an
    // untraced neighbour run under the same host conditions.
    let epoch = Instant::now();
    let mut untraced = Passes::new(p.cells.len());
    let mut traced = vec![Vec::new(); p.cells.len()];
    while untraced.count() < MIN_TRACE_PASSES || epoch.elapsed().as_secs_f64() < seconds {
        timed_pass(&mut p, &mut untraced);
        traced_pass(&mut p, epoch, &mut traced);
    }

    let cells = p.cells.clone();
    let med_of = |c: usize, f: &dyn Fn(&CellTrace) -> f64| {
        median(&traced[c].iter().map(f).collect::<Vec<_>>())
    };
    let lookups: f64 = p.reference.iter().map(|r| r.lookups as f64).sum();
    let records = p.records_per_pass() as f64;
    let mut v: Values = Vec::new();

    // utlb-trace: in-cell generation for the looped stream, the traced
    // setup generation for materialized traces.
    let (gen_ns, merge_ns) = match &p.inputs.source {
        Source::Looped { .. } => {
            let gen: f64 = (0..cells.len())
                .map(|c| med_of(c, &|t| t.layer_ns(GEN) as f64))
                .sum();
            let merge: f64 = (0..cells.len())
                .map(|c| med_of(c, &|t| t.self_ns(Some(PULL)) as f64))
                .sum();
            (gen / records, merge / records)
        }
        Source::Traces { gen, traces } => {
            let (g, m, identical) = traced_generation(traces, gen);
            if !identical {
                p.failures
                    .push("traced trace generation differs from setup's".to_string());
            }
            (g, m)
        }
        Source::Live { .. } => (0.0, 0.0),
    };
    v.push(("trace.gen.ns_per_record".into(), gen_ns));
    v.push(("trace.merge.ns_per_record".into(), merge_ns));

    // utlb-core, per mechanism.
    for &m in &Mechanism::ALL {
        let of: Vec<usize> = (0..cells.len()).filter(|&c| cells[c].mech == m).collect();
        let k = mech_key(m);
        let layer = |l: usize| -> (f64, f64) {
            let ns: f64 = of
                .iter()
                .map(|&c| med_of(c, &|t| t.layer_ns(l) as f64))
                .sum();
            let calls: u64 = of.iter().map(|&c| traced[c][0].layers[l].count()).sum();
            (ns, calls as f64)
        };
        let pages: u64 = of.iter().map(|&c| traced[c][0].pages).sum();
        let hits: u64 = of.iter().map(|&c| traced[c][0].hit_pages).sum();
        let per = |(ns, n): (f64, f64)| if n == 0.0 { 0.0 } else { ns / n };
        v.push((
            format!("core.lookup.ns_per_page.{k}"),
            per((layer(LOOKUP).0, pages as f64)),
        ));
        v.push((
            format!("core.lookup.hit_frac.{k}"),
            per((hits as f64, pages as f64)),
        ));
        v.push((
            format!("core.register.ns_per_call.{k}"),
            per(layer(REGISTER)),
        ));
        v.push((
            format!("core.unregister.ns_per_call.{k}"),
            per(layer(UNREGISTER)),
        ));
    }

    // utlb-des: the DES cell minus the same cell replayed serially.
    let des_host = if let Source::Traces { .. } = &p.inputs.source {
        let extra: f64 = cells
            .iter()
            .map(|&c| {
                median(&paired(|| {
                    (
                        time_ns(|| drop(black_box(p.inputs.execute(c)))),
                        time_ns(|| drop(black_box(p.inputs.execute_serial(c)))),
                    )
                }))
            })
            .sum();
        extra / lookups
    } else {
        0.0
    };
    v.push(("des.host_ns_per_lookup".into(), des_host));

    // utlb-msg, and the frontend's own share of its cells.
    let codec = if w.is_live() {
        codec_ns_per_frame(&p.reference)
    } else {
        0.0
    };
    v.push(("msg.codec.ns_per_frame".into(), codec));

    let self_ns: f64 = (0..cells.len())
        .map(|c| med_of(c, &|t| t.self_ns(None) as f64))
        .sum();
    let served: f64 = p
        .reference
        .iter()
        .filter_map(|r| r.live.map(|l| l.served as f64))
        .sum();
    v.push((
        "sim.runner.self_ns_per_lookup".into(),
        if w.is_live() { 0.0 } else { self_ns / lookups },
    ));
    v.push((
        "sim.frontend.self_ns_per_req".into(),
        if w == Workload::LiveChurn {
            (self_ns - frames(&p.reference) as f64 * codec) / served
        } else {
            0.0
        },
    ));

    // utlb-sim's cluster layer: live-cluster against the single-board
    // cells that share its configuration (Indexed and Intr), per served
    // request.
    let overhead = if let Some(inputs) = p.inputs.single_board() {
        let mut single = warm_up(inputs);
        single.check();
        p.failures.append(&mut single.failures);
        let shared: Vec<(usize, usize)> = (0..single.cells.len())
            .filter_map(|s| {
                let c = cells.iter().position(|c| c.mech == single.cells[s].mech)?;
                Some((c, s))
            })
            .collect();
        let served = |results: &[CellResult], ix: &mut dyn Iterator<Item = usize>| -> f64 {
            ix.map(|i| results[i].live.map_or(0.0, |l| l.served as f64))
                .sum()
        };
        let cluster_served = served(&p.reference, &mut shared.iter().map(|&(c, _)| c));
        let single_served = served(&single.reference, &mut shared.iter().map(|&(_, s)| s));
        median(&paired(|| {
            let cluster: f64 = shared
                .iter()
                .map(|&(c, _)| time_ns(|| drop(black_box(p.inputs.execute(cells[c])))))
                .sum();
            let one: f64 = shared
                .iter()
                .map(|&(_, s)| time_ns(|| drop(black_box(single.inputs.execute(single.cells[s])))))
                .sum();
            (cluster / cluster_served, one / single_served)
        }))
    } else {
        0.0
    };
    v.push(("sim.cluster.overhead_ns_per_req".into(), overhead));

    let overhead: Vec<f64> = (0..untraced.count())
        .map(|k| {
            let traced_ns: u64 = traced.iter().map(|runs| runs[k].cell_ns()).sum();
            traced_ns as f64 / untraced.pass_ns[k] - 1.0
        })
        .collect();
    v.push(("bench.trace_overhead_frac".into(), median(&overhead)));
    v.push(("bench.host_speed".into(), median(&untraced.speed)));

    Traced {
        prepared: p,
        untraced,
        traced,
        values: v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_cells_are_byte_identical_to_plain_ones() {
        let epoch = Instant::now();
        for w in [
            Workload::ReplayHot,
            Workload::ReplayThrash,
            Workload::LiveChurn,
        ] {
            let inputs = Inputs::small(w);
            for mech in Mechanism::ALL {
                let cell = Cell { mech, input: 0 };
                let plain = inputs.execute(cell).summarize();
                let (raw, t) = execute_traced(&inputs, cell, epoch);
                let label = inputs.label(cell);
                assert_eq!(raw.summarize().digest, plain.digest, "{label}");
                assert_eq!(t.pages, plain.lookups, "{label}");
                assert!(t.layers[LOOKUP].count() > 0, "{label}");
                assert!(t.layers[REGISTER].count() > 0, "{label}");
                assert!(t.self_ns(None) >= 0, "{label}");
                assert!(t.self_ns(Some(PULL)) >= 0, "{label}");
                let pulled = t.layers[PULL].count() > 0;
                assert_eq!(pulled, !w.is_live(), "{label}");
                assert_eq!(
                    t.layers[GEN].count() > 0,
                    w == Workload::ReplayHot,
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn timed_stream_yields_the_inner_stream_exactly() {
        let cfg = GenConfig {
            seed: 9,
            scale: 0.03,
            app_processes: 4,
        };
        let spans = Rc::new(RefCell::new(Histogram::new()));
        let gen_spans = Rc::new(RefCell::new(Histogram::new()));
        let merged = timed_generator(SplashApp::Fft, &cfg, &gen_spans);
        let traced = TimedStream::new(merged, 100, &spans).collect_trace();
        assert_eq!(traced, gen::generate(SplashApp::Fft, &cfg));
        let records = traced.records.len() as u64;
        assert_eq!(spans.borrow().count(), records.div_ceil(100) + 1);
        assert!(
            gen_spans.borrow().count() >= 5,
            "one span per generator at least"
        );
    }

    #[test]
    fn children_and_self_time_sum_to_the_cell_span() {
        let mut t = CellTrace {
            start_ns: 100,
            end_ns: 1100,
            ..CellTrace::default()
        };
        for (l, ns) in [(PULL, 300), (GEN, 120), (LOOKUP, 400), (REGISTER, 50)] {
            t.layers[l].record(ns);
        }
        assert_eq!(t.self_ns(None), 1000 - 300 - 400 - 50);
        assert_eq!(t.self_ns(Some(PULL)), 300 - 120);
        let children: u64 = (0..LAYERS.len())
            .filter(|&l| PARENT[l].is_none())
            .map(|l| t.layer_ns(l))
            .sum();
        assert_eq!(children as i64 + t.self_ns(None), t.cell_ns() as i64);
    }

    #[test]
    fn codec_mix_follows_the_run_counts() {
        assert_eq!(codec_ns_per_frame(&[]), 0.0);
        let inputs = Inputs::small(Workload::LiveChurn);
        let r = inputs.execute(inputs.cells()[0]).summarize();
        assert!(codec_ns_per_frame(std::slice::from_ref(&r)) > 0.0);
    }
}
