//! Pattern primitives shared by the workload generators.
//!
//! Generators compose a handful of access shapes — sequential passes,
//! strided passes, sliding-window walks, task tiles, random scatters — into
//! per-process record streams. The primitives guarantee two calibration
//! properties the study depends on:
//!
//! * the *footprint* of a process equals exactly the page partition it was
//!   given (generators cover their partition), and
//! * the *lookup count* tracks the per-process budget.

use crate::record::send_page;
use crate::stream::TraceStream;
use crate::TraceRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use utlb_mem::{ProcessId, VirtAddr};

/// Generation parameters shared by all workloads.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// RNG seed; equal seeds produce byte-identical traces.
    pub seed: u64,
    /// Scales footprint and lookup targets (1.0 = the paper's Table 3).
    pub scale: f64,
    /// Application processes per node (the paper ran 4 plus a protocol
    /// process; the protocol process is always added on top of these).
    pub app_processes: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0x5EED,
            scale: 1.0,
            app_processes: 4,
        }
    }
}

impl GenConfig {
    /// Total process streams generated (apps + 1 protocol process).
    pub fn total_processes(&self) -> u32 {
        self.app_processes + 1
    }
}

/// The record-emitting state of one process: its identity, seeded RNG and
/// jittered clock. [`PatternBuilder`] and [`ProcessStream`] both emit
/// through one, so eager and streamed generation draw identically.
#[derive(Debug)]
struct Emitter {
    pid: ProcessId,
    base_page: u64,
    rng: StdRng,
    next_ts: u64,
    ts_step: u64,
}

impl Emitter {
    fn new(pid: ProcessId, base_page: u64, seed: u64, ts_step: u64) -> Self {
        Emitter {
            pid,
            base_page,
            rng: StdRng::seed_from_u64(seed ^ (pid.raw() as u64) << 32),
            next_ts: 0,
            ts_step: ts_step.max(1),
        }
    }

    fn advance_ts(&mut self) -> u64 {
        let jitter = self.ts_step / 4;
        let dt = if jitter > 0 {
            self.ts_step - jitter + self.rng.gen_range(0..=2 * jitter)
        } else {
            self.ts_step
        };
        let ts = self.next_ts;
        self.next_ts += dt;
        ts
    }

    /// A one-page send of partition-relative page `rel`.
    fn page(&mut self, rel: u64) -> TraceRecord {
        let ts = self.advance_ts();
        send_page(ts, self.pid, self.base_page + rel)
    }

    /// A small (sub-page) control message on partition-relative page `rel`.
    fn small(&mut self, rel: u64, nbytes: u64) -> TraceRecord {
        debug_assert!(nbytes < utlb_mem::PAGE_SIZE);
        let ts = self.advance_ts();
        TraceRecord {
            ts_ns: ts,
            pid: self.pid,
            op: crate::Op::Send,
            va: VirtAddr::new((self.base_page + rel) * utlb_mem::PAGE_SIZE),
            nbytes,
        }
    }
}

/// Builds one process' record stream.
#[derive(Debug)]
pub struct PatternBuilder {
    emit: Emitter,
    records: Vec<TraceRecord>,
}

impl PatternBuilder {
    /// Creates a builder for `pid` whose partition starts at absolute
    /// virtual page `base_page`. `ts_step` is the mean inter-request gap in
    /// nanoseconds; a ±25% jitter decorrelates the process streams.
    pub fn new(pid: ProcessId, base_page: u64, seed: u64, ts_step: u64) -> Self {
        PatternBuilder {
            emit: Emitter::new(pid, base_page, seed, ts_step),
            records: Vec::new(),
        }
    }

    /// Number of records emitted so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records were emitted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Emits a one-page send of partition-relative page `rel`.
    pub fn page(&mut self, rel: u64) {
        let rec = self.emit.page(rel);
        self.records.push(rec);
    }

    /// Emits a small (sub-page) control message on partition-relative page
    /// `rel` — lock/barrier traffic in the SVM protocol.
    pub fn small(&mut self, rel: u64, nbytes: u64) {
        let rec = self.emit.small(rel, nbytes);
        self.records.push(rec);
    }

    /// One sequential pass over `[start, start + count)`.
    pub fn sequential(&mut self, start: u64, count: u64) {
        for i in 0..count {
            self.page(start + i);
        }
    }

    /// One strided pass over `[start, start + count)`: visits residue class
    /// 0 first (0, s, 2s, …), then class 1, and so on — every page exactly
    /// once, in FFT-transpose order.
    pub fn strided(&mut self, start: u64, count: u64, stride: u64) {
        let stride = stride.max(1);
        for phase in 0..stride {
            let mut i = phase;
            while i < count {
                self.page(start + i);
                i += stride;
            }
        }
    }

    /// `count` accesses by a slow random walk over `[0, span)`: with
    /// probability `locality` the position drifts by at most ±`step` pages,
    /// otherwise it jumps uniformly. A *small* step keeps the instantaneous
    /// working set tight (reuse distances short) while the walk still
    /// wanders the whole partition over time — the access shape of a
    /// Barnes-Hut particle partition with spatial locality.
    pub fn local_walk(&mut self, span: u64, count: u64, step: u64, locality: f64) {
        let step = step.max(1) as i64;
        let mut pos = 0i64;
        let max = span.saturating_sub(1) as i64;
        for _ in 0..count {
            if self.emit.rng.gen_bool(locality.clamp(0.0, 1.0)) {
                pos = (pos + self.emit.rng.gen_range(-step..=step)).clamp(0, max);
            } else {
                pos = self.emit.rng.gen_range(0..span) as i64;
            }
            self.page(pos as u64);
        }
    }

    /// `count` uniformly random single-page accesses over `[0, span)` — the
    /// all-to-all permutation phase of Radix.
    pub fn scatter(&mut self, span: u64, count: u64) {
        for _ in 0..count {
            let p = self.emit.rng.gen_range(0..span);
            self.page(p);
        }
    }

    /// Task-farm access: repeatedly grab a random tile of `tile` contiguous
    /// pages inside `[0, span)` and walk it, until ~`count` accesses were
    /// made. Models Raytrace/Volrend task queues.
    pub fn task_tiles(&mut self, span: u64, count: u64, tile: u64) {
        let tile = tile.max(1).min(span);
        let mut done = 0u64;
        while done < count {
            let start = self.emit.rng.gen_range(0..=span - tile);
            let n = tile.min(count - done);
            for i in 0..n {
                self.page(start + i);
            }
            done += n;
        }
    }

    /// Finishes the stream (records are in timestamp order by construction).
    pub fn finish(self) -> Vec<TraceRecord> {
        self.records
    }
}

/// One lazily executed access-pattern step of a process stream.
///
/// A workload generator is a short *program* of these ops; [`ProcessStream`]
/// interprets the program pull-style, one record per `next_record`, drawing
/// from the RNG in exactly the order the eager [`PatternBuilder`] primitives
/// would — so streaming and materialized generation are byte-identical.
/// Every op's record count is known up front ([`PatternOp::count`]), which
/// is what makes the streams exact-size.
#[derive(Debug, Clone)]
pub(crate) enum PatternOp {
    /// `emit_rotated` over `seq` cyclically extended to `total` records:
    /// emission `k` is `seq[((rot + k) % total) % seq.len()]` with
    /// `rot = phase * total / peers`. Holds O(one pass) memory — the page
    /// sequence of a single sweep — regardless of `total`.
    Rotated {
        /// One pass of the access pattern (partition-relative pages).
        seq: Vec<u64>,
        /// Total records to emit (the lookup budget of the op).
        total: u64,
    },
    /// One sequential pass over `[start, start + count)`.
    Sequential {
        /// First partition-relative page.
        start: u64,
        /// Pages visited.
        count: u64,
    },
    /// `count` uniformly random single-page accesses over `[0, span)`.
    Scatter {
        /// Partition span in pages.
        span: u64,
        /// Accesses to emit.
        count: u64,
    },
    /// `count` accesses by the slow random walk of
    /// [`PatternBuilder::local_walk`].
    LocalWalk {
        /// Partition span in pages.
        span: u64,
        /// Accesses to emit.
        count: u64,
        /// Drift radius in pages.
        step: u64,
        /// Probability of drifting instead of jumping.
        locality: f64,
    },
    /// Task-farm bursts: repeatedly grab a random tile and walk it for
    /// `every - 1` accesses, then emit one small control message on page 0
    /// — the raytrace/volrend task-queue shape, `total` records in all.
    TileBursts {
        /// Partition span in pages.
        span: u64,
        /// Total records to emit.
        total: u64,
        /// Tile size in pages.
        tile: u64,
        /// Burst length including the control message.
        every: u64,
        /// Control-message size in bytes.
        nbytes: u64,
    },
    /// The SVM protocol pump: every `every`-th request is a small control
    /// message on one of `hot` pages, the rest walk the partition with a
    /// fixed stride — `total` records in all.
    ControlPump {
        /// Partition span in pages.
        span: u64,
        /// Total records to emit.
        total: u64,
        /// Hot control pages.
        hot: u64,
        /// Control-message period.
        every: u64,
        /// Control-message size in bytes.
        nbytes: u64,
        /// Page-walk stride.
        stride: u64,
    },
}

impl PatternOp {
    /// Exact number of records this op emits.
    pub(crate) fn count(&self) -> u64 {
        match self {
            PatternOp::Rotated { total, .. } => *total,
            PatternOp::Sequential { count, .. } => *count,
            PatternOp::Scatter { count, .. } => *count,
            PatternOp::LocalWalk { count, .. } => *count,
            PatternOp::TileBursts { total, .. } => *total,
            PatternOp::ControlPump { total, .. } => *total,
        }
    }
}

/// Per-op interpreter state of a [`ProcessStream`].
#[derive(Debug)]
enum OpCursor {
    Rotated {
        k: u64,
    },
    Sequential {
        i: u64,
    },
    Scatter {
        i: u64,
    },
    LocalWalk {
        i: u64,
        pos: i64,
    },
    TileBursts {
        left: u64,
        burst: u64,
        tiles_left: u64,
        tile_page: u64,
        tile_rem: u64,
    },
    ControlPump {
        k: u64,
        left: u64,
    },
}

impl OpCursor {
    fn for_op(op: &PatternOp) -> OpCursor {
        match op {
            PatternOp::Rotated { .. } => OpCursor::Rotated { k: 0 },
            PatternOp::Sequential { .. } => OpCursor::Sequential { i: 0 },
            PatternOp::Scatter { .. } => OpCursor::Scatter { i: 0 },
            PatternOp::LocalWalk { .. } => OpCursor::LocalWalk { i: 0, pos: 0 },
            PatternOp::TileBursts { total, .. } => OpCursor::TileBursts {
                left: *total,
                burst: 0,
                tiles_left: 0,
                tile_page: 0,
                tile_rem: 0,
            },
            PatternOp::ControlPump { total, .. } => OpCursor::ControlPump { k: 0, left: *total },
        }
    }
}

/// One process' record stream, generated on demand.
///
/// The streaming counterpart of [`PatternBuilder`]: same pid/base-page
/// addressing, same seeded RNG, same timestamp jitter — but records are
/// synthesized one at a time by interpreting a `PatternOp` program, so
/// the stream holds O(one pass) memory however large its lookup budget is.
#[derive(Debug)]
pub struct ProcessStream {
    emit: Emitter,
    /// Rotation phase of this stream among its peers (see `emit_rotated`).
    phase: u32,
    peers: u32,
    ops: VecDeque<PatternOp>,
    cur: Option<OpCursor>,
    remaining: u64,
    workload: String,
    /// The node-level generator seed (not the per-process RNG seed).
    meta_seed: u64,
}

impl ProcessStream {
    /// Creates a stream for `pid` executing `ops`. Seeding and timestamp
    /// behavior match `PatternBuilder::new(pid, base_page, seed, ts_step)`;
    /// `phase`/`peers` position the stream among its SPMD siblings for
    /// rotated ops; `workload` and the raw `seed` are carried as metadata.
    // Each argument is one independent axis of the generator identity;
    // bundling them into a struct would just rename the call sites.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pid: ProcessId,
        base_page: u64,
        seed: u64,
        ts_step: u64,
        phase: u32,
        peers: u32,
        ops: Vec<PatternOp>,
        workload: impl Into<String>,
    ) -> Self {
        let remaining = ops.iter().map(PatternOp::count).sum();
        ProcessStream {
            emit: Emitter::new(pid, base_page, seed, ts_step),
            phase,
            peers,
            ops: ops.into(),
            cur: None,
            remaining,
            workload: workload.into(),
            meta_seed: seed,
        }
    }

    /// Emits one record of the front op, or `None` if the op is exhausted.
    fn step_front(&mut self) -> Option<TraceRecord> {
        // The op program, the cursor and the emitter are disjoint fields, so
        // the front op is borrowed in place while the RNG is drawn from.
        let op = self.ops.front()?;
        let cur = self.cur.get_or_insert_with(|| OpCursor::for_op(op));
        let emit = &mut self.emit;
        match (op, cur) {
            (PatternOp::Rotated { seq, total }, OpCursor::Rotated { k }) => {
                if *k >= *total || seq.is_empty() {
                    None
                } else {
                    let rot = (self.phase as u64 * *total) / u64::from(self.peers.max(1));
                    let idx = (rot + *k) % *total;
                    let page = seq[(idx % seq.len() as u64) as usize];
                    *k += 1;
                    Some(emit.page(page))
                }
            }
            (PatternOp::Sequential { start, count }, OpCursor::Sequential { i }) => {
                if *i >= *count {
                    None
                } else {
                    let page = *start + *i;
                    *i += 1;
                    Some(emit.page(page))
                }
            }
            (PatternOp::Scatter { span, count }, OpCursor::Scatter { i }) => {
                if *i >= *count {
                    None
                } else {
                    *i += 1;
                    let p = emit.rng.gen_range(0..*span);
                    Some(emit.page(p))
                }
            }
            (
                PatternOp::LocalWalk {
                    span,
                    count,
                    step,
                    locality,
                },
                OpCursor::LocalWalk { i, pos },
            ) => {
                if *i >= *count {
                    None
                } else {
                    *i += 1;
                    let step = (*step).max(1) as i64;
                    let max = span.saturating_sub(1) as i64;
                    if emit.rng.gen_bool(locality.clamp(0.0, 1.0)) {
                        *pos = (*pos + emit.rng.gen_range(-step..=step)).clamp(0, max);
                    } else {
                        *pos = emit.rng.gen_range(0..*span) as i64;
                    }
                    Some(emit.page(*pos as u64))
                }
            }
            (
                PatternOp::TileBursts {
                    span,
                    tile,
                    every,
                    nbytes,
                    ..
                },
                OpCursor::TileBursts {
                    left,
                    burst,
                    tiles_left,
                    tile_page,
                    tile_rem,
                },
            ) => {
                if *left == 0 {
                    None
                } else {
                    if *burst == 0 {
                        *burst = (*every).min(*left);
                        *tiles_left = *burst - 1;
                    }
                    if *tiles_left > 0 {
                        let tile_c = (*tile).max(1).min(*span);
                        if *tile_rem == 0 {
                            *tile_page = emit.rng.gen_range(0..=*span - tile_c);
                            *tile_rem = tile_c.min(*tiles_left);
                        }
                        let page = *tile_page;
                        *tile_page += 1;
                        *tile_rem -= 1;
                        *tiles_left -= 1;
                        Some(emit.page(page))
                    } else {
                        *left -= *burst;
                        *burst = 0;
                        Some(emit.small(0, *nbytes))
                    }
                }
            }
            (
                PatternOp::ControlPump {
                    span,
                    hot,
                    every,
                    nbytes,
                    stride,
                    ..
                },
                OpCursor::ControlPump { k, left },
            ) => {
                if *left == 0 {
                    None
                } else {
                    *left -= 1;
                    let kk = *k;
                    *k += 1;
                    if kk % *every == 0 {
                        Some(emit.small(kk % *hot, *nbytes))
                    } else {
                        Some(emit.page((kk * *stride) % *span))
                    }
                }
            }
            _ => unreachable!("cursor always matches the front op"),
        }
    }
}

impl TraceStream for ProcessStream {
    fn next_record(&mut self) -> Option<TraceRecord> {
        loop {
            if self.ops.is_empty() {
                return None;
            }
            if let Some(rec) = self.step_front() {
                self.remaining -= 1;
                return Some(rec);
            }
            // Front op exhausted: drop it and its cursor, try the next.
            self.ops.pop_front();
            self.cur = None;
        }
    }

    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn workload(&self) -> &str {
        &self.workload
    }

    fn seed(&self) -> u64 {
        self.meta_seed
    }

    fn process_ids(&self) -> Vec<ProcessId> {
        vec![self.emit.pid]
    }
}

/// Executes an op program eagerly against a [`PatternBuilder`] — the
/// executable specification the streaming interpreter is pinned against.
/// `phase`/`peers` must match what the [`ProcessStream`] was given.
#[cfg(test)]
pub(crate) fn execute_ops(b: &mut PatternBuilder, ops: &[PatternOp], phase: u32, peers: u32) {
    for op in ops {
        match op {
            PatternOp::Rotated { seq, total } => {
                if seq.is_empty() {
                    continue;
                }
                let full: Vec<u64> = (0..*total)
                    .map(|k| seq[(k % seq.len() as u64) as usize])
                    .collect();
                let rot = (phase as usize * full.len()) / peers.max(1) as usize;
                for &p in full[rot..].iter().chain(full[..rot].iter()) {
                    b.page(p);
                }
            }
            PatternOp::Sequential { start, count } => b.sequential(*start, *count),
            PatternOp::Scatter { span, count } => b.scatter(*span, *count),
            PatternOp::LocalWalk {
                span,
                count,
                step,
                locality,
            } => b.local_walk(*span, *count, *step, *locality),
            PatternOp::TileBursts {
                span,
                total,
                tile,
                every,
                nbytes,
            } => {
                let mut remaining = *total;
                while remaining > 0 {
                    let burst = (*every).min(remaining);
                    if burst > 1 {
                        b.task_tiles(*span, burst - 1, *tile);
                    }
                    b.small(0, *nbytes);
                    remaining -= burst;
                }
            }
            PatternOp::ControlPump {
                span,
                total,
                hot,
                every,
                nbytes,
                stride,
            } => {
                let mut k = 0u64;
                let mut remaining = *total;
                while remaining > 0 {
                    if k.is_multiple_of(*every) {
                        b.small(k % hot, *nbytes);
                    } else {
                        b.page((k * stride) % span);
                    }
                    k += 1;
                    remaining -= 1;
                }
            }
        }
    }
}

/// Splits a footprint of `total` pages into `parts` contiguous partitions;
/// returns `(offset, len)` pairs covering `total` exactly.
pub(crate) fn partition(total: u64, parts: u64) -> Vec<(u64, u64)> {
    assert!(parts > 0);
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut off = 0;
    for i in 0..parts {
        let len = base + u64::from(i < extra);
        out.push((off, len));
        off += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn distinct_pages(records: &[TraceRecord]) -> HashSet<u64> {
        records.iter().map(|r| r.va.page().number()).collect()
    }

    fn builder() -> PatternBuilder {
        PatternBuilder::new(ProcessId::new(1), 1000, 7, 100)
    }

    #[test]
    fn sequential_covers_exactly_once() {
        let mut b = builder();
        b.sequential(0, 50);
        let recs = b.finish();
        assert_eq!(recs.len(), 50);
        assert_eq!(distinct_pages(&recs).len(), 50);
        assert_eq!(recs[0].va.page().number(), 1000);
        assert!(recs.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
    }

    #[test]
    fn strided_covers_exactly_once_in_class_order() {
        let mut b = builder();
        b.strided(0, 10, 4);
        let recs = b.finish();
        let pages: Vec<u64> = recs.iter().map(|r| r.va.page().number() - 1000).collect();
        assert_eq!(pages, vec![0, 4, 8, 1, 5, 9, 2, 6, 3, 7]);
    }

    #[test]
    fn local_walk_stays_in_span_and_is_local() {
        let mut b = builder();
        b.local_walk(1000, 500, 8, 0.95);
        let recs = b.finish();
        assert_eq!(recs.len(), 500);
        for r in &recs {
            let p = r.va.page().number() - 1000;
            assert!(p < 1000);
        }
        // Strong locality: consecutive accesses are mostly near each other.
        let near = recs
            .windows(2)
            .filter(|w| {
                let a = w[0].va.page().number() as i64;
                let b = w[1].va.page().number() as i64;
                (a - b).abs() <= 16
            })
            .count();
        assert!(near > 350, "only {near}/499 near transitions");
    }

    #[test]
    fn scatter_and_tiles_respect_span_and_count() {
        let mut b = builder();
        b.scatter(100, 250);
        b.task_tiles(100, 97, 8);
        let recs = b.finish();
        assert_eq!(recs.len(), 250 + 97);
        for r in &recs {
            assert!(r.va.page().number() - 1000 < 100);
        }
    }

    #[test]
    fn small_messages_are_sub_page() {
        let mut b = builder();
        b.small(3, 64);
        let recs = b.finish();
        assert_eq!(recs[0].nbytes, 64);
        assert_eq!(recs[0].lookups(), 1);
    }

    #[test]
    fn partition_is_exact_and_contiguous() {
        let parts = partition(103, 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().map(|(_, l)| l).sum::<u64>(), 103);
        let mut expect_off = 0;
        for (off, len) in parts {
            assert_eq!(off, expect_off);
            expect_off += len;
        }
    }

    #[test]
    fn process_stream_matches_eager_executor_on_a_mixed_program() {
        let ops = vec![
            PatternOp::Rotated {
                seq: (0..37).collect(),
                total: 90,
            },
            PatternOp::Sequential {
                start: 5,
                count: 20,
            },
            PatternOp::Scatter {
                span: 64,
                count: 50,
            },
            PatternOp::LocalWalk {
                span: 64,
                count: 80,
                step: 3,
                locality: 0.9,
            },
            PatternOp::TileBursts {
                span: 64,
                total: 100,
                tile: 8,
                every: 16,
                nbytes: 128,
            },
            PatternOp::ControlPump {
                span: 64,
                total: 77,
                hot: 4,
                every: 4,
                nbytes: 64,
                stride: 7,
            },
        ];
        for (phase, peers) in [(0u32, 5u32), (3, 5)] {
            let mut b = PatternBuilder::new(ProcessId::new(3), 500, 42, 100);
            execute_ops(&mut b, &ops, phase, peers);
            let eager = b.finish();
            let mut s = ProcessStream::new(
                ProcessId::new(3),
                500,
                42,
                100,
                phase,
                peers,
                ops.clone(),
                "mix",
            );
            assert_eq!(s.remaining(), eager.len() as u64, "exact-size metadata");
            assert_eq!(s.process_ids(), vec![ProcessId::new(3)]);
            let mut got = Vec::new();
            while let Some(r) = s.next_record() {
                got.push(r);
            }
            assert_eq!(got, eager, "phase {phase}: stream == eager spec");
            assert_eq!(s.remaining(), 0);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = PatternBuilder::new(ProcessId::new(2), 0, 9, 50);
        let mut b = PatternBuilder::new(ProcessId::new(2), 0, 9, 50);
        a.scatter(1000, 100);
        b.scatter(1000, 100);
        assert_eq!(a.finish(), b.finish());
    }
}
