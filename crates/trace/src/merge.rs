//! Merging per-process streams into one node trace.
//!
//! The paper: "Time stamps are used to serialize the traces from the five
//! processes on each SMP." This is a k-way merge by timestamp; ties break by
//! process id and then by stream position, which keeps the merge total and
//! deterministic.

use crate::stream::TraceStream;
use crate::TraceRecord;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use utlb_mem::ProcessId;

/// Merges per-process record streams (each already in timestamp order) into
/// one globally ordered stream.
///
/// # Panics
///
/// Panics if any individual stream is out of order — generator bugs should
/// fail loudly.
pub fn merge_streams(streams: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    for s in &streams {
        assert!(
            s.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "input stream out of timestamp order"
        );
    }
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut heads: Vec<std::iter::Peekable<std::vec::IntoIter<TraceRecord>>> = streams
        .into_iter()
        .map(|s| s.into_iter().peekable())
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
    for (i, h) in heads.iter_mut().enumerate() {
        if let Some(r) = h.peek() {
            heap.push(Reverse((r.ts_ns, r.pid.raw(), i)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(mut top) = heap.peek_mut() {
        let i = top.0 .2;
        out.push(heads[i].next().expect("stream head exists"));
        match heads[i].peek() {
            Some(r) => top.0 = (r.ts_ns, r.pid.raw(), i),
            None => {
                PeekMut::pop(top);
            }
        }
    }
    out
}

/// The k-way merge over pull-based streams: identical ordering to
/// [`merge_streams`] — timestamp, then pid, then stream index — but lazy,
/// holding exactly one look-ahead record per input stream.
///
/// This is how a whole-node trace is synthesized in O(streams) memory: each
/// per-process generator stream is pulled only as fast as the merged output
/// is consumed.
#[derive(Debug)]
pub struct MergedStream<S> {
    streams: Vec<S>,
    /// One look-ahead record per stream (`None` once exhausted).
    heads: Vec<Option<TraceRecord>>,
    /// Last timestamp pulled per stream, for the monotonicity check.
    last_ts: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32, usize)>>,
    remaining: u64,
    workload: String,
    seed: u64,
    pids: Vec<ProcessId>,
}

impl<S: TraceStream> MergedStream<S> {
    /// Merges `streams` under the given workload metadata.
    ///
    /// # Panics
    ///
    /// Panics (possibly later, mid-pull) if any input stream yields records
    /// out of timestamp order — generator bugs should fail loudly, exactly
    /// as [`merge_streams`] does.
    pub fn new(mut streams: Vec<S>, workload: impl Into<String>, seed: u64) -> Self {
        let mut pids: Vec<ProcessId> = streams.iter().flat_map(|s| s.process_ids()).collect();
        pids.sort();
        pids.dedup();
        let mut remaining = 0u64;
        let mut heads = Vec::with_capacity(streams.len());
        let mut heap = BinaryHeap::new();
        for (i, s) in streams.iter_mut().enumerate() {
            // Counted before pulling the head, so the head is included.
            remaining += s.remaining();
            let head = s.next_record();
            if let Some(r) = &head {
                heap.push(Reverse((r.ts_ns, r.pid.raw(), i)));
            }
            heads.push(head);
        }
        MergedStream {
            last_ts: vec![0; streams.len()],
            streams,
            heads,
            heap,
            remaining,
            workload: workload.into(),
            seed,
            pids,
        }
    }
}

impl<S: TraceStream> TraceStream for MergedStream<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        // The top entry is replaced in place by the stream's next head (one
        // sift-down), or popped once the stream is exhausted. Keys end in
        // the stream index, so they are unique and the output order does
        // not depend on the heap's shape.
        let mut top = self.heap.peek_mut()?;
        let i = top.0 .2;
        let rec = self.heads[i].take().expect("heap entries have a head");
        assert!(
            rec.ts_ns >= self.last_ts[i],
            "input stream out of timestamp order"
        );
        self.last_ts[i] = rec.ts_ns;
        match self.streams[i].next_record() {
            Some(next) => {
                top.0 = (next.ts_ns, next.pid.raw(), i);
                self.heads[i] = Some(next);
            }
            None => {
                PeekMut::pop(top);
            }
        }
        self.remaining -= 1;
        Some(rec)
    }

    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn workload(&self) -> &str {
        &self.workload
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn process_ids(&self) -> Vec<ProcessId> {
        self.pids.clone()
    }
}

/// Merges pull-based per-process streams into one ordered stream — the
/// heap-over-iterators counterpart of [`merge_streams`].
pub fn merge_trace_streams<S: TraceStream>(
    streams: Vec<S>,
    workload: impl Into<String>,
    seed: u64,
) -> MergedStream<S> {
    MergedStream::new(streams, workload, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceView;
    use crate::{Op, Trace};
    use utlb_mem::VirtAddr;

    fn rec(ts: u64, pid: u32) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            pid: ProcessId::new(pid),
            op: Op::Send,
            va: VirtAddr::new(0),
            nbytes: 64,
        }
    }

    #[test]
    fn merge_orders_by_timestamp() {
        let a = vec![rec(0, 1), rec(20, 1), rec(40, 1)];
        let b = vec![rec(10, 2), rec(30, 2)];
        let merged = merge_streams(vec![a, b]);
        let ts: Vec<u64> = merged.iter().map(|r| r.ts_ns).collect();
        assert_eq!(ts, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn ties_break_by_pid_deterministically() {
        let a = vec![rec(5, 2)];
        let b = vec![rec(5, 1)];
        let merged = merge_streams(vec![a, b]);
        assert_eq!(merged[0].pid.raw(), 1);
        assert_eq!(merged[1].pid.raw(), 2);
    }

    #[test]
    fn empty_streams_are_fine() {
        assert!(merge_streams(vec![]).is_empty());
        assert_eq!(merge_streams(vec![vec![], vec![rec(1, 1)]]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of timestamp order")]
    fn unsorted_input_panics() {
        merge_streams(vec![vec![rec(10, 1), rec(5, 1)]]);
    }

    fn trace_of(records: Vec<TraceRecord>) -> Trace {
        Trace::new("part", 0, records)
    }

    #[test]
    fn streaming_merge_matches_materialized_merge() {
        let a = vec![rec(0, 1), rec(20, 1), rec(40, 1)];
        let b = vec![rec(10, 2), rec(30, 2), rec(30, 2)];
        let c = vec![rec(5, 3)];
        let eager = merge_streams(vec![a.clone(), b.clone(), c.clone()]);

        let traces: Vec<Trace> = [a, b, c].into_iter().map(trace_of).collect();
        let views = traces.iter().map(TraceView::new).collect();
        let mut merged = merge_trace_streams(views, "merged", 9);
        assert_eq!(merged.remaining(), eager.len() as u64);
        assert_eq!(merged.workload(), "merged");
        assert_eq!(merged.seed(), 9);
        let pids: Vec<u32> = merged.process_ids().iter().map(|p| p.raw()).collect();
        assert_eq!(pids, vec![1, 2, 3]);
        let mut got = Vec::new();
        while let Some(r) = merged.next_record() {
            got.push(r);
        }
        assert_eq!(got, eager);
        assert_eq!(merged.remaining(), 0);
    }

    #[test]
    fn streaming_merge_ties_break_by_pid_then_stream() {
        let a = trace_of(vec![rec(5, 2)]);
        let b = trace_of(vec![rec(5, 1)]);
        let mut merged =
            merge_trace_streams(vec![TraceView::new(&a), TraceView::new(&b)], "tie", 0);
        assert_eq!(merged.next_record().unwrap().pid.raw(), 1);
        assert_eq!(merged.next_record().unwrap().pid.raw(), 2);
        assert!(merged.next_record().is_none());
    }

    #[test]
    fn many_way_ties_order_by_pid_then_stream_index() {
        // Five streams, every record at the same instant. The tie-break is
        // (ts, pid, stream index): pids serialize first, and the same pid
        // appearing in several streams (a process whose trace was split)
        // serializes by stream position — total and deterministic, never
        // heap-insertion order.
        let streams = vec![
            vec![rec(100, 4)], // stream 0
            vec![rec(100, 2)], // stream 1
            vec![rec(100, 4)], // stream 2: pid 4 again — index breaks it
            vec![rec(100, 1)], // stream 3
            vec![rec(100, 2)], // stream 4: pid 2 again
        ];
        let merged = merge_streams(streams.clone());
        let pids: Vec<u32> = merged.iter().map(|r| r.pid.raw()).collect();
        assert_eq!(pids, vec![1, 2, 2, 4, 4]);
        // The duplicate-pid pairs must come out in stream order; nbytes
        // tags which stream each record came from.
        let tagged: Vec<Vec<TraceRecord>> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.iter()
                    .map(|r| TraceRecord {
                        nbytes: i as u64,
                        ..*r
                    })
                    .collect()
            })
            .collect();
        let eager = merge_streams(tagged.clone());
        let order: Vec<u64> = eager.iter().map(|r| r.nbytes).collect();
        assert_eq!(order, vec![3, 1, 4, 0, 2], "pid asc, then stream index asc");

        // The lazy merge agrees record-for-record.
        let traces: Vec<Trace> = tagged.into_iter().map(trace_of).collect();
        let views = traces.iter().map(TraceView::new).collect();
        let mut lazy = merge_trace_streams(views, "ties", 0);
        let mut got = Vec::new();
        while let Some(r) = lazy.next_record() {
            got.push(r);
        }
        assert_eq!(got, eager);
    }

    #[test]
    fn interleaved_ties_across_three_streams_stay_stable() {
        // Ties at several timestamps, interleaved with non-ties, over three
        // streams — the shape a multiprogrammed node trace actually has
        // (barrier releases put many processes at one instant).
        let a = vec![rec(0, 1), rec(10, 1), rec(20, 1)];
        let b = vec![rec(0, 2), rec(10, 2), rec(20, 2)];
        let c = vec![rec(0, 3), rec(10, 3), rec(20, 3)];
        let eager = merge_streams(vec![a.clone(), b.clone(), c.clone()]);
        let key: Vec<(u64, u32)> = eager.iter().map(|r| (r.ts_ns, r.pid.raw())).collect();
        assert_eq!(
            key,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (10, 1),
                (10, 2),
                (10, 3),
                (20, 1),
                (20, 2),
                (20, 3)
            ]
        );
        let traces: Vec<Trace> = [a, b, c].into_iter().map(trace_of).collect();
        let views = traces.iter().map(TraceView::new).collect();
        let mut lazy = merge_trace_streams(views, "barriers", 0);
        let mut got = Vec::new();
        while let Some(r) = lazy.next_record() {
            got.push(r);
        }
        assert_eq!(
            got, eager,
            "lazy and eager merges serialize ties identically"
        );
    }

    #[test]
    fn streaming_merge_of_empty_streams_is_empty() {
        let t = trace_of(vec![]);
        let mut merged =
            merge_trace_streams(vec![TraceView::new(&t), TraceView::new(&t)], "empty", 0);
        assert_eq!(merged.remaining(), 0);
        assert!(merged.next_record().is_none());
    }
}
