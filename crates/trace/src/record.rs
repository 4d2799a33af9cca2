//! Trace record format.

use serde::{Deserialize, Serialize};
use utlb_mem::{ProcessId, VirtAddr, PAGE_SIZE};

/// The communication operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// A send (remote store) from the local buffer.
    Send,
    /// A remote fetch into the local buffer.
    Fetch,
}

/// One traced communication request.
///
/// Matches what the paper's instrumented VMMC software recorded: "each send
/// and remote read request along with a globally-synchronized clock".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Globally-synchronized timestamp in nanoseconds.
    pub ts_ns: u64,
    /// The requesting process.
    pub pid: ProcessId,
    /// Operation kind.
    pub op: Op,
    /// Local buffer address.
    pub va: VirtAddr,
    /// Transfer length in bytes.
    pub nbytes: u64,
}

impl TraceRecord {
    /// Number of page-granular translation lookups this request costs (the
    /// firmware splits transfers at page boundaries).
    pub fn lookups(&self) -> u64 {
        self.va.span_pages(self.nbytes)
    }
}

/// A complete trace: records in timestamp order plus provenance metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable workload name (e.g. `"radix"`).
    pub workload: String,
    /// Seed the generator used, for reproducibility.
    pub seed: u64,
    /// Records sorted by `ts_ns`.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates a trace, asserting timestamp order.
    ///
    /// # Panics
    ///
    /// Panics if records are not sorted by timestamp.
    pub fn new(workload: impl Into<String>, seed: u64, records: Vec<TraceRecord>) -> Self {
        assert!(
            records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "trace records must be in timestamp order"
        );
        Trace {
            workload: workload.into(),
            seed,
            records,
        }
    }

    /// Total page-granular translation lookups in the trace.
    pub fn total_lookups(&self) -> u64 {
        self.records.iter().map(TraceRecord::lookups).sum()
    }

    /// Number of distinct `(pid, page)` pairs — the communication memory
    /// footprint in 4 KB pages, the quantity in the paper's Table 3.
    pub fn footprint_pages(&self) -> u64 {
        use std::collections::HashSet;
        let mut seen: HashSet<(u32, u64)> = HashSet::new();
        for r in &self.records {
            for p in r.va.page().range(r.lookups()) {
                seen.insert((r.pid.raw(), p.number()));
            }
        }
        seen.len() as u64
    }

    /// Distinct processes appearing in the trace, in ascending order.
    pub fn process_ids(&self) -> Vec<ProcessId> {
        let mut pids: Vec<ProcessId> = self.records.iter().map(|r| r.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        pids
    }

    /// Average transfer size in pages.
    pub fn mean_pages_per_request(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.total_lookups() as f64 / self.records.len() as f64
    }
}

/// Merges several traces into one multiprogrammed trace, remapping process
/// ids so each input keeps a disjoint, dense pid range (trace 0 keeps its
/// pids, trace 1's are shifted past them, and so on).
///
/// This builds the workload the paper's §7 limitations call for: "multiple
/// independent programs" sharing one NIC, which the SPLASH-2 traces could
/// not provide.
///
/// # Panics
///
/// Panics if `traces` is empty.
pub fn merge_multiprogram(traces: &[Trace]) -> Trace {
    assert!(!traces.is_empty(), "need at least one trace");
    let mut streams: Vec<Vec<TraceRecord>> = Vec::new();
    let mut pid_base = 0u32;
    let mut names = Vec::new();
    for t in traces {
        names.push(t.workload.clone());
        let mut remapped = t.records.clone();
        for r in &mut remapped {
            r.pid = ProcessId::new(r.pid.raw() + pid_base);
        }
        pid_base += t.process_ids().len() as u32;
        streams.push(remapped);
    }
    let records = crate::merge_streams(streams);
    Trace::new(names.join("+"), traces[0].seed, records)
}

/// Convenience constructor for a one-page send record.
pub(crate) fn send_page(ts_ns: u64, pid: ProcessId, page: u64) -> TraceRecord {
    TraceRecord {
        ts_ns,
        pid,
        op: Op::Send,
        va: VirtAddr::new(page * PAGE_SIZE),
        nbytes: PAGE_SIZE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, pid: u32, page: u64) -> TraceRecord {
        send_page(ts, ProcessId::new(pid), page)
    }

    #[test]
    fn lookups_split_at_page_boundaries() {
        let r = TraceRecord {
            ts_ns: 0,
            pid: ProcessId::new(1),
            op: Op::Send,
            va: VirtAddr::new(PAGE_SIZE - 8),
            nbytes: 16,
        };
        assert_eq!(r.lookups(), 2);
    }

    #[test]
    fn trace_statistics() {
        let t = Trace::new(
            "test",
            7,
            vec![rec(0, 1, 5), rec(10, 1, 5), rec(20, 2, 5), rec(30, 1, 6)],
        );
        assert_eq!(t.total_lookups(), 4);
        assert_eq!(t.footprint_pages(), 3, "(1,5), (2,5), (1,6)");
        assert_eq!(t.process_ids().len(), 2);
        assert_eq!(t.mean_pages_per_request(), 1.0);
    }

    #[test]
    fn process_ids_are_ascending_and_distinct() {
        let raw = [70, 3, 63, 64, 3, u32::MAX, 0, 70, 1, 64, 200, 63];
        let records = raw
            .iter()
            .enumerate()
            .map(|(i, &pid)| rec(i as u64, pid, 0))
            .collect();
        let t = Trace::new("test", 7, records);
        let want: Vec<ProcessId> = [0, 1, 3, 63, 64, 70, 200, u32::MAX]
            .into_iter()
            .map(ProcessId::new)
            .collect();
        assert_eq!(t.process_ids(), want);
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_records_panic() {
        Trace::new("bad", 0, vec![rec(10, 1, 0), rec(5, 1, 1)]);
    }

    /// A zero-byte request touches no page: it costs no lookups and adds
    /// nothing to the footprint, so replay loops may pass it through the
    /// batch path without special-casing.
    #[test]
    fn zero_byte_requests_cost_no_lookups() {
        let r = TraceRecord {
            ts_ns: 0,
            pid: ProcessId::new(1),
            op: Op::Fetch,
            va: VirtAddr::new(123),
            nbytes: 0,
        };
        assert_eq!(r.lookups(), 0);
        let t = Trace::new("zero", 0, vec![r]);
        assert_eq!(t.total_lookups(), 0);
        assert_eq!(t.footprint_pages(), 0);
    }

    /// A transfer straddling interior page boundaries costs one lookup per
    /// page touched, and the footprint counts each of those pages.
    #[test]
    fn straddling_transfers_cost_one_lookup_per_page_touched() {
        let r = TraceRecord {
            ts_ns: 0,
            pid: ProcessId::new(1),
            op: Op::Send,
            va: VirtAddr::new(PAGE_SIZE / 2),
            nbytes: 3 * PAGE_SIZE,
        };
        // Half of page 0, pages 1 and 2, half of page 3.
        assert_eq!(r.lookups(), 4);
        let t = Trace::new("straddle", 0, vec![r]);
        assert_eq!(t.footprint_pages(), 4);
        assert_eq!(t.mean_pages_per_request(), 4.0);
    }

    #[test]
    fn multiprogram_merge_remaps_pids_disjointly() {
        let t1 = Trace::new("one", 0, vec![rec(0, 1, 5), rec(10, 2, 6)]);
        let t2 = Trace::new("two", 0, vec![rec(5, 1, 5), rec(15, 1, 7)]);
        let merged = merge_multiprogram(&[t1, t2]);
        assert_eq!(merged.workload, "one+two");
        assert_eq!(merged.records.len(), 4);
        // t1 had pids {1,2}; t2's pid 1 becomes 3.
        let pids: Vec<u32> = merged.process_ids().iter().map(|p| p.raw()).collect();
        assert_eq!(pids, vec![1, 2, 3]);
        // Footprint counts per remapped pid: (1,5),(2,6),(3,5),(3,7).
        assert_eq!(merged.footprint_pages(), 4);
        assert!(merged.records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }
}
