//! Observability reports for simulation runs.
//!
//! A run configured with `.observed()` yields an [`ObsReport`] next to its
//! result: the event
//! counters and latency histograms collected by the engine probe, the
//! last-events ring per process, the NIC board's own hardware counters,
//! and the outcome of reconciling the probe stream against the engine's
//! [`TranslationStats`](utlb_core::TranslationStats). The report is what
//! `run_all --obs` serializes to `results/obs_<experiment>.json`.

use serde::{Deserialize, Serialize};
use utlb_core::obs::{Metrics, ProcessTrace, SharedCollector, TraceRecorder};
use utlb_core::TranslationStats;
use utlb_nic::BoardSnapshot;

/// Everything the probe saw during one observed run.
///
/// `reconciled` is the headline: `true` means every event-derived total
/// (lookups, misses, pins, unpins, interrupts, pin/unpin time) matched the
/// engine's own counters exactly; otherwise `mismatches` holds one line per
/// disagreement. An unreconciled report is a bug in the emitting engine,
/// not a measurement artifact — the two accountings share the same clock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsReport {
    /// Mechanism name ("UTLB", "Intr").
    pub mechanism: String,
    /// Workload name of the driving trace.
    pub workload: String,
    /// Event counters and per-phase latency histograms.
    pub metrics: Metrics,
    /// NIC board hardware counters (DMA transfers, interrupt line).
    pub board: BoardSnapshot,
    /// Last-events ring per process, oldest first.
    pub traces: Vec<ProcessTrace>,
    /// Whether the probe stream reconciled exactly with the engine stats.
    pub reconciled: bool,
    /// One line per reconciliation mismatch (empty when `reconciled`).
    pub mismatches: Vec<String>,
}

/// The collectors a run attaches to its boards, and what it keeps of them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Collect {
    /// One metrics-only collector per board, kept as the board's
    /// result-cell metrics (`.cluster()` runs). It keeps no event rings:
    /// a cell reports none, and a churning cluster would grow one per
    /// connection ever seen.
    Cells,
    /// One collector with this ring capacity on the run's one board, kept
    /// whole as the run's [`ObsReport`] (`.observed()` runs).
    Report(usize),
}

impl Collect {
    /// A fresh collector for one board.
    pub(crate) fn collector(self) -> SharedCollector {
        match self {
            Collect::Cells => SharedCollector::metrics_only(),
            Collect::Report(ring) => SharedCollector::new(ring),
        }
    }

    /// What one board's collector leaves behind: its metrics and whether
    /// they reconcile with the board's `stats`, plus — when the run asked
    /// for one — the full report.
    pub(crate) fn finish(
        self,
        collector: &SharedCollector,
        mechanism: &str,
        workload: &str,
        stats: &TranslationStats,
        board: BoardSnapshot,
    ) -> (Metrics, bool, Option<ObsReport>) {
        let snap = collector.snapshot();
        let mismatches = snap.metrics.reconcile(stats);
        let reconciled = mismatches.is_empty();
        let report = matches!(self, Collect::Report(_)).then(|| ObsReport {
            mechanism: mechanism.to_string(),
            workload: workload.to_string(),
            metrics: snap.metrics.clone(),
            board,
            traces: snap
                .recorder
                .as_ref()
                .map(TraceRecorder::dump)
                .unwrap_or_default(),
            reconciled,
            mismatches,
        });
        (snap.metrics, reconciled, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utlb_core::obs::Event;

    #[test]
    fn report_roundtrips_through_json() {
        let mut metrics = Metrics::new();
        metrics.record(Event::Lookup { ns: 700 });
        metrics.record(Event::Pin { run: 2, ns: 27_000 });
        let report = ObsReport {
            mechanism: "UTLB".into(),
            workload: "water".into(),
            metrics,
            board: BoardSnapshot::default(),
            traces: Vec::new(),
            reconciled: true,
            mismatches: Vec::new(),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: ObsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.mechanism, "UTLB");
        assert!(back.reconciled);
        assert_eq!(back.metrics.counts.pins, 2);
        assert_eq!(back.metrics.lookup_ns.sum_ns(), 700);
    }
}
