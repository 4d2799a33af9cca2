//! Extension: out-of-core scale via fused generate+replay.
//!
//! The paper's traces top out at ~43 K lookups per node (Table 3) — small
//! enough to materialize. The streaming path removes that ceiling: a
//! [`Looped`] generator stream repeats one bounded-footprint epoch for
//! arbitrarily many epochs, and the [`Run`] builder consumes it in
//! [`STREAM_CHUNK`]-sized refills, so total lookups grow without the trace
//! ever existing in memory. This driver measures that claim: it replays a
//! multi-epoch stream orders of magnitude larger than the largest
//! materialized run, reports throughput and (on Linux) the process'
//! peak-RSS high-water mark, and sizes what materializing the same workload
//! would have cost.
//!
//! For an honest peak-RSS reading the streamed run must come first in a
//! fresh process — `VmHWM` is a high-water mark and never goes back down —
//! which is why the `stream_scale` bench binary runs this driver before
//! anything else and why the baseline materialized replay happens *after*
//! the streamed one inside the driver.

use crate::report::TextTable;
use crate::runner::STREAM_CHUNK;
use crate::RunOutputExt;
use crate::{Mechanism, Run, SimConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;
use utlb_core::UtlbEngine;
use utlb_trace::{gen, GenConfig, Looped, SplashApp, TraceRecord, TraceStream};

/// The looped application: Barnes has the suite's highest per-page reuse
/// (Table 3: ~16 lookups per page), so its epoch footprint — and with it
/// the engine state — stays small while lookups accumulate.
pub const STREAM_SCALE_APP: SplashApp = SplashApp::Barnes;

/// The baseline: FFT is the largest materialized run in the suite by total
/// lookups (Table 3: 43 132 per node at scale 1.0).
pub const STREAM_SCALE_BASELINE: SplashApp = SplashApp::Fft;

/// Gap between epochs, ns — one mean inter-request step, so the looped
/// stream looks like one long-running program rather than disjoint runs.
const EPOCH_GAP_NS: u64 = 20_000;

/// Result of the fused-replay scale measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamScale {
    /// Looped application.
    pub app: SplashApp,
    /// NIC cache entries of both runs.
    pub cache_entries: usize,
    /// Epochs the stream was looped for.
    pub epochs: u64,
    /// Records per refill of the replay loop ([`STREAM_CHUNK`]).
    pub chunk: usize,
    /// Translation lookups performed by the streamed run.
    pub streamed_lookups: u64,
    /// Trace records consumed by the streamed run.
    pub streamed_records: u64,
    /// Wall-clock milliseconds of the streamed run.
    pub streamed_wall_ms: f64,
    /// Streamed replay throughput, million lookups per second.
    pub streamed_mlookups_per_sec: f64,
    /// `VmHWM` (peak RSS) right after the streamed run, in KiB. `None` off
    /// Linux. Meaningful only when the streamed run is the process' first
    /// large allocation — see the module docs.
    pub peak_rss_after_stream_kb: Option<u64>,
    /// Bytes of trace resident during streamed replay: one chunk.
    pub resident_trace_bytes: u64,
    /// Bytes the streamed workload would occupy if materialized.
    pub materialized_equiv_bytes: u64,
    /// Baseline application (largest materialized run).
    pub baseline_app: SplashApp,
    /// Baseline lookups (materialize-then-replay).
    pub baseline_lookups: u64,
    /// Wall-clock milliseconds of the baseline run (replay only).
    pub baseline_wall_ms: f64,
    /// `streamed_lookups / baseline_lookups` — the acceptance criterion is
    /// ≥ 10.
    pub scale_factor: f64,
    /// NI miss rate of the streamed run, as a sanity anchor: looping a
    /// high-reuse app must drive the compulsory share toward zero.
    pub streamed_ni_miss_rate: f64,
}

/// Reads the process' peak resident set (`VmHWM`) in KiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Reads the process' peak resident set (`VmHWM`) in KiB. Always `None`
/// off Linux.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_kb() -> Option<u64> {
    None
}

/// Replays [`STREAM_SCALE_APP`] looped for `epochs` epochs through the
/// UTLB engine in fused generate+replay mode, then materializes and
/// replays the [`STREAM_SCALE_BASELINE`] trace for comparison.
///
/// With `cfg.scale == 1.0` and `epochs` ≥ ~300 the streamed run exceeds
/// the baseline's lookups more than tenfold while its resident trace
/// state stays one [`STREAM_CHUNK`].
///
/// # Panics
///
/// Panics on internal engine errors, as for any [`Run`] execution.
pub fn stream_scale(cfg: &GenConfig, epochs: u64, cache_entries: usize) -> StreamScale {
    let sim = SimConfig::study(cache_entries);

    // --- Fused generate+replay: the trace never exists in memory. ---
    let mut looped = Looped::new(
        gen::stream(STREAM_SCALE_APP, cfg),
        epochs,
        EPOCH_GAP_NS,
        |_| gen::stream(STREAM_SCALE_APP, cfg),
    );
    let streamed_records = looped.remaining();
    let start = Instant::now();
    let streamed = Run::with_config(&sim)
        .execute_with(&mut UtlbEngine::new(sim.utlb_config()), &mut looped)
        .into_sim()
        .unwrap();
    let streamed_wall = start.elapsed();
    let peak_rss_after_stream_kb = peak_rss_kb();

    // --- Baseline: materialize-then-replay the largest paper trace. ---
    let baseline_trace = gen::generate(STREAM_SCALE_BASELINE, cfg);
    let start = Instant::now();
    let baseline = Run::new(Mechanism::Utlb)
        .config(&sim)
        .execute(&baseline_trace)
        .into_sim()
        .unwrap();
    let baseline_wall = start.elapsed();

    let record_bytes = std::mem::size_of::<TraceRecord>() as u64;
    StreamScale {
        app: STREAM_SCALE_APP,
        cache_entries,
        epochs,
        chunk: STREAM_CHUNK,
        streamed_lookups: streamed.stats.lookups,
        streamed_records,
        streamed_wall_ms: streamed_wall.as_secs_f64() * 1e3,
        streamed_mlookups_per_sec: streamed.stats.lookups as f64
            / streamed_wall.as_secs_f64()
            / 1e6,
        peak_rss_after_stream_kb,
        resident_trace_bytes: STREAM_CHUNK as u64 * record_bytes,
        materialized_equiv_bytes: streamed_records * record_bytes,
        baseline_app: STREAM_SCALE_BASELINE,
        baseline_lookups: baseline.stats.lookups,
        baseline_wall_ms: baseline_wall.as_secs_f64() * 1e3,
        scale_factor: streamed.stats.lookups as f64 / baseline.stats.lookups as f64,
        streamed_ni_miss_rate: streamed.rates().ni_miss_rate,
    }
}

impl fmt::Display for StreamScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Stream scale ({} entries): fused generate+replay, {} x{} epochs vs materialized {}",
            self.cache_entries, self.app, self.epochs, self.baseline_app
        ));
        t.header(["metric", "streamed", "baseline"]);
        t.row([
            "lookups".to_string(),
            self.streamed_lookups.to_string(),
            self.baseline_lookups.to_string(),
        ]);
        t.row([
            "wall ms".to_string(),
            format!("{:.1}", self.streamed_wall_ms),
            format!("{:.1}", self.baseline_wall_ms),
        ]);
        t.row([
            "resident trace bytes".to_string(),
            self.resident_trace_bytes.to_string(),
            (self.baseline_lookups * std::mem::size_of::<TraceRecord>() as u64).to_string(),
        ]);
        t.row([
            "scale factor".to_string(),
            format!("{:.1}x", self.scale_factor),
            "1.0x".to_string(),
        ]);
        t.row([
            "Mlookups/s".to_string(),
            format!("{:.2}", self.streamed_mlookups_per_sec),
            String::new(),
        ]);
        t.row([
            "peak RSS KiB".to_string(),
            self.peak_rss_after_stream_kb
                .map_or_else(|| "n/a".to_string(), |k| k.to_string()),
            String::new(),
        ]);
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_gen_config;

    #[test]
    fn scale_factor_grows_linearly_with_epochs() {
        let cfg = test_gen_config();
        let r = stream_scale(&cfg, 30, 1024);
        assert_eq!(r.epochs, 30);
        // Barnes at this scale has fewer lookups than FFT, but 30 epochs
        // dominate the single-epoch baseline comfortably.
        assert!(r.scale_factor >= 10.0, "scale factor {}", r.scale_factor);
        assert!(r.streamed_lookups > 10 * r.baseline_lookups);
        let record_bytes = std::mem::size_of::<TraceRecord>() as u64;
        assert_eq!(r.resident_trace_bytes, STREAM_CHUNK as u64 * record_bytes);
        assert!(r.materialized_equiv_bytes > 10 * r.resident_trace_bytes);
        assert!(r.streamed_mlookups_per_sec > 0.0);
        // Looping a fixed footprint drives reuse up: the miss rate must sit
        // well below one epoch's compulsory share.
        assert!(
            r.streamed_ni_miss_rate < 0.5,
            "looped miss rate {}",
            r.streamed_ni_miss_rate
        );
    }

    #[test]
    fn display_renders_the_headline_numbers() {
        let cfg = test_gen_config();
        let r = stream_scale(&cfg, 12, 256);
        let s = r.to_string();
        assert!(s.contains("scale factor"));
        assert!(s.contains("Mlookups/s"));
    }
}
