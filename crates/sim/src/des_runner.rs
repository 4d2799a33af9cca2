//! Discrete-event timing: the serial replay's timing, made contention-aware.
//!
//! A `.des(timing)` run drives the same engines over the same traces as a
//! plain [`Run::execute`](crate::Run::execute), through the same replay
//! loop, but instead of charging every cost to one serial clock it routes
//! each lookup's resource demands — NIC firmware time, host kernel pin
//! work, interrupt dispatch, translation-entry DMA — through the contended
//! stations of `utlb-des` ([`stations`](crate::stations)). The engine
//! replay itself is untouched (same record order, same clock advances,
//! same statistics); the station overlay is computed from the engines' own
//! event streams via [`page_demands`](utlb_core::page_demands).
//!
//! With [`DesConfig::zero_contention`] every station sees at most one
//! request in flight and the overlay's completion time reproduces the
//! serial `sim_time_ns` exactly — the executable specification the
//! `des_equivalence` test suite pins. Turning payload traffic on
//! ([`DesConfig::contended`]) puts the trace's own transfer bytes on the
//! shared bus and (optionally) a completion interrupt per transfer on host
//! interrupt service, which is where queueing delay — the paper's §7 open
//! question — appears.

use crate::SimResult;
use serde::{Deserialize, Serialize};
use utlb_core::obs::Histogram;

pub use utlb_des::DesConfig;
use utlb_des::ResourceReport;

/// Outcome of one discrete-event run: the serial result (identical to what
/// a plain trace replay returns for the same inputs) plus the queueing view.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesResult {
    /// The serial-replay result — counters, cache, classification,
    /// `sim_time_ns` — byte-identical to a plain trace replay.
    pub base: SimResult,
    /// When the last translation finished on the contended stations,
    /// relative to the same origin as `base.sim_time_ns`. Equals
    /// `base.sim_time_ns` under zero contention.
    pub des_time_ns: u64,
    /// Per-request translation latency (arrival to last page translated),
    /// service and queueing included.
    pub latency_ns: Histogram,
    /// Per-process request-latency histograms, keyed by raw pid.
    pub per_process_latency: Vec<(u32, Histogram)>,
    /// Queueing delay spent behind the NIC firmware processor.
    pub fw_wait_ns: u64,
    /// Queueing delay spent behind the DMA engine.
    pub dma_wait_ns: u64,
    /// Queueing delay spent behind the I/O bus.
    pub bus_wait_ns: u64,
    /// Queueing delay spent behind host interrupt service.
    pub intr_wait_ns: u64,
    /// Station occupancy reports (firmware, DMA engine, bus, interrupt
    /// service), in a fixed order.
    pub resources: Vec<ResourceReport>,
    /// Background payload transfers injected ([`DesConfig::payload_load`]).
    pub payload_transfers: u64,
    /// Total background payload words moved across the bus.
    pub payload_words: u64,
}

impl DesResult {
    /// Total queueing delay across all stations, in nanoseconds.
    pub fn total_wait_ns(&self) -> u64 {
        self.fw_wait_ns + self.dma_wait_ns + self.bus_wait_ns + self.intr_wait_ns
    }

    /// Mean per-request translation latency in µs.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency_ns.mean_ns() / 1000.0
    }

    /// Worst per-request translation latency in µs.
    pub fn max_latency_us(&self) -> f64 {
        self.latency_ns.max_ns() as f64 / 1000.0
    }

    /// Merged request-latency histogram over a pid subset (one program of a
    /// multiprogrammed trace).
    pub fn latency_for_pids(&self, pids: &[u32]) -> Histogram {
        let mut h = Histogram::new();
        for (p, hist) in &self.per_process_latency {
            if pids.contains(p) {
                h.merge(hist);
            }
        }
        h
    }

    /// Mean queueing delay per request in µs — the contention surcharge.
    pub fn mean_wait_us(&self) -> f64 {
        if self.latency_ns.count() == 0 {
            0.0
        } else {
            self.total_wait_ns() as f64 / self.latency_ns.count() as f64 / 1000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mechanism, Run, RunOutputExt, SimConfig};
    use utlb_trace::{gen, GenConfig, SplashApp, Trace};

    fn tiny(app: SplashApp) -> Trace {
        gen::generate(
            app,
            &GenConfig {
                seed: 21,
                scale: 0.05,
                app_processes: 4,
            },
        )
    }

    fn exec_des(mech: Mechanism, trace: &Trace, cfg: &SimConfig, des: &DesConfig) -> DesResult {
        Run::new(mech)
            .config(cfg)
            .des(*des)
            .execute(trace)
            .into_des()
            .unwrap()
    }

    #[test]
    fn zero_contention_replay_matches_serial_exactly() {
        let trace = tiny(SplashApp::Water);
        let cfg = SimConfig::study(256);
        for mech in Mechanism::ALL {
            let serial = Run::new(mech)
                .config(&cfg)
                .execute(&trace)
                .into_sim()
                .unwrap();
            let des = exec_des(mech, &trace, &cfg, &DesConfig::zero_contention());
            assert_eq!(des.base.stats, serial.stats, "{mech}");
            assert_eq!(des.base.cache, serial.cache, "{mech}");
            assert_eq!(des.base.sim_time_ns, serial.sim_time_ns, "{mech}");
            assert_eq!(des.des_time_ns, serial.sim_time_ns, "{mech}: DES overlay");
            // Queueing behind the firmware is part of the serial model
            // itself (records can arrive while the previous one is still
            // being walked); the *devices* see no contention.
            let nested = des.dma_wait_ns + des.bus_wait_ns + des.intr_wait_ns;
            assert_eq!(nested, 0, "{mech}: devices never queue uncontended");
        }
    }

    #[test]
    fn latency_histogram_covers_every_record() {
        let trace = tiny(SplashApp::Fft);
        let cfg = SimConfig::study(256);
        let des = exec_des(Mechanism::Utlb, &trace, &cfg, &DesConfig::zero_contention());
        assert_eq!(des.latency_ns.count(), trace.records.len() as u64);
        let per: u64 = des.per_process_latency.iter().map(|(_, h)| h.count()).sum();
        assert_eq!(per, trace.records.len() as u64);
        assert!(des.mean_latency_us() > 0.0);
    }

    #[test]
    fn payload_load_induces_waits_and_stretches_completion() {
        let trace = tiny(SplashApp::Radix);
        let cfg = SimConfig::study(256);
        let quiet = exec_des(Mechanism::Utlb, &trace, &cfg, &DesConfig::zero_contention());
        let loaded = exec_des(Mechanism::Utlb, &trace, &cfg, &DesConfig::contended(8.0));
        assert!(loaded.payload_transfers > 0);
        assert!(loaded.payload_words > 0);
        assert!(
            loaded.total_wait_ns() > 0,
            "heavy payload traffic must queue"
        );
        assert!(loaded.des_time_ns >= quiet.des_time_ns);
        // The serial half is untouched by the overlay.
        assert_eq!(loaded.base.stats, quiet.base.stats);
        assert_eq!(loaded.base.sim_time_ns, quiet.base.sim_time_ns);
    }

    #[test]
    fn observed_des_run_reconciles_and_records_waits() {
        let trace = tiny(SplashApp::Water);
        let cfg = SimConfig::study(128);
        let (result, obs) = Run::new(Mechanism::Intr)
            .config(&cfg)
            .des(DesConfig::contended(4.0))
            .observed_ring(32)
            .execute(&trace)
            .into_des_observed()
            .unwrap();
        assert!(obs.reconciled, "mismatches: {:?}", obs.mismatches);
        assert!(obs.metrics.counts.waits > 0, "waits were recorded");
        assert_eq!(obs.metrics.total_wait_ns(), result.total_wait_ns());
        assert_eq!(obs.metrics.counts.lookups, result.base.stats.lookups);
    }

    #[test]
    fn intr_baseline_queues_on_interrupt_service_not_the_bus() {
        // The paper's asymmetry, now visible as *where* time queues: the
        // baseline's misses serialize on host interrupt service and never
        // touch the DMA path for translations.
        let trace = tiny(SplashApp::Radix);
        let cfg = SimConfig::study(64);
        let des = exec_des(Mechanism::Intr, &trace, &cfg, &DesConfig::zero_contention());
        let dma_station = &des.resources[1];
        assert_eq!(dma_station.name, "dma_engine");
        assert_eq!(
            dma_station.stats.arrivals, 0,
            "no translation-entry DMA in the baseline"
        );
        let intr_station = &des.resources[3];
        assert_eq!(intr_station.name, "intr_service");
        assert!(intr_station.stats.busy_ns > 0);
    }
}
