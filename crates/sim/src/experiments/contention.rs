//! Extension: contention experiments on the discrete-event stations.
//!
//! The paper's cost model is serial — every device is always free when the
//! translation needs it. §7's limitations concede the traces "may not
//! reveal certain behaviors that multiple independent programs have"; the
//! same is true of a loaded I/O bus. These drivers replay the traces
//! through the DES overlay ([`Run::des`]) with the trace's own payload bytes put
//! back on the shared bus (scaled by an *offered load* factor), measuring
//! how translation latency degrades as the bus, DMA engine, and host
//! interrupt service saturate — per mechanism, so the UTLB-vs-interrupt
//! comparison extends from cost to queueing behavior.

use super::gen_key;
use crate::report::{micros, TextTable};
use crate::RunOutputExt;
use crate::{DesConfig, Mechanism, Run, SimConfig, SweepGrid};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use utlb_trace::{gen, merge_multiprogram, GenConfig, SplashApp, Trace};

/// Offered-load factors swept by [`bus_contention`]: 0 is the serial
/// (zero-contention) anchor, 1 replays the trace's own payload traffic,
/// larger factors model co-located senders sharing the bus.
pub const CONTENTION_LOADS: [f64; 5] = [0.0, 1.0, 2.0, 4.0, 8.0];

/// Applications used by the contention sweep: the paper's most
/// communication-intensive trace (Radix), a bursty FFT, and a sparse one
/// (Water) as contrast.
pub const CONTENTION_APPS: [SplashApp; 3] = [SplashApp::Fft, SplashApp::Radix, SplashApp::Water];

/// One `(app, mechanism, load)` point of the contention sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContentionCell {
    /// The application replayed.
    pub app: SplashApp,
    /// The translation mechanism.
    pub mechanism: Mechanism,
    /// Offered payload load factor.
    pub payload_load: f64,
    /// Mean per-request translation latency, µs.
    pub mean_latency_us: f64,
    /// Worst per-request translation latency, µs.
    pub max_latency_us: f64,
    /// Mean queueing delay per request, µs (the contention surcharge).
    pub mean_wait_us: f64,
    /// Total wait behind the NIC firmware, ns.
    pub fw_wait_ns: u64,
    /// Total wait behind the DMA engine, ns.
    pub dma_wait_ns: u64,
    /// Total wait behind the I/O bus, ns.
    pub bus_wait_ns: u64,
    /// Total wait behind host interrupt service, ns.
    pub intr_wait_ns: u64,
    /// DES completion time, ns.
    pub des_time_ns: u64,
}

/// The offered-load sweep: translation latency vs bus load, per mechanism.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BusContention {
    /// Cache entries used for every run.
    pub cache_entries: usize,
    /// One cell per `(app, mechanism, load)`, loads innermost.
    pub cells: Vec<ContentionCell>,
}

impl BusContention {
    /// The `(load, mean latency µs)` series for one `(app, mechanism)`
    /// curve, in sweep order.
    pub fn latency_series(&self, app: SplashApp, mech: Mechanism) -> Vec<(f64, f64)> {
        self.cells
            .iter()
            .filter(|c| c.app == app && c.mechanism == mech)
            .map(|c| (c.payload_load, c.mean_latency_us))
            .collect()
    }
}

fn des_config(load: f64) -> DesConfig {
    if load == 0.0 {
        DesConfig::zero_contention()
    } else {
        DesConfig::contended(load)
    }
}

/// Sweeps offered load over [`CONTENTION_APPS`] × all four mechanisms
/// ([`Mechanism::ALL`]) × [`CONTENTION_LOADS`] at `cache_entries`, one DES
/// replay per cell, fanned out across sweep workers.
pub fn bus_contention(cfg: &GenConfig, cache_entries: usize) -> BusContention {
    let mut points: Vec<(SplashApp, Arc<Trace>, Mechanism, f64)> = Vec::new();
    for app in CONTENTION_APPS {
        let trace = gen::generate_shared(app, cfg);
        for mech in Mechanism::ALL {
            for load in CONTENTION_LOADS {
                points.push((app, Arc::clone(&trace), mech, load));
            }
        }
    }
    let sim = SimConfig::study(cache_entries);
    let cells = SweepGrid::over(&points)
        .cost(|(_, trace, _, _)| trace.total_lookups())
        .checkpoint("bus_contention", |(app, _, mech, load)| {
            format!(
                "app={app}|mech={mech}|load={load}|entries={cache_entries}|{}",
                gen_key(cfg)
            )
        })
        .run(|(app, trace, mech, load)| {
            let r = Run::new(*mech)
                .config(&sim)
                .des(des_config(*load))
                .execute(trace.as_ref())
                .into_des()
                .unwrap();
            ContentionCell {
                app: *app,
                mechanism: *mech,
                payload_load: *load,
                mean_latency_us: r.mean_latency_us(),
                max_latency_us: r.max_latency_us(),
                mean_wait_us: r.mean_wait_us(),
                fw_wait_ns: r.fw_wait_ns,
                dma_wait_ns: r.dma_wait_ns,
                bus_wait_ns: r.bus_wait_ns,
                intr_wait_ns: r.intr_wait_ns,
                des_time_ns: r.des_time_ns,
            }
        });
    BusContention {
        cache_entries,
        cells,
    }
}

impl fmt::Display for BusContention {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Bus contention ({} entries): translation latency vs offered payload load",
            self.cache_entries
        ));
        t.header([
            "app", "mech", "load", "mean us", "max us", "wait us", "fw us", "dma us", "bus us",
            "intr us",
        ]);
        for c in &self.cells {
            t.row([
                c.app.to_string(),
                c.mechanism.to_string(),
                format!("{:.1}", c.payload_load),
                micros(c.mean_latency_us),
                micros(c.max_latency_us),
                micros(c.mean_wait_us),
                micros(c.fw_wait_ns as f64 / 1000.0),
                micros(c.dma_wait_ns as f64 / 1000.0),
                micros(c.bus_wait_ns as f64 / 1000.0),
                micros(c.intr_wait_ns as f64 / 1000.0),
            ]);
        }
        t.fmt(f)
    }
}

/// One program's latency, alone vs co-scheduled, in the DES interference
/// experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterferenceCell {
    /// The application measured.
    pub app: SplashApp,
    /// The translation mechanism.
    pub mechanism: Mechanism,
    /// Mean translation latency running alone, µs.
    pub alone_us: f64,
    /// Mean translation latency co-scheduled with the partner, µs.
    pub shared_us: f64,
}

impl InterferenceCell {
    /// Latency inflation from co-scheduling: `shared / alone`.
    pub fn slowdown(&self) -> f64 {
        if self.alone_us == 0.0 {
            1.0
        } else {
            self.shared_us / self.alone_us
        }
    }
}

/// The multiprogrammed-interference experiment on the DES stations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterferenceDes {
    /// Cache entries used.
    pub cache_entries: usize,
    /// Offered payload load for every run.
    pub payload_load: f64,
    /// One cell per (program, mechanism).
    pub cells: Vec<InterferenceCell>,
}

/// Replays `a` and `b` alone and merged (via [`merge_multiprogram`]) under
/// all four mechanisms at `load`, comparing each program's mean translation
/// latency — queueing interference between independent programs sharing
/// one NIC, which the serial runner cannot see.
pub fn interference_des(
    a: SplashApp,
    b: SplashApp,
    cfg: &GenConfig,
    cache_entries: usize,
    load: f64,
) -> InterferenceDes {
    let ta = gen::generate_shared(a, cfg);
    let tb = gen::generate_shared(b, cfg);
    let a_procs = ta.process_ids().len() as u32;
    let b_procs = tb.process_ids().len() as u32;
    let merged = Arc::new(merge_multiprogram(&[(*ta).clone(), (*tb).clone()]));

    let sim = SimConfig::study(cache_entries);
    let des = des_config(load);
    let runs: Vec<(Arc<Trace>, Mechanism)> = Mechanism::ALL
        .into_iter()
        .flat_map(|m| {
            [
                (Arc::clone(&ta), m),
                (Arc::clone(&tb), m),
                (Arc::clone(&merged), m),
            ]
        })
        .collect();
    let results = SweepGrid::over(&runs)
        .cost(|(trace, _)| trace.total_lookups())
        .run(|(trace, mech)| {
            Run::new(*mech)
                .config(&sim)
                .des(des)
                .execute(trace.as_ref())
                .into_des()
                .unwrap()
        });

    let a_pids: Vec<u32> = (1..=a_procs).collect();
    let b_pids: Vec<u32> = (a_procs + 1..=a_procs + b_procs).collect();
    let mut cells = Vec::new();
    for (mi, mech) in Mechanism::ALL.into_iter().enumerate() {
        let alone_a = &results[3 * mi];
        let alone_b = &results[3 * mi + 1];
        let shared = &results[3 * mi + 2];
        cells.push(InterferenceCell {
            app: a,
            mechanism: mech,
            alone_us: alone_a.mean_latency_us(),
            shared_us: shared.latency_for_pids(&a_pids).mean_ns() / 1000.0,
        });
        cells.push(InterferenceCell {
            app: b,
            mechanism: mech,
            alone_us: alone_b.mean_latency_us(),
            shared_us: shared.latency_for_pids(&b_pids).mean_ns() / 1000.0,
        });
    }
    InterferenceDes {
        cache_entries,
        payload_load: load,
        cells,
    }
}

impl fmt::Display for InterferenceDes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "DES interference ({} entries, load {:.1}): mean translation latency per program",
            self.cache_entries, self.payload_load
        ));
        t.header(["app", "mech", "alone us", "co-sched us", "slowdown"]);
        for c in &self.cells {
            t.row([
                c.app.to_string(),
                c.mechanism.to_string(),
                micros(c.alone_us),
                micros(c.shared_us),
                format!("{:.2}x", c.slowdown()),
            ]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_gen_config;
    use super::*;

    #[test]
    fn latency_is_monotone_in_offered_load_for_every_mechanism() {
        // The sweep's acceptance criterion: more background traffic can
        // only slow translations down.
        let bc = bus_contention(&test_gen_config(), 2048);
        assert_eq!(
            bc.cells.len(),
            CONTENTION_APPS.len() * Mechanism::ALL.len() * CONTENTION_LOADS.len()
        );
        for app in CONTENTION_APPS {
            for mech in Mechanism::ALL {
                let series = bc.latency_series(app, mech);
                assert_eq!(series.len(), CONTENTION_LOADS.len());
                for pair in series.windows(2) {
                    assert!(
                        pair[1].1 >= pair[0].1,
                        "{app}/{mech}: latency fell from {} to {} as load rose {} -> {}",
                        pair[0].1,
                        pair[1].1,
                        pair[0].0,
                        pair[1].0
                    );
                }
            }
        }
        assert!(bc.to_string().contains("Bus contention"));
    }

    #[test]
    fn zero_load_cells_have_no_device_waits() {
        let bc = bus_contention(&test_gen_config(), 2048);
        for c in bc.cells.iter().filter(|c| c.payload_load == 0.0) {
            assert_eq!(
                c.dma_wait_ns + c.bus_wait_ns + c.intr_wait_ns,
                0,
                "{}",
                c.app
            );
        }
    }

    #[test]
    fn cosched_latency_never_beats_running_alone() {
        let ix = interference_des(
            SplashApp::Radix,
            SplashApp::Fft,
            &test_gen_config(),
            2048,
            4.0,
        );
        assert_eq!(ix.cells.len(), 2 * Mechanism::ALL.len());
        for c in &ix.cells {
            assert!(
                c.shared_us >= c.alone_us * 0.98,
                "{}/{}: co-scheduled {} µs vs alone {} µs",
                c.app,
                c.mechanism,
                c.shared_us,
                c.alone_us
            );
            assert!(c.slowdown() >= 0.98);
        }
        assert!(ix.to_string().contains("DES interference"));
    }
}
