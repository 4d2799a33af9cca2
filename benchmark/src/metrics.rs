//! Metric definitions and the end-to-end and result-derived computations.
//!
//! `BENCHMARK.json` at the repository root is the single source of every
//! metric's name, unit, direction and bound; it is compiled in, so a run
//! prints exactly the metrics the file declares.

use crate::measure::{Passes, Prepared};
use crate::stats::median;
use crate::workload::{CellResult, LiveView};
use serde::Value;
use std::sync::OnceLock;
use utlb_core::obs::Histogram;
use utlb_sim::Mechanism;

/// The benchmark definition, as committed.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit it is reported in.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// The declaration of metric `name`, end-to-end or per-layer.
    pub fn def(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, String> {
    crate::json::get(obj, key).ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn text(obj: &Value, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a string"))
}

fn metric_defs(root: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    let list = field(root, key)?
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?;
    list.iter()
        .map(|m| {
            let better = text(m, "better")?;
            Ok(MetricDef {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                },
                bound: field(m, "bound").ok().and_then(Value::as_f64),
            })
        })
        .collect()
}

/// Parses a benchmark definition.
///
/// # Errors
///
/// Returns a message naming the first malformed or missing entry.
pub fn parse_spec(json: &str) -> Result<Spec, String> {
    let root = crate::json::parse(json)?;
    let workloads = field(&root, "workloads")?
        .as_array()
        .ok_or("BENCHMARK.json: `workloads` is not a list")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds: field(&root, "run_seconds")?
            .as_u64()
            .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
        workloads,
        end_to_end: metric_defs(&root, "end_to_end")?,
        per_layer: metric_defs(&root, "per_layer")?,
    })
}

/// The compiled-in benchmark definition.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse_spec(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses"))
}

/// Metric values by name, in the order they were computed.
pub type Values = Vec<(String, f64)>;

/// The metric suffix of a mechanism.
pub fn mech_key(m: Mechanism) -> &'static str {
    match m {
        Mechanism::Utlb => "utlb",
        Mechanism::PerProc => "perproc",
        Mechanism::Indexed => "indexed",
        Mechanism::Intr => "intr",
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-pass throughput samples, Mlookups per second at the reference
/// host's speed.
pub fn throughput_samples(p: &Prepared, passes: &Passes) -> Vec<f64> {
    let lookups = p.lookups_per_pass() as f64;
    passes
        .normalized_passes()
        .iter()
        .map(|ns| lookups / ns * 1e3)
        .collect()
}

/// Setup samples, seconds at the reference host's speed.
pub fn setup_samples(p: &Prepared) -> Vec<f64> {
    p.setup_s.iter().map(|s| s * p.setup_speed).collect()
}

/// The end-to-end metrics of a measured workload, in `BENCHMARK.json`
/// order. Host times are at the reference host's speed. Throughput is
/// lookups per pass over the sum of per-cell median times; the simulated
/// rates sum counts over every cell of the warm-up pass (every later pass
/// reproduced it byte for byte).
pub fn end_to_end(p: &Prepared, passes: &Passes, peak_rss_kib: u64) -> Values {
    let lookups = p.lookups_per_pass() as f64;
    let median_pass_ns: f64 = (0..passes.cell_ns.len())
        .map(|c| median(&passes.normalized(c)))
        .sum();
    let sum = |f: fn(&CellResult) -> u64| p.reference.iter().map(f).sum::<u64>() as f64;
    vec![
        ("setup_s".into(), median(&setup_samples(p))),
        ("mlookups_per_s".into(), lookups / median_pass_ns * 1e3),
        ("peak_rss_mib".into(), peak_rss_kib as f64 / 1024.0),
        (
            "sim_ni_miss_rate".into(),
            ratio(sum(|r| r.stats.ni_misses), lookups),
        ),
        (
            "sim_pin_ops_per_klookup".into(),
            ratio(
                sum(|r| r.stats.pin_calls + r.stats.unpin_calls) * 1e3,
                lookups,
            ),
        ),
        (
            "sim_interrupts_per_klookup".into(),
            ratio(sum(|r| r.stats.interrupts) * 1e3, lookups),
        ),
    ]
}

/// Frames one live pass moves: a `Hello` per connection attempt and a
/// `Redirect` per hop; per accepted connection a `Welcome` and a `ByeAck`;
/// per offered request the request frame plus its `Done` or `Busy`.
/// (Release builds skip the `Bye` round trip, which only a debug
/// assertion performs.)
pub fn frames(results: &[CellResult]) -> u64 {
    results
        .iter()
        .filter_map(|r| r.live.as_ref())
        .map(|l| l.connections + l.redirects + 2 * l.accepted + 2 * l.offered)
        .sum()
}

/// Per-layer metrics read from the cells' results rather than from host
/// timing: the simulated counts each layer contributes, which a run
/// reports without tracing.
pub fn from_results(p: &Prepared) -> Values {
    let mut v: Values = Vec::new();
    let cells = || p.cells.iter().zip(&p.reference);
    v.push(("trace.records".into(), p.records_per_pass() as f64));
    for &m in &Mechanism::ALL {
        let of = || cells().filter(move |(c, _)| c.mech == m).map(|(_, r)| r);
        let sum = |f: fn(&CellResult) -> u64| of().map(f).sum::<u64>() as f64;
        let k = mech_key(m);
        v.push((format!("core.lookup.pages.{k}"), sum(|r| r.lookups)));
        v.push((
            format!("core.register.refused.{k}"),
            sum(|r| r.live.map_or(0, |l| l.register_refusals)),
        ));
        v.push((format!("mem.pins.{k}"), sum(|r| r.stats.pins)));
        v.push((format!("mem.unpins.{k}"), sum(|r| r.stats.unpins)));
        v.push((format!("mem.pin_sim_ns.{k}"), sum(|r| r.stats.pin_time_ns)));
        v.push((
            format!("mem.unpin_sim_ns.{k}"),
            sum(|r| r.stats.unpin_time_ns),
        ));
        v.push((
            format!("nic.cache.hit_frac.{k}"),
            ratio(sum(|r| r.cache.hits), sum(|r| r.cache.lookups())),
        ));
        v.push((
            format!("nic.cache.evictions.{k}"),
            sum(|r| r.cache.evictions),
        ));
        v.push((
            format!("nic.dma.entries_fetched.{k}"),
            sum(|r| r.stats.entries_fetched),
        ));
        v.push((format!("nic.interrupts.{k}"), sum(|r| r.stats.interrupts)));
    }

    let des: Vec<_> = p.reference.iter().filter_map(|r| r.des).collect();
    for (i, station) in ["fw", "dma", "bus", "intr"].into_iter().enumerate() {
        let wait: u64 = des.iter().map(|d| d.wait_ns[i]).sum();
        let busy: u64 = des.iter().map(|d| d.busy_ns[i]).sum();
        let horizon: u64 = des.iter().map(|d| d.horizon_ns[i]).sum();
        v.push((format!("des.wait_ns.{station}"), wait as f64));
        v.push((
            format!("des.busy_frac.{station}"),
            ratio(busy as f64, horizon as f64),
        ));
    }
    let live: Vec<_> = p.reference.iter().filter_map(|r| r.live).collect();
    let lsum = |f: fn(&LiveView) -> u64| live.iter().map(f).sum::<u64>() as f64;
    v.push((
        "des.admission.stalled".into(),
        lsum(|l| l.admission.stalled),
    ));
    v.push((
        "des.admission.rejected".into(),
        lsum(|l| l.admission.rejected),
    ));
    v.push((
        "des.admission.stall_ns".into(),
        lsum(|l| l.admission.stall_ns),
    ));
    v.push(("msg.frames".into(), frames(&p.reference) as f64));

    // Single-board cells report no redirects and no imbalance (0).
    v.push(("sim.cluster.redirects".into(), lsum(|l| l.redirects)));
    v.push((
        "sim.cluster.imbalance".into(),
        live.iter().map(|l| l.imbalance).fold(0.0, f64::max),
    ));
    v.push((
        "sim.cluster.host_mem_wait_ns".into(),
        lsum(|l| l.host_mem_wait_ns),
    ));

    let mut lat = Histogram::new();
    for h in p.reference.iter().filter_map(|r| r.latency.as_ref()) {
        lat.merge(h);
    }
    let quantile_us = |q| {
        if lat.count() == 0 {
            0.0
        } else {
            lat.quantile_ns(q) as f64 / 1e3
        }
    };
    v.push(("sim.lat_mean_us".into(), lat.mean_ns() / 1e3));
    v.push(("sim.lat_p50_us".into(), quantile_us(0.5)));
    v.push(("sim.lat_p999_us".into(), quantile_us(0.999)));
    v.push((
        "sim.kreq_per_s".into(),
        ratio(lsum(|l| l.served) * 1e6, lsum(|l| l.sim_time_ns)),
    ));
    v.push((
        "sim.redirect_hops_per_conn".into(),
        ratio(lsum(|l| l.redirects), lsum(|l| l.connections)),
    ));
    let planned = (p.inputs.planned_requests() * live.len() as u64) as f64;
    v.push((
        "sim.failed_frac".into(),
        ratio(planned - lsum(|l| l.served), planned),
    ));
    v
}

/// Orders `values` as `defs` lists them, keeping only declared names.
pub fn in_spec_order(defs: &[MetricDef], values: &Values) -> Values {
    defs.iter()
        .filter_map(|d| {
            values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(n, x)| (n.clone(), *x))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{timed_passes, warm_up};
    use crate::report::traced_layers;
    use crate::trace::trace_prepared;
    use crate::workload::{Cell, Inputs, Source, Workload};
    use utlb_sim::FrontendConfig;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names(values: &Values) -> Vec<&str> {
        values.iter().map(|(n, _)| n.as_str()).collect()
    }

    fn declared(defs: &[MetricDef]) -> Vec<&str> {
        defs.iter().map(|d| d.name.as_str()).collect()
    }

    #[test]
    fn the_definition_is_within_its_limits() {
        let s = spec();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        assert!((1..=60).contains(&s.run_seconds));
        let mut all: Vec<&str> = s.workloads.iter().map(String::as_str).collect();
        all.extend(declared(&s.end_to_end));
        all.extend(declared(&s.per_layer));
        for n in &all {
            assert!(well_formed(n), "{n}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "names are used once");
        for d in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(s.workloads, names);
        let setup = s.def("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = s
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(largest <= 0.25);
        assert!(s.per_layer.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn run_and_trace_report_exactly_the_declared_metrics() {
        let s = spec();
        for w in Workload::ALL {
            let mut p = warm_up(Inputs::small(w));
            p.setup_s = vec![1e-6];
            p.check();
            assert!(p.failures.is_empty(), "{:?}", p.failures);
            let passes = timed_passes(&mut p, 1, 0.0);
            let e2e = end_to_end(&p, &passes, 1024);
            assert_eq!(names(&e2e), declared(&s.end_to_end), "{}", w.name());
            for (n, v) in &e2e {
                assert!(*v > 0.0, "{} {n} must never be 0", w.name());
            }
            let from = from_results(&p);
            assert!(names(&from).iter().all(|n| s.def(n).is_some()));
            let t = trace_prepared(p, 0.0);
            assert!(t.prepared.failures.is_empty(), "{:?}", t.prepared.failures);
            let layers = traced_layers(&t);
            assert_eq!(names(&layers), declared(&s.per_layer), "{}", w.name());
            for name in ["bench.trace_overhead_frac", "bench.host_speed"] {
                let (_, v) = layers.iter().find(|(n, _)| n == name).expect(name);
                assert!(v.is_finite() && *v != 0.0, "{} {name} = {v}", w.name());
            }
        }
    }

    #[test]
    fn failed_frac_counts_the_requests_of_refused_connections() {
        // UTLB's 64-entry process directory is a lifetime allocation: one
        // board refuses every connection after the 64th.
        let small = Inputs::small(Workload::LiveChurn);
        let Source::Live { fcfg, .. } = &small.source else {
            unreachable!("live-churn has live peers")
        };
        let inputs = Inputs {
            source: Source::Live {
                fcfg: FrontendConfig {
                    connections: 100,
                    ..fcfg.clone()
                },
                cluster: None,
            },
            planned: None,
            ..small
        }
        .planned();
        let cell = Cell {
            mech: Mechanism::Utlb,
            input: 0,
        };
        let r = inputs.execute(cell).summarize();
        let live = r.live.expect("a live cell");
        assert_eq!((live.accepted, live.refused), (64, 36));
        assert_eq!(live.served + live.admission.rejected, live.offered);
        assert_eq!(inputs.check(cell, &r), Vec::<String>::new());
        let served = live.served as f64;
        let p = crate::measure::Prepared {
            labels: vec![inputs.label(cell)],
            inputs,
            cells: vec![cell],
            setup_s: vec![1e-6],
            setup_speed: 1.0,
            reference: vec![r],
            failures: Vec::new(),
            failed: vec![false],
        };
        let values = from_results(&p);
        let failed = values
            .iter()
            .find(|(n, _)| n == "sim.failed_frac")
            .expect("declared")
            .1;
        // 100 connections x 4 requests were planned.
        assert_eq!(failed, (400.0 - served) / 400.0);
        assert!(failed >= 0.36);
    }
}
