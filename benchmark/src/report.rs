//! Measuring a workload for `run`, and rendering results as text and JSON.

use crate::json::{get, num, nums, obj, string};
use crate::measure::{peak_rss_kib, prepare, timed_passes, Passes, Prepared};
use crate::metrics::{
    end_to_end, from_results, in_spec_order, setup_samples, spec, throughput_samples, Values,
};
use crate::stats::{median, quartiles};
use crate::trace::{Traced, LAYERS};
use crate::workload::Workload;
use serde::Value;
use std::fmt::Write as _;
use std::process::Command;

/// Timed passes a `run` makes at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 7;

/// One workload measured by the untraced protocol.
#[derive(Debug)]
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// The prepared workload: inputs, reference results, failures.
    pub prepared: Prepared,
    /// The timed passes.
    pub passes: Passes,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub e2e: Values,
    /// Per-layer metrics read from the results, in `BENCHMARK.json` order.
    pub layers: Values,
}

impl Measured {
    /// Page lookups the timed passes performed.
    pub fn attempted(&self) -> u64 {
        self.prepared.lookups_per_pass() * self.passes.count() as u64
    }

    /// Lookups of cells that failed a check, over the timed passes.
    pub fn failed(&self) -> u64 {
        failed_lookups(&self.prepared, self.passes.count())
    }
}

/// Lookups of failing cells, over `passes` passes.
pub fn failed_lookups(p: &Prepared, passes: usize) -> u64 {
    p.reference
        .iter()
        .zip(&p.failed)
        .filter(|(_, &f)| f)
        .map(|(r, _)| r.lookups * passes as u64)
        .sum()
}

/// The protocol for one workload, and its metrics.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> Measured {
    let mut prepared = prepare(w, seed);
    let passes = timed_passes(&mut prepared, MIN_PASSES, seconds);
    let rss = peak_rss_kib();
    prepared.time_setup(seed);
    let e2e = end_to_end(&prepared, &passes, rss);
    let mut layers = from_results(&prepared);
    layers.push(("bench.host_speed".into(), median(&passes.speed)));
    let layers = in_spec_order(&spec().per_layer, &layers);
    Measured {
        workload: w,
        prepared,
        passes,
        e2e,
        layers,
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn traced_layers(t: &Traced) -> Values {
    let mut all = from_results(&t.prepared);
    all.extend(t.values.iter().cloned());
    in_spec_order(&spec().per_layer, &all)
}

fn unit(name: &str) -> &'static str {
    spec().def(name).map_or("?", |d| d.unit.as_str())
}

fn line(out: &mut String, name: &str, value: f64, extra: &str) {
    let value = if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.6}")
    };
    let _ = writeln!(out, "  {name:36} {value:>20} {:<12} {extra}", unit(name));
}

/// Text report of a measured workload: every metric with its unit, the
/// per-cell medians and digests, and the checks.
pub fn render(m: &Measured, seed: u64) -> String {
    let p = &m.prepared;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {seed}): {} cells, {} timed passes, {} lookups per pass",
        m.workload.name(),
        p.cells.len(),
        m.passes.count(),
        p.lookups_per_pass()
    );
    let setup = quartiles(&setup_samples(p));
    let tput = quartiles(&throughput_samples(p, &m.passes));
    let raw_ns: f64 = m.passes.cell_ns.iter().map(|ns| median(ns)).sum();
    for (name, value) in &m.e2e {
        let extra = match name.as_str() {
            "setup_s" => format!(
                "q1 {:.6} q3 {:.6} ({} setups)",
                setup[0],
                setup[2],
                p.setup_s.len()
            ),
            "mlookups_per_s" => format!(
                "per-pass q1 {:.4} median {:.4} q3 {:.4} ({} passes); as measured {:.4}",
                tput[0],
                tput[1],
                tput[2],
                m.passes.count(),
                p.lookups_per_pass() as f64 / raw_ns * 1e3
            ),
            _ => String::new(),
        };
        line(&mut out, name, *value, &extra);
    }
    for (name, value) in &m.layers {
        line(&mut out, name, *value, "");
    }
    render_cells(&mut out, p, &m.passes);
    render_checks(&mut out, p);
    out
}

fn render_cells(out: &mut String, p: &Prepared, passes: &Passes) {
    let _ = writeln!(out, "  cells (median ms, digest):");
    for (i, label) in p.labels.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {label:28} {:>10.2} {:016x}",
            median(&passes.cell_ns[i]) / 1e6,
            p.reference[i].digest
        );
    }
    let runq: Vec<String> = passes
        .sched
        .iter()
        .map(|s| {
            format!(
                "{:.1}%",
                100.0 * s.runq_ns as f64 / s.on_cpu_ns.max(1) as f64
            )
        })
        .collect();
    let _ = writeln!(out, "  run-queue wait per pass: {}", runq.join(" "));
}

fn render_checks(out: &mut String, p: &Prepared) {
    if p.failures.is_empty() {
        let _ = writeln!(out, "  checks: ok");
    } else {
        for f in &p.failures {
            let _ = writeln!(out, "  CHECK FAILED: {f}");
        }
    }
}

/// Text report of a traced workload.
pub fn render_traced(t: &Traced, seed: u64) -> String {
    let p = &t.prepared;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} traced (seed {seed}): {} untraced + {} traced passes",
        p.inputs.workload.name(),
        t.untraced.count(),
        t.traced.first().map_or(0, Vec::len)
    );
    for (name, value) in traced_layers(t) {
        line(&mut out, &name, value, "");
    }
    render_checks(&mut out, p);
    out
}

/// Output of a command, trimmed; `unknown` if it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `git describe` of the working tree, for file names and records.
pub fn git_describe() -> String {
    command_output("git", &["describe", "--always", "--dirty", "--tags"])
}

/// The host a result came from.
pub fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    obj([
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", string(cpu)),
        ("rustc", string(command_output("rustc", &["-V"]))),
        ("git_describe", string(git_describe())),
    ])
}

fn metric_entry(name: &str, value: f64, samples: &[f64]) -> (String, Value) {
    (
        name.to_string(),
        obj([
            ("value", num(value)),
            ("unit", string(unit(name))),
            ("samples", nums(samples)),
        ]),
    )
}

/// The JSON record of a measured workload. Host-timed metrics carry their
/// samples (setup repeats, per-pass throughput), which `compare` reads.
pub fn record(m: &Measured) -> Value {
    let p = &m.prepared;
    let tput = throughput_samples(p, &m.passes);
    let setup = setup_samples(p);
    let mut metrics: Vec<(String, Value)> = Vec::new();
    for (name, value) in &m.e2e {
        let samples: &[f64] = match name.as_str() {
            "setup_s" => &setup,
            "mlookups_per_s" => &tput,
            _ => std::slice::from_ref(value),
        };
        metrics.push(metric_entry(name, *value, samples));
    }
    for (name, value) in &m.layers {
        metrics.push(metric_entry(name, *value, std::slice::from_ref(value)));
    }
    obj([
        ("name", string(m.workload.name())),
        ("passes", Value::U64(m.passes.count() as u64)),
        ("lookups_per_pass", Value::U64(p.lookups_per_pass())),
        ("metrics", Value::Object(metrics)),
        ("setup_s_measured", nums(&p.setup_s)),
        ("setup_speed", num(p.setup_speed)),
        ("pass_speed", nums(&m.passes.speed)),
        ("cells", cells_json(p, &m.passes)),
        (
            "sched",
            Value::Array(
                m.passes
                    .sched
                    .iter()
                    .map(|s| {
                        obj([
                            ("on_cpu_ns", Value::U64(s.on_cpu_ns)),
                            ("runq_ns", Value::U64(s.runq_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures",
            Value::Array(p.failures.iter().map(|f| string(f.as_str())).collect()),
        ),
    ])
}

fn cells_json(p: &Prepared, passes: &Passes) -> Value {
    Value::Array(
        p.labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                obj([
                    ("label", string(label.as_str())),
                    ("lookups", Value::U64(p.reference[i].lookups)),
                    ("digest", string(format!("{:016x}", p.reference[i].digest))),
                    ("ns", nums(&passes.cell_ns[i])),
                ])
            })
            .collect(),
    )
}

/// The JSON record of a traced workload: raw cell spans, per (cell, layer)
/// aggregates, and the per-layer metrics.
pub fn traced_record(t: &Traced) -> Value {
    let p = &t.prepared;
    let mut spans = vec![obj([
        ("id", Value::U64(0)),
        ("parent", Value::Null),
        ("name", string(p.inputs.workload.name())),
        (
            "start_ns",
            Value::U64(
                t.traced
                    .iter()
                    .flatten()
                    .map(|c| c.start_ns)
                    .min()
                    .unwrap_or(0),
            ),
        ),
        (
            "end_ns",
            Value::U64(
                t.traced
                    .iter()
                    .flatten()
                    .map(|c| c.end_ns)
                    .max()
                    .unwrap_or(0),
            ),
        ),
    ])];
    let mut layers = Vec::new();
    for (cell, runs) in t.traced.iter().enumerate() {
        for (pass, c) in runs.iter().enumerate() {
            let id = spans.len() as u64;
            spans.push(obj([
                ("id", Value::U64(id)),
                ("parent", Value::U64(0)),
                ("name", string(format!("{} #{}", p.labels[cell], pass + 1))),
                ("start_ns", Value::U64(c.start_ns)),
                ("end_ns", Value::U64(c.end_ns)),
            ]));
            layers.push(obj([
                ("span", Value::U64(id)),
                ("layer", string("self")),
                ("total_ns", Value::I64(c.self_ns(None))),
            ]));
            for (l, name) in LAYERS.iter().enumerate() {
                let h = &c.layers[l];
                if h.count() == 0 {
                    continue;
                }
                layers.push(obj([
                    ("span", Value::U64(id)),
                    ("layer", string(*name)),
                    ("count", Value::U64(h.count())),
                    ("total_ns", Value::U64(h.sum_ns())),
                    (
                        "log2_hist",
                        Value::Array(
                            h.occupied_buckets()
                                .into_iter()
                                .map(|(lo, hi, n)| {
                                    Value::Array(vec![
                                        Value::U64(lo),
                                        Value::U64(hi),
                                        Value::U64(n),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]));
            }
        }
    }
    let metrics: Vec<(String, Value)> = traced_layers(t)
        .into_iter()
        .map(|(n, v)| {
            let u = unit(&n);
            (n, obj([("value", num(v)), ("unit", string(u))]))
        })
        .collect();
    obj([
        ("name", string(p.inputs.workload.name())),
        ("metrics", Value::Object(metrics)),
        ("spans", Value::Array(spans)),
        ("layers", Value::Array(layers)),
        ("untraced_cells", cells_json(p, &t.untraced)),
        (
            "failures",
            Value::Array(p.failures.iter().map(|f| string(f.as_str())).collect()),
        ),
    ])
}

/// The one-line result of the one-workload form: correctness, attempted
/// and failed lookups, and `metrics` with their units.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics = values
        .iter()
        .map(|(n, v)| {
            (
                n.clone(),
                obj([("value", num(*v)), ("unit", string(unit(n)))]),
            )
        })
        .collect();
    crate::json::compact(&obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Object(metrics)),
    ]))
}

/// A whole `run` or `trace` file: host, seed, and one record per workload.
pub fn document(seed: u64, seconds: f64, workloads: Vec<Value>) -> Value {
    obj([
        ("host", host()),
        ("seed", Value::U64(seed)),
        ("seconds", num(seconds)),
        ("workloads", Value::Array(workloads)),
    ])
}

/// The record of workload `name` in a document, if present.
pub fn workload_record<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    get(doc, "workloads")?
        .as_array()?
        .iter()
        .find(|w| get(w, "name").and_then(Value::as_str) == Some(name))
}
