//! The repository benchmark: four workloads, host-time and simulated
//! end-to-end metrics, and a traced run that splits host time by crate.
//! See `README.md` for the workloads, the metric glossary and how to read
//! a comparison.
//!
//! The benchmark runs as one process on one thread and calls
//! `Run::execute` directly: no sweep pool, no `UTLB_*` environment
//! variables.

mod compare;
mod json;
mod measure;
mod metrics;
mod report;
mod stats;
mod trace;
mod workload;

use metrics::{in_spec_order, spec};
use std::process::ExitCode;
use workload::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  utlb-benchmark run     [--seed N] [--seconds S] [--workload W] [--json PATH|-]
  utlb-benchmark trace   [--seed N] [--seconds S] [--workload W]
  utlb-benchmark compare BASE.json OTHER.json [OTHER.json ...]
  utlb-benchmark --workload W --seed N --seconds S --trace 0|1";

/// Parsed options of `run`, `trace` and the one-workload form.
#[derive(Debug)]
struct Opts {
    seed: u64,
    seconds: f64,
    workloads: Vec<Workload>,
    trace: Option<bool>,
    path: Option<String>,
}

fn parse_opts(args: &[String], path_flag: Option<&str>) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: spec().run_seconds as f64,
        workloads: Workload::ALL.to_vec(),
        trace: None,
        path: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: not a whole number"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?;
            }
            "--workload" => {
                let w = Workload::from_name(value)
                    .ok_or_else(|| format!("--workload {value}: no such workload"))?;
                opts.workloads = vec![w];
            }
            "--trace" => {
                opts.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            f if Some(f) == path_flag => opts.path = Some(value.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// Status 0 when every check passed, 1 otherwise.
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_file(path: &str, doc: &serde::Value) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json::pretty(doc) + "\n").map_err(|e| format!("{path}: {e}"))
}

/// `run`: every workload untraced, every end-to-end metric printed. With
/// `--json -` the record goes to stdout and the text report to stderr.
///
/// Each workload runs in a process of its own, as in the one-workload
/// form: peak RSS is a process-wide high-water mark, and what the allocator
/// keeps from one workload would count toward the next.
fn cmd_run(opts: &Opts) -> Result<ExitCode, String> {
    let (text, records, ok) = if let [w] = opts.workloads[..] {
        let m = report::measure(w, opts.seed, opts.seconds);
        let ok = m.prepared.failures.is_empty();
        (report::render(&m, opts.seed), vec![report::record(&m)], ok)
    } else {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let (mut text, mut records, mut ok) = (String::new(), Vec::new(), true);
        for w in &opts.workloads {
            let (seed, seconds) = (opts.seed.to_string(), opts.seconds.to_string());
            let out = std::process::Command::new(&exe)
                .args(["run", "--workload", w.name(), "--seed", &seed])
                .args(["--seconds", &seconds, "--json", "-"])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            text.push_str(&String::from_utf8_lossy(&out.stderr));
            ok &= out.status.success();
            let doc = json::parse(&String::from_utf8_lossy(&out.stdout))
                .map_err(|e| format!("{}: record unreadable: {e}", w.name()))?;
            records.extend(
                json::get(&doc, "workloads")
                    .and_then(serde::Value::as_array)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
        }
        (text, records, ok)
    };
    let doc = report::document(opts.seed, opts.seconds, records);
    match opts.path.as_deref() {
        Some("-") => {
            eprint!("{text}");
            println!("{}", json::compact(&doc));
        }
        Some(path) => {
            print!("{text}");
            write_file(path, &doc)?;
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(exit_code(ok))
}

/// `trace`: every workload traced, every per-layer metric printed, spans
/// written to `results/trace-<git describe>.json`.
fn cmd_trace(opts: &Opts) -> Result<ExitCode, String> {
    let mut records = Vec::new();
    let mut ok = true;
    for &w in &opts.workloads {
        let t = trace::traced_run(w, opts.seed, opts.seconds);
        print!("{}", report::render_traced(&t, opts.seed));
        ok &= t.prepared.failures.is_empty();
        records.push(report::traced_record(&t));
    }
    let path = format!(
        "{}/results/trace-{}.json",
        env!("CARGO_MANIFEST_DIR"),
        report::git_describe()
    );
    write_file(&path, &report::document(opts.seed, opts.seconds, records))?;
    println!("wrote {path}");
    Ok(exit_code(ok))
}

/// The one-workload form: a text report on stderr, then one JSON line on
/// stdout with the end-to-end metrics (`--trace 0`) or the per-layer
/// metrics (`--trace 1`).
fn cmd_single(opts: &Opts) -> Result<ExitCode, String> {
    let [w] = opts.workloads[..] else {
        return Err("--workload is required".into());
    };
    let (failures, attempted, failed, values) = if opts.trace.ok_or("--trace is required")? {
        let t = trace::traced_run(w, opts.seed, opts.seconds);
        eprint!("{}", report::render_traced(&t, opts.seed));
        let p = &t.prepared;
        let passes = t.untraced.count() + t.traced.first().map_or(0, Vec::len);
        (
            p.failures.len(),
            p.lookups_per_pass() * passes as u64,
            report::failed_lookups(p, passes),
            report::traced_layers(&t),
        )
    } else {
        let m = report::measure(w, opts.seed, opts.seconds);
        eprint!("{}", report::render(&m, opts.seed));
        (
            m.prepared.failures.len(),
            m.attempted(),
            m.failed(),
            in_spec_order(&spec().end_to_end, &m.e2e),
        )
    };
    println!(
        "{}",
        report::result_line(failures == 0, attempted, failed, &values)
    );
    Ok(exit_code(failures == 0))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&parse_opts(&args[1..], Some("--json"))?),
        Some("trace") => cmd_trace(&parse_opts(&args[1..], None)?),
        Some("compare") => compare::compare(&args[1..]).map(exit_code),
        Some(flag) if flag.starts_with("--") => cmd_single(&parse_opts(args, None)?),
        _ => Err("no command".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}\n{USAGE}");
        ExitCode::from(2)
    })
}
