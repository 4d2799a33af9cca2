//! `compare`: holds runs against base runs, metric by metric, workload by
//! workload, within the bounds `BENCHMARK.json` fixes.

use crate::json::{get, parse};
use crate::metrics::{spec, MetricDef};
use crate::report::workload_record;
use crate::stats::{quartiles, spread};
use serde::Value;
use std::fmt;

/// What the other side's samples say against the base's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base's own spread, or every sample better.
    Improved,
    /// Not worse by more than the bound.
    NoWorse,
    /// Worse by more than the bound.
    Worse,
    /// The spread between samples exceeds the bound, so the medians cannot
    /// tell a change from noise.
    Unresolved,
    /// A simulated metric, bit-identical on both sides.
    Identical,
    /// A simulated metric that changed: the simulation itself differs.
    Changed,
}

impl Verdict {
    /// Whether the verdict fails a "no regression" check.
    pub fn is_failure(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Changed)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Changed => "CHANGED",
        })
    }
}

/// Whether `def` is a simulated metric: a pure function of the seed, so any
/// difference is a change to the simulation, not noise.
fn is_simulated(def: &MetricDef) -> bool {
    def.name.starts_with("sim_")
}

/// The verdict on `other` against `base` for metric `def`.
///
/// # Panics
///
/// Panics if either side has no samples.
pub fn verdict(def: &MetricDef, base: &[f64], other: &[f64]) -> Verdict {
    if is_simulated(def) {
        let same = base
            .iter()
            .chain(other)
            .all(|x| x.to_bits() == base[0].to_bits());
        return if same {
            Verdict::Identical
        } else {
            Verdict::Changed
        };
    }
    let bound = def.bound.unwrap_or(0.0);
    let (mb, mo) = (quartiles(base)[1], quartiles(other)[1]);
    let sign = if def.higher_is_better { 1.0 } else { -1.0 };
    let gain = if mb == 0.0 {
        0.0
    } else {
        sign * (mo - mb) / mb.abs()
    };
    let better = |o: f64, b: f64| sign * (o - b) > 0.0;
    let all_better = other.iter().all(|&o| base.iter().all(|&b| better(o, b)));
    let all_worse = other.iter().all(|&o| base.iter().all(|&b| better(b, o)));
    // One base sample shows no spread, so it cannot support a gain.
    let resolvable = base.len() > 1;
    if resolvable && all_better && gain > 0.0 {
        Verdict::Improved
    } else if all_worse && -gain > bound {
        Verdict::Worse
    } else if spread(base).max(spread(other)) > bound {
        Verdict::Unresolved
    } else if resolvable && gain > 0.0 && gain > spread(base) {
        Verdict::Improved
    } else if -gain > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    }
}

/// One side of a comparison: one run file, or several runs of the same
/// code.
struct Side {
    label: String,
    docs: Vec<Value>,
}

impl Side {
    fn read(paths: &[String]) -> Result<Side, String> {
        let docs = paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if docs.is_empty() {
            return Err("a side of the comparison names no file".into());
        }
        Ok(Side {
            label: paths.join(" "),
            docs,
        })
    }

    fn seeds(&self) -> Vec<Option<u64>> {
        self.docs
            .iter()
            .map(|d| get(d, "seed").and_then(Value::as_u64))
            .collect()
    }

    /// The samples of `metric` on `workload`: one run's per-pass (or
    /// per-setup) samples, or each run's reported value when the side has
    /// several runs — the spread between runs, not within one.
    fn samples(&self, workload: &str, metric: &str) -> Option<Vec<f64>> {
        let entry = |doc: &Value| {
            let w = workload_record(doc, workload)?;
            get(get(w, "metrics")?, metric).cloned()
        };
        if let [doc] = &self.docs[..] {
            get(&entry(doc)?, "samples")?
                .as_array()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<Vec<f64>>>()
                .filter(|s| !s.is_empty())
        } else {
            self.docs
                .iter()
                .map(|d| entry(d).and_then(|e| get(&e, "value").and_then(Value::as_f64)))
                .collect()
        }
    }

    /// Each run's `(cell, digest)` list on `workload`.
    fn digests(&self, workload: &str) -> Vec<Vec<(String, String)>> {
        self.docs
            .iter()
            .map(|doc| {
                workload_record(doc, workload)
                    .and_then(|w| get(w, "cells"))
                    .and_then(Value::as_array)
                    .map(|cells| {
                        cells
                            .iter()
                            .filter_map(|c| {
                                Some((
                                    get(c, "label")?.as_str()?.to_string(),
                                    get(c, "digest")?.as_str()?.to_string(),
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect()
    }
}

fn summary(s: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(s);
    format!("{q2:.6} [{q1:.6}, {q3:.6}]")
}

/// `compare A.json B.json [C.json ...]` holds each later file against the
/// first; `compare A1.json A2.json ... -- B1.json B2.json ...` holds one set
/// of runs against another. Prints one row per (metric, workload) and the
/// cell digests; returns whether no row failed (no `WORSE`, no `CHANGED`,
/// no differing digest).
///
/// # Errors
///
/// Returns a message if a side names no file, or a file cannot be read or
/// parsed.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let pairs = match args.iter().position(|a| a == "--") {
        Some(i) => vec![(Side::read(&args[..i])?, Side::read(&args[i + 1..])?)],
        None if args.len() >= 2 => {
            let base = || Side::read(&args[..1]);
            args[1..]
                .iter()
                .map(|p| Ok((base()?, Side::read(std::slice::from_ref(p))?)))
                .collect::<Result<_, String>>()?
        }
        None => return Err("compare needs a base file and at least one other".into()),
    };
    let mut ok = true;
    for (base, other) in &pairs {
        ok &= compare_sides(base, other);
    }
    Ok(ok)
}

fn compare_sides(base: &Side, other: &Side) -> bool {
    println!("== {} against {}", other.label, base.label);
    let mut seeds = base.seeds();
    seeds.extend(other.seeds());
    if seeds.iter().any(|s| *s != seeds[0]) {
        println!("   note: seeds differ, so simulated metrics and digests may too");
    }
    println!(
        "   {:28} {:14} {:36} {:36} {:>8}  verdict",
        "metric", "workload", "base median [q1, q3]", "other median [q1, q3]", "change"
    );
    let mut ok = true;
    for name in &spec().workloads {
        for def in &spec().end_to_end {
            let (Some(sa), Some(sb)) = (
                base.samples(name, &def.name),
                other.samples(name, &def.name),
            ) else {
                println!("   {:28} {name:14} missing from a side", def.name);
                ok = false;
                continue;
            };
            let v = verdict(def, &sa, &sb);
            ok &= !v.is_failure();
            let (ma, mb) = (quartiles(&sa)[1], quartiles(&sb)[1]);
            let change = if ma == 0.0 {
                0.0
            } else {
                100.0 * (mb - ma) / ma
            };
            println!(
                "   {:28} {name:14} {:36} {:36} {change:>+7.2}%  {v}",
                def.name,
                summary(&sa),
                summary(&sb)
            );
        }
        let runs: Vec<_> = base
            .digests(name)
            .into_iter()
            .chain(other.digests(name))
            .collect();
        let first = &runs[0];
        let changed: Vec<_> = runs
            .iter()
            .flat_map(|run| first.iter().zip(run).filter(|(a, b)| a != b))
            .collect();
        if changed.is_empty() && runs.iter().all(|r| r.len() == first.len()) {
            println!(
                "   {:28} {name:14} {} cells identical",
                "digests",
                first.len()
            );
        } else {
            ok = false;
            for ((label, x), (_, y)) in changed {
                println!("   {:28} {name:14} {label}: {x} -> {y} CHANGED", "digest");
            }
            if runs.iter().any(|r| r.len() != first.len()) {
                println!("   {:28} {name:14} cell lists differ CHANGED", "digests");
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let tput = def("mlookups_per_s", true, 0.10);
        let base = [3.0, 3.01, 2.99, 3.02, 2.98];
        assert_eq!(verdict(&tput, &base, &base), Verdict::NoWorse);
        let slower: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&tput, &base, &slower), Verdict::Worse);
        let faster: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&tput, &base, &faster), Verdict::Improved);
        // A slight slowdown inside the bound is no worse.
        let slight: Vec<f64> = base.iter().map(|x| x * 0.97).collect();
        assert_eq!(verdict(&tput, &base, &slight), Verdict::NoWorse);
        // Samples spread wider than the bound cannot resolve a change.
        let noisy = [2.0, 3.0, 4.0, 2.5, 3.5];
        assert_eq!(verdict(&tput, &base, &noisy), Verdict::Unresolved);
        // Lower-is-better metrics flip the direction.
        let setup = def("setup_s", false, 0.25);
        assert_eq!(verdict(&setup, &[1.0, 1.0], &[2.0, 2.0]), Verdict::Worse);
        assert_eq!(verdict(&setup, &[1.0, 1.0], &[0.5, 0.5]), Verdict::Improved);
        // A single base sample supports no gain, only a bounded loss.
        let rss = def("peak_rss_mib", false, 0.10);
        assert_eq!(verdict(&rss, &[10.0], &[9.9]), Verdict::NoWorse);
        assert_eq!(verdict(&rss, &[10.0], &[12.0]), Verdict::Worse);
    }

    #[test]
    fn simulated_metrics_must_be_bit_identical() {
        let miss = def("sim_ni_miss_rate", false, 0.05);
        assert_eq!(verdict(&miss, &[0.25], &[0.25]), Verdict::Identical);
        assert_eq!(verdict(&miss, &[0.25], &[0.25, 0.25]), Verdict::Identical);
        assert_eq!(verdict(&miss, &[0.25], &[0.25, 0.3]), Verdict::Changed);
        assert_eq!(
            verdict(&miss, &[0.25], &[0.25 + f64::EPSILON]),
            Verdict::Changed
        );
        assert!(Verdict::Changed.is_failure());
        assert!(!Verdict::Unresolved.is_failure());
    }
}
