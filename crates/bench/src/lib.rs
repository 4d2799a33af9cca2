//! Benchmark harness for the UTLB reproduction: the experiment registry
//! behind the `run_all` binary — one entry per paper table and figure plus
//! the extension runs, all on one command line ([`cli`]). With no name,
//! `run_all` reproduces the whole evaluation in paper order; `run_all
//! --help` lists every entry with the flags it honours.
//!
//! An entry writes only its stdout and the `--json`/`--csv` paths it is
//! given (`--obs` adds `results/obs_*.json`), and it times nothing except
//! the `obs_guard` gate. Host wall-clock cost comes from the repository
//! benchmark under `benchmark/` (declared in `BENCHMARK.json`), which runs
//! the same layers over repeated samples and reports each per-layer metric.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cli;
mod paper;
pub mod registry;
