//! Communication traces for the UTLB study.
//!
//! The paper's evaluation (§6) is trace-driven: seven SPLASH-2 applications
//! ran under a home-based shared-virtual-memory protocol on a Myrinet
//! cluster of four 4-way SMPs, the VMMC software logged every send and
//! remote-read with a globally-synchronized clock, and the merged per-node
//! traces fed a simulator. Those traces no longer exist, so this crate
//! provides:
//!
//! * the trace [`TraceRecord`] format and JSONL [`read_jsonl`]/[`write_jsonl`],
//! * timestamp-ordered [`merge_streams`] of per-process streams,
//! * **synthetic workload generators** — one per application — calibrated to
//!   the paper's Table 3 (communication footprint in 4 KB pages and
//!   translation lookups per node) and to each application's qualitative
//!   access pattern (§6.1): regular strided FFT/LU, task-queue
//!   Raytrace/Volrend, phase-structured Radix, iterative spatial
//!   Barnes/Water.
//!
//! One generated trace covers one node: four application processes plus one
//! SVM protocol process, interleaved in time, exactly the multiprogramming
//! level the paper's NIC saw.
//!
//! Generation is **streaming-first**: [`gen::stream`] yields the same
//! records as [`gen::generate`] one at a time through the [`TraceStream`]
//! trait, [`merge_trace_streams`] interleaves per-process streams lazily,
//! and [`Looped`] repeats a bounded-footprint stream for arbitrarily many
//! epochs — so replay memory is O(chunk), not O(trace).
//!
//! # Example
//!
//! ```
//! use utlb_trace::{gen, GenConfig, SplashApp};
//!
//! let cfg = GenConfig { seed: 7, scale: 0.05, app_processes: 4 };
//! let trace = gen::generate(SplashApp::Radix, &cfg);
//! assert_eq!(trace.process_ids().len(), 5);
//! // Footprint and lookups track the paper's Table 3 (scaled).
//! let spec = SplashApp::Radix.spec();
//! assert!(trace.total_lookups() as f64 >= 0.8 * spec.lookups as f64 * 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod apps;
pub mod gen;
mod io;
mod merge;
mod record;
mod shard;
mod stream;
mod synth;

pub use apps::{AppSpec, SplashApp};
pub use io::{read_jsonl, write_jsonl};
pub use merge::{merge_streams, merge_trace_streams, MergedStream};
pub use record::{merge_multiprogram, Op, Trace, TraceRecord};
pub use shard::ShardMap;
pub use stream::{fill_chunk, Looped, TraceStream, TraceView};
pub use synth::{GenConfig, PatternBuilder, ProcessStream};
