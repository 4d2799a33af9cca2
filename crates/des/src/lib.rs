//! Deterministic discrete-event contention core.
//!
//! The paper's §6 cost model charges every translation a *fixed* cost and
//! sums serially, so the Shared UTLB-Cache's DMA fills, the interrupt-based
//! baseline's handler dispatches, and multiprogrammed processes never
//! contend — yet the whole argument is about traffic crossing a shared I/O
//! bus. This crate supplies the timing substrate under which load actually
//! interferes:
//!
//! * [`Resource`] — one named single-server station, first-come
//!   first-served in admission order; grants split each acquisition into
//!   *wait* (queueing delay) and *service* (the device's own cost), which
//!   is exactly the split the paper's Table 2 numbers cannot show. Given
//!   the same admissions it returns the same grants, however the caller is
//!   threaded.
//! * [`DesConfig`] — the overlay's timing knobs: the I/O bus (per-transfer
//!   setup + per-word bandwidth, fitted to Table 2), the host interrupt
//!   dispatch latency, and the offered payload load.
//!   [`DesConfig::zero_contention`] reproduces the serial cost model
//!   exactly, which `utlb-sim`'s equivalence tests pin.
//! * [`CreditWindow`] — per-connection credit-based admission control for
//!   the request plane.
//!
//! The crate is deliberately free of simulation policy: it knows nothing
//! about caches, pins, or traces. `utlb-sim` drives the real translation
//! engines and prices their bus/DMA/interrupt demands on these stations.
//!
//! [`DesConfig`]: models::DesConfig
//! [`DesConfig::zero_contention`]: models::DesConfig::zero_contention

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod admission;
pub mod models;
mod resource;

pub use admission::{Admission, AdmissionOutcome, AdmissionStats, CreditWindow};
pub use models::DesConfig;
pub use resource::{Grant, Resource, ResourceReport, ResourceStats};
