//! The timing knobs of the contention overlay, taken from the same
//! Table 1/2 cost model the serial simulator charges.
//!
//! A translation-table fill is *setup-dominated* (Table 2: 1 entry ≈ 1.5 µs,
//! 32 entries ≈ 2.5 µs), so `utlb-sim` prices a fill as two sequential
//! phases on two [`Resource`](crate::Resource)s: programming the DMA engine
//! for [`IoBus::setup`] and moving the words across the I/O bus at
//! [`IoBus::per_word`]. The two service times sum exactly to
//! [`IoBus::dma_words`], which is what the serial cost model charges — with
//! nothing else in flight the split is invisible, which is the
//! zero-contention equivalence the `utlb-sim` test-suite pins. A host
//! interrupt occupies interrupt service for [`DesConfig::intr_dispatch`]
//! plus however long its handler runs.

use utlb_nic::{IoBus, Nanos};

/// Knobs of a DES-backed replay.
///
/// The *offered load* knob scales each trace record's payload bytes into
/// background DMA traffic on the shared bus (the paper's traces carry the
/// request sizes; the serial simulator ignores where those bytes flow).
/// `1.0` replays the trace's own payload traffic; `0.0` disables it; larger
/// factors model co-located senders sharing the same bus.
#[derive(Debug, Clone, Copy)]
pub struct DesConfig {
    /// Timing of the shared I/O bus (defaults fitted to Table 2). Must
    /// match the board's bus for the serial charge to split exactly.
    pub bus: IoBus,
    /// Host interrupt dispatch latency (Table 1's measured 10 µs).
    pub intr_dispatch: Nanos,
    /// Multiplier on each record's payload bytes injected as background
    /// bus traffic. Zero turns payload traffic off.
    pub payload_load: f64,
    /// Whether each payload transfer's completion raises a host
    /// notification interrupt (occupying interrupt service for one
    /// dispatch).
    pub notify_interrupts: bool,
}

impl DesConfig {
    /// The executable-spec configuration: no payload traffic, no
    /// notification interrupts — every station sees at most one request in
    /// flight, all waits are zero, and the DES completion time equals the
    /// serial runner's `sim_time_ns` bit for bit.
    pub fn zero_contention() -> Self {
        DesConfig {
            bus: IoBus::default(),
            intr_dispatch: Nanos::from_micros(10.0),
            payload_load: 0.0,
            notify_interrupts: false,
        }
    }

    /// A contended configuration at the given offered load, with payload
    /// completion notifications on.
    ///
    /// # Panics
    ///
    /// Panics if `load` is negative or not finite.
    pub fn contended(load: f64) -> Self {
        assert!(
            load.is_finite() && load >= 0.0,
            "offered load must be a finite non-negative factor"
        );
        DesConfig {
            payload_load: load,
            notify_interrupts: true,
            ..DesConfig::zero_contention()
        }
    }

    /// Background-traffic words for a record of `nbytes` payload under this
    /// offered load (bytes scaled, then rounded up to 8-byte words).
    /// Monotone in both `nbytes` and `payload_load`.
    pub fn payload_words(&self, nbytes: u64) -> u64 {
        let scaled = (nbytes as f64 * self.payload_load).ceil() as u64;
        scaled.div_ceil(8)
    }
}

impl Default for DesConfig {
    /// Defaults to [`DesConfig::zero_contention`].
    fn default() -> Self {
        DesConfig::zero_contention()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_split_sums_to_the_serial_charge() {
        let bus = IoBus::default();
        for entries in [0u64, 1, 8, 32, 1000] {
            assert_eq!(
                bus.setup() + bus.per_word() * entries,
                bus.dma_words(entries),
                "{entries} entries"
            );
        }
    }

    #[test]
    fn payload_words_scale_monotonically_with_load() {
        let mut last = 0;
        for load in [0.0, 0.5, 1.0, 2.0, 4.0] {
            let cfg = DesConfig::contended(load);
            let words = cfg.payload_words(4096);
            assert!(words >= last, "load {load}: {words} < {last}");
            last = words;
        }
        assert_eq!(DesConfig::zero_contention().payload_words(u64::MAX), 0);
        assert_eq!(DesConfig::contended(1.0).payload_words(4096), 512);
        assert_eq!(DesConfig::contended(1.0).payload_words(4), 1, "rounds up");
    }

    #[test]
    fn zero_contention_turns_payload_traffic_off() {
        let cfg = DesConfig::zero_contention();
        assert_eq!(cfg.payload_load, 0.0);
        assert_eq!(cfg.payload_words(1 << 20), 0);
        assert_eq!(cfg.bus.setup(), IoBus::default().setup());
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn negative_load_panics() {
        DesConfig::contended(-1.0);
    }
}
