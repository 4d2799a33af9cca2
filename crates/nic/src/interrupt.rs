//! Host interrupt controller.
//!
//! The interrupt-based baseline (UNet-MM style, paper §6.2) interrupts the
//! host CPU on every NIC translation miss. "On most computer systems,
//! interrupts are an order of magnitude more expensive than memory references
//! over the I/O bus" — the paper measures 10 µs to invoke the system
//! interrupt handler. UTLB's point is to keep this device off the common
//! path entirely.

use crate::{Nanos, SimClock};

/// The NIC-to-host interrupt line with its cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptController {
    dispatch_cost: Nanos,
    raised: u64,
    handler_busy: Nanos,
}

impl InterruptController {
    /// Creates a controller with the given handler-dispatch cost.
    pub fn new(dispatch_cost: Nanos) -> Self {
        InterruptController {
            dispatch_cost,
            raised: 0,
            handler_busy: Nanos::ZERO,
        }
    }

    /// Cost of invoking the host interrupt handler.
    pub fn dispatch_cost(&self) -> Nanos {
        self.dispatch_cost
    }

    /// Raises an interrupt, charging the dispatch cost to the clock.
    ///
    /// Returns the cost charged.
    pub fn raise(&mut self, clock: &mut SimClock) -> Nanos {
        clock.advance(self.dispatch_cost);
        self.raised += 1;
        self.dispatch_cost
    }

    /// Number of interrupts raised so far.
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// Total simulated time spent dispatching interrupts so far.
    pub fn total_dispatch(&self) -> Nanos {
        Nanos::from_nanos(self.dispatch_cost.as_nanos() * self.raised)
    }

    /// Accounts `ns` of in-handler work (kernel pins, table repair) to this
    /// line's occupancy. The caller has already charged the clock — this
    /// only tracks how long the host CPU was held by interrupt context, the
    /// occupancy a contention model needs.
    pub fn account_handler(&mut self, ns: Nanos) {
        self.handler_busy += ns;
    }

    /// Total in-handler work accounted so far (excludes dispatch).
    pub fn total_handler(&self) -> Nanos {
        self.handler_busy
    }
}

impl Default for InterruptController {
    /// Default dispatch cost: the paper's measured 10 µs.
    fn default() -> Self {
        InterruptController::new(Nanos::from_micros(10.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_charges_clock_and_counts() {
        let mut clock = SimClock::new();
        let mut intr = InterruptController::default();
        let c = intr.raise(&mut clock);
        intr.raise(&mut clock);
        assert_eq!(c, Nanos::from_micros(10.0));
        assert_eq!(clock.now(), Nanos::from_micros(20.0));
        assert_eq!(intr.raised(), 2);
    }

    #[test]
    fn handler_occupancy_accumulates_separately_from_dispatch() {
        let mut clock = SimClock::new();
        let mut intr = InterruptController::default();
        intr.raise(&mut clock);
        intr.account_handler(Nanos::from_micros(27.0));
        intr.account_handler(Nanos::from_micros(3.0));
        assert_eq!(intr.total_handler(), Nanos::from_micros(30.0));
        assert_eq!(intr.total_dispatch(), Nanos::from_micros(10.0));
        // Accounting never touches the clock.
        assert_eq!(clock.now(), Nanos::from_micros(10.0));
    }

    #[test]
    fn interrupt_is_an_order_of_magnitude_above_bus_reference() {
        // The relationship the paper's argument rests on.
        let intr = InterruptController::default();
        let bus = crate::IoBus::default();
        assert!(intr.dispatch_cost().as_nanos() > 5 * bus.dma_words(1).as_nanos());
    }
}
