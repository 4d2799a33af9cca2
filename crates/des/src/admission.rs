//! Credit-based admission control for request planes.
//!
//! A [`CreditWindow`] models one connection's flow-control state: the peer
//! holds `window` credits, each outstanding request consumes one until it
//! completes, and a bounded stall queue of depth `queue` absorbs bursts
//! beyond the window. A request arriving with no credit available is
//! *stalled* to the instant a credit returns (charged as deterministic
//! wait time, the request plane's analogue of a [`Resource`] grant's
//! `wait`), and a request arriving with the stall queue also full is
//! *rejected* outright — the typed outcome a sender sees as backpressure.
//!
//! Everything is a pure function of the admission sequence: same arrivals
//! and completions in, same grants out, regardless of wall-clock threading.
//! `utlb-sim::frontend` keeps one window per connection and reconciles the
//! per-window counters exactly against the observability stream.
//!
//! [`Resource`]: crate::Resource

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use utlb_nic::Nanos;

/// One admitted request's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// When the request was admitted (≥ its arrival).
    pub at: Nanos,
    /// Credit-wait: `at - arrival` (zero when a credit was free).
    pub stall: Nanos,
}

/// The outcome of offering one request to a [`CreditWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// The request was admitted (possibly after a stall).
    Admitted(Admission),
    /// The window and the stall queue were both full; the request is
    /// dropped and the sender must retry later.
    Rejected,
}

/// Accumulated flow-control counters of one [`CreditWindow`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionStats {
    /// Requests admitted (stalled or not).
    pub admitted: u64,
    /// Admitted requests that had to wait for a credit.
    pub stalled: u64,
    /// Requests rejected because window and stall queue were both full.
    pub rejected: u64,
    /// Total credit-wait across all stalled admissions, in nanoseconds.
    pub stall_ns: u64,
    /// Largest number of requests simultaneously in flight.
    pub max_in_flight: u64,
}

/// Per-connection credit window with a bounded stall queue.
///
/// The caller offers requests in nondecreasing arrival order via
/// [`offer`](CreditWindow::offer) and reports each admitted request's
/// completion via [`complete`](CreditWindow::complete); completions return
/// the credit at their timestamp. With `window = W` and `queue = Q`, at
/// most `W` requests are in service and at most `Q` more are stalled
/// waiting for credits at any instant; the `W + Q + 1`-th concurrent
/// request is rejected.
#[derive(Debug, Clone)]
pub struct CreditWindow {
    window: usize,
    queue: usize,
    /// Scheduled completion times of admitted, not-yet-completed requests,
    /// kept sorted ascending so the next credit return is the front.
    in_flight: VecDeque<Nanos>,
    last_arrival: Nanos,
    stats: AdmissionStats,
}

impl CreditWindow {
    /// A window of `window` credits with a stall queue of depth `queue`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a credit-less connection can never
    /// admit anything and would silently reject its whole load.
    pub fn new(window: usize, queue: usize) -> Self {
        assert!(window > 0, "credit window needs at least one credit");
        CreditWindow {
            window,
            queue,
            in_flight: VecDeque::new(),
            last_arrival: Nanos::ZERO,
            stats: AdmissionStats::default(),
        }
    }

    /// Empties the window for a new connection, exactly as
    /// [`CreditWindow::new`] with the same credits and queue depth would,
    /// but keeping the in-flight storage it grew.
    pub fn reset(&mut self) {
        self.in_flight.clear();
        self.last_arrival = Nanos::ZERO;
        self.stats = AdmissionStats::default();
    }

    /// Credits in the window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Stall-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue
    }

    /// Requests admitted and not yet completed, as of the last
    /// [`offer`](CreditWindow::offer)'s arrival time.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Offers one request arriving at `arrival`.
    ///
    /// Completions scheduled at or before `arrival` return their credits
    /// first; then the request is admitted immediately (free credit),
    /// stalled to the instant the `queue`-bounded backlog drains a credit,
    /// or rejected. The caller must later [`complete`](CreditWindow::complete)
    /// every admitted request.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` runs backwards relative to the previous offer —
    /// the window's grants are only FIFO-exact for an in-order arrival
    /// stream, and silently accepting reordered arrivals would corrupt
    /// the wait accounting.
    pub fn offer(&mut self, arrival: Nanos) -> AdmissionOutcome {
        assert!(
            arrival >= self.last_arrival,
            "offers must arrive in nondecreasing time order"
        );
        self.last_arrival = arrival;
        // Credits whose requests completed by `arrival` are back.
        while self.in_flight.front().is_some_and(|end| *end <= arrival) {
            self.in_flight.pop_front();
        }
        let outstanding = self.in_flight.len();
        if outstanding >= self.window + self.queue {
            self.stats.rejected += 1;
            return AdmissionOutcome::Rejected;
        }
        let at = if outstanding < self.window {
            arrival
        } else {
            // Stalled: admitted the instant enough earlier requests finish
            // to free a credit — the (outstanding - window + 1)-th next
            // completion, which is an index into the sorted in-flight set.
            self.in_flight[outstanding - self.window]
        };
        let stall = at.saturating_sub(arrival);
        self.stats.admitted += 1;
        if stall > Nanos::ZERO {
            self.stats.stalled += 1;
            self.stats.stall_ns += stall.as_nanos();
        }
        AdmissionOutcome::Admitted(Admission { at, stall })
    }

    /// Records that an admitted request will complete (and return its
    /// credit) at `end`.
    pub fn complete(&mut self, end: Nanos) {
        // Completion times are usually monotone (FIFO service), so probe
        // the back first and fall back to a binary-search insert when a
        // short request overtakes a long one.
        let pos = if self.in_flight.back().is_none_or(|b| *b <= end) {
            self.in_flight.len()
        } else {
            self.in_flight.partition_point(|e| *e <= end)
        };
        self.in_flight.insert(pos, end);
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.in_flight.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> Nanos {
        Nanos::from_nanos(n)
    }

    fn admit(w: &mut CreditWindow, arrival: u64) -> Admission {
        match w.offer(ns(arrival)) {
            AdmissionOutcome::Admitted(a) => a,
            AdmissionOutcome::Rejected => panic!("unexpected rejection at {arrival}"),
        }
    }

    #[test]
    fn free_credits_admit_at_arrival() {
        let mut w = CreditWindow::new(2, 4);
        let a = admit(&mut w, 10);
        assert_eq!((a.at, a.stall), (ns(10), ns(0)));
        w.complete(ns(100));
        let b = admit(&mut w, 20);
        assert_eq!(b.stall, ns(0), "second credit still free");
        w.complete(ns(200));
        assert_eq!(w.stats().stalled, 0);
    }

    #[test]
    fn exhausted_window_stalls_to_the_next_credit_return() {
        let mut w = CreditWindow::new(1, 4);
        admit(&mut w, 0);
        w.complete(ns(100));
        let b = admit(&mut w, 30);
        assert_eq!((b.at, b.stall), (ns(100), ns(70)));
        w.complete(ns(150));
        // A third request at t=40 must wait for BOTH earlier completions:
        // its credit frees when the stalled request (ending 150) finishes.
        let c = admit(&mut w, 40);
        assert_eq!((c.at, c.stall), (ns(150), ns(110)));
        let s = w.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.stalled, 2);
        assert_eq!(s.stall_ns, 180);
    }

    #[test]
    fn completions_return_credits_at_their_timestamp() {
        let mut w = CreditWindow::new(1, 4);
        admit(&mut w, 0);
        w.complete(ns(50));
        // Arrival after the completion sees a free credit again.
        let b = admit(&mut w, 60);
        assert_eq!(b.stall, ns(0));
        assert_eq!(w.in_flight(), 0);
    }

    #[test]
    fn full_stall_queue_rejects() {
        let mut w = CreditWindow::new(1, 2);
        // One in service ending late, two stalled behind it: queue full.
        admit(&mut w, 0);
        w.complete(ns(1000));
        for t in [1, 2] {
            let a = admit(&mut w, t);
            w.complete(a.at + ns(10));
        }
        assert_eq!(w.offer(ns(3)), AdmissionOutcome::Rejected);
        assert_eq!(w.stats().rejected, 1);
        // Once everything drains, admission resumes.
        let late = admit(&mut w, 2000);
        assert_eq!(late.stall, ns(0));
    }

    #[test]
    fn out_of_order_completions_keep_the_credit_order_sorted() {
        let mut w = CreditWindow::new(2, 2);
        admit(&mut w, 0);
        w.complete(ns(500)); // long request
        admit(&mut w, 10);
        w.complete(ns(60)); // short request overtakes it
                            // The next credit frees at 60, not 500.
        let c = admit(&mut w, 20);
        assert_eq!(c.at, ns(60));
        assert_eq!(w.stats().max_in_flight, 2);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut w = CreditWindow::new(3, 5);
            let mut grants = Vec::new();
            for i in 0..200u64 {
                match w.offer(ns(i * 7)) {
                    AdmissionOutcome::Admitted(a) => {
                        w.complete(a.at + ns(40 + (i % 9) * 13));
                        grants.push((a.at, a.stall));
                    }
                    AdmissionOutcome::Rejected => grants.push((Nanos::ZERO, Nanos::ZERO)),
                }
            }
            (grants, w.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_reset_window_grants_like_a_new_one() {
        let grants = |w: &mut CreditWindow| {
            (0..50u64)
                .map(|i| match w.offer(ns(i * 5)) {
                    AdmissionOutcome::Admitted(a) => {
                        w.complete(a.at + ns(30 + (i % 4) * 11));
                        Some(a)
                    }
                    AdmissionOutcome::Rejected => None,
                })
                .collect::<Vec<_>>()
        };
        let mut used = CreditWindow::new(2, 3);
        grants(&mut used);
        assert!(
            used.in_flight() > 0,
            "the old connection left work in flight"
        );
        used.reset();
        let mut fresh = CreditWindow::new(2, 3);
        assert_eq!(used.in_flight(), 0);
        assert_eq!(used.stats(), AdmissionStats::default());
        assert_eq!(grants(&mut used), grants(&mut fresh));
        assert_eq!(used.stats(), fresh.stats());
    }

    #[test]
    #[should_panic(expected = "at least one credit")]
    fn zero_window_panics() {
        CreditWindow::new(0, 4);
    }
}
