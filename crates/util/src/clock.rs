//! Real or simulated time behind one handle.
//!
//! Harnesses that exercise deadline logic must not sleep: a
//! [`Clock::simulated`] advances a virtual nanosecond counter instead,
//! so "wait 30 seconds" is one atomic add. Production paths use
//! [`Clock::real`], which anchors `now_ns` at construction. The handle
//! is shared (`Arc<Clock>`) between the component under test and the
//! test driving it: the async front end's event loop feeds its timer
//! queue from it, and the aio and aserver tests advance it to fire idle
//! deadlines.

use std::sync::atomic::{AtomicU64, Ordering};

/// A clock: real time, or a virtual nanosecond counter for
/// deterministic robustness harnesses (a test then advances the counter
/// to reach a deadline instead of sleeping).
#[derive(Debug)]
pub enum Clock {
    /// `std::time`.
    Real {
        /// Process-start anchor for `now_ns`.
        epoch: std::time::Instant,
    },
    /// A virtual nanosecond counter; `advance_ns` moves it instantly.
    Simulated(AtomicU64),
}

impl Clock {
    /// A real-time clock.
    pub fn real() -> Clock {
        Clock::Real {
            epoch: std::time::Instant::now(),
        }
    }

    /// A simulated clock starting at zero.
    pub fn simulated() -> Clock {
        Clock::Simulated(AtomicU64::new(0))
    }

    /// Nanoseconds since the clock's epoch.
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Real { epoch } => epoch.elapsed().as_nanos() as u64,
            Clock::Simulated(t) => t.load(Ordering::SeqCst),
        }
    }

    /// Advances a simulated clock by `ns`; no-op on a real clock.
    pub fn advance_ns(&self, ns: u64) {
        if let Clock::Simulated(t) = self {
            t.fetch_add(ns, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_clock_never_sleeps() {
        let c = Clock::simulated();
        assert_eq!(c.now_ns(), 0);
        let t0 = std::time::Instant::now();
        c.advance_ns(30_000_000_000); // "30 seconds"
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(c.now_ns(), 30_000_000_000);
        c.advance_ns(5);
        assert_eq!(c.now_ns(), 30_000_000_005);
    }

    #[test]
    fn real_clock_monotone() {
        let c = Clock::real();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        c.advance_ns(1_000_000_000); // no-op on real clocks
        assert!(c.now_ns() < 60_000_000_000);
    }
}
