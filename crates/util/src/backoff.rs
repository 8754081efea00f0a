//! Capped exponential backoff.
//!
//! The storage engine's transient-error retries charge this schedule to
//! simulated time: the classic doubling sequence `base, 2·base, 4·base,
//! …` clamped at `cap`. It is deterministic, so simulation outputs are
//! too.

/// An iterator over capped exponential backoff delays.
///
/// Infinite by construction — bound it with the caller's retry budget
/// (`.take(n)` or a counted loop). Delays are in whatever unit `base`
/// and `cap` are expressed in (the workspace uses nanoseconds).
#[derive(Debug, Clone)]
pub struct Backoff {
    /// Next delay to emit.
    next: u64,
    /// Clamp applied after each doubling.
    cap: u64,
}

impl Backoff {
    /// A capped-doubling schedule starting at `base`.
    ///
    /// `base` is clamped to at least 1 so the schedule always makes
    /// progress; `cap` below `base` clamps every delay to `cap`.
    pub fn exponential(base: u64, cap: u64) -> Backoff {
        let base = base.max(1);
        Backoff {
            next: base.min(cap),
            cap,
        }
    }
}

impl Iterator for Backoff {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let delay = self.next;
        self.next = self.next.saturating_mul(2).min(self.cap);
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unjittered_schedule_doubles_and_caps() {
        let delays: Vec<u64> = Backoff::exponential(100, 1600).take(8).collect();
        assert_eq!(delays, vec![100, 200, 400, 800, 1600, 1600, 1600, 1600]);
    }

    #[test]
    fn zero_base_still_progresses() {
        let delays: Vec<u64> = Backoff::exponential(0, 8).take(5).collect();
        assert_eq!(delays, vec![1, 2, 4, 8, 8]);
    }

    #[test]
    fn cap_below_base_clamps_immediately() {
        let delays: Vec<u64> = Backoff::exponential(100, 30).take(3).collect();
        assert_eq!(delays, vec![30, 30, 30]);
    }

    #[test]
    fn matches_the_storage_engine_schedule() {
        // The engine historically emitted base, 2b, 4b, … capped at
        // 16·base; the shared iterator must reproduce it exactly so
        // simulation outputs stay byte-identical.
        let base = 250u64;
        let mut legacy = Vec::new();
        let mut b = base;
        for _ in 0..8 {
            legacy.push(b);
            b = (b * 2).min(base * 16);
        }
        let shared: Vec<u64> = Backoff::exponential(base, base * 16).take(8).collect();
        assert_eq!(shared, legacy);
    }
}
