//! Ordered deadlines for the async front end.
//!
//! The event loop arms thousands of concurrent idle/read deadlines that
//! are almost always cancelled (a byte arrives) rather than fired, and
//! asks for the earliest one on every loop turn. A [`TimerQueue`] keeps
//! the armed timers in a `BTreeMap` keyed by `(deadline_ns, id)`, and
//! each [`TimerId`] carries its deadline, so `schedule`, `cancel` and
//! `next_deadline_ns` are O(log n) in the armed timers, and `advance`
//! is O(log n) per timer it fires. Time is plain `u64` nanoseconds —
//! callers feed it from a [`crate::Clock`], so tests on a simulated
//! clock never sleep.

use std::collections::BTreeMap;

/// Handle for cancelling a scheduled timer: its key in the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    deadline_ns: u64,
    id: u64,
}

/// Armed timers in deadline order; `T` is the caller's token type (for
/// the async front end, a connection slot).
pub struct TimerQueue<T> {
    armed: BTreeMap<(u64, u64), T>,
    next_id: u64,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        TimerQueue {
            armed: BTreeMap::new(),
            next_id: 0,
        }
    }
}

impl<T> TimerQueue<T> {
    /// An empty queue.
    pub fn new() -> TimerQueue<T> {
        TimerQueue::default()
    }

    /// Number of armed (scheduled, not yet fired or cancelled) timers.
    pub fn armed(&self) -> usize {
        self.armed.len()
    }

    /// Arms a timer for `deadline_ns` (absolute, same epoch as the
    /// caller's clock). It fires on the first `advance` to a time at or
    /// past it, so a deadline that has already passed fires on the next
    /// `advance`.
    pub fn schedule(&mut self, deadline_ns: u64, token: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        self.armed.insert((deadline_ns, id), token);
        TimerId { deadline_ns, id }
    }

    /// Cancels an armed timer. Returns `false` when the id already
    /// fired or was cancelled (cancel is idempotent).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.armed.remove(&(id.deadline_ns, id.id)).is_some()
    }

    /// The earliest armed absolute deadline, if any — what an event
    /// loop should bound its poll timeout by.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.armed
            .first_key_value()
            .map(|(&(deadline_ns, _), _)| deadline_ns)
    }

    /// Returns the tokens of every timer whose deadline is at or before
    /// `now_ns`, in deadline order (id as the deterministic tie-break),
    /// and disarms them.
    pub fn advance(&mut self, now_ns: u64) -> Vec<T> {
        let mut fired = Vec::new();
        while let Some(entry) = self.armed.first_entry() {
            if entry.key().0 > now_ns {
                break;
            }
            fired.push(entry.remove());
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order_and_only_once() {
        let mut w: TimerQueue<&str> = TimerQueue::new();
        w.schedule(5_000_000, "b");
        w.schedule(2_000_000, "a");
        w.schedule(9_000_000, "c");
        assert_eq!(w.armed(), 3);
        assert_eq!(w.next_deadline_ns(), Some(2_000_000));
        assert_eq!(w.advance(1_000_000), Vec::<&str>::new());
        assert_eq!(w.advance(6_000_000), vec!["a", "b"]);
        assert_eq!(w.armed(), 1);
        assert_eq!(w.advance(6_000_000), Vec::<&str>::new());
        assert_eq!(w.advance(20_000_000), vec!["c"]);
        assert_eq!(w.armed(), 0);
        assert_eq!(w.next_deadline_ns(), None);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut w: TimerQueue<u32> = TimerQueue::new();
        let a = w.schedule(10_000, 1);
        let b = w.schedule(10_000, 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "cancel is idempotent");
        assert_eq!(w.advance(50_000), vec![2]);
        assert!(!w.cancel(b), "fired timers cannot be cancelled");
    }

    #[test]
    fn deadline_mid_tick_fires_once_passed() {
        let mut w: TimerQueue<u8> = TimerQueue::new();
        w.schedule(1_500_000, 1);
        assert_eq!(w.advance(1_400_000), Vec::<u8>::new());
        assert_eq!(w.advance(1_600_000), vec![1]);
        // A deadline between two advances fires on the later one.
        w.schedule(1_800_000, 2);
        assert_eq!(w.advance(1_900_000), vec![2]);
    }

    #[test]
    fn long_deadlines_survive_wheel_laps() {
        // A 1 ms deadline stays armed through a hundred earlier advances.
        let mut w: TimerQueue<u8> = TimerQueue::new();
        w.schedule(1_000_000, 7);
        for step in 1..100 {
            assert_eq!(w.advance(step * 10_000), Vec::<u8>::new(), "step {step}");
        }
        assert_eq!(w.advance(1_000_000), vec![7]);
    }

    #[test]
    fn deadline_in_the_past_fires_on_next_advance() {
        let mut w: TimerQueue<u8> = TimerQueue::new();
        w.advance(100_000);
        w.schedule(50_000, 1); // already in the past
        assert_eq!(w.advance(101_000), vec![1]);
    }

    #[test]
    fn many_timers_under_churn() {
        let mut w: TimerQueue<usize> = TimerQueue::new();
        let mut g = crate::XorShift64::new(9);
        let mut ids = Vec::new();
        for i in 0..10_000 {
            let dl = 1_000_000 + g.next_below(500_000_000);
            ids.push((w.schedule(dl, i), i % 2 == 0));
        }
        // Cancel every even token.
        for (id, even) in &ids {
            if *even {
                assert!(w.cancel(*id));
            }
        }
        let fired = w.advance(1_000_000_000);
        assert_eq!(fired.len(), 5_000);
        assert!(fired.iter().all(|i| i % 2 == 1));
        assert_eq!(w.armed(), 0);
    }
}
