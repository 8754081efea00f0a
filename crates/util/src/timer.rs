//! A hashed timing wheel for connection deadlines.
//!
//! The async front end needs thousands of concurrently armed idle/read
//! deadlines that are almost always cancelled (a byte arrives) rather
//! than fired. A [`TimerWheel`] makes `schedule` O(1) and amortizes
//! expiry scans: deadlines hash into `slots` buckets by tick, and
//! [`TimerWheel::advance`] only touches the buckets the elapsed ticks
//! map to. [`TimerWheel::cancel`] and [`TimerWheel::next_deadline_ns`]
//! are linear: each scans the armed entries. Time is plain `u64`
//! nanoseconds — callers feed it from a [`crate::Clock`], so tests on a
//! simulated clock never sleep.
//!
//! Entries far in the future land in the bucket their final lap maps
//! to; `advance` re-checks each entry's absolute deadline, so a long
//! deadline simply stays parked until its lap comes around.

/// Handle for cancelling a scheduled timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

struct Entry<T> {
    id: u64,
    deadline_ns: u64,
    token: T,
    cancelled: bool,
}

/// A hashed timing wheel; `T` is the caller's token type (for the async
/// front end, a connection slot).
pub struct TimerWheel<T> {
    tick_ns: u64,
    slots: Vec<Vec<Entry<T>>>,
    /// The wheel's current position, in ticks since time zero.
    cursor_tick: u64,
    next_id: u64,
    armed: usize,
}

impl<T> TimerWheel<T> {
    /// A wheel with `slots` buckets of `tick_ns` granularity. Deadlines
    /// are filed under the tick they round up to, and each fires on the
    /// first `advance` to a time at or past it.
    pub fn new(tick_ns: u64, slots: usize) -> TimerWheel<T> {
        let slots = slots.max(1);
        TimerWheel {
            tick_ns: tick_ns.max(1),
            slots: (0..slots).map(|_| Vec::new()).collect(),
            cursor_tick: 0,
            next_id: 0,
            armed: 0,
        }
    }

    /// Number of armed (scheduled, not yet fired or cancelled) timers.
    pub fn armed(&self) -> usize {
        self.armed
    }

    fn tick_of(&self, ns: u64) -> u64 {
        ns.div_ceil(self.tick_ns)
    }

    /// Arms a timer for `deadline_ns` (absolute, same epoch as the
    /// caller's clock). A deadline that has already passed fires on the
    /// next `advance`.
    pub fn schedule(&mut self, deadline_ns: u64, token: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        let tick = self.tick_of(deadline_ns).max(self.cursor_tick);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry {
            id,
            deadline_ns,
            token,
            cancelled: false,
        });
        self.armed += 1;
        TimerId(id)
    }

    /// Cancels an armed timer. Returns `false` when the id already
    /// fired or was cancelled (cancel is idempotent; it scans every
    /// slot).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        for slot in &mut self.slots {
            if let Some(e) = slot.iter_mut().find(|e| e.id == id.0 && !e.cancelled) {
                e.cancelled = true;
                self.armed -= 1;
                return true;
            }
        }
        false
    }

    /// The earliest armed absolute deadline, if any — what an event
    /// loop should bound its poll timeout by.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.slots
            .iter()
            .flatten()
            .filter(|e| !e.cancelled)
            .map(|e| e.deadline_ns)
            .min()
    }

    /// Advances the wheel to `now_ns` and returns the tokens of every
    /// timer whose deadline has passed, in deadline order.
    pub fn advance(&mut self, now_ns: u64) -> Vec<T> {
        // Round up, as `schedule` does: a deadline that passed mid-tick
        // is filed under the tick that ends after it.
        let target_tick = self.tick_of(now_ns);
        if target_tick < self.cursor_tick {
            return Vec::new();
        }
        let mut fired: Vec<(u64, u64, T)> = Vec::new();
        let nslots = self.slots.len() as u64;
        // Visit each bucket at most once per advance, even when the
        // elapsed ticks lap the wheel.
        let span = (target_tick - self.cursor_tick).min(nslots);
        for t in 0..=span {
            let slot = ((self.cursor_tick + t) % nslots) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].cancelled {
                    bucket.swap_remove(i);
                } else if bucket[i].deadline_ns <= now_ns {
                    let e = bucket.swap_remove(i);
                    self.armed -= 1;
                    fired.push((e.deadline_ns, e.id, e.token));
                } else {
                    i += 1;
                }
            }
        }
        self.cursor_tick = target_tick;
        // Deadline order (id as the deterministic tie-break).
        fired.sort_by_key(|(d, id, _)| (*d, *id));
        fired.into_iter().map(|(_, _, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order_and_only_once() {
        let mut w: TimerWheel<&str> = TimerWheel::new(1_000_000, 64); // 1 ms ticks
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
        let mut w: TimerWheel<u32> = TimerWheel::new(1_000, 8);
        let a = w.schedule(10_000, 1);
        let b = w.schedule(10_000, 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "cancel is idempotent");
        assert_eq!(w.advance(50_000), vec![2]);
        assert!(!w.cancel(b), "fired timers cannot be cancelled");
    }

    #[test]
    fn deadline_mid_tick_fires_once_passed() {
        let mut w: TimerWheel<u8> = TimerWheel::new(1_000_000, 64); // 1 ms ticks
        w.schedule(1_500_000, 1);
        assert_eq!(w.advance(1_400_000), Vec::<u8>::new());
        assert_eq!(w.advance(1_600_000), vec![1]);
        // The wheel now sits at tick 2; a deadline inside that tick
        // fires as soon as it passes, too.
        w.schedule(1_800_000, 2);
        assert_eq!(w.advance(1_900_000), vec![2]);
    }

    #[test]
    fn long_deadlines_survive_wheel_laps() {
        // 8 slots of 1 µs: a 1 ms deadline laps the wheel ~125 times.
        let mut w: TimerWheel<u8> = TimerWheel::new(1_000, 8);
        w.schedule(1_000_000, 7);
        for step in 1..100 {
            assert_eq!(w.advance(step * 10_000), Vec::<u8>::new(), "step {step}");
        }
        assert_eq!(w.advance(1_000_000), vec![7]);
    }

    #[test]
    fn deadline_in_the_past_fires_on_next_advance() {
        let mut w: TimerWheel<u8> = TimerWheel::new(1_000, 8);
        w.advance(100_000);
        w.schedule(50_000, 1); // already in the past
        assert_eq!(w.advance(101_000), vec![1]);
    }

    #[test]
    fn many_timers_under_churn() {
        let mut w: TimerWheel<usize> = TimerWheel::new(1_000_000, 256);
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
