//! Request coalescing (stampede protection) for memoized computations.
//!
//! When N callers miss the same cache key at once, running the
//! underlying computation N times wastes N−1 computes and — for an
//! expensive mapper pipeline — turns a hot-key storm into a latency
//! cliff. A [`CoalesceMap`] lets the *first* caller for a key become the
//! **leader** (it runs the computation) while every concurrent caller
//! for the same key becomes a **follower** that blocks on a `Condvar`
//! rendezvous and inherits the leader's result or its typed error.
//!
//! This is the safe rendition of the stable-reference idea from the
//! `cachingmap` crate (see SNIPPETS.md): instead of handing out
//! references into an `UnsafeCell`-backed map, followers receive a
//! *clone* of the published `Result<V, E>` (callers wrap large values in
//! `Arc`, so a clone is a reference-count bump), and all
//! synchronization is an ordinary `Mutex` + `Condvar` per in-flight key.
//!
//! Failure handling is part of the contract:
//!
//! * a leader that **completes** (`Ok` or `Err`) wakes every follower
//!   with a clone of that outcome;
//! * a leader that **panics** (or otherwise drops its [`Leader`] guard
//!   without completing) marks the flight abandoned and wakes every
//!   follower with [`Join::LeaderFailed`] — followers never hang and the
//!   entry never leaks (the guard's `Drop` removes it from the map);
//! * a follower whose **deadline** passes first returns
//!   [`Join::TimedOut`] without disturbing the flight.
//!
//! The entry is removed from the map the moment the flight settles, so
//! later callers (which should consult the caller's result cache first)
//! start a fresh flight rather than observing stale state.

use crate::hash::FxHashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The state of one in-flight computation.
enum FlightState<V, E> {
    /// The leader is still computing.
    Running,
    /// The leader published its outcome; followers clone it.
    Done(Result<V, E>),
    /// The leader's guard was dropped without completing (panic or
    /// early return): followers observe the failure, never a hang.
    Abandoned,
}

struct Flight<V, E> {
    state: Mutex<FlightState<V, E>>,
    settled: Condvar,
}

/// A map of in-flight computations keyed by `K`: concurrent requests
/// for the same key rendezvous on one flight.
pub struct CoalesceMap<K, V, E> {
    flights: Mutex<FxHashMap<K, Arc<Flight<V, E>>>>,
}

/// The outcome of [`CoalesceMap::join`].
pub enum Join<'a, K: Hash + Eq + Clone, V: Clone, E: Clone> {
    /// This caller is the leader: run the computation, then call
    /// [`Leader::complete`]. Dropping the guard without completing
    /// (e.g. on panic) wakes all followers with [`Join::LeaderFailed`].
    Leader(Leader<'a, K, V, E>),
    /// A leader finished while we waited; this is a clone of its result.
    Done(Result<V, E>),
    /// The leader's guard was dropped without a result (it panicked).
    LeaderFailed,
    /// The caller's deadline passed before the flight settled.
    TimedOut,
}

/// The leader's completion guard for one flight (see [`Join::Leader`]).
pub struct Leader<'a, K: Hash + Eq + Clone, V: Clone, E: Clone> {
    map: &'a CoalesceMap<K, V, E>,
    key: K,
    flight: Arc<Flight<V, E>>,
    completed: bool,
}

impl<K: Hash + Eq + Clone, V: Clone, E: Clone> Leader<'_, K, V, E> {
    /// Publishes the leader's outcome: every current and future waiter
    /// on this flight receives a clone of `result`, and the flight is
    /// removed from the map so later callers start fresh.
    pub fn complete(mut self, result: Result<V, E>) {
        self.settle(FlightState::Done(result));
        self.completed = true;
    }

    fn settle(&self, state: FlightState<V, E>) {
        {
            let mut s = self.flight.state.lock().expect("flight poisoned");
            *s = state;
        }
        self.flight.settled.notify_all();
        let mut flights = self.map.flights.lock().expect("coalesce map poisoned");
        // Only remove our own flight: a follower that timed out and
        // retried may already have replaced the entry.
        if let Some(current) = flights.get(&self.key) {
            if Arc::ptr_eq(current, &self.flight) {
                flights.remove(&self.key);
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone, E: Clone> Drop for Leader<'_, K, V, E> {
    fn drop(&mut self) {
        if !self.completed {
            self.settle(FlightState::Abandoned);
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone, E: Clone> CoalesceMap<K, V, E> {
    /// An empty map with no in-flight computations.
    pub fn new() -> Self {
        CoalesceMap {
            flights: Mutex::new(FxHashMap::default()),
        }
    }

    /// Number of currently in-flight computations.
    pub fn in_flight(&self) -> usize {
        self.flights.lock().expect("coalesce map poisoned").len()
    }

    /// Joins the flight for `key`: the first caller becomes the leader,
    /// concurrent callers block (until `deadline`, if given) for the
    /// leader's outcome.
    pub fn join(&self, key: K, deadline: Option<Instant>) -> Join<'_, K, V, E> {
        let flight = {
            let mut flights = self.flights.lock().expect("coalesce map poisoned");
            match flights.get(&key) {
                Some(f) => Arc::clone(f),
                None => {
                    let f = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        settled: Condvar::new(),
                    });
                    flights.insert(key.clone(), Arc::clone(&f));
                    return Join::Leader(Leader {
                        map: self,
                        key,
                        flight: f,
                        completed: false,
                    });
                }
            }
        };

        let mut state = flight.state.lock().expect("flight poisoned");
        loop {
            match &*state {
                FlightState::Done(r) => return Join::Done(r.clone()),
                FlightState::Abandoned => return Join::LeaderFailed,
                FlightState::Running => {}
            }
            match deadline {
                None => {
                    state = flight.settled.wait(state).expect("flight poisoned");
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Join::TimedOut;
                    }
                    let (s, timeout) = flight
                        .settled
                        .wait_timeout(state, d - now)
                        .expect("flight poisoned");
                    state = s;
                    if timeout.timed_out() {
                        // Re-check once: the leader may have settled in
                        // the race between timeout and relock.
                        return match &*state {
                            FlightState::Done(r) => Join::Done(r.clone()),
                            FlightState::Abandoned => Join::LeaderFailed,
                            FlightState::Running => Join::TimedOut,
                        };
                    }
                }
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone, E: Clone> Default for CoalesceMap<K, V, E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    type Map = CoalesceMap<u64, u64, String>;

    #[test]
    fn leader_result_is_inherited_by_all_followers() {
        let map = Arc::new(Map::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(16));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let (map, computes, barrier) = (
                    Arc::clone(&map),
                    Arc::clone(&computes),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    match map.join(7, None) {
                        Join::Leader(leader) => {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Give followers time to pile up.
                            std::thread::sleep(Duration::from_millis(20));
                            leader.complete(Ok(42));
                            42
                        }
                        Join::Done(Ok(v)) => v,
                        other => panic!(
                            "follower got an unexpected outcome: {}",
                            match other {
                                Join::Done(Err(e)) => format!("Err({e})"),
                                Join::LeaderFailed => "LeaderFailed".into(),
                                Join::TimedOut => "TimedOut".into(),
                                _ => unreachable!(),
                            }
                        ),
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one leader");
        assert_eq!(map.in_flight(), 0, "settled flight must not leak");
    }

    #[test]
    fn leader_error_is_inherited_typed() {
        let map = Map::new();
        let Join::Leader(leader) = map.join(1, None) else {
            panic!("first join must lead");
        };
        // A second join (same thread, before completion) must follow; use
        // a deadline so the test cannot hang.
        let deadline = Some(Instant::now() + Duration::from_millis(10));
        assert!(matches!(map.join(1, deadline), Join::TimedOut));
        leader.complete(Err("boom".to_string()));
        // Flight settled and removed: a fresh join leads again.
        assert!(matches!(map.join(1, None), Join::Leader(_)));
    }

    #[test]
    fn panicking_leader_wakes_all_followers_with_leader_failed() {
        let map = Arc::new(Map::new());
        let barrier = Arc::new(Barrier::new(5));
        let leader_map = Arc::clone(&map);
        let leader_barrier = Arc::clone(&barrier);
        let leader = std::thread::spawn(move || {
            let join = leader_map.join(9, None);
            assert!(matches!(join, Join::Leader(_)));
            leader_barrier.wait();
            std::thread::sleep(Duration::from_millis(20));
            // Unwinding drops the guard without completing.
            panic!("leader died mid-compute");
        });
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let (map, barrier) = (Arc::clone(&map), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    let deadline = Some(Instant::now() + Duration::from_secs(5));
                    matches!(map.join(9, deadline), Join::LeaderFailed)
                })
            })
            .collect();
        assert!(leader.join().is_err(), "leader must have panicked");
        for f in followers {
            assert!(f.join().unwrap(), "follower must observe LeaderFailed");
        }
        assert_eq!(map.in_flight(), 0, "abandoned flight must not leak");
    }

    #[test]
    fn follower_deadline_does_not_disturb_the_flight() {
        let map = Map::new();
        let Join::Leader(leader) = map.join(3, None) else {
            panic!("first join must lead");
        };
        let deadline = Some(Instant::now() + Duration::from_millis(5));
        assert!(matches!(map.join(3, deadline), Join::TimedOut));
        assert_eq!(map.in_flight(), 1, "timeout must not remove the flight");
        leader.complete(Ok(5));
        assert_eq!(map.in_flight(), 0);
    }

    #[test]
    fn leader_completion_survives_departed_followers() {
        // Several followers join with short deadlines while the leader
        // is still computing; every one of them times out and departs.
        // Completing the flight afterwards must neither panic nor leak
        // the flight — the departed followers simply never see the
        // result.
        let map = Arc::new(Map::new());
        let Join::Leader(leader) = map.join(11, None) else {
            panic!("first join must lead");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let deadline = Some(Instant::now() + Duration::from_millis(10));
                    matches!(map.join(11, deadline), Join::TimedOut)
                })
            })
            .collect();
        for f in followers {
            assert!(f.join().unwrap(), "every follower must time out typed");
        }
        assert_eq!(map.in_flight(), 1, "departures leave the flight alone");
        // The leader finishes long after everyone left.
        leader.complete(Ok(99));
        assert_eq!(map.in_flight(), 0);
        // The key is reusable afterwards: a fresh join leads again.
        assert!(matches!(map.join(11, None), Join::Leader(_)));
    }

    #[test]
    fn late_follower_still_inherits_when_others_departed() {
        // One follower departs on deadline, one keeps waiting: the
        // waiter inherits the result even though the condvar saw a
        // departure first.
        let map = Arc::new(Map::new());
        let Join::Leader(leader) = map.join(13, None) else {
            panic!("first join must lead");
        };
        let quitter = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let deadline = Some(Instant::now() + Duration::from_millis(5));
                matches!(map.join(13, deadline), Join::TimedOut)
            })
        };
        let waiter = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let deadline = Some(Instant::now() + Duration::from_secs(10));
                match map.join(13, deadline) {
                    Join::Done(Ok(v)) => v,
                    Join::Done(Err(_)) => panic!("waiter saw an error result"),
                    Join::Leader(_) => panic!("waiter became leader"),
                    Join::LeaderFailed => panic!("waiter saw a failed leader"),
                    Join::TimedOut => panic!("waiter timed out"),
                }
            })
        };
        assert!(quitter.join().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        leader.complete(Ok(77));
        assert_eq!(waiter.join().unwrap(), 77);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let map = Map::new();
        let Join::Leader(a) = map.join(1, None) else {
            panic!()
        };
        let Join::Leader(b) = map.join(2, None) else {
            panic!()
        };
        assert_eq!(map.in_flight(), 2);
        a.complete(Ok(1));
        b.complete(Ok(2));
        assert_eq!(map.in_flight(), 0);
    }
}
