//! Deterministic parallel runtime: a scoped fixed-size worker pool with
//! a `par_map` primitive whose results are byte-identical for any
//! thread count, including one.
//!
//! The determinism contract, which every tenant in this workspace leans
//! on (service cache fingerprints, golden reports):
//!
//! - **Work is split by index.** Workers pull item indices from a shared
//!   atomic counter; which worker computes which item is racy, but the
//!   item→result mapping is a pure function of the input.
//! - **Results are collected in input order.** [`Pool::try_map`] writes
//!   result `i` into slot `i` and returns `Vec<R>` ordered like the
//!   input, regardless of completion order. Callers that reduce fold
//!   that `Vec` themselves, so the fold order never depends on the
//!   thread count.
//!
//! Worker panics are captured per item with `catch_unwind` and surfaced
//! as a typed [`ParError`] — a panicking closure can never hang the
//! caller, and the panic message is preserved.
//!
//! The pool is *scoped*: each call spawns `std::thread::scope` workers
//! that borrow the input slice directly (no `'static` bounds, no unsafe)
//! and joins them before returning. `Pool` itself is just a thread-count
//! handle — `Copy`, trivially cheap to thread through call stacks.
//!
//! Thread count selection: [`Pool::new`] for an explicit count,
//! [`Pool::sequential`] for the single-threaded identity pool, and
//! [`Pool::from_env`] for the CLI-level `CACHEMAP_THREADS` knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`Pool::from_env`]: the number of
/// worker threads (a positive integer; `1` forces sequential execution).
pub const THREADS_ENV: &str = "CACHEMAP_THREADS";

/// Upper bound on configured thread counts — a safety clamp, not a
/// tuning knob. Scoped pools spawn per call, so an absurd count would
/// only waste spawns.
pub const MAX_THREADS: usize = 256;

/// An error raised by a parallel primitive: some worker closure panicked.
///
/// The pool never propagates the panic by unwinding through the scope
/// (which could abort the process or deadlock a caller holding locks);
/// it captures the payload and reports the lowest recorded item index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A worker closure panicked while processing one item.
    WorkerPanic {
        /// Index of the input item whose closure panicked (the lowest
        /// recorded one when several panicked).
        index: usize,
        /// The panic payload rendered as text (`&str` / `String`
        /// payloads verbatim, otherwise a placeholder).
        message: String,
    },
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParError::WorkerPanic { index, message } => {
                write!(f, "worker panicked on item {index}: {message}")
            }
        }
    }
}

impl std::error::Error for ParError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// A fixed-size worker pool handle. See the crate docs for the
/// determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// The sequential pool — parallelism in this workspace is always
    /// opt-in.
    fn default() -> Self {
        Pool::sequential()
    }
}

impl Pool {
    /// A pool that runs work on `threads` workers. Counts are clamped to
    /// `1..=`[`MAX_THREADS`]; `Pool::new(1)` is the sequential pool.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// The single-threaded pool: primitives run inline on the caller's
    /// thread. This is the reference behaviour every parallel run must
    /// reproduce byte-for-byte.
    pub fn sequential() -> Pool {
        Pool { threads: 1 }
    }

    /// Reads the thread count from [`THREADS_ENV`] (`CACHEMAP_THREADS`),
    /// falling back to the machine's available parallelism when the
    /// variable is unset or unparsable.
    pub fn from_env() -> Pool {
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Pool::new(parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or(fallback))
    }

    /// The configured worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// `f` receives `(index, &item)` and must be a pure function of
    /// those for the determinism contract to hold. A panic in `f` is
    /// captured and returned as [`ParError::WorkerPanic`]; remaining
    /// items may be skipped once a panic is recorded.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, ParError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(r) => out.push(r),
                    Err(p) => {
                        return Err(ParError::WorkerPanic {
                            index: i,
                            message: panic_message(p.as_ref()),
                        })
                    }
                }
            }
            return Ok(out);
        }

        let slots: Vec<Mutex<Option<Result<R, ParError>>>> =
            (0..items.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let bail = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if bail.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let outcome = match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                        Ok(r) => Ok(r),
                        Err(p) => {
                            bail.store(true, Ordering::Relaxed);
                            Err(ParError::WorkerPanic {
                                index: i,
                                message: panic_message(p.as_ref()),
                            })
                        }
                    };
                    // The slot is written exactly once (indices are
                    // unique), so the lock is uncontended and cannot be
                    // poisoned: the closure ran under catch_unwind.
                    *slots[i].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });

        let mut out = Vec::with_capacity(items.len());
        let mut first_err: Option<ParError> = None;
        for slot in slots {
            match slot.into_inner().expect("result slot poisoned") {
                Some(Ok(r)) => out.push(r),
                Some(Err(e)) => {
                    first_err.get_or_insert(e);
                    break;
                }
                // A hole before any error means workers bailed early;
                // the error lives at a later index.
                None => {}
            }
        }
        match first_err {
            Some(e) => Err(e),
            None if out.len() == items.len() => Ok(out),
            // Holes but no recorded error cannot happen: workers only
            // skip items after `bail` is set, and `bail` is only set by
            // a worker that then records its error.
            None => unreachable!("incomplete parallel map without a recorded error"),
        }
    }

    /// [`Pool::try_map`] that propagates a worker panic as a panic on
    /// the calling thread (with the original message preserved).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.try_map(items, f) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Parses a `CACHEMAP_THREADS`-style value: a positive integer, clamped
/// by [`Pool::new`]. Empty, non-numeric, and zero values are rejected
/// (callers fall back).
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    let n: usize = raw?.trim().parse().ok()?;
    (n > 0).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

    #[test]
    fn map_preserves_input_order_at_every_pool_size() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in POOL_SIZES {
            let got = Pool::new(threads).map(&items, |_, &x| x * x + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_passes_the_item_index() {
        let items = vec!["a"; 100];
        let got = Pool::new(4).map(&items, |i, _| i);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let none: [u32; 0] = [];
        assert_eq!(Pool::new(8).map(&none, |_, &x| x), Vec::<u32>::new());
    }

    #[test]
    fn worker_panic_is_a_typed_error_not_a_hang() {
        let items: Vec<u32> = (0..64).collect();
        for threads in POOL_SIZES {
            let err = Pool::new(threads)
                .try_map(&items, |_, &x| {
                    if x == 13 {
                        panic!("unlucky {x}");
                    }
                    x
                })
                .unwrap_err();
            let ParError::WorkerPanic { index, message } = err;
            assert_eq!(index, 13, "threads={threads}");
            assert!(message.contains("unlucky"), "message: {message}");
        }
    }

    #[test]
    fn sequential_panic_reports_the_first_index() {
        let items: Vec<u32> = (0..64).collect();
        let err = Pool::sequential()
            .try_map(&items, |i, _| {
                if i >= 10 {
                    panic!("boom");
                }
                i
            })
            .unwrap_err();
        assert_eq!(
            err,
            ParError::WorkerPanic {
                index: 10,
                message: "boom".into()
            }
        );
    }

    #[test]
    fn map_propagates_panic_with_message() {
        let caught = std::panic::catch_unwind(|| {
            Pool::new(2).map(&[1, 2, 3], |_, &x: &i32| {
                if x == 2 {
                    panic!("bad item");
                }
                x
            })
        });
        let payload = caught.unwrap_err();
        let text = panic_message(payload.as_ref());
        assert!(text.contains("bad item"), "got: {text}");
    }

    #[test]
    fn thread_count_parsing_and_clamping() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 16 ")), Some(16));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(1_000_000).threads(), MAX_THREADS);
        assert_eq!(Pool::sequential().threads(), 1);
        assert_eq!(Pool::new(2).threads(), 2);
    }

    #[test]
    fn borrowed_non_static_data_works() {
        // The scoped pool must accept borrowed inputs with no 'static
        // bound — this test fails to compile otherwise.
        let local = vec![String::from("a"), String::from("bb")];
        let lens = Pool::new(2).map(&local, |_, s| s.len());
        assert_eq!(lens, vec![1, 2]);
        drop(local);
    }
}
