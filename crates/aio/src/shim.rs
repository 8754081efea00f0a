//! Seeded connection-level fault injection for the event loop.
//!
//! This shim torments the *client → front end* hop at per-million
//! rates, deterministically: each accepted connection's faults are
//! decided once, from a [`cachemap_util::XorShift64`] stream derived
//! from `(seed, conn_seq)`, so a test replaying the same accept order
//! sees the same faults.
//!
//! Three behaviors, mirroring what a hostile or broken client/network
//! does to a server:
//!
//! * **stall** — the connection's reads are swallowed: bytes arrive at
//!   the socket but never reach the framer, exactly what a slow-loris
//!   peer looks like from the application. The idle deadline must fire
//!   and answer with a typed `read_timeout`.
//! * **truncate** — the write side is cut dead after a fixed number of
//!   response bytes, then the connection closes: a half-written frame,
//!   the torn-response case clients must survive.
//! * **drip** — writes trickle one byte per readiness cycle, forcing
//!   the write-buffer/backpressure path that a fast writer never hits.

use cachemap_util::XorShift64;

/// Per-million fault rates applied at accept time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Stream seed; every connection derives its own generator.
    pub seed: u64,
    /// Per-million chance the connection's reads are swallowed.
    pub stall_read_ppm: u32,
    /// Per-million chance the connection's writes are cut after
    /// [`FaultPlan::truncate_after_bytes`] and the socket closed.
    pub truncate_write_ppm: u32,
    /// Per-million chance the connection's writes drip 1 byte/cycle.
    pub drip_write_ppm: u32,
    /// Where a truncated write is cut (response-stream offset).
    pub truncate_after_bytes: usize,
}

impl FaultPlan {
    /// No faults (rates all zero).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            stall_read_ppm: 0,
            truncate_write_ppm: 0,
            drip_write_ppm: 0,
            truncate_after_bytes: 16,
        }
    }

    /// The fault decisions for the `conn_seq`-th accepted connection.
    /// Deterministic in `(self.seed, conn_seq)`.
    pub fn decide(&self, conn_seq: u64) -> ConnFaults {
        if self.stall_read_ppm == 0 && self.truncate_write_ppm == 0 && self.drip_write_ppm == 0 {
            return ConnFaults::default();
        }
        // A golden-ratio multiply keeps neighbouring sequences'
        // streams decorrelated.
        let mut g = XorShift64::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(conn_seq + 1),
        );
        ConnFaults {
            swallow_reads: g.chance(self.stall_read_ppm as u64, 1_000_000),
            truncate_write_at: if g.chance(self.truncate_write_ppm as u64, 1_000_000) {
                Some(self.truncate_after_bytes)
            } else {
                None
            },
            drip_write: g.chance(self.drip_write_ppm as u64, 1_000_000),
        }
    }
}

/// One connection's decided faults (all off by default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnFaults {
    /// Bytes read from the socket are discarded before framing.
    pub swallow_reads: bool,
    /// Cut the response stream at this offset, then close.
    pub truncate_write_at: Option<usize>,
    /// Write at most one byte per flush cycle.
    pub drip_write: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan {
            seed: 42,
            stall_read_ppm: 500_000,
            truncate_write_ppm: 0,
            drip_write_ppm: 0,
            truncate_after_bytes: 16,
        };
        let a: Vec<bool> = (0..1000).map(|i| plan.decide(i).swallow_reads).collect();
        let b: Vec<bool> = (0..1000).map(|i| plan.decide(i).swallow_reads).collect();
        assert_eq!(a, b, "same seed, same decisions");
        let hits = a.iter().filter(|x| **x).count();
        assert!((300..700).contains(&hits), "~50% rate, got {hits}/1000");
        assert_eq!(FaultPlan::none().decide(7), ConnFaults::default());
    }
}
