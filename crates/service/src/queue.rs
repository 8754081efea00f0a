//! Per-tenant fair admission queue.
//!
//! The bounded admission queue used to be one FIFO: a single tenant
//! flooding the service could starve everyone behind it. This queue
//! keeps one lane per tenant and serves lanes **round-robin** (one job
//! per lane per rotation visit), so a burst from one tenant delays its
//! own lane, not the others. Two admission limits apply on push:
//!
//! * a **global** bound (`limit`) — the existing reject-on-full
//!   backpressure;
//! * a **per-tenant quota** (`tenant_quota`, `0` = unlimited) — a tenant
//!   that has `quota` jobs queued is rejected with a typed
//!   `quota_exceeded` before it can crowd the shared queue.
//!
//! Lanes are created on first use and keep their rotation position for
//! the lifetime of the queue, so dequeue order is deterministic given
//! the push sequence — there is no clock or randomness anywhere.

use std::collections::VecDeque;

/// Why a push was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The global queue limit was reached.
    Full {
        /// Total queued jobs observed at rejection.
        depth: usize,
        /// The configured global limit.
        limit: usize,
    },
    /// The per-tenant quota was reached.
    Quota {
        /// The tenant that hit its quota.
        tenant: String,
        /// The configured per-tenant quota.
        quota: usize,
    },
}

struct Lane<T> {
    tenant: String,
    jobs: VecDeque<T>,
}

/// A bounded, per-tenant fair FIFO (see module docs).
pub struct FairQueue<T> {
    lanes: Vec<Lane<T>>,
    /// Rotation position: index of the lane served next.
    cursor: usize,
    len: usize,
    limit: usize,
    tenant_quota: usize,
}

impl<T> FairQueue<T> {
    /// An empty queue with a global `limit` and a per-tenant
    /// `tenant_quota` (`0` = unlimited).
    pub fn new(limit: usize, tenant_quota: usize) -> Self {
        FairQueue {
            lanes: Vec::new(),
            cursor: 0,
            len: 0,
            limit,
            tenant_quota,
        }
    }

    /// Total queued jobs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued jobs for one tenant (`0` for unknown tenants).
    pub fn tenant_depth(&self, tenant: &str) -> usize {
        self.lanes
            .iter()
            .find(|l| l.tenant == tenant)
            .map_or(0, |l| l.jobs.len())
    }

    /// Enqueues `item` on `tenant`'s lane, enforcing the per-tenant
    /// quota first (a tenant at quota is turned away even when the
    /// shared queue has room) and then the global limit.
    pub fn push(&mut self, tenant: &str, item: T) -> Result<(), PushError> {
        let lane_depth = self.tenant_depth(tenant);
        if self.tenant_quota > 0 && lane_depth >= self.tenant_quota {
            return Err(PushError::Quota {
                tenant: tenant.to_string(),
                quota: self.tenant_quota,
            });
        }
        if self.len >= self.limit {
            return Err(PushError::Full {
                depth: self.len,
                limit: self.limit,
            });
        }
        match self.lanes.iter_mut().find(|l| l.tenant == tenant) {
            Some(lane) => lane.jobs.push_back(item),
            None => self.lanes.push(Lane {
                tenant: tenant.to_string(),
                jobs: VecDeque::from([item]),
            }),
        }
        self.len += 1;
        Ok(())
    }

    /// Dequeues the next job in round-robin order.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.cursor >= self.lanes.len() {
                self.cursor = 0;
            }
            let lane = &mut self.lanes[self.cursor];
            self.cursor += 1;
            if let Some(job) = lane.jobs.pop_front() {
                self.len -= 1;
                return Some(job);
            }
        }
    }

    /// Per-tenant queued-job counts for every lane seen so far, in lane
    /// rotation order — context attached to flight-recorder dumps.
    pub fn depths(&self) -> Vec<(String, usize)> {
        self.lanes
            .iter()
            .map(|l| (l.tenant.clone(), l.jobs.len()))
            .collect()
    }

    /// Removes and returns everything still queued (drain-time sweep).
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for lane in &mut self.lanes {
            out.extend(lane.jobs.drain(..));
        }
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tenant_is_fifo() {
        let mut q: FairQueue<u32> = FairQueue::new(8, 0);
        for x in 0..5 {
            q.push("a", x).unwrap();
        }
        assert_eq!(
            (0..5).map(|_| q.pop().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn rotation_interleaves_tenants_fairly() {
        let mut q: FairQueue<&str> = FairQueue::new(16, 0);
        for x in ["a1", "a2", "a3"] {
            q.push("a", x).unwrap();
        }
        for x in ["b1", "b2"] {
            q.push("b", x).unwrap();
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).collect();
        // Strict alternation while both lanes have work.
        assert_eq!(order, vec!["a1", "b1", "a2", "b2", "a3"]);
    }

    #[test]
    fn global_limit_and_tenant_quota_reject_typed() {
        let mut q: FairQueue<u32> = FairQueue::new(3, 2);
        q.push("a", 1).unwrap();
        q.push("a", 2).unwrap();
        assert_eq!(
            q.push("a", 3),
            Err(PushError::Quota {
                tenant: "a".into(),
                quota: 2
            }),
            "tenant quota fires before the global limit"
        );
        q.push("b", 4).unwrap();
        q.push("c", 5).unwrap_err(); // global limit (3) reached
        assert_eq!(q.push("c", 5), Err(PushError::Full { depth: 3, limit: 3 }));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn quota_frees_up_as_jobs_are_served() {
        let mut q: FairQueue<u32> = FairQueue::new(8, 1);
        q.push("a", 1).unwrap();
        assert!(matches!(q.push("a", 2), Err(PushError::Quota { .. })));
        assert_eq!(q.pop(), Some(1));
        q.push("a", 2).unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn drain_returns_everything() {
        let mut q: FairQueue<u32> = FairQueue::new(8, 0);
        q.push("a", 1).unwrap();
        q.push("b", 2).unwrap();
        q.push("a", 3).unwrap();
        let mut drained = q.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2, 3]);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
