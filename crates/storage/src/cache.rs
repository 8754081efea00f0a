//! Chunk-granularity storage caches with pluggable replacement.
//!
//! "These storage caches are managed using the LRU policy" (Section 5.1).
//! The unit of management is one data chunk (= stripe size). Caches are
//! write-allocate / write-back: a write to a cached chunk marks it dirty,
//! and evicting a dirty chunk surfaces it to the caller so the simulator
//! can charge the write-back to the next level.
//!
//! The paper also notes its approach "can work with any storage caching
//! policy"; [`build_cache`] picks one of five for each level: LRU, FIFO,
//! LFU, SLRU (scan-resistant) and LFUDA (LFU with dynamic aging).

use crate::config::PolicyKind;
use cachemap_util::stats::HitMiss;
use cachemap_util::FxHashMap;

/// A chunk identifier (global data-space numbering).
pub type Chunk = usize;

/// Result of inserting a chunk into a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// There was room (or the chunk was already resident).
    Inserted,
    /// A clean chunk was evicted to make room.
    EvictedClean(Chunk),
    /// A dirty chunk was evicted; the caller must write it back.
    EvictedDirty(Chunk),
}

/// A chunk cache with some replacement policy.
pub trait ChunkCache {
    /// Looks up a chunk, updating recency/frequency metadata.
    /// Returns `true` on hit. On a write hit the chunk is marked dirty.
    fn access(&mut self, chunk: Chunk, write: bool) -> bool;

    /// Inserts a chunk (after a miss was serviced), possibly evicting.
    /// `dirty` marks the newly inserted chunk (write-allocate of a write
    /// miss).
    fn insert(&mut self, chunk: Chunk, dirty: bool) -> InsertOutcome;

    /// True if the chunk is resident (no metadata update).
    fn contains(&self, chunk: Chunk) -> bool;

    /// Number of resident chunks.
    fn len(&self) -> usize;

    /// True if nothing is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in chunks.
    fn capacity(&self) -> usize;

    /// Hit/miss statistics accumulated by `access`.
    fn stats(&self) -> HitMiss;

    /// Drops all residents and statistics.
    fn reset(&mut self);

    /// Removes every resident chunk (statistics are kept), returning the
    /// former residents as `(chunk, dirty)` pairs in eviction order.
    /// Used by fault injection to model a crashed node losing its cache.
    fn drain(&mut self) -> Vec<(Chunk, bool)>;

    /// Changes the capacity, evicting in policy order until the
    /// residents fit; returns the evicted `(chunk, dirty)` pairs. A
    /// capacity of zero is clamped to one (caches are never empty by
    /// construction; see [`FaultPlan`](crate::faults::FaultPlan)
    /// validation).
    fn set_capacity(&mut self, capacity: usize) -> Vec<(Chunk, bool)>;
}

/// Builds a cache of the configured policy kind.
pub fn build_cache(policy: PolicyKind, capacity: usize) -> Box<dyn ChunkCache + Send> {
    match policy {
        PolicyKind::Lru => Box::new(LruCache::new(capacity)),
        PolicyKind::Fifo => Box::new(FifoCache::new(capacity)),
        PolicyKind::Lfu => Box::new(LfuCache::new(capacity)),
        PolicyKind::Slru => Box::new(SlruCache::new(capacity)),
        PolicyKind::Lfuda => Box::new(LfudaCache::new(capacity)),
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct LruEntry {
    chunk: Chunk,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// Least-recently-used cache: a slab of entries threaded on an intrusive
/// doubly-linked list (head = most recent, tail = LRU victim), with an
/// `FxHashMap` chunk → slot index. All operations are O(1).
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    slots: Vec<LruEntry>,
    free: Vec<usize>,
    index: FxHashMap<Chunk, usize>,
    head: usize,
    tail: usize,
    stats: HitMiss,
}

impl LruCache {
    /// Creates an empty cache with the given capacity in chunks.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            capacity,
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            index: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            stats: HitMiss::default(),
        }
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Evicts the least-recently-used entry; `None` on an empty cache.
    fn evict_lru(&mut self) -> Option<(Chunk, bool)> {
        let victim = self.tail;
        if victim == NIL {
            return None;
        }
        self.detach(victim);
        let chunk = self.slots[victim].chunk;
        let dirty = self.slots[victim].dirty;
        self.index.remove(&chunk);
        self.free.push(victim);
        Some((chunk, dirty))
    }
}

impl ChunkCache for LruCache {
    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        if let Some(&slot) = self.index.get(&chunk) {
            self.detach(slot);
            self.attach_front(slot);
            if write {
                self.slots[slot].dirty = true;
            }
            self.stats.hit();
            true
        } else {
            self.stats.miss();
            false
        }
    }

    fn insert(&mut self, chunk: Chunk, dirty: bool) -> InsertOutcome {
        if let Some(&slot) = self.index.get(&chunk) {
            // Already resident: refresh recency, merge dirty bit.
            self.detach(slot);
            self.attach_front(slot);
            self.slots[slot].dirty |= dirty;
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.index.len() == self.capacity {
            // Invariant: capacity > 0, so a full cache has a victim.
            if let Some((victim, was_dirty)) = self.evict_lru() {
                outcome = if was_dirty {
                    InsertOutcome::EvictedDirty(victim)
                } else {
                    InsertOutcome::EvictedClean(victim)
                };
            }
        }
        let slot = if let Some(s) = self.free.pop() {
            self.slots[s] = LruEntry {
                chunk,
                dirty,
                prev: NIL,
                next: NIL,
            };
            s
        } else {
            self.slots.push(LruEntry {
                chunk,
                dirty,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.index.insert(chunk, slot);
        self.attach_front(slot);
        outcome
    }

    fn contains(&self, chunk: Chunk) -> bool {
        self.index.contains_key(&chunk)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> HitMiss {
        self.stats
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.stats = HitMiss::default();
    }

    fn drain(&mut self) -> Vec<(Chunk, bool)> {
        let mut out = Vec::with_capacity(self.index.len());
        while let Some(entry) = self.evict_lru() {
            out.push(entry);
        }
        out
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<(Chunk, bool)> {
        self.capacity = capacity.max(1);
        let mut out = Vec::new();
        while self.index.len() > self.capacity {
            if let Some(entry) = self.evict_lru() {
                out.push(entry);
            } else {
                break;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// First-in-first-out cache (ablation): eviction order is insertion
/// order; `access` does not change the order.
#[derive(Debug, Clone)]
pub struct FifoCache {
    capacity: usize,
    queue: std::collections::VecDeque<Chunk>,
    dirty: FxHashMap<Chunk, bool>,
    stats: HitMiss,
}

impl FifoCache {
    /// Creates an empty FIFO cache.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        FifoCache {
            capacity,
            queue: std::collections::VecDeque::with_capacity(capacity),
            dirty: FxHashMap::default(),
            stats: HitMiss::default(),
        }
    }
}

impl ChunkCache for FifoCache {
    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        if let Some(d) = self.dirty.get_mut(&chunk) {
            *d |= write;
            self.stats.hit();
            true
        } else {
            self.stats.miss();
            false
        }
    }

    fn insert(&mut self, chunk: Chunk, dirty: bool) -> InsertOutcome {
        if let Some(d) = self.dirty.get_mut(&chunk) {
            *d |= dirty;
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.dirty.len() == self.capacity {
            // Invariant: capacity > 0, so a full cache has a queued victim.
            if let Some(victim) = self.queue.pop_front() {
                let was_dirty = self.dirty.remove(&victim).unwrap_or(false);
                outcome = if was_dirty {
                    InsertOutcome::EvictedDirty(victim)
                } else {
                    InsertOutcome::EvictedClean(victim)
                };
            }
        }
        self.queue.push_back(chunk);
        self.dirty.insert(chunk, dirty);
        outcome
    }

    fn contains(&self, chunk: Chunk) -> bool {
        self.dirty.contains_key(&chunk)
    }

    fn len(&self) -> usize {
        self.dirty.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> HitMiss {
        self.stats
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.dirty.clear();
        self.stats = HitMiss::default();
    }

    fn drain(&mut self) -> Vec<(Chunk, bool)> {
        let mut out = Vec::with_capacity(self.dirty.len());
        while let Some(victim) = self.queue.pop_front() {
            let was_dirty = self.dirty.remove(&victim).unwrap_or(false);
            out.push((victim, was_dirty));
        }
        out
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<(Chunk, bool)> {
        self.capacity = capacity.max(1);
        let mut out = Vec::new();
        while self.dirty.len() > self.capacity {
            match self.queue.pop_front() {
                Some(victim) => {
                    let was_dirty = self.dirty.remove(&victim).unwrap_or(false);
                    out.push((victim, was_dirty));
                }
                None => break,
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// LFU
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct LfuEntry {
    freq: u64,
    seq: u64, // tie-break: lower sequence = older = evicted first
    dirty: bool,
}

/// Least-frequently-used cache (ablation) with FIFO tie-breaking.
/// Eviction is O(n) in capacity, which is fine for the simulator's cache
/// sizes.
#[derive(Debug, Clone)]
pub struct LfuCache {
    capacity: usize,
    entries: FxHashMap<Chunk, LfuEntry>,
    next_seq: u64,
    stats: HitMiss,
}

impl LfuCache {
    /// Creates an empty LFU cache.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LfuCache {
            capacity,
            entries: FxHashMap::default(),
            next_seq: 0,
            stats: HitMiss::default(),
        }
    }

    /// Evicts the least-frequently-used entry (ties broken by age,
    /// `seq` is unique so the choice is deterministic); `None` on an
    /// empty cache.
    fn evict_lfu(&mut self) -> Option<(Chunk, bool)> {
        let victim = *self
            .entries
            .iter()
            .min_by_key(|(_, e)| (e.freq, e.seq))
            .map(|(c, _)| c)?;
        let e = self.entries.remove(&victim)?;
        Some((victim, e.dirty))
    }
}

impl ChunkCache for LfuCache {
    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        if let Some(e) = self.entries.get_mut(&chunk) {
            e.freq += 1;
            e.dirty |= write;
            self.stats.hit();
            true
        } else {
            self.stats.miss();
            false
        }
    }

    fn insert(&mut self, chunk: Chunk, dirty: bool) -> InsertOutcome {
        if let Some(e) = self.entries.get_mut(&chunk) {
            e.dirty |= dirty;
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.entries.len() == self.capacity {
            // Invariant: capacity > 0, so a full cache has a victim.
            if let Some((victim, was_dirty)) = self.evict_lfu() {
                outcome = if was_dirty {
                    InsertOutcome::EvictedDirty(victim)
                } else {
                    InsertOutcome::EvictedClean(victim)
                };
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            chunk,
            LfuEntry {
                freq: 1,
                seq,
                dirty,
            },
        );
        outcome
    }

    fn contains(&self, chunk: Chunk) -> bool {
        self.entries.contains_key(&chunk)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> HitMiss {
        self.stats
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
        self.stats = HitMiss::default();
    }

    fn drain(&mut self) -> Vec<(Chunk, bool)> {
        let mut out = Vec::with_capacity(self.entries.len());
        while let Some(entry) = self.evict_lfu() {
            out.push(entry);
        }
        out
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<(Chunk, bool)> {
        self.capacity = capacity.max(1);
        let mut out = Vec::new();
        while self.entries.len() > self.capacity {
            match self.evict_lfu() {
                Some(entry) => out.push(entry),
                None => break,
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// SLRU
// ---------------------------------------------------------------------------

/// Which SLRU segment a resident chunk lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probationary,
    Protected,
}

/// Segmented LRU: new lines enter a probationary segment and only a
/// re-reference promotes them into the protected segment, so a
/// sequential scan (every line touched once) churns the probationary
/// segment while the re-used working set survives in the protected one.
/// Eviction takes the probationary LRU line first, falling back to the
/// protected LRU line only when probation is empty.
///
/// Both segments are plain recency lists (front = MRU); operations are
/// O(n) in capacity, like [`LfuCache`], which is fine at simulator cache
/// sizes.
#[derive(Debug, Clone)]
pub struct SlruCache {
    capacity: usize,
    protected_cap: usize,
    probationary: Vec<Chunk>, // front = most recent
    protected: Vec<Chunk>,    // front = most recent
    index: FxHashMap<Chunk, (Segment, bool)>,
    stats: HitMiss,
}

impl SlruCache {
    /// Protected fraction of the capacity (the classic SLRU default of
    /// roughly 80% protected / 20% probationary).
    fn protected_share(capacity: usize) -> usize {
        capacity * 4 / 5
    }

    /// Creates an empty SLRU cache.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        SlruCache {
            capacity,
            protected_cap: Self::protected_share(capacity),
            probationary: Vec::new(),
            protected: Vec::new(),
            index: FxHashMap::default(),
            stats: HitMiss::default(),
        }
    }

    fn remove_from_list(list: &mut Vec<Chunk>, chunk: Chunk) {
        if let Some(pos) = list.iter().position(|&c| c == chunk) {
            list.remove(pos);
        }
    }

    /// Moves a resident chunk to the protected MRU position, demoting
    /// the protected LRU line back to probation if the segment is over
    /// its share. Residency never changes, so no eviction can fire here.
    fn promote(&mut self, chunk: Chunk) {
        match self.index.get(&chunk).map(|&(seg, _)| seg) {
            Some(Segment::Probationary) => {
                Self::remove_from_list(&mut self.probationary, chunk);
            }
            Some(Segment::Protected) => {
                Self::remove_from_list(&mut self.protected, chunk);
            }
            None => return,
        }
        self.protected.insert(0, chunk);
        if let Some(e) = self.index.get_mut(&chunk) {
            e.0 = Segment::Protected;
        }
        while self.protected.len() > self.protected_cap.max(1) {
            // Demote, never evict: the line gets one more probationary
            // round before a scan can push it out.
            let Some(demoted) = self.protected.pop() else {
                break;
            };
            self.probationary.insert(0, demoted);
            if let Some(e) = self.index.get_mut(&demoted) {
                e.0 = Segment::Probationary;
            }
        }
    }

    /// Evicts in policy order: probationary LRU first, protected LRU
    /// when probation is empty; `None` on an empty cache.
    fn evict_one(&mut self) -> Option<(Chunk, bool)> {
        let victim = self.probationary.pop().or_else(|| self.protected.pop())?;
        let (_, dirty) = self.index.remove(&victim)?;
        Some((victim, dirty))
    }
}

impl ChunkCache for SlruCache {
    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        if self.index.contains_key(&chunk) {
            self.promote(chunk);
            if write {
                if let Some(e) = self.index.get_mut(&chunk) {
                    e.1 = true;
                }
            }
            self.stats.hit();
            true
        } else {
            self.stats.miss();
            false
        }
    }

    fn insert(&mut self, chunk: Chunk, dirty: bool) -> InsertOutcome {
        if self.index.contains_key(&chunk) {
            // Already resident: a repeat insert counts as a re-reference.
            self.promote(chunk);
            if let Some(e) = self.index.get_mut(&chunk) {
                e.1 |= dirty;
            }
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.index.len() == self.capacity {
            // Invariant: capacity > 0, so a full cache has a victim.
            if let Some((victim, was_dirty)) = self.evict_one() {
                outcome = if was_dirty {
                    InsertOutcome::EvictedDirty(victim)
                } else {
                    InsertOutcome::EvictedClean(victim)
                };
            }
        }
        self.probationary.insert(0, chunk);
        self.index.insert(chunk, (Segment::Probationary, dirty));
        outcome
    }

    fn contains(&self, chunk: Chunk) -> bool {
        self.index.contains_key(&chunk)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> HitMiss {
        self.stats
    }

    fn reset(&mut self) {
        self.probationary.clear();
        self.protected.clear();
        self.index.clear();
        self.stats = HitMiss::default();
    }

    fn drain(&mut self) -> Vec<(Chunk, bool)> {
        let mut out = Vec::with_capacity(self.index.len());
        while let Some(entry) = self.evict_one() {
            out.push(entry);
        }
        out
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<(Chunk, bool)> {
        self.capacity = capacity.max(1);
        self.protected_cap = Self::protected_share(self.capacity);
        let mut out = Vec::new();
        while self.index.len() > self.capacity {
            match self.evict_one() {
                Some(entry) => out.push(entry),
                None => break,
            }
        }
        // A shrunk protected share demotes (not evicts) the overflow.
        while self.protected.len() > self.protected_cap.max(1) && !self.protected.is_empty() {
            let Some(demoted) = self.protected.pop() else {
                break;
            };
            self.probationary.insert(0, demoted);
            if let Some(e) = self.index.get_mut(&demoted) {
                e.0 = Segment::Probationary;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// LFUDA
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct LfudaEntry {
    hits: u64,
    key: u64, // eviction priority: cache age at last touch + hit count
    seq: u64, // tie-break: lower sequence = older = evicted first
    dirty: bool,
}

/// LFU with Dynamic Aging: each line's priority is its access count plus
/// the cache age, and the age ratchets up to every victim's priority. A
/// once-popular line that stops being touched keeps a frozen priority
/// while the age climbs past it — unlike plain [`LfuCache`], yesterday's
/// hot set cannot block today's forever. Eviction is O(n), as for LFU.
#[derive(Debug, Clone)]
pub struct LfudaCache {
    capacity: usize,
    entries: FxHashMap<Chunk, LfudaEntry>,
    age: u64,
    next_seq: u64,
    stats: HitMiss,
}

impl LfudaCache {
    /// Creates an empty LFUDA cache.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LfudaCache {
            capacity,
            entries: FxHashMap::default(),
            age: 0,
            next_seq: 0,
            stats: HitMiss::default(),
        }
    }

    /// Evicts the minimum-priority entry (ties broken by age, `seq` is
    /// unique so the choice is deterministic) and ratchets the cache age
    /// to the victim's priority; `None` on an empty cache.
    fn evict_min(&mut self) -> Option<(Chunk, bool)> {
        let victim = *self
            .entries
            .iter()
            .min_by_key(|(_, e)| (e.key, e.seq))
            .map(|(c, _)| c)?;
        let e = self.entries.remove(&victim)?;
        self.age = self.age.max(e.key);
        Some((victim, e.dirty))
    }
}

impl ChunkCache for LfudaCache {
    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        let age = self.age;
        if let Some(e) = self.entries.get_mut(&chunk) {
            e.hits += 1;
            e.key = age + e.hits;
            e.dirty |= write;
            self.stats.hit();
            true
        } else {
            self.stats.miss();
            false
        }
    }

    fn insert(&mut self, chunk: Chunk, dirty: bool) -> InsertOutcome {
        let age = self.age;
        if let Some(e) = self.entries.get_mut(&chunk) {
            e.hits += 1;
            e.key = age + e.hits;
            e.dirty |= dirty;
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.entries.len() == self.capacity {
            // Invariant: capacity > 0, so a full cache has a victim.
            if let Some((victim, was_dirty)) = self.evict_min() {
                outcome = if was_dirty {
                    InsertOutcome::EvictedDirty(victim)
                } else {
                    InsertOutcome::EvictedClean(victim)
                };
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            chunk,
            LfudaEntry {
                hits: 1,
                key: self.age + 1,
                seq,
                dirty,
            },
        );
        outcome
    }

    fn contains(&self, chunk: Chunk) -> bool {
        self.entries.contains_key(&chunk)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> HitMiss {
        self.stats
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.age = 0;
        self.next_seq = 0;
        self.stats = HitMiss::default();
    }

    fn drain(&mut self) -> Vec<(Chunk, bool)> {
        let mut out = Vec::with_capacity(self.entries.len());
        while let Some(entry) = self.evict_min() {
            out.push(entry);
        }
        out
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<(Chunk, bool)> {
        self.capacity = capacity.max(1);
        let mut out = Vec::new();
        while self.entries.len() > self.capacity {
            match self.evict_min() {
                Some(entry) => out.push(entry),
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_hits_and_misses() {
        let mut c = LruCache::new(2);
        assert!(!c.access(1, false));
        c.insert(1, false);
        assert!(c.access(1, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.access(1, false));
        let out = c.insert(3, false);
        assert_eq!(out, InsertOutcome::EvictedClean(2));
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn lru_dirty_eviction_surfaces_writeback() {
        let mut c = LruCache::new(1);
        c.insert(7, false);
        assert!(c.access(7, true)); // write hit marks dirty
        let out = c.insert(8, false);
        assert_eq!(out, InsertOutcome::EvictedDirty(7));
    }

    #[test]
    fn lru_insert_existing_merges_dirty() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        c.insert(1, true);
        c.insert(2, false);
        let out = c.insert(3, false); // victim should be 1 (older), dirty
        assert_eq!(out, InsertOutcome::EvictedDirty(1));
    }

    #[test]
    fn lru_never_exceeds_capacity() {
        let mut c = LruCache::new(4);
        for i in 0..100 {
            c.insert(i, i % 3 == 0);
            assert!(c.len() <= 4);
        }
        assert_eq!(c.len(), 4);
        // The last four inserted remain.
        for i in 96..100 {
            assert!(c.contains(i));
        }
    }

    #[test]
    fn lru_reset_clears_everything() {
        let mut c = LruCache::new(2);
        c.insert(1, true);
        c.access(1, false);
        c.reset();
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.contains(1));
        // Reusable after reset.
        c.insert(5, false);
        assert!(c.contains(5));
    }

    #[test]
    fn fifo_evicts_insertion_order_despite_access() {
        let mut c = FifoCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        assert!(c.access(1, false)); // does NOT protect 1 under FIFO
        let out = c.insert(3, false);
        assert_eq!(out, InsertOutcome::EvictedClean(1));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = LfuCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        c.access(1, false);
        c.access(1, false);
        c.access(2, false);
        let out = c.insert(3, false);
        // 2 has freq 2 (1 insert + 1 access), 1 has freq 3 → evict 2.
        assert_eq!(out, InsertOutcome::EvictedClean(2));
    }

    #[test]
    fn lfu_tie_breaks_by_age() {
        let mut c = LfuCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        let out = c.insert(3, false); // both freq 1 → evict older (1)
        assert_eq!(out, InsertOutcome::EvictedClean(1));
    }

    #[test]
    fn policy_factory_builds_each_kind() {
        for kind in PolicyKind::ALL {
            let cap = 3;
            let mut c = build_cache(kind, cap);
            assert_eq!(c.capacity(), cap);
            c.insert(1, false);
            assert!(c.access(1, false));
            assert!(c.stats().hits >= 1);
        }
    }

    #[test]
    fn drain_surfaces_dirty_residents_and_empties() {
        for kind in PolicyKind::ALL {
            let mut c = build_cache(kind, 4);
            c.insert(1, false);
            c.insert(2, true);
            c.insert(3, false);
            let drained = c.drain();
            assert_eq!(drained.len(), 3, "{kind:?}");
            assert_eq!(
                drained.iter().filter(|(_, d)| *d).count(),
                1,
                "{kind:?} must surface the dirty chunk"
            );
            assert!(c.is_empty());
            // Statistics survive a drain (unlike reset).
            assert_eq!(c.stats().misses, 0);
            c.insert(9, false);
            assert!(c.contains(9));
        }
    }

    #[test]
    fn set_capacity_shrinks_in_policy_order() {
        let mut c = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i == 0); // chunk 0 dirty, and LRU
        }
        let evicted = c.set_capacity(2);
        assert_eq!(evicted, vec![(0, true), (1, false)]);
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(2) && c.contains(3));
        // Growing evicts nothing; zero clamps to one.
        assert!(c.set_capacity(8).is_empty());
        let evicted = c.set_capacity(0);
        assert_eq!(c.capacity(), 1);
        assert_eq!(evicted.len(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn set_capacity_all_policies_respect_new_limit() {
        for kind in PolicyKind::ALL {
            let mut c = build_cache(kind, 8);
            for i in 0..8 {
                c.insert(i, i % 2 == 0);
            }
            let evicted = c.set_capacity(3);
            assert_eq!(evicted.len(), 5, "{kind:?}");
            assert_eq!(c.len(), 3, "{kind:?}");
            assert_eq!(c.capacity(), 3, "{kind:?}");
            c.insert(100, false);
            assert!(c.len() <= 3, "{kind:?}");
        }
    }

    #[test]
    fn slru_scan_does_not_flush_protected_lines() {
        // Working set {0..4} is re-referenced (promoted to protected),
        // then a 20-chunk scan storms through. Under LRU the scan would
        // flush everything; SLRU keeps the protected set resident.
        let mut c = SlruCache::new(10);
        for w in 0..4 {
            c.insert(w, false);
            assert!(c.access(w, false), "promote {w}");
        }
        for s in 100..120 {
            if !c.access(s, false) {
                c.insert(s, false);
            }
        }
        for w in 0..4 {
            assert!(c.contains(w), "scan must not evict protected chunk {w}");
        }
        // The same storm against LRU flushes the working set.
        let mut lru = LruCache::new(10);
        for w in 0..4 {
            lru.insert(w, false);
            lru.access(w, false);
        }
        for s in 100..120 {
            if !lru.access(s, false) {
                lru.insert(s, false);
            }
        }
        for w in 0..4 {
            assert!(!lru.contains(w), "LRU baseline loses chunk {w}");
        }
    }

    #[test]
    fn slru_single_use_lines_stay_probationary_and_evict_first() {
        let mut c = SlruCache::new(4);
        c.insert(1, false);
        c.access(1, false); // protected
        c.insert(2, false); // probationary, never re-touched
        c.insert(3, false); // probationary
        c.insert(4, false); // probationary
        let out = c.insert(5, false);
        // Probationary LRU (2) goes first, never the protected line.
        assert_eq!(out, InsertOutcome::EvictedClean(2));
        assert!(c.contains(1));
    }

    #[test]
    fn slru_protected_overflow_demotes_not_evicts() {
        let mut c = SlruCache::new(5); // protected share = 4
        for i in 0..5 {
            c.insert(i, false);
            assert!(c.access(i, false)); // promote all five
        }
        // Residency never shrinks on access: the oldest protected line
        // was demoted to probation, not dropped.
        assert_eq!(c.len(), 5);
        for i in 0..5 {
            assert!(c.contains(i), "chunk {i}");
        }
    }

    #[test]
    fn lfuda_ages_out_stale_popular_lines() {
        // Warm phase makes {1, 2} hot; then popularity inverts to
        // {3, 4}. Plain LFU lets the stale pair block the new pair
        // forever (3 and 4 evict each other at frequency 1); LFUDA's
        // age ratchet retires the stale pair and the new pair hits.
        fn run(c: &mut dyn ChunkCache) -> u64 {
            for w in [1, 2] {
                c.insert(w, false);
            }
            for _ in 0..10 {
                c.access(1, false);
                c.access(2, false);
            }
            let before = c.stats().hits;
            for _ in 0..12 {
                for n in [3, 4] {
                    if !c.access(n, false) {
                        c.insert(n, false);
                    }
                }
            }
            c.stats().hits - before
        }
        let mut lfuda = LfudaCache::new(2);
        let mut lfu = LfuCache::new(2);
        let lfuda_hits = run(&mut lfuda);
        let lfu_hits = run(&mut lfu);
        assert_eq!(lfu_hits, 0, "LFU baseline starves the new hot pair");
        assert!(
            lfuda_hits > 8,
            "LFUDA must serve the new hot pair (got {lfuda_hits} hits)"
        );
    }

    #[test]
    fn lfuda_eviction_is_deterministic_under_ties() {
        let mut c = LfudaCache::new(3);
        c.insert(10, false);
        c.insert(11, false);
        c.insert(12, false);
        // All priorities equal → oldest sequence (10) goes first.
        assert_eq!(c.insert(13, false), InsertOutcome::EvictedClean(10));
    }

    #[test]
    fn new_policies_reset_clears_aging_state() {
        for kind in [PolicyKind::Slru, PolicyKind::Lfuda] {
            let mut c = build_cache(kind, 4);
            for i in 0..20 {
                if !c.access(i, i % 2 == 0) {
                    c.insert(i, i % 2 == 0);
                }
            }
            c.reset();
            assert_eq!(c.len(), 0, "{kind:?}");
            assert_eq!(c.stats().accesses(), 0, "{kind:?}");
            c.insert(5, false);
            assert!(c.contains(5), "{kind:?}");
        }
    }

    #[test]
    fn lru_interleaved_stress_is_consistent() {
        // Cross-check the intrusive list against a reference model.
        let mut c = LruCache::new(8);
        let mut model: Vec<Chunk> = Vec::new(); // front = most recent
        for step in 0..2000usize {
            let chunk = (step * 7 + step / 3) % 23;
            let hit = c.access(chunk, false);
            let model_hit = model.contains(&chunk);
            assert_eq!(hit, model_hit, "step {step} chunk {chunk}");
            if hit {
                model.retain(|&x| x != chunk);
                model.insert(0, chunk);
            } else {
                c.insert(chunk, false);
                if model.len() == 8 {
                    model.pop();
                }
                model.insert(0, chunk);
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
