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
//!
//! No policy scans its residents. LRU and SLRU keep recency lists on a
//! slab and FIFO a queue, so every operation is O(1). LFU and LFUDA
//! share [`FrequencyCache`]: a hit is O(1), and an eviction pops a lazy
//! min-heap in O(log n) amortized for `n` residents.

use crate::config::PolicyKind;
use cachemap_util::stats::HitMiss;
use cachemap_util::FxHashMap;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

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

    /// Hit/miss statistics accumulated by `access`.
    fn stats(&self) -> HitMiss;
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
// Recency lists on a slab (LRU, SLRU)
// ---------------------------------------------------------------------------

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    chunk: Chunk,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// A recency list threaded through a [`Slab`]: head = most recent,
/// tail = least recent.
#[derive(Debug, Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
    len: usize,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// Slots for resident lines, each linked into one [`List`]; freed slots
/// are reused. Every operation is O(1).
#[derive(Debug, Clone, Default)]
struct Slab {
    nodes: Vec<Node>,
    free: Vec<usize>,
}

impl Slab {
    /// A slot for a new line, on no list yet.
    fn alloc(&mut self, chunk: Chunk, dirty: bool) -> usize {
        let node = Node {
            chunk,
            dirty,
            prev: NIL,
            next: NIL,
        };
        if let Some(slot) = self.free.pop() {
            self.nodes[slot] = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Frees a slot already unlinked from its list, returning its line.
    fn release(&mut self, slot: usize) -> (Chunk, bool) {
        self.free.push(slot);
        (self.nodes[slot].chunk, self.nodes[slot].dirty)
    }

    fn unlink(&mut self, list: &mut List, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            list.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            list.tail = prev;
        }
        list.len -= 1;
    }

    fn push_front(&mut self, list: &mut List, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = list.head;
        if list.head != NIL {
            self.nodes[list.head].prev = slot;
        }
        list.head = slot;
        if list.tail == NIL {
            list.tail = slot;
        }
        list.len += 1;
    }

    /// Unlinks the least recent slot of `list`; `None` when it is empty.
    fn pop_back(&mut self, list: &mut List) -> Option<usize> {
        let slot = list.tail;
        if slot == NIL {
            return None;
        }
        self.unlink(list, slot);
        Some(slot)
    }
}

/// The outcome of filling a full cache by evicting `victim`.
fn evicted((victim, dirty): (Chunk, bool)) -> InsertOutcome {
    if dirty {
        InsertOutcome::EvictedDirty(victim)
    } else {
        InsertOutcome::EvictedClean(victim)
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Least-recently-used cache: one recency list on a `Slab` (tail = LRU
/// victim), with an `FxHashMap` chunk → slot index. All operations are
/// O(1).
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    slab: Slab,
    list: List,
    index: FxHashMap<Chunk, usize>,
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
            slab: Slab::default(),
            list: List::EMPTY,
            index: FxHashMap::default(),
            stats: HitMiss::default(),
        }
    }

    /// Moves a resident slot to the most-recent end.
    fn touch(&mut self, slot: usize) {
        self.slab.unlink(&mut self.list, slot);
        self.slab.push_front(&mut self.list, slot);
    }

    /// Evicts the least-recently-used entry; `None` on an empty cache.
    fn evict_lru(&mut self) -> Option<(Chunk, bool)> {
        let slot = self.slab.pop_back(&mut self.list)?;
        let (chunk, dirty) = self.slab.release(slot);
        self.index.remove(&chunk);
        Some((chunk, dirty))
    }
}

impl ChunkCache for LruCache {
    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        if let Some(&slot) = self.index.get(&chunk) {
            self.touch(slot);
            self.slab.nodes[slot].dirty |= write;
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
            self.touch(slot);
            self.slab.nodes[slot].dirty |= dirty;
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.index.len() == self.capacity {
            // Invariant: capacity > 0, so a full cache has a victim.
            if let Some(victim) = self.evict_lru() {
                outcome = evicted(victim);
            }
        }
        let slot = self.slab.alloc(chunk, dirty);
        self.index.insert(chunk, slot);
        self.slab.push_front(&mut self.list, slot);
        outcome
    }

    fn contains(&self, chunk: Chunk) -> bool {
        self.index.contains_key(&chunk)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn stats(&self) -> HitMiss {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// First-in-first-out cache (ablation): eviction order is insertion
/// order; `access` does not change the order. All operations are O(1).
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
                outcome = evicted((victim, was_dirty));
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

    fn stats(&self) -> HitMiss {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// LFU and LFUDA
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FreqEntry {
    hits: u64,
    priority: u64, // cache age at last touch + hits (LFU: age stays 0)
    dirty: bool,
}

impl FreqEntry {
    /// Counts a hit at cache age `age`.
    fn hit(&mut self, age: u64) {
        self.hits += 1;
        self.priority = age + self.hits;
    }
}

/// Frequency-ordered cache: evicts the least `(priority, seq)`, where
/// `priority` is the cache age at the line's last touch plus its hit
/// count and `seq` orders insertions (so every choice is deterministic).
/// Without `AGING` the age stays zero and this is [`LfuCache`]; with it,
/// each eviction ratchets the age up to the victim's priority and this
/// is [`LfudaCache`].
///
/// Each resident has exactly one `(priority, seq, chunk)` entry in a
/// min-heap. A hit updates only the resident's map entry, so hits are
/// O(1) and leave the heap entry stale. Priorities never fall — hits
/// only grow and the age only ratchets up — so a stale entry
/// under-states its line. Eviction therefore re-files a stale top at its
/// current priority and looks again; the first current top is the
/// minimum over all residents. There is at most one re-file per hit, so
/// eviction is O(log n) amortized.
#[derive(Debug, Clone)]
pub struct FrequencyCache<const AGING: bool> {
    capacity: usize,
    entries: FxHashMap<Chunk, FreqEntry>,
    heap: BinaryHeap<Reverse<(u64, u64, Chunk)>>,
    age: u64,
    next_seq: u64,
    stats: HitMiss,
}

/// Least-frequently-used cache (ablation) with FIFO tie-breaking. A
/// repeat insert of a resident only merges its dirty bit.
pub type LfuCache = FrequencyCache<false>;

/// LFU with Dynamic Aging: each line's priority is its access count plus
/// the cache age, and the age ratchets up to every victim's priority. A
/// once-popular line that stops being touched keeps a frozen priority
/// while the age climbs past it — unlike plain [`LfuCache`], yesterday's
/// hot set cannot block today's forever. A repeat insert of a resident
/// counts as a hit.
pub type LfudaCache = FrequencyCache<true>;

impl<const AGING: bool> FrequencyCache<AGING> {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        FrequencyCache {
            capacity,
            entries: FxHashMap::default(),
            heap: BinaryHeap::new(),
            age: 0,
            next_seq: 0,
            stats: HitMiss::default(),
        }
    }

    /// Evicts the minimum-`(priority, seq)` entry, ratcheting the age to
    /// its priority under `AGING`; `None` on an empty cache.
    fn evict_min(&mut self) -> Option<(Chunk, bool)> {
        loop {
            let mut top = self.heap.peek_mut()?;
            let Reverse((filed, seq, chunk)) = *top;
            let current = self.entries.get(&chunk)?.priority;
            if current == filed {
                PeekMut::pop(top);
                let e = self.entries.remove(&chunk)?;
                if AGING {
                    self.age = self.age.max(e.priority);
                }
                return Some((chunk, e.dirty));
            }
            // Stale: re-file at the current priority (sifts down on drop).
            *top = Reverse((current, seq, chunk));
        }
    }
}

impl<const AGING: bool> ChunkCache for FrequencyCache<AGING> {
    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        if let Some(e) = self.entries.get_mut(&chunk) {
            e.hit(self.age);
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
            // LFUDA counts a repeat insert as a hit; LFU only merges the
            // dirty bit.
            if AGING {
                e.hit(self.age);
            }
            e.dirty |= dirty;
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.entries.len() == self.capacity {
            // Invariant: capacity > 0, so a full cache has a victim.
            if let Some(victim) = self.evict_min() {
                outcome = evicted(victim);
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let priority = self.age + 1;
        self.entries.insert(
            chunk,
            FreqEntry {
                hits: 1,
                priority,
                dirty,
            },
        );
        // Tie-break: lower sequence = older = evicted first.
        self.heap.push(Reverse((priority, seq, chunk)));
        outcome
    }

    fn contains(&self, chunk: Chunk) -> bool {
        self.entries.contains_key(&chunk)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn stats(&self) -> HitMiss {
        self.stats
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
/// The segments are two recency lists on one `Slab`, as in
/// [`LruCache`]; all operations are O(1).
#[derive(Debug, Clone)]
pub struct SlruCache {
    capacity: usize,
    protected_cap: usize,
    slab: Slab,
    probationary: List,
    protected: List,
    index: FxHashMap<Chunk, (usize, Segment)>,
    stats: HitMiss,
}

impl SlruCache {
    /// Creates an empty SLRU cache.
    ///
    /// # Panics
    /// Panics if capacity is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        SlruCache {
            capacity,
            // ⌊4/5·cap⌋, at least one line: the classic SLRU split of
            // roughly 80% protected / 20% probationary.
            protected_cap: (capacity * 4 / 5).max(1),
            slab: Slab::default(),
            probationary: List::EMPTY,
            protected: List::EMPTY,
            index: FxHashMap::default(),
            stats: HitMiss::default(),
        }
    }

    /// Moves a resident chunk to the protected MRU position, demoting
    /// protected overflow back to probation; returns its slot, or `None`
    /// if it is not resident. Residency never changes, so no eviction can
    /// fire here.
    fn promote(&mut self, chunk: Chunk) -> Option<usize> {
        let e = self.index.get_mut(&chunk)?;
        let (slot, from) = *e;
        e.1 = Segment::Protected;
        let list = match from {
            Segment::Probationary => &mut self.probationary,
            Segment::Protected => &mut self.protected,
        };
        self.slab.unlink(list, slot);
        self.slab.push_front(&mut self.protected, slot);
        self.demote_overflow();
        Some(slot)
    }

    /// Demotes protected LRU lines to probationary MRU until the
    /// protected segment fits its share. Demote, never evict: each line
    /// gets one more probationary round before a scan can push it out.
    fn demote_overflow(&mut self) {
        while self.protected.len > self.protected_cap {
            let Some(slot) = self.slab.pop_back(&mut self.protected) else {
                break;
            };
            self.slab.push_front(&mut self.probationary, slot);
            if let Some(e) = self.index.get_mut(&self.slab.nodes[slot].chunk) {
                e.1 = Segment::Probationary;
            }
        }
    }

    /// Evicts in policy order: probationary LRU first, protected LRU
    /// when probation is empty; `None` on an empty cache.
    fn evict_one(&mut self) -> Option<(Chunk, bool)> {
        let slot = self
            .slab
            .pop_back(&mut self.probationary)
            .or_else(|| self.slab.pop_back(&mut self.protected))?;
        let (chunk, dirty) = self.slab.release(slot);
        self.index.remove(&chunk);
        Some((chunk, dirty))
    }
}

impl ChunkCache for SlruCache {
    fn access(&mut self, chunk: Chunk, write: bool) -> bool {
        if let Some(slot) = self.promote(chunk) {
            self.slab.nodes[slot].dirty |= write;
            self.stats.hit();
            true
        } else {
            self.stats.miss();
            false
        }
    }

    fn insert(&mut self, chunk: Chunk, dirty: bool) -> InsertOutcome {
        // Already resident: a repeat insert counts as a re-reference.
        if let Some(slot) = self.promote(chunk) {
            self.slab.nodes[slot].dirty |= dirty;
            return InsertOutcome::Inserted;
        }
        let mut outcome = InsertOutcome::Inserted;
        if self.index.len() == self.capacity {
            // Invariant: capacity > 0, so a full cache has a victim.
            if let Some(victim) = self.evict_one() {
                outcome = evicted(victim);
            }
        }
        let slot = self.slab.alloc(chunk, dirty);
        self.slab.push_front(&mut self.probationary, slot);
        self.index.insert(chunk, (slot, Segment::Probationary));
        outcome
    }

    fn contains(&self, chunk: Chunk) -> bool {
        self.index.contains_key(&chunk)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn stats(&self) -> HitMiss {
        self.stats
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
            c.insert(1, false);
            assert!(c.access(1, false));
            assert!(c.stats().hits >= 1);
            for chunk in 10..10 + cap {
                c.insert(chunk, false);
            }
            assert_eq!(c.len(), cap, "{kind:?} holds exactly its capacity");
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
