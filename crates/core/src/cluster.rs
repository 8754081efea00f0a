//! Cache-hierarchy-conscious loop iteration distribution (Figure 5).
//!
//! The algorithm descends the storage cache hierarchy tree from the root
//! toward the client leaves. At each tree node it partitions the
//! iteration chunks it inherited into as many clusters as the node has
//! children:
//!
//! * **Stage 1 (clustering)** — greedy agglomerative merging: repeatedly
//!   merge the two clusters whose tags have the maximal dot product
//!   (a cluster's tag is the bitwise *sum* — a per-chunk count vector —
//!   of its members' tags). Only pairs that share data are scored: the
//!   dot products start from the sparse similarity graph and are kept up
//!   to date additively, and each cluster keeps a bound on its best
//!   partner, so a heap of one entry per cluster picks each merge. If
//!   there are fewer clusters than children, the largest clusters are
//!   split until the counts match.
//! * **Stage 2 (load balancing)** — greedy eviction from oversized to
//!   undersized clusters within the *balance threshold* `BThres`,
//!   choosing the evicted chunk to maximize the dot product with the
//!   recipient's tag, and splitting an iteration chunk when no whole
//!   chunk fits the limits.
//!
//! After `log` levels the leaves each hold one cluster: the set of
//! iteration chunks that client node will execute.

use crate::graph::SimilarityGraph;
use crate::tags::IterationChunk;
use cachemap_obs::Profile;
use cachemap_par::Pool;
use cachemap_storage::topology::{CacheLevel, HierarchyTree, NodeId};
use cachemap_util::{BitSet, CountVec};
use std::collections::BinaryHeap;

/// A contiguous slice of one iteration chunk's iterations.
///
/// Initially each iteration chunk is one whole item; load balancing may
/// split an item into sub-ranges (`γΛa` split "according to the balance
/// threshold requirements"). `start..end` index into
/// [`IterationChunk::points`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Index into the chunk list this distribution was built from.
    pub chunk: usize,
    /// First iteration (inclusive).
    pub start: usize,
    /// Last iteration (exclusive).
    pub end: usize,
}

impl WorkItem {
    /// Whole-chunk item.
    pub fn whole(chunk: usize, len: usize) -> Self {
        WorkItem {
            chunk,
            start: 0,
            end: len,
        }
    }

    /// Number of iterations in this item.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the item covers no iterations.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// The output of the distribution algorithm: the ordered iteration-chunk
/// items assigned to each client node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    /// `per_client[c]` lists the items client `c` will execute, in
    /// (pre-scheduling) assignment order.
    pub per_client: Vec<Vec<WorkItem>>,
}

impl Distribution {
    /// Iterations assigned to each client.
    pub fn iterations_per_client(&self) -> Vec<u64> {
        self.per_client
            .iter()
            .map(|items| items.iter().map(|i| i.len() as u64).sum())
            .collect()
    }

    /// Total iterations over all clients.
    pub fn total_iterations(&self) -> u64 {
        self.iterations_per_client().iter().sum()
    }

    /// Largest relative imbalance vs. the mean client load, in `[0, ∞)`.
    pub fn imbalance(&self) -> f64 {
        let per = self.iterations_per_client();
        if per.is_empty() {
            return 0.0;
        }
        let mean = per.iter().sum::<u64>() as f64 / per.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        per.iter()
            .map(|&x| (x as f64 - mean).abs() / mean)
            .fold(0.0, f64::max)
    }
}

/// How Stage 1 scores a candidate merge of two clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Raw dot product of the bitwise-sum tags, exactly as written in
    /// Figure 5. Scores grow with cluster size, so early big clusters
    /// attract every subsequent merge (rich-get-richer), which degrades
    /// structure on large inputs — kept for fidelity and as an ablation.
    Total,
    /// Dot product normalized by the product of the clusters' member
    /// counts (average linkage). Immune to the rich-get-richer collapse:
    /// overlap through a small set of globally hot chunks (like the
    /// paper's chunk 0 in Figure 6) stays bounded instead of growing
    /// with cluster size. The default.
    Average,
    /// Dot product normalized by the *geometric mean* of the member
    /// counts (`dot / √(n_a·n_b)`). A middle ground kept as an ablation;
    /// still lets hot-chunk overlap grow with cluster size (as `√n`).
    Sqrt,
}

/// Tuning knobs for the distribution algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Balance threshold as a fraction of the mean cluster size
    /// (the paper's experiments use 10%, i.e. `0.10`).
    pub balance_threshold: f64,
    /// Merge scoring (see [`Linkage`]).
    pub linkage: Linkage,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            balance_threshold: 0.10,
            linkage: Linkage::Average,
        }
    }
}

/// One in-progress cluster during Stage 1/Stage 2.
#[derive(Debug, Clone)]
struct Cluster {
    items: Vec<WorkItem>,
    /// Bitwise-sum tag `α` (per-chunk access counts).
    tag: CountVec,
    /// Total iterations `S(cα)`.
    size: u64,
}

impl Cluster {
    fn empty(r: usize) -> Self {
        Cluster {
            items: Vec::new(),
            tag: CountVec::new(r),
            size: 0,
        }
    }

    /// The cluster holding `items`, in order.
    fn of(items: Vec<WorkItem>, chunks: &[IterationChunk]) -> Self {
        let mut tag = CountVec::new(chunks.first().map_or(0, |c| c.tag.len()));
        for i in &items {
            tag.add_bitset(&chunks[i.chunk].tag);
        }
        Cluster {
            size: items.iter().map(|i| i.len() as u64).sum(),
            tag,
            items,
        }
    }
}

/// Runs the full hierarchical distribution of Figure 5.
///
/// `chunks` are the iteration chunks of the (possibly multi-nest) input;
/// `tree` is the storage cache hierarchy; the result assigns every
/// iteration of every chunk to exactly one client.
pub fn distribute(
    chunks: &[IterationChunk],
    tree: &HierarchyTree,
    params: &ClusterParams,
) -> Distribution {
    distribute_profiled(chunks, tree, params, &mut Profile::disabled())
}

/// [`distribute`] with phase accounting; `pool` is accepted and unused.
///
/// The kernel runs on the calling thread. Figure 5's greedy merge is
/// sequential at every tree node and the root round dominates, so
/// fanning the subtrees out onto a pool never paid for its thread
/// spawns. The parameter stays for callers that hand their pool
/// through; the distribution and every profile counter are the same
/// for any pool.
///
/// The profile gets one span per hierarchy level (`level:root` →
/// `level:storage` → `level:io`), each carrying the merge/split/
/// balance-move counters for that level plus a `similarity-graph` child
/// span for the sparse similarity-graph build. Sibling subtrees at the
/// same depth accumulate into one span, so the profile mirrors the
/// levels of Figure 5, not the tree fan-out. With a disabled profile
/// this is exactly [`distribute`].
pub fn distribute_pooled(
    chunks: &[IterationChunk],
    tree: &HierarchyTree,
    params: &ClusterParams,
    _pool: &Pool,
    prof: &mut Profile,
) -> Distribution {
    distribute_profiled(chunks, tree, params, prof)
}

/// [`distribute_pooled`] without the pool.
pub(crate) fn distribute_profiled(
    chunks: &[IterationChunk],
    tree: &HierarchyTree,
    params: &ClusterParams,
    prof: &mut Profile,
) -> Distribution {
    let mut per_client: Vec<Vec<WorkItem>> = vec![Vec::new(); tree.num_clients()];
    let all_items: Vec<WorkItem> = chunks
        .iter()
        .enumerate()
        .map(|(i, c)| WorkItem::whole(i, c.len()))
        .collect();
    distribute_at_node(
        chunks,
        tree,
        tree.root(),
        all_items,
        params,
        &mut per_client,
        prof,
    );
    Distribution { per_client }
}

/// Span name for the clustering step performed *at* a node of `level`.
fn level_span_name(level: CacheLevel) -> &'static str {
    match level {
        CacheLevel::DummyRoot => "level:root",
        CacheLevel::Storage => "level:storage",
        CacheLevel::Io => "level:io",
        CacheLevel::Client => "level:client",
    }
}

/// Recursive descent: partition `items` among the children of `node`.
fn distribute_at_node(
    chunks: &[IterationChunk],
    tree: &HierarchyTree,
    node: NodeId,
    items: Vec<WorkItem>,
    params: &ClusterParams,
    per_client: &mut [Vec<WorkItem>],
    prof: &mut Profile,
) {
    let tn = tree.node(node);
    if tn.level == CacheLevel::Client {
        per_client[tn.layer_index] = items;
        return;
    }
    // The span stays open across the recursion so each level nests under
    // its parent; `push` resumes the same-named span for sibling nodes.
    prof.push(level_span_name(tn.level));
    prof.count("items", items.len() as u64);
    let num_clusters = tn.children.len();
    let mut clusters = partition_into(chunks, items, num_clusters, params, prof);
    // Hand clusters to children in a deterministic order: by the
    // earliest iteration chunk each cluster contains (this also matches
    // the per-client assignment of the paper's worked example,
    // Figure 17). Sibling caches are symmetric, so this is purely a
    // tie-breaking convention.
    clusters.sort_by_key(|c| {
        c.items
            .iter()
            .map(|i| (i.chunk, i.start))
            .min()
            .unwrap_or((usize::MAX, usize::MAX))
    });
    // On an asymmetric tree (a pruned degraded hierarchy), the children
    // lead unequal numbers of clients, so the per-child shares must be
    // proportional to subtree width, not equal.
    let weights: Vec<u64> = tn
        .children
        .iter()
        .map(|&ch| tree.clients_under(ch).len() as u64)
        .collect();
    if weights.windows(2).any(|w| w[0] != w[1]) {
        balance_to_weights(&mut clusters, chunks, params, &weights, prof);
    }
    for (cluster, &child) in clusters.into_iter().zip(&tn.children) {
        distribute_at_node(chunks, tree, child, cluster.items, params, per_client, prof);
    }
    prof.pop();
}

/// One level of Figure 5: Stage 1 clustering + Stage 2 load balancing.
/// Always returns exactly `num_clusters` clusters (some possibly empty
/// when there are fewer iterations than clusters).
fn partition_into(
    chunks: &[IterationChunk],
    items: Vec<WorkItem>,
    num_clusters: usize,
    params: &ClusterParams,
    prof: &mut Profile,
) -> Vec<Cluster> {
    let r = chunks.first().map_or(0, |c| c.tag.len());
    let items: Vec<WorkItem> = items.into_iter().filter(|i| !i.is_empty()).collect();
    let mut clusters: Vec<Cluster> = if items.len() > num_clusters {
        merge_stage(chunks, items, num_clusters, params.linkage, prof)
    } else {
        items
            .into_iter()
            .map(|i| Cluster::of(vec![i], chunks))
            .collect()
    };
    while clusters.len() < num_clusters {
        // "Select cαq such that S(cαq) is max; break it into two."
        let idx = clusters
            .iter()
            .enumerate()
            .max_by_key(|(i, c)| (c.size, std::cmp::Reverse(*i)))
            .map(|(i, _)| i);
        match idx {
            Some(i) if clusters[i].size > 1 => {
                let half = split_cluster(&mut clusters[i], chunks);
                clusters.push(half);
                prof.count("splits", 1);
            }
            _ => {
                // Nothing splittable left: pad with empty clusters.
                clusters.push(Cluster::empty(r));
            }
        }
    }

    balance_stage(&mut clusters, chunks, params, prof);
    clusters
}

/// Total order on candidate merge pairs: higher (possibly normalized)
/// dot first; ties → smaller combined iteration count (helps balance);
/// ties → lowest `(i, j)` indices. Scores are rationals compared by
/// exact u128 cross-multiplication.
#[derive(Clone, Copy, Debug)]
struct PairKey {
    num: u128,
    den: u128,
    combined: u64,
    i: usize,
    j: usize,
}

impl Ord for PairKey {
    /// `Greater` is the better merge candidate.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.num * other.den)
            .cmp(&(other.num * self.den))
            .then(other.combined.cmp(&self.combined))
            .then((other.i, other.j).cmp(&(self.i, self.j)))
    }
}

impl PairKey {
    /// True if `c` is one of the pair's clusters.
    fn names(&self, c: usize) -> bool {
        self.i == c || self.j == c
    }
}

impl PartialOrd for PairKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PairKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for PairKey {}

/// Stage 1's clusters, indexed by the item each one started from. A
/// cluster absorbed by another keeps a `parent` link towards it.
struct Stage1 {
    linkage: Linkage,
    /// Items per cluster, in merge order.
    items: Vec<Vec<WorkItem>>,
    /// Iterations per cluster.
    size: Vec<u64>,
    /// Items merged into each cluster.
    members: Vec<u64>,
    parent: Vec<usize>,
    alive: usize,
    /// `(cluster, dot)` entries per live cluster: every cluster it
    /// shares data with, though an entry may still name a cluster that
    /// has since been absorbed, and then holds only that part's dot.
    rows: Vec<Vec<(usize, u64)>>,
    /// A key no worse than any pair of the cluster, exact (the key of
    /// its best pair) unless `dirty`; `None` when it shares no data.
    best: Vec<Option<PairKey>>,
    dirty: Vec<bool>,
    /// Working space for [`Stage1::fold`]: the dot being summed per
    /// cluster, and which clusters have one.
    dot: Vec<u64>,
    touched: Vec<usize>,
}

impl Stage1 {
    fn is_alive(&self, i: usize) -> bool {
        self.parent[i] == i
    }

    /// The cluster that has absorbed `x` (with path compression).
    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut x = x;
        while self.parent[x] != root {
            x = std::mem::replace(&mut self.parent[x], root);
        }
        root
    }

    /// Merges `q` into `p`.
    fn merge(&mut self, p: usize, q: usize) {
        let moved = std::mem::take(&mut self.items[q]);
        self.items[p].extend(moved);
        self.size[p] += self.size[q];
        self.members[p] += self.members[q];
        self.parent[q] = p;
        self.alive -= 1;
    }

    /// The key for merging `a` and `b`, whose tags' dot product is `dot`.
    fn key(&self, dot: u64, a: usize, b: usize) -> PairKey {
        let (i, j) = (a.min(b), a.max(b));
        let d = u128::from(dot);
        let m = u128::from(self.members[i] * self.members[j]);
        let (num, den) = match self.linkage {
            Linkage::Total => (d, 1),
            Linkage::Average => (d, m),
            // d/√(mi·mj) compared by squaring both sides.
            Linkage::Sqrt => (d * d, m),
        };
        PairKey {
            num,
            den,
            combined: self.size[i] + self.size[j],
            i,
            j,
        }
    }

    /// Sums `parts` into one row with a single entry per live cluster:
    /// entries for absorbed clusters add up in their survivor.
    fn fold(&mut self, parts: &[Vec<(usize, u64)>]) -> Vec<(usize, u64)> {
        for &(x, w) in parts.iter().flatten() {
            let x = self.find(x);
            if self.dot[x] == 0 {
                self.touched.push(x);
            }
            self.dot[x] += w;
        }
        let row = (self.touched.iter())
            .map(|&x| (x, std::mem::take(&mut self.dot[x])))
            .collect();
        self.touched.clear();
        row
    }

    /// The best key among `x`'s pairs with the clusters in `row`.
    fn best_in(&self, x: usize, row: &[(usize, u64)]) -> Option<PairKey> {
        row.iter().map(|&(y, d)| self.key(d, x, y)).max()
    }

    /// Makes `x`'s row and best key exact again.
    fn repair(&mut self, x: usize) -> Option<PairKey> {
        let stale = [std::mem::take(&mut self.rows[x])];
        let row = self.fold(&stale);
        let best = self.best_in(x, &row);
        self.rows[x] = row;
        self.best[x] = best;
        self.dirty[x] = false;
        best
    }
}

/// Stage 1: greedy agglomerative merging by maximal tag dot product,
/// from one singleton cluster per item down to `target` clusters.
///
/// Only pairs that share data are ever scored. The initial weights are
/// the sparse [`SimilarityGraph`] of the item tags; each cluster keeps a
/// row of `(cluster, dot)` entries, and merging `p` and `q` sums their
/// rows (`dot(p∪q, x) = dot(p, x) + dot(q, x)`) through
/// [`Stage1::find`]. The merge order follows the "generic" algorithm of
/// Müllner, *Modern hierarchical, agglomerative clustering algorithms*
/// (2011): each cluster keeps one best-partner key under [`PairKey`]'s
/// order, and a max-heap holds one current entry per live cluster. After
/// a merge, each neighbour `x` of the merged cluster takes the new pair
/// as its best if that pair beats `best[x]`; if `best[x]` named `p` or
/// `q` it becomes *dirty* — still no worse than every pair of `x`, since
/// the only pair that changed scored below it, but perhaps not a pair
/// that exists. A dirty cluster that reaches the top of the heap is
/// repaired (its row re-summed, its best key recomputed) and pushed
/// again; a clean top is the best pair overall. When no nonzero pair is
/// left, [`zero_phase_merges`] finishes by size.
fn merge_stage(
    chunks: &[IterationChunk],
    items: Vec<WorkItem>,
    target: usize,
    linkage: Linkage,
    prof: &mut Profile,
) -> Vec<Cluster> {
    let n = items.len();
    let graph = prof.scope("similarity-graph", |prof| {
        let tags: Vec<&BitSet> = items.iter().map(|i| &chunks[i.chunk].tag).collect();
        let graph = SimilarityGraph::from_tags(&tags);
        let nonzero: usize = (0..n).map(|i| graph.neighbors(i).len()).sum();
        prof.count("pairs", (n * (n - 1) / 2) as u64);
        prof.count("nonzero", (nonzero / 2) as u64);
        graph
    });
    let rows: Vec<Vec<(usize, u64)>> = (0..n)
        .map(|i| {
            let row = graph.neighbors(i).iter();
            row.map(|&(j, w)| (j, u64::from(w))).collect()
        })
        .collect();
    drop(graph);
    let mut st = Stage1 {
        linkage,
        size: items.iter().map(|i| i.len() as u64).collect(),
        items: items.into_iter().map(|i| vec![i]).collect(),
        members: vec![1; n],
        parent: (0..n).collect(),
        alive: n,
        rows,
        best: vec![None; n],
        dirty: vec![false; n],
        dot: vec![0; n],
        touched: Vec::new(),
    };
    for x in 0..n {
        st.best[x] = st.best_in(x, &st.rows[x]);
    }
    // `(best[x], x)` entries. Each change of `best[x]` pushes a new one;
    // only the entry matching a live cluster's current key counts.
    let mut heap: BinaryHeap<(PairKey, usize)> =
        (0..n).filter_map(|x| st.best[x].map(|k| (k, x))).collect();

    while st.alive > target {
        let Some((top, x)) = heap.pop() else {
            zero_phase_merges(&mut st, target, prof);
            break;
        };
        if !st.is_alive(x) || st.best[x] != Some(top) {
            continue;
        }
        if st.dirty[x] {
            prof.count("repairs", 1);
            if let Some(k) = st.repair(x) {
                heap.push((k, x));
            }
            continue;
        }
        let (p, q) = (top.i, top.j);
        let merged = [p, q].map(|c| std::mem::take(&mut st.rows[c]));
        let mut row = st.fold(&merged);
        let merge_dot = row.iter().find(|&&(y, _)| y == q).map_or(0, |&(_, d)| d);
        prof.count("merges", 1);
        prof.count("merge_dot_sum", merge_dot);
        st.merge(p, q);
        row.retain(|&(y, _)| y != p && y != q);
        let mut best_p = None;
        for &(x, d) in &row {
            let k = st.key(d, p, x);
            best_p = best_p.max(Some(k));
            match st.best[x] {
                Some(b) if b >= k => st.dirty[x] |= b.names(p) || b.names(q),
                _ => {
                    st.best[x] = Some(k);
                    st.dirty[x] = false;
                    heap.push((k, x));
                }
            }
        }
        st.rows[p] = row;
        st.best[p] = best_p;
        st.dirty[p] = false;
        if let Some(k) = best_p {
            heap.push((k, p));
        }
    }

    let Stage1 { items, parent, .. } = st;
    items
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| parent[i] == i)
        .map(|(_, items)| Cluster::of(items, chunks))
        .collect()
}

/// Merges clusters down to `target` when no remaining pair shares any
/// data: pure tie-break order — smallest combined size first, lowest
/// indices on ties (matching [`PairKey`]'s order for zero scores).
fn zero_phase_merges(st: &mut Stage1, target: usize, prof: &mut Profile) {
    use std::cmp::Reverse;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..st.parent.len())
        .filter(|&i| st.is_alive(i))
        .map(|i| Reverse((st.size[i], i)))
        .collect();
    let smallest = |st: &Stage1, heap: &mut BinaryHeap<Reverse<(u64, usize)>>| {
        // Skip stale entries: merging only ever grows a cluster.
        while let Some(Reverse((s, i))) = heap.pop() {
            if st.is_alive(i) && st.size[i] == s {
                return Some(i);
            }
        }
        None
    };
    while st.alive > target {
        // Invariant: alive > target ≥ 1 keeps at least two alive
        // clusters in the heap; exhaustion can only mean the invariant
        // broke, so stop merging rather than panic.
        let (Some(p), Some(q)) = (smallest(st, &mut heap), smallest(st, &mut heap)) else {
            debug_assert!(false, "at least two clusters remain");
            break;
        };
        // Merge the higher index into the lower, as PairKey's (i, j)
        // tie-break does.
        let (lo, hi) = (p.min(q), p.max(q));
        st.merge(lo, hi);
        prof.count("zero_merges", 1);
        heap.push(Reverse((st.size[lo], lo)));
    }
}

/// Splits roughly half of a cluster's iterations into a new cluster,
/// splitting an individual iteration chunk at the boundary if needed.
fn split_cluster(cluster: &mut Cluster, chunks: &[IterationChunk]) -> Cluster {
    let r = cluster.tag.len();
    let want = cluster.size / 2;
    let mut moved = Cluster::empty(r);
    while moved.size < want {
        let need = want - moved.size;
        // Invariant: moved.size < want ≤ cluster.size implies the donor
        // still holds items; an empty pop means the size bookkeeping
        // broke, so return the partial split instead of panicking.
        let Some(item) = cluster.items.pop() else {
            debug_assert!(false, "non-empty cluster while splitting");
            break;
        };
        let ilen = item.len() as u64;
        let tag = &chunks[item.chunk].tag;
        if ilen <= need {
            cluster.tag.sub_bitset(tag);
            cluster.size -= ilen;
            moved.tag.add_bitset(tag);
            moved.size += ilen;
            moved.items.push(item);
        } else {
            // Split the item: keep the front in `cluster`, move the tail.
            let cut = item.end - need as usize;
            let keep = WorkItem {
                chunk: item.chunk,
                start: item.start,
                end: cut,
            };
            let tail = WorkItem {
                chunk: item.chunk,
                start: cut,
                end: item.end,
            };
            cluster.items.push(keep);
            cluster.size -= need;
            moved.tag.add_bitset(tag);
            moved.size += need;
            moved.items.push(tail);
            break;
        }
    }
    moved
}

/// Stage 2: greedy load balancing within `BThres`.
fn balance_stage(
    clusters: &mut [Cluster],
    chunks: &[IterationChunk],
    params: &ClusterParams,
    prof: &mut Profile,
) {
    let n = clusters.len();
    if n < 2 {
        return;
    }
    let total: u64 = clusters.iter().map(|c| c.size).sum();
    let avg = total as f64 / n as f64;
    let bthres = params.balance_threshold.max(0.0) * avg;
    let ulim = avg + bthres;
    let llim = (avg - bthres).max(0.0);

    // Bounded greedy loop; each pass must make progress or we stop.
    let max_rounds = 4 * n * chunks.len().max(1);
    for _ in 0..max_rounds {
        let donor = match clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.size as f64 > ulim)
            .max_by_key(|(i, c)| (c.size, std::cmp::Reverse(*i)))
        {
            Some((i, _)) => i,
            None => break,
        };
        // The paper selects a recipient below LLim; when every sibling
        // sits just above LLim (one big donor, the rest marginally fine)
        // that rule starves, so fall back to the smallest cluster that
        // still has headroom below ULim — same greedy intent, guaranteed
        // progress.
        let recipient = match clusters
            .iter()
            .enumerate()
            .filter(|&(i, c)| i != donor && (c.size as f64) < ulim)
            .min_by_key(|(i, c)| (c.size, *i))
        {
            Some((i, _)) => i,
            None => break,
        };

        // Whole-item eviction: donor stays ≥ LLim, recipient stays ≤ ULim,
        // maximize Λa • α_recipient.
        let donor_size = clusters[donor].size;
        let recipient_size = clusters[recipient].size;
        let max_evict = (donor_size as f64 - llim).floor().max(0.0) as u64;
        let max_accept = (ulim - recipient_size as f64).floor().max(0.0) as u64;
        let allowed = max_evict.min(max_accept);

        let mut best: Option<(usize, u64)> = None; // (item index, dot)
        for (ii, item) in clusters[donor].items.iter().enumerate() {
            let ilen = item.len() as u64;
            if ilen == 0 || ilen > allowed {
                continue;
            }
            let d = clusters[recipient].tag.dot_bitset(&chunks[item.chunk].tag);
            match best {
                Some((_, bd)) if d <= bd => {}
                _ => best = Some((ii, d)),
            }
        }

        if let Some((ii, _)) = best {
            let item = clusters[donor].items.remove(ii);
            let tag = &chunks[item.chunk].tag;
            clusters[donor].tag.sub_bitset(tag);
            clusters[donor].size -= item.len() as u64;
            clusters[recipient].tag.add_bitset(tag);
            clusters[recipient].size += item.len() as u64;
            clusters[recipient].items.push(item);
            prof.count("balance_moves", 1);
            continue;
        }

        // No whole chunk fits: split one "according to the balance
        // threshold requirements" and evict the part.
        if allowed == 0 {
            break;
        }
        // Evict the part from the item with the best dot to the recipient.
        let (ii, _) = match clusters[donor]
            .items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.len() as u64 > allowed)
            .map(|(ii, it)| {
                (
                    ii,
                    clusters[recipient].tag.dot_bitset(&chunks[it.chunk].tag),
                )
            })
            .max_by_key(|&(ii, d)| (d, std::cmp::Reverse(ii)))
        {
            Some(x) => x,
            None => break,
        };
        let item = clusters[donor].items[ii];
        let cut = item.end - allowed as usize;
        clusters[donor].items[ii] = WorkItem {
            chunk: item.chunk,
            start: item.start,
            end: cut,
        };
        clusters[donor].size -= allowed;
        let tail = WorkItem {
            chunk: item.chunk,
            start: cut,
            end: item.end,
        };
        let tag = &chunks[item.chunk].tag;
        clusters[recipient].tag.add_bitset(tag);
        clusters[recipient].size += allowed;
        clusters[recipient].items.push(tail);
        prof.count("balance_split_moves", 1);
    }
}

/// Weighted variant of [`balance_stage`] for asymmetric (pruned) trees:
/// cluster `i`'s target load is `total · weights[i] / Σweights`, and the
/// `BThres` band is taken around each target. Clusters stay aligned with
/// their position (the caller pairs position `i` with child `i`), so only
/// sizes move, not assignments.
fn balance_to_weights(
    clusters: &mut [Cluster],
    chunks: &[IterationChunk],
    params: &ClusterParams,
    weights: &[u64],
    prof: &mut Profile,
) {
    let n = clusters.len();
    debug_assert_eq!(n, weights.len(), "one weight per cluster");
    let total_weight: u64 = weights.iter().sum();
    if n < 2 || total_weight == 0 {
        return;
    }
    let total: u64 = clusters.iter().map(|c| c.size).sum();
    let bthres = params.balance_threshold.max(0.0);
    let target = |i: usize| total as f64 * weights[i] as f64 / total_weight as f64;
    let ulim = |i: usize| target(i) * (1.0 + bthres);
    let llim = |i: usize| (target(i) * (1.0 - bthres)).max(0.0);

    let max_rounds = 4 * n * chunks.len().max(1);
    for _ in 0..max_rounds {
        // Donor: largest absolute excess over its upper band edge.
        let donor = match (0..n)
            .filter(|&i| clusters[i].size as f64 > ulim(i))
            .max_by(|&a, &b| {
                let ea = clusters[a].size as f64 - ulim(a);
                let eb = clusters[b].size as f64 - ulim(b);
                ea.total_cmp(&eb).then(b.cmp(&a)) // ties → lowest index
            }) {
            Some(i) => i,
            None => break,
        };
        // Recipient: largest headroom below its upper band edge.
        let recipient = match (0..n)
            .filter(|&i| i != donor && (clusters[i].size as f64) < ulim(i))
            .max_by(|&a, &b| {
                let ha = ulim(a) - clusters[a].size as f64;
                let hb = ulim(b) - clusters[b].size as f64;
                ha.total_cmp(&hb).then(b.cmp(&a))
            }) {
            Some(i) => i,
            None => break,
        };

        let donor_size = clusters[donor].size;
        let recipient_size = clusters[recipient].size;
        let max_evict = (donor_size as f64 - llim(donor)).floor().max(0.0) as u64;
        let max_accept = (ulim(recipient) - recipient_size as f64).floor().max(0.0) as u64;
        let allowed = max_evict.min(max_accept);
        if allowed == 0 {
            break;
        }

        // Prefer moving a whole item with the best affinity to the
        // recipient; otherwise split the best-affinity oversized item.
        let mut best: Option<(usize, u64)> = None;
        for (ii, item) in clusters[donor].items.iter().enumerate() {
            let ilen = item.len() as u64;
            if ilen == 0 || ilen > allowed {
                continue;
            }
            let d = clusters[recipient].tag.dot_bitset(&chunks[item.chunk].tag);
            match best {
                Some((_, bd)) if d <= bd => {}
                _ => best = Some((ii, d)),
            }
        }
        if let Some((ii, _)) = best {
            let item = clusters[donor].items.remove(ii);
            let tag = &chunks[item.chunk].tag;
            clusters[donor].tag.sub_bitset(tag);
            clusters[donor].size -= item.len() as u64;
            clusters[recipient].tag.add_bitset(tag);
            clusters[recipient].size += item.len() as u64;
            clusters[recipient].items.push(item);
            prof.count("weighted_moves", 1);
            continue;
        }
        let (ii, _) = match clusters[donor]
            .items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.len() as u64 > allowed)
            .map(|(ii, it)| {
                (
                    ii,
                    clusters[recipient].tag.dot_bitset(&chunks[it.chunk].tag),
                )
            })
            .max_by_key(|&(ii, d)| (d, std::cmp::Reverse(ii)))
        {
            Some(x) => x,
            None => break,
        };
        let item = clusters[donor].items[ii];
        let cut = item.end - allowed as usize;
        clusters[donor].items[ii] = WorkItem {
            chunk: item.chunk,
            start: item.start,
            end: cut,
        };
        clusters[donor].size -= allowed;
        let tail = WorkItem {
            chunk: item.chunk,
            start: cut,
            end: item.end,
        };
        let tag = &chunks[item.chunk].tag;
        clusters[recipient].tag.add_bitset(tag);
        clusters[recipient].size += allowed;
        clusters[recipient].items.push(tail);
        prof.count("weighted_moves", 1);
    }
}

/// Why a failure-aware remap could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemapError {
    /// Pruning the hierarchy tree failed (bad client index, or no
    /// survivors to remap onto).
    Prune(cachemap_storage::topology::PruneError),
    /// The distribution was built for a different client count than the
    /// tree has.
    ClientCountMismatch {
        /// Clients in the distribution.
        distribution_clients: usize,
        /// Clients in the tree.
        tree_clients: usize,
    },
    /// A work item references a chunk index outside the chunk list.
    ChunkIndexOutOfRange {
        /// The offending chunk index.
        chunk: usize,
        /// Length of the chunk list.
        num_chunks: usize,
    },
}

impl std::fmt::Display for RemapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemapError::Prune(e) => write!(f, "{e}"),
            RemapError::ClientCountMismatch {
                distribution_clients,
                tree_clients,
            } => write!(
                f,
                "distribution has {distribution_clients} clients, tree has {tree_clients}"
            ),
            RemapError::ChunkIndexOutOfRange { chunk, num_chunks } => {
                write!(f, "work item references chunk {chunk} of {num_chunks}")
            }
        }
    }
}

impl std::error::Error for RemapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RemapError::Prune(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cachemap_storage::topology::PruneError> for RemapError {
    fn from(e: cachemap_storage::topology::PruneError) -> Self {
        RemapError::Prune(e)
    }
}

/// Failure-aware remapping: redistributes the whole iteration load over
/// the survivors by re-running the hierarchical clustering of Figure 5
/// against the *pruned* tree.
///
/// Re-clustering everything (rather than just the failed clients' items)
/// keeps the `BThres` load balance *global*: each survivor ends near
/// `total / survivors` iterations, and the affinity structure is rebuilt
/// for the degraded hierarchy, so orphan work lands with the clients
/// that already share its data. The translated result uses the original
/// client numbering; failed clients end with empty item lists.
///
/// `prof` records the re-clustering pass over the pruned tree with the
/// spans of [`distribute_pooled`].
///
/// # Errors
/// See [`RemapError`].
pub fn remap_failed(
    dist: &Distribution,
    chunks: &[IterationChunk],
    tree: &HierarchyTree,
    failed: &[usize],
    params: &ClusterParams,
    prof: &mut Profile,
) -> Result<Distribution, RemapError> {
    if dist.per_client.len() != tree.num_clients() {
        return Err(RemapError::ClientCountMismatch {
            distribution_clients: dist.per_client.len(),
            tree_clients: tree.num_clients(),
        });
    }
    for items in &dist.per_client {
        for item in items {
            if item.chunk >= chunks.len() {
                return Err(RemapError::ChunkIndexOutOfRange {
                    chunk: item.chunk,
                    num_chunks: chunks.len(),
                });
            }
        }
    }
    if failed.is_empty() {
        return Ok(dist.clone());
    }
    let (pruned, survivor_map) = tree.prune_clients(failed)?;

    let sub_dist = distribute_profiled(chunks, &pruned, params, prof);
    let mut out = Distribution {
        per_client: vec![Vec::new(); dist.per_client.len()],
    };
    for (new_client, items) in sub_dist.per_client.iter().enumerate() {
        out.per_client[survivor_map[new_client]] = items.clone();
    }
    Ok(out)
}

/// Incremental failure-aware remapping for the online supervisor's live
/// remap: in contrast to [`remap_failed`], the survivors **keep their
/// own remaining items untouched** (preserving the cache affinity they
/// have already built up mid-run) and only the failed clients' remaining
/// items are reassigned. Instead of re-running the full Figure 5
/// clustering, each survivor's **tag aggregate** — the [`CountVec`] sum
/// over its remaining items, exactly the cluster tag Stage 1 maintained —
/// is reused: every orphan item goes to the survivor with the highest
/// tag dot-product whose post-assignment load stays within the `BThres`
/// cap (`mean · (1 + balance_threshold)` over the survivors), ties
/// broken by lower load, then lower client index. When no survivor fits
/// under the cap the affinity winner takes the item anyway, so the remap
/// always terminates with every orphan placed.
///
/// `remaining` holds each client's **not-yet-executed** items in the
/// original client numbering; the result uses the same numbering, with
/// failed clients left empty.
///
/// # Errors
/// See [`RemapError`]; an empty `failed` returns `remaining` unchanged.
pub fn remap_incremental(
    remaining: &Distribution,
    chunks: &[IterationChunk],
    tree: &HierarchyTree,
    failed: &[usize],
    params: &ClusterParams,
) -> Result<Distribution, RemapError> {
    if remaining.per_client.len() != tree.num_clients() {
        return Err(RemapError::ClientCountMismatch {
            distribution_clients: remaining.per_client.len(),
            tree_clients: tree.num_clients(),
        });
    }
    for items in &remaining.per_client {
        for item in items {
            if item.chunk >= chunks.len() {
                return Err(RemapError::ChunkIndexOutOfRange {
                    chunk: item.chunk,
                    num_chunks: chunks.len(),
                });
            }
        }
    }
    if failed.is_empty() {
        return Ok(remaining.clone());
    }
    // Reuse the prune validation (bad indices, no survivors) without
    // keeping the pruned tree — the incremental path never re-clusters.
    let _ = tree.prune_clients(failed)?;

    let n = remaining.per_client.len();
    let mut is_failed = vec![false; n];
    for &c in failed {
        is_failed[c] = true;
    }
    let r = chunks.first().map_or(0, |c| c.tag.len());

    let mut out = Distribution {
        per_client: vec![Vec::new(); n],
    };
    let mut tags: Vec<CountVec> = (0..n).map(|_| CountVec::new(r)).collect();
    let mut load = vec![0u64; n];
    let mut orphans: Vec<WorkItem> = Vec::new();
    for (c, items) in remaining.per_client.iter().enumerate() {
        if is_failed[c] {
            orphans.extend(items.iter().copied());
        } else {
            for it in items {
                tags[c].add_bitset(&chunks[it.chunk].tag);
                load[c] += it.len() as u64;
            }
            out.per_client[c] = items.clone();
        }
    }
    if orphans.is_empty() {
        return Ok(out);
    }
    // Deterministic placement order independent of which client held an
    // orphan: earliest iterations first.
    orphans.sort_by_key(|it| (it.chunk, it.start));

    let survivors: Vec<usize> = (0..n).filter(|&c| !is_failed[c]).collect();
    let total: u64 =
        load.iter().sum::<u64>() + orphans.iter().map(|it| it.len() as u64).sum::<u64>();
    let mean = total as f64 / survivors.len() as f64;
    let cap = (mean * (1.0 + params.balance_threshold)).ceil() as u64;

    for it in orphans {
        let tag = &chunks[it.chunk].tag;
        let mut best = survivors[0];
        let mut best_key = (false, 0u64, u64::MAX);
        for &s in &survivors {
            let under_cap = load[s] + it.len() as u64 <= cap;
            let affinity = tags[s].dot_bitset(tag);
            // Prefer fitting under the cap, then affinity, then the
            // lighter client; the ascending scan settles index ties low.
            let key = (under_cap, affinity, u64::MAX - load[s]);
            if key > best_key {
                best_key = key;
                best = s;
            }
        }
        load[best] += it.len() as u64;
        tags[best].add_bitset(tag);
        out.per_client[best].push(it);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::tag_nest;
    use cachemap_storage::PlatformConfig;
    use cachemap_util::FxHashSet;

    /// Figure 6 program on the Figure 7 hierarchy (4 clients, 2 I/O
    /// nodes, 1 storage node).
    fn figure_example() -> (Vec<IterationChunk>, HierarchyTree) {
        let (program, data) = crate::tags::tests::figure6_program(4);
        let tagged = tag_nest(&program, 0, &data);
        let tree = HierarchyTree::from_config(&PlatformConfig::tiny()).unwrap();
        (tagged.chunks, tree)
    }

    fn client_chunk_sets(dist: &Distribution) -> Vec<FxHashSet<usize>> {
        dist.per_client
            .iter()
            .map(|items| items.iter().map(|i| i.chunk).collect())
            .collect()
    }

    #[test]
    fn figure9_17_clustering_reproduced() {
        // Expected final clusters (Figure 9/17): {γ2,γ4}, {γ6,γ8},
        // {γ1,γ3}, {γ5,γ7} — chunk indices {1,3},{5,7},{0,2},{4,6}.
        let (chunks, tree) = figure_example();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        let sets = client_chunk_sets(&dist);
        let expected: Vec<FxHashSet<usize>> = [vec![0, 2], vec![4, 6], vec![1, 3], vec![5, 7]]
            .into_iter()
            .map(|v| v.into_iter().collect())
            .collect();
        // Client↔cluster pairing is symmetric; compare as a set of sets.
        for want in &expected {
            assert!(
                sets.contains(want),
                "expected cluster {want:?} not found in {sets:?}"
            );
        }
        // Odd/even families must not mix across I/O nodes: clients 0,1
        // (I/O node 0) together hold one full family.
        let io0: FxHashSet<usize> = sets[0].union(&sets[1]).copied().collect();
        assert!(
            io0 == [0, 2, 4, 6].into_iter().collect::<FxHashSet<_>>()
                || io0 == [1, 3, 5, 7].into_iter().collect::<FxHashSet<_>>(),
            "I/O node 0 must hold a whole tag family, got {io0:?}"
        );
    }

    #[test]
    fn distribution_is_a_partition() {
        let (chunks, tree) = figure_example();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        let total: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        assert_eq!(dist.total_iterations(), total);
        // Every (chunk, iteration index) appears exactly once.
        let mut seen = FxHashSet::default();
        for items in &dist.per_client {
            for it in items {
                for k in it.start..it.end {
                    assert!(seen.insert((it.chunk, k)), "duplicate iteration");
                }
            }
        }
        assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn balanced_within_threshold_on_example() {
        let (chunks, tree) = figure_example();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        // The example is perfectly balanceable: 8 iterations per client.
        assert_eq!(dist.iterations_per_client(), vec![8, 8, 8, 8]);
        assert!(dist.imbalance() < 1e-9);
    }

    #[test]
    fn skewed_chunk_sizes_get_balanced_by_splitting() {
        // One huge chunk and three tiny ones: splitting must kick in.
        let mk = |tag: &str, n: usize| IterationChunk {
            nest: 0,
            tag: cachemap_util::BitSet::from_tag_str(tag),
            points: (0..n).map(|i| vec![i as i64]).collect(),
        };
        let chunks = vec![mk("1000", 97), mk("0100", 1), mk("0010", 1), mk("0001", 1)];
        let tree = HierarchyTree::from_config(&PlatformConfig::tiny()).unwrap();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        assert_eq!(dist.total_iterations(), 100);
        // 100 iterations over 4 clients, 10% threshold → all within
        // [22.5, 27.5] definitely better than the unbalanced 97/1/1/1.
        let per = dist.iterations_per_client();
        assert!(
            per.iter().all(|&x| (20..=30).contains(&x)),
            "balancing failed: {per:?}"
        );
    }

    #[test]
    fn more_clusters_than_chunks_yields_empty_clients() {
        let chunks = vec![IterationChunk {
            nest: 0,
            tag: cachemap_util::BitSet::from_tag_str("1"),
            points: vec![vec![0]],
        }];
        let tree = HierarchyTree::from_config(&PlatformConfig::tiny()).unwrap();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        assert_eq!(dist.total_iterations(), 1);
        let nonempty = dist.per_client.iter().filter(|v| !v.is_empty()).count();
        assert_eq!(nonempty, 1);
    }

    #[test]
    fn empty_input_distributes_nothing() {
        let tree = HierarchyTree::from_config(&PlatformConfig::tiny()).unwrap();
        let dist = distribute(&[], &tree, &ClusterParams::default());
        assert_eq!(dist.total_iterations(), 0);
        assert_eq!(dist.per_client.len(), 4);
    }

    #[test]
    fn zero_threshold_still_terminates() {
        let (chunks, tree) = figure_example();
        let params = ClusterParams {
            balance_threshold: 0.0,
            linkage: Linkage::Average,
        };
        let dist = distribute(&chunks, &tree, &params);
        assert_eq!(dist.total_iterations(), 32);
        assert_eq!(dist.iterations_per_client(), vec![8, 8, 8, 8]);
    }

    #[test]
    fn disjoint_families_never_share_a_cache_when_avoidable() {
        // Two disjoint tag families of equal weight; rule 1 of Section 3
        // says they should end up under different caches.
        let mk = |tag: &str, n: usize| IterationChunk {
            nest: 0,
            tag: cachemap_util::BitSet::from_tag_str(tag),
            points: (0..n).map(|i| vec![i as i64]).collect(),
        };
        let chunks = vec![
            mk("11000000", 10),
            mk("01100000", 10),
            mk("00001100", 10),
            mk("00000110", 10),
        ];
        let tree = HierarchyTree::from_config(&PlatformConfig::tiny()).unwrap();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        let sets = client_chunk_sets(&dist);
        // Clients 0,1 share L2; the pair {0,1} and the pair {2,3} of
        // chunks must not straddle the two I/O nodes.
        let io0: FxHashSet<usize> = sets[0].union(&sets[1]).copied().collect();
        assert!(
            io0 == [0, 1].into_iter().collect::<FxHashSet<_>>()
                || io0 == [2, 3].into_iter().collect::<FxHashSet<_>>(),
            "disjoint families must separate: {io0:?}"
        );
    }

    #[test]
    fn deep_hierarchy_paper_default() {
        // 64 clients / 32 I/O / 16 storage with 128 synthetic chunks.
        let mut chunks = Vec::new();
        for f in 0..12 {
            for k in 0..6 {
                let mut tag = cachemap_util::BitSet::new(64);
                tag.set(f * 4);
                tag.set(f * 4 + (k % 4));
                chunks.push(IterationChunk {
                    nest: 0,
                    tag,
                    points: (0..8)
                        .map(|i| vec![(f * 128 + k * 16 + i) as i64])
                        .collect(),
                });
            }
        }
        let cfg = PlatformConfig::paper_default();
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        assert_eq!(dist.total_iterations(), 12 * 6 * 8);
        assert_eq!(dist.per_client.len(), 64);
        // Mean load 9; threshold keeps clients within a sane band.
        let per = dist.iterations_per_client();
        let mean = dist.total_iterations() as f64 / 64.0;
        assert!(
            per.iter().all(|&x| (x as f64) <= mean * 2.0 + 8.0),
            "{per:?}"
        );
    }

    /// All `(chunk, iteration)` pairs a distribution covers.
    fn covered(dist: &Distribution) -> FxHashSet<(usize, usize)> {
        let mut seen = FxHashSet::default();
        for items in &dist.per_client {
            for it in items {
                for k in it.start..it.end {
                    assert!(seen.insert((it.chunk, k)), "duplicate iteration");
                }
            }
        }
        seen
    }

    #[test]
    fn remap_moves_all_failed_work_to_survivors() {
        let (chunks, tree) = figure_example();
        let params = ClusterParams::default();
        let mut off = Profile::disabled();
        let dist = distribute(&chunks, &tree, &params);
        let before = covered(&dist);

        let failed = vec![0, 1]; // whole I/O-node-0 subtree fails
        let remapped = remap_failed(&dist, &chunks, &tree, &failed, &params, &mut off).unwrap();
        assert!(remapped.per_client[0].is_empty());
        assert!(remapped.per_client[1].is_empty());
        // Exact-partition: the same iterations, each exactly once.
        assert_eq!(covered(&remapped), before);
        // Every surviving client carries some of the rebalanced load.
        assert!(!remapped.per_client[2].is_empty());
        assert!(!remapped.per_client[3].is_empty());
    }

    #[test]
    fn remap_balances_over_survivors() {
        let (chunks, tree) = figure_example();
        let params = ClusterParams::default();
        let mut off = Profile::disabled();
        let dist = distribute(&chunks, &tree, &params);
        let remapped = remap_failed(&dist, &chunks, &tree, &[2], &params, &mut off).unwrap();
        let per = remapped.iterations_per_client();
        assert_eq!(per[2], 0);
        // 32 iterations over 3 survivors: each within BThres of the
        // 10.67 mean after splitting (11 ± 1).
        let survivors: Vec<u64> = [0, 1, 3].iter().map(|&c| per[c]).collect();
        assert_eq!(survivors.iter().sum::<u64>(), 32);
        assert!(
            survivors.iter().all(|&x| (10..=12).contains(&x)),
            "survivor loads {survivors:?} must stay near the mean"
        );
    }

    #[test]
    fn remap_with_no_failures_is_identity() {
        let (chunks, tree) = figure_example();
        let params = ClusterParams::default();
        let mut off = Profile::disabled();
        let dist = distribute(&chunks, &tree, &params);
        let same = remap_failed(&dist, &chunks, &tree, &[], &params, &mut off).unwrap();
        assert_eq!(same, dist);
    }

    #[test]
    fn remap_rejects_bad_inputs() {
        let (chunks, tree) = figure_example();
        let params = ClusterParams::default();
        let mut off = Profile::disabled();
        let dist = distribute(&chunks, &tree, &params);
        assert!(matches!(
            remap_failed(&dist, &chunks, &tree, &[9], &params, &mut off),
            Err(RemapError::Prune(_))
        ));
        assert!(matches!(
            remap_failed(&dist, &chunks, &tree, &[0, 1, 2, 3], &params, &mut off),
            Err(RemapError::Prune(_))
        ));
        let short = Distribution {
            per_client: vec![Vec::new(); 2],
        };
        assert!(matches!(
            remap_failed(&short, &chunks, &tree, &[0], &params, &mut off),
            Err(RemapError::ClientCountMismatch { .. })
        ));
        let bogus = Distribution {
            per_client: {
                let mut v = vec![Vec::new(); 4];
                v[0].push(WorkItem::whole(99, 4));
                v
            },
        };
        assert!(matches!(
            remap_failed(&bogus, &chunks, &tree, &[0], &params, &mut off),
            Err(RemapError::ChunkIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn incremental_remap_preserves_survivor_items_and_covers_orphans() {
        let (chunks, tree) = figure_example();
        let params = ClusterParams::default();
        let dist = distribute(&chunks, &tree, &params);
        let before = covered(&dist);

        let remapped = remap_incremental(&dist, &chunks, &tree, &[0], &params).unwrap();
        assert!(remapped.per_client[0].is_empty());
        // Exact partition is preserved.
        assert_eq!(covered(&remapped), before);
        // Unlike the full re-cluster, every survivor keeps its original
        // items as a prefix — mid-run state stays valid.
        for c in [1, 2, 3] {
            assert!(
                remapped.per_client[c].starts_with(&dist.per_client[c]),
                "client {c} must keep its own remaining items in place"
            );
        }
    }

    #[test]
    fn incremental_remap_follows_tag_affinity() {
        // Figure 9/17 clustering puts one tag family per I/O-node pair.
        // When one member of a pair fails, its items share chunks with
        // its partner's — the aggregate-tag greedy must send every
        // orphan iteration to a client of the same family when the cap
        // allows, never to the unrelated family.
        let (chunks, tree) = figure_example();
        let params = ClusterParams {
            // Loose cap: affinity alone decides.
            balance_threshold: 1.0,
            ..ClusterParams::default()
        };
        let dist = distribute(&chunks, &tree, &params);
        // Find the partner of client 0: the other client whose chunks
        // overlap the same family (clients 0,1 share I/O node 0 and the
        // clustering keeps a family within the pair).
        let fam0: Vec<usize> = dist.per_client[0].iter().map(|it| it.chunk).collect();
        let remapped = remap_incremental(&dist, &chunks, &tree, &[0], &params).unwrap();
        // All of client 0's items must land on client 1 (same family,
        // highest dot product), not on the other I/O node's family.
        let added_to_1 = remapped.per_client[1].len() - dist.per_client[1].len();
        assert_eq!(
            added_to_1,
            dist.per_client[0].len(),
            "family partner must absorb the orphans (orphan chunks {fam0:?})"
        );
    }

    #[test]
    fn incremental_remap_respects_balance_cap_when_spreading() {
        let (chunks, tree) = figure_example();
        let params = ClusterParams::default(); // 10% threshold
        let dist = distribute(&chunks, &tree, &params);
        let remapped = remap_incremental(&dist, &chunks, &tree, &[2], &params).unwrap();
        let per = remapped.iterations_per_client();
        assert_eq!(per[2], 0);
        assert_eq!(per.iter().sum::<u64>(), 32);
        // 32 iterations over 3 survivors, mean 10.67, cap = ceil(11.7) =
        // 12: whole 4-iteration chunks can honor it (8+4 = 12).
        let survivors: Vec<u64> = [0, 1, 3].iter().map(|&c| per[c]).collect();
        assert!(
            survivors.iter().all(|&x| x <= 12),
            "loads {survivors:?} must stay under the BThres cap"
        );
    }

    #[test]
    fn incremental_remap_identity_and_errors_match_full_remap() {
        let (chunks, tree) = figure_example();
        let params = ClusterParams::default();
        let dist = distribute(&chunks, &tree, &params);
        assert_eq!(
            remap_incremental(&dist, &chunks, &tree, &[], &params).unwrap(),
            dist
        );
        assert!(matches!(
            remap_incremental(&dist, &chunks, &tree, &[9], &params),
            Err(RemapError::Prune(_))
        ));
        assert!(matches!(
            remap_incremental(&dist, &chunks, &tree, &[0, 1, 2, 3], &params),
            Err(RemapError::Prune(_))
        ));
        let short = Distribution {
            per_client: vec![Vec::new(); 2],
        };
        assert!(matches!(
            remap_incremental(&short, &chunks, &tree, &[0], &params),
            Err(RemapError::ClientCountMismatch { .. })
        ));
        let bogus = Distribution {
            per_client: {
                let mut v = vec![Vec::new(); 4];
                v[0].push(WorkItem::whole(99, 4));
                v
            },
        };
        assert!(matches!(
            remap_incremental(&bogus, &chunks, &tree, &[0], &params),
            Err(RemapError::ChunkIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn incremental_remap_handles_partial_items() {
        // Orphans that are split mid-chunk (the supervisor hands over
        // half-executed chunks) still cover exactly the remaining range.
        let (chunks, tree) = figure_example();
        let params = ClusterParams::default();
        let mut dist = distribute(&chunks, &tree, &params);
        // Simulate partial progress: client 0 already executed the first
        // half of its first item.
        let first = &mut dist.per_client[0][0];
        first.start = first.end / 2;
        let before = covered(&dist);
        let remapped = remap_incremental(&dist, &chunks, &tree, &[0], &params).unwrap();
        assert_eq!(covered(&remapped), before);
    }
}

#[cfg(test)]
mod balance_probe {
    use super::*;
    use cachemap_storage::PlatformConfig;

    /// Mirrors the astro workload's tag structure at paper scale:
    /// (t, b) chunks with a streaming bit, a template bit, and a
    /// per-timestep stats bit.
    #[test]
    fn astro_shaped_input_balances_within_threshold() {
        let t_steps = 6usize;
        let v = 128usize;
        let r = t_steps * v + t_steps + v;
        let mut chunks = Vec::new();
        for t in 0..t_steps {
            for b in 0..v {
                let mut tag = cachemap_util::BitSet::new(r);
                tag.set(t * v + b); // stream chunk
                tag.set(t_steps * v + b); // template chunk
                tag.set(t_steps * v + v + t); // stats chunk
                chunks.push(IterationChunk {
                    nest: 0,
                    tag,
                    points: vec![vec![t as i64, b as i64, 0], vec![t as i64, b as i64, 1]],
                });
            }
        }
        let tree = HierarchyTree::from_config(&PlatformConfig::paper_default()).unwrap();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        let per = dist.iterations_per_client();
        let mean = per.iter().sum::<u64>() as f64 / per.len() as f64;
        let max = *per.iter().max().unwrap() as f64;
        let min = *per.iter().min().unwrap() as f64;
        assert!(
            max / mean < 1.45 && min / mean > 0.55,
            "imbalance: min {min} mean {mean:.1} max {max} per={per:?}"
        );
    }
}

/// Stage 1 against a brute-force greedy reference.
#[cfg(test)]
mod greedy_oracle {
    use super::*;
    use cachemap_util::check::{cases, Gen};

    /// A survivor: its items in order, iteration count and tag.
    type Survivor = (Vec<WorkItem>, u64, CountVec);

    /// `pairs`, `nonzero`, `merges`, `merge_dot_sum`, `zero_merges`.
    type Counters = [u64; 5];

    /// The greedy reference: every round rescans every alive pair with
    /// `CountVec::dot` and merges the best one under `PairKey`'s order,
    /// the higher index into the lower. Once every dot is zero it merges
    /// the two smallest clusters instead (lowest indices on ties).
    fn reference(
        chunks: &[IterationChunk],
        items: &[WorkItem],
        target: usize,
        linkage: Linkage,
    ) -> (Vec<Survivor>, Counters) {
        let n = items.len();
        let mut clusters: Vec<Cluster> = items
            .iter()
            .map(|&i| Cluster::of(vec![i], chunks))
            .collect();
        let mut members = vec![1u64; n];
        let mut alive = vec![true; n];
        let mut counters = [(n * (n - 1) / 2) as u64, 0, 0, 0, 0];
        for i in 0..n {
            for j in (i + 1)..n {
                counters[1] += u64::from(clusters[i].tag.dot(&clusters[j].tag) > 0);
            }
        }
        for _ in target..n {
            let live: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
            let mut best: Option<(PairKey, u64)> = None;
            for (a, &i) in live.iter().enumerate() {
                for &j in &live[a + 1..] {
                    let d = clusters[i].tag.dot(&clusters[j].tag);
                    if d == 0 {
                        continue;
                    }
                    let m = u128::from(members[i] * members[j]);
                    let (num, den) = match linkage {
                        Linkage::Total => (u128::from(d), 1),
                        Linkage::Average => (u128::from(d), m),
                        Linkage::Sqrt => (u128::from(d) * u128::from(d), m),
                    };
                    let key = PairKey {
                        num,
                        den,
                        combined: clusters[i].size + clusters[j].size,
                        i,
                        j,
                    };
                    if best.is_none_or(|(b, _)| key > b) {
                        best = Some((key, d));
                    }
                }
            }
            let (p, q) = match best {
                Some((key, d)) => {
                    counters[2] += 1;
                    counters[3] += d;
                    (key.i, key.j)
                }
                None => {
                    let mut by_size = live;
                    by_size.sort_by_key(|&i| (clusters[i].size, i));
                    counters[4] += 1;
                    (by_size[0].min(by_size[1]), by_size[0].max(by_size[1]))
                }
            };
            let absorbed = std::mem::replace(&mut clusters[q], Cluster::empty(0));
            clusters[p].tag.add(&absorbed.tag);
            clusters[p].size += absorbed.size;
            clusters[p].items.extend(absorbed.items);
            members[p] += members[q];
            alive[q] = false;
        }
        let survivors = (0..n)
            .filter(|&i| alive[i])
            .map(|i| {
                let c = &clusters[i];
                (c.items.clone(), c.size, c.tag.clone())
            })
            .collect();
        (survivors, counters)
    }

    /// `merge_stage`'s survivors, with the counters it records, and its
    /// `repairs` count (which the reference has no counterpart for).
    fn kernel(
        chunks: &[IterationChunk],
        items: &[WorkItem],
        target: usize,
        linkage: Linkage,
    ) -> (Vec<Survivor>, Counters, u64) {
        let mut prof = Profile::enabled();
        prof.push("stage1");
        let clusters = merge_stage(chunks, items.to_vec(), target, linkage, &mut prof);
        prof.pop();
        let stage = prof.root_named("stage1").expect("stage span");
        let graph = stage
            .children
            .iter()
            .map(|&k| prof.node(k))
            .find(|s| s.name == "similarity-graph")
            .expect("similarity-graph span");
        let survivors = clusters
            .into_iter()
            .map(|c| (c.items, c.size, c.tag))
            .collect();
        let counters = [
            graph.count("pairs").unwrap_or(0),
            graph.count("nonzero").unwrap_or(0),
            stage.count("merges").unwrap_or(0),
            stage.count("merge_dot_sum").unwrap_or(0),
            stage.count("zero_merges").unwrap_or(0),
        ];
        (survivors, counters, stage.count("repairs").unwrap_or(0))
    }

    /// Tag shapes the generator draws from.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Shape {
        /// A few random bits per tag.
        Random,
        /// Random bits plus data chunk 0 in every tag (Figure 6's
        /// chunk 0).
        HotChunk,
        /// Every iteration chunk owns its data chunks: all dots zero.
        Disjoint,
        /// Equal-length items in groups that each share one group chunk,
        /// plus a first item that holds every group chunk: the index
        /// tie-break makes it the best partner of all the others, so
        /// each merge into it leaves their bounds to repair.
        Hub,
    }

    /// Iteration chunks of one shape, and their work items; a chunk is
    /// sometimes split into two items that carry the same tag.
    fn arb_input(g: &mut Gen, shape: Shape) -> (Vec<IterationChunk>, Vec<WorkItem>, bool) {
        let m = if g.usize_in(0, 8) == 0 {
            g.usize_in(24, 48)
        } else {
            g.usize_in(2, 16)
        };
        let groups = match shape {
            Shape::Hub => g.usize_in(2, 5),
            _ => 1,
        };
        let r = match shape {
            Shape::Disjoint => 2 * m,
            Shape::Hub => groups + m,
            _ => g.usize_in(1, 24),
        };
        let mut chunks = Vec::new();
        let mut items = Vec::new();
        let mut split = false;
        for k in 0..m {
            let bits = match shape {
                Shape::Random => g.vec_usize(0..5, 0..r),
                Shape::HotChunk => {
                    let mut b = g.vec_usize(0..4, 0..r);
                    b.push(0);
                    b
                }
                Shape::Disjoint => vec![2 * k, 2 * k + g.usize_in(0, 2)],
                Shape::Hub if k == 0 => (0..groups).collect(),
                Shape::Hub => vec![k % groups, groups + k],
            };
            // Few distinct lengths, so size ties reach the index tie-break.
            let len = match shape {
                Shape::Hub => 1,
                _ => g.usize_in(1, 4),
            };
            chunks.push(IterationChunk {
                nest: 0,
                tag: BitSet::from_bits(r, bits),
                points: (0..len).map(|i| vec![(k * 8 + i) as i64]).collect(),
            });
            if len >= 2 && g.usize_in(0, 3) == 0 {
                let cut = g.usize_in(1, len);
                items.push(WorkItem {
                    chunk: k,
                    start: 0,
                    end: cut,
                });
                items.push(WorkItem {
                    chunk: k,
                    start: cut,
                    end: len,
                });
                split = true;
            } else {
                items.push(WorkItem::whole(k, len));
            }
        }
        (chunks, items, split)
    }

    #[test]
    fn merge_stage_matches_the_greedy_reference() {
        let linkages = [Linkage::Total, Linkage::Average, Linkage::Sqrt];
        let shapes = [Shape::Random, Shape::HotChunk, Shape::Disjoint, Shape::Hub];
        // Cases per linkage, shape, split input, target 1 / 2 / n−1, and
        // hub inputs that repaired a stale bound.
        let mut seen = [0usize; 12];
        cases(0x5E1_0001, 240, |g| {
            let linkage = g.choose(&linkages);
            let shape = g.choose(&shapes);
            let (chunks, items, split) = arb_input(g, shape);
            let n = items.len();
            let target = match g.usize_in(0, 4) {
                0 => 1,
                1 => 2.min(n - 1),
                2 => n - 1,
                _ => g.usize_in(1, n),
            };
            seen[linkages.iter().position(|&l| l == linkage).unwrap()] += 1;
            seen[3 + shapes.iter().position(|&s| s == shape).unwrap()] += 1;
            seen[7] += usize::from(split);
            seen[8] += usize::from(target == 1);
            seen[9] += usize::from(target == 2 && n > 3);
            seen[10] += usize::from(target == n - 1 && n > 3);
            let (survivors, counters, repairs) = kernel(&chunks, &items, target, linkage);
            seen[11] += usize::from(shape == Shape::Hub && repairs > 0);
            assert_eq!(
                (survivors, counters),
                reference(&chunks, &items, target, linkage),
                "n={n} target={target} {linkage:?} {shape:?}"
            );
        });
        assert!(seen.iter().all(|&k| k >= 10), "coverage: {seen:?}");
    }
}
