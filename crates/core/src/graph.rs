//! The iteration-chunk similarity graph (Section 4.3, *Initialization*).
//!
//! Nodes are iteration chunks; the weight of edge `(γΛi, γΛj)` is
//! `ω = popcount(Λi ∧ Λj)` — the number of data chunks the two iteration
//! chunks share. A zero weight (zero common bits) means the two chunks
//! share no data and should *not* be mapped to clients with affinity at
//! any storage cache; a large weight means mapping them to
//! cache-sharing clients converts reuse into locality.
//!
//! Most pairs share nothing (about 6% of them on the paper-scale suite),
//! so the graph is stored sparsely and built from an inverted index —
//! data chunk → the tags that touch it — which visits only pairs that
//! share a chunk. Stage 1 of the clustering (`cluster`) starts from the
//! same structure.

use crate::tags::IterationChunk;
use cachemap_util::BitSet;

/// Sparse symmetric similarity graph over iteration chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimilarityGraph {
    /// `rows[i]`: `(j, ω)` for every `j ≠ i` with `ω > 0`, ascending `j`.
    rows: Vec<Vec<(usize, u32)>>,
    /// Tag popcounts: the diagonal.
    popcounts: Vec<u32>,
}

impl SimilarityGraph {
    /// Builds the graph from the chunks' tags.
    pub fn build(chunks: &[IterationChunk]) -> Self {
        let tags: Vec<&BitSet> = chunks.iter().map(|c| &c.tag).collect();
        Self::from_tags(&tags)
    }

    /// Builds the graph whose node `i` is `tags[i]`. Costs the sum over
    /// data chunks of (tags touching it)², not `n²` tag intersections.
    pub fn from_tags(tags: &[&BitSet]) -> Self {
        let n = tags.len();
        let mut touching: Vec<Vec<usize>> = Vec::new();
        for (i, tag) in tags.iter().enumerate() {
            for b in tag.iter_ones() {
                if b >= touching.len() {
                    touching.resize_with(b + 1, Vec::new);
                }
                touching[b].push(i);
            }
        }
        // Row i counts, per other tag, the data chunks it shares with i.
        let mut shared = vec![0u32; n];
        let mut seen: Vec<usize> = Vec::new();
        let mut rows = Vec::with_capacity(n);
        for (i, tag) in tags.iter().enumerate() {
            for b in tag.iter_ones() {
                for &j in &touching[b] {
                    if shared[j] == 0 {
                        seen.push(j);
                    }
                    shared[j] += 1;
                }
            }
            seen.sort_unstable();
            let row = seen
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| (j, shared[j]))
                .collect();
            rows.push(row);
            for &j in &seen {
                shared[j] = 0;
            }
            seen.clear();
        }
        SimilarityGraph {
            rows,
            popcounts: tags.iter().map(|t| t.count_ones()).collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Edge weight `ω(γΛi, γΛj)`; the diagonal is the tag popcount.
    pub fn weight(&self, i: usize, j: usize) -> u32 {
        if i == j {
            return self.popcounts[i];
        }
        let row = &self.rows[i];
        row.binary_search_by_key(&j, |&(k, _)| k)
            .map_or(0, |k| row[k].1)
    }

    /// The nonzero-weight neighbours of `i`, as `(j, ω)` in ascending `j`.
    pub fn neighbors(&self, i: usize) -> &[(usize, u32)] {
        &self.rows[i]
    }

    /// Edges with non-zero weight, as `(i, j, w)` with `i < j`.
    pub fn edges(&self) -> Vec<(usize, usize, u32)> {
        let mut out = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            out.extend(row.iter().filter(|&&(j, _)| j > i).map(|&(j, w)| (i, j, w)));
        }
        out
    }

    /// Edges with weight at least `min_w` (Figure 8 omits weight-1 edges
    /// for legibility; this supports the same filtering).
    pub fn edges_at_least(&self, min_w: u32) -> Vec<(usize, usize, u32)> {
        self.edges()
            .into_iter()
            .filter(|&(_, _, w)| w >= min_w)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::IterationChunk;
    use cachemap_util::BitSet;

    fn chunk(tag: &str) -> IterationChunk {
        IterationChunk {
            nest: 0,
            tag: BitSet::from_tag_str(tag),
            points: vec![vec![0]],
        }
    }

    #[test]
    fn weights_are_common_ones() {
        let chunks = vec![chunk("1100"), chunk("0110"), chunk("0001")];
        let g = SimilarityGraph::build(&chunks);
        assert_eq!(g.weight(0, 1), 1);
        assert_eq!(g.weight(0, 2), 0);
        assert_eq!(g.weight(1, 2), 0);
        assert_eq!(g.weight(1, 0), g.weight(0, 1), "symmetric");
        assert_eq!(g.weight(0, 0), 2, "diagonal is tag popcount");
    }

    #[test]
    fn figure8_graph_weights() {
        // Rebuild the Figure 8 example graph and check the highlighted
        // weights: ω(γ1,γ3)=3, ω(γ3,γ5)=3, ω(γ5,γ7)=3, ω(γ1,γ5)=2,
        // ω(γ3,γ7)=2 (same pattern on the even side).
        let (program, data) = crate::tags::tests::figure6_program(4);
        let tagged = crate::tags::tag_nest(&program, 0, &data);
        let g = SimilarityGraph::build(&tagged.chunks);
        // Odd family (indices 0,2,4,6 = γ1,γ3,γ5,γ7).
        assert_eq!(g.weight(0, 2), 3);
        assert_eq!(g.weight(2, 4), 3);
        assert_eq!(g.weight(4, 6), 3);
        assert_eq!(g.weight(0, 4), 2);
        assert_eq!(g.weight(2, 6), 2);
        // Even family (indices 1,3,5,7 = γ2,γ4,γ6,γ8).
        assert_eq!(g.weight(1, 3), 3);
        assert_eq!(g.weight(3, 5), 3);
        assert_eq!(g.weight(5, 7), 3);
        assert_eq!(g.weight(1, 5), 2);
        assert_eq!(g.weight(3, 7), 2);
        // Cross-family pairs share only chunk 0 (weight 1) — these are
        // the edges Figure 8 leaves out for legibility.
        assert_eq!(g.weight(0, 1), 1);
        let strong = g.edges_at_least(2);
        assert_eq!(strong.len(), 10);
    }

    #[test]
    fn sparse_weights_match_tag_intersections() {
        let tags = ["101000", "000000", "100110", "010001", "101000", "000011"];
        let chunks: Vec<IterationChunk> = tags.iter().map(|t| chunk(t)).collect();
        let g = SimilarityGraph::build(&chunks);
        for (i, a) in chunks.iter().enumerate() {
            for (j, b) in chunks.iter().enumerate() {
                assert_eq!(g.weight(i, j), a.tag.and_count(&b.tag), "ω({i},{j})");
            }
        }
        let dense: Vec<(usize, usize, u32)> = (0..tags.len())
            .flat_map(|i| ((i + 1)..tags.len()).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, chunks[i].tag.and_count(&chunks[j].tag)))
            .filter(|&(_, _, w)| w > 0)
            .collect();
        assert_eq!(g.edges(), dense);
    }

    #[test]
    fn empty_graph() {
        let g = SimilarityGraph::build(&[]);
        assert!(g.is_empty());
        assert!(g.edges().is_empty());
    }
}
