//! Adversarial workload families for the eviction-policy zoo.
//!
//! The Table 2 suite ([`crate::apps`]) is the paper's evaluation; these
//! scenarios are deliberately engineered *against* specific replacement
//! policies, so the policy advisor has something to disagree about:
//!
//! * [`scan_storm`] — a reused hot set repeatedly flushed by large
//!   sequential scans. LRU loses the hot set on every storm; SLRU's
//!   protected segment keeps it (scan resistance).
//! * [`graph_bfs`] — level-synchronous breadth-first traversal: edge
//!   lists stream once per level while a wrapped frontier array is
//!   re-referenced across levels (quasi-affine subscripts).
//! * [`graph_dfs`] — depth-first walk: a sliding stack window with
//!   strong short-term reuse over a pseudo-randomly visited graph.
//!
//! All three are regular enough for the mapper (affine or quasi-affine
//! subscripts) but adversarial for at least one cache policy. They are
//! not part of the eight-app tables; the advisor, examples, and tests
//! use them.

use crate::{Application, Scale, CHUNK_ELEMS};
use cachemap_polyhedral::{
    AffineExpr, ArrayDecl, ArrayRef, IterationSpace, Loop, LoopNest, Program,
};

const E: i64 = CHUNK_ELEMS;

fn sub(coeffs: Vec<i64>, c: i64) -> Vec<AffineExpr> {
    vec![AffineExpr::new(coeffs, c)]
}

fn wrapped(coeffs: Vec<i64>, c: i64, m: i64) -> Vec<AffineExpr> {
    vec![AffineExpr::new(coeffs, c).with_mod(m)]
}

/// Number of scan storms in [`scan_storm`] (warm pass + this many
/// scan/re-reference cycles).
pub const SCAN_STORM_CYCLES: usize = 3;

/// `scan_storm` — a hot working set interleaved with sequential scan
/// storms.
///
/// Structure: one warm-up nest touches every hot block `reps` times
/// (building the re-reference history scan-resistant policies key on),
/// then [`SCAN_STORM_CYCLES`] rounds of (full sequential scan over a
/// dataset much larger than any cache, hot-set re-reference pass).
/// Under LRU every storm flushes the hot set, so each re-reference pass
/// pays cold misses again; SLRU keeps the promoted hot lines in its
/// protected segment while the single-use scan lines churn through
/// probation.
pub fn scan_storm(scale: Scale) -> Application {
    let hot = scale.dim(192); // hot blocks, one chunk each
    let scan = scale.dim(4096); // scan blocks — far above cumulative cache
    let reps = scale.reps(4); // re-references per hot pass (>= 2)
    let hot_arr = ArrayDecl::new("HOT", vec![hot * E], 8);
    let scan_arr = ArrayDecl::new("SCAN", vec![scan * E], 8);

    let hot_pass = |name: &str| {
        let space = IterationSpace::new(vec![
            Loop::constant(0, reps - 1),
            Loop::constant(0, hot - 1),
        ]);
        // HOT[b], re-visited `reps` times.
        let refs = vec![ArrayRef::read(0, sub(vec![0, E], 0))];
        LoopNest::new(name, space, refs).with_compute_us(50.0)
    };
    let storm = |name: &str| {
        let space = IterationSpace::new(vec![Loop::constant(0, scan - 1)]);
        // SCAN[i], each block exactly once.
        let refs = vec![ArrayRef::read(1, sub(vec![E], 0))];
        LoopNest::new(name, space, refs).with_compute_us(20.0)
    };

    let mut nests = vec![hot_pass("warm")];
    for k in 0..SCAN_STORM_CYCLES {
        nests.push(storm(["storm0", "storm1", "storm2"][k]));
        nests.push(hot_pass(["rehot0", "rehot1", "rehot2"][k]));
    }
    Application {
        name: "scan_storm",
        description: "Hot working set flushed by repeated sequential scan storms (anti-LRU)",
        program: Program::new("scan_storm", vec![hot_arr, scan_arr], nests),
        paper_miss_rates: (0.0, 0.0, 0.0), // not a Table 2 application
    }
}

/// `graph_bfs` — level-synchronous BFS over a chunked CSR graph.
///
/// Each level streams its slice of the edge array once (no reuse) while
/// frontier reads and next-frontier writes revisit a much smaller
/// wrapped frontier array — the frontier is the reusable working set,
/// the edge stream is the scan pressure, and the wrap makes the
/// frontier subscripts quasi-affine (irregular neighbour order).
pub fn graph_bfs(scale: Scale) -> Application {
    let levels = scale.reps(6);
    let verts = scale.dim(512); // vertex blocks visited per level
    let front = scale.dim(128); // frontier blocks (fits shared caches)
    let adj = ArrayDecl::new("ADJ", vec![levels * verts * E], 8);
    let front_arr = ArrayDecl::new("FRONT", vec![front * E], 8);

    let space = IterationSpace::new(vec![
        Loop::constant(0, levels - 1),
        Loop::constant(0, verts - 1),
    ]);
    let refs = vec![
        // ADJ[l][v] — edge list, streamed exactly once.
        ArrayRef::read(0, sub(vec![verts * E, E], 0)),
        // FRONT[(l + 3v) mod F] — current-frontier reads in shuffled
        // neighbour order, re-referenced across levels.
        ArrayRef::read(1, wrapped(vec![E, 3 * E], 0, front * E)),
        // FRONT[(5l + v) mod F] — next-frontier marks.
        ArrayRef::write(1, wrapped(vec![5 * E, E], 0, front * E)),
    ];
    let nest = LoopNest::new("bfs_levels", space, refs).with_compute_us(60.0);
    Application {
        name: "graph_bfs",
        description: "Level-synchronous BFS: streamed edges + re-referenced wrapped frontier",
        program: Program::new("graph_bfs", vec![adj, front_arr], vec![nest]),
        paper_miss_rates: (0.0, 0.0, 0.0), // not a Table 2 application
    }
}

/// `graph_dfs` — depth-first walk with a sliding stack window.
///
/// The visit order over the graph is a strided pseudo-random walk (no
/// spatial locality), but every step reads and writes a small window of
/// recent stack frames — strong short-term temporal reuse that recency
/// policies capture and frequency policies undervalue.
pub fn graph_dfs(scale: Scale) -> Application {
    let steps = scale.dim(768);
    let depth = scale.reps(8); // stack frames touched per step
    let graph = scale.dim(1536); // graph blocks
    let stack = scale.dim(96); // stack blocks
    let graph_arr = ArrayDecl::new("GRAPH", vec![graph * E], 8);
    let stack_arr = ArrayDecl::new("STACK", vec![stack * E], 8);

    let space = IterationSpace::new(vec![
        Loop::constant(0, steps - 1),
        Loop::constant(0, depth - 1),
    ]);
    let refs = vec![
        // GRAPH[(7t + 11d) mod G] — pseudo-random vertex visits.
        ArrayRef::read(0, wrapped(vec![7 * E, 11 * E], 0, graph * E)),
        // STACK[(t + d) mod S] — sliding window of recent frames.
        ArrayRef::read(1, wrapped(vec![E, E], 0, stack * E)),
        // STACK[(t + d) mod S] — frame updates (dirty write-back).
        ArrayRef::write(1, wrapped(vec![E, E], 0, stack * E)),
    ];
    let nest = LoopNest::new("dfs_walk", space, refs).with_compute_us(40.0);
    Application {
        name: "graph_dfs",
        description: "DFS walk: pseudo-random graph visits + sliding stack-window reuse",
        program: Program::new("graph_dfs", vec![graph_arr, stack_arr], vec![nest]),
        paper_miss_rates: (0.0, 0.0, 0.0), // not a Table 2 application
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemap_polyhedral::{AccessKind, DataSpace};

    #[test]
    fn all_scenarios_stay_in_bounds_at_both_scales() {
        for scale in [Scale::Test, Scale::Paper] {
            for app in crate::scenarios(scale) {
                for nest in &app.program.nests {
                    nest.validate_bounds(&app.program.arrays)
                        .unwrap_or_else(|e| panic!("{} ({scale:?}): {e}", app.name));
                }
            }
        }
    }

    #[test]
    fn scan_storm_alternates_storms_and_hot_passes() {
        let app = scan_storm(Scale::Test);
        let names: Vec<&str> = app.program.nests.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            names,
            ["warm", "storm0", "rehot0", "storm1", "rehot1", "storm2", "rehot2"]
        );
        // The scan dwarfs every cache level; the hot set does not.
        let data = DataSpace::new(&app.program.arrays, 64 * 1024);
        assert!(data.num_chunks() > 1000);
    }

    #[test]
    fn graph_frontier_and_stack_wrap_within_their_arrays() {
        let bfs = graph_bfs(Scale::Test);
        let front = Scale::Test.dim(128) * E;
        let nest = &bfs.program.nests[0];
        let levels = Scale::Test.reps(6);
        let verts = Scale::Test.dim(512);
        let idx = nest.refs[1].eval(&[levels - 1, verts - 1])[0];
        assert!(idx < front, "frontier read escaped its array");

        let dfs = graph_dfs(Scale::Test);
        let stack = Scale::Test.dim(96) * E;
        let nest = &dfs.program.nests[0];
        // The sliding window revisits the same frame a step later.
        let now = nest.refs[1].eval(&[10, 3])[0];
        let later = nest.refs[1].eval(&[11, 2])[0];
        assert_eq!(now, later, "stack window must overlap across steps");
        assert!(now < stack);
    }

    #[test]
    fn graph_dfs_writes_back_stack_frames() {
        let app = graph_dfs(Scale::Test);
        let writes = app.program.nests[0]
            .refs
            .iter()
            .filter(|r| r.kind == AccessKind::Write)
            .count();
        assert_eq!(writes, 1);
    }
}
