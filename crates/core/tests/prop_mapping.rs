//! Property tests for the mapping algorithms: tagging partitions, the
//! clustering invariants of Figure 5, and the scheduling invariants of
//! Figure 15. Driven by the in-repo deterministic harness
//! (`cachemap_util::check`).

use cachemap_core::cluster::{distribute, ClusterParams, Linkage};
use cachemap_core::schedule::{schedule, ScheduleParams};
use cachemap_core::tags::{tag_nest, IterationChunk};
use cachemap_polyhedral::{
    AffineExpr, ArrayDecl, ArrayRef, DataSpace, IterationSpace, LoopNest, Program,
};
use cachemap_storage::{HierarchyTree, PlatformConfig};
use cachemap_util::check::{cases, Gen};
use cachemap_util::BitSet;

/// Random small single-nest program with chunk-crossing strides.
fn arb_program(g: &mut Gen) -> (Program, DataSpace) {
    let n = g.i64_in(2, 14);
    let stride = g.i64_in(1, 5);
    let off = g.i64_in(0, 3);
    let chunk_elems = g.u64_in(1, 4);
    let elems = n * stride + off + stride + 2;
    let arrays = vec![ArrayDecl::new("A", vec![elems], 8)];
    let refs = vec![
        ArrayRef::read(0, vec![AffineExpr::new(vec![stride], off)]),
        ArrayRef::write(0, vec![AffineExpr::new(vec![stride], off + stride)]),
    ];
    let space = IterationSpace::rectangular(&[n]);
    let nest = LoopNest::new("p", space, refs);
    let program = Program::new("p", arrays, vec![nest]);
    let data = DataSpace::new(&program.arrays, chunk_elems * 8);
    (program, data)
}

fn arb_chunks(g: &mut Gen) -> Vec<IterationChunk> {
    let nspecs = g.usize_in(1, 24);
    (0..nspecs)
        .map(|k| {
            let bits = g.vec_usize(1..5, 0..24);
            let iters = g.usize_in(1, 6);
            IterationChunk {
                nest: 0,
                tag: BitSet::from_bits(24, bits),
                points: (0..iters).map(|i| vec![(k * 8 + i) as i64]).collect(),
            }
        })
        .collect()
}

fn tiny_tree() -> HierarchyTree {
    HierarchyTree::from_config(&PlatformConfig::tiny()).unwrap()
}

#[test]
fn tags_partition_the_iteration_space() {
    cases(0x3A9_0001, 96, |g| {
        let (program, data) = arb_program(g);
        let tagged = tag_nest(&program, 0, &data);
        assert_eq!(tagged.total_iterations(), program.total_iterations());
        // Each chunk's members really produce that tag.
        for chunk in &tagged.chunks {
            for p in &chunk.points {
                let tag = cachemap_core::tags::tag_of_iteration(
                    &program.nests[0],
                    &program.arrays,
                    &data,
                    p,
                );
                assert_eq!(&tag, &chunk.tag);
            }
        }
        // Distinct chunks have distinct tags.
        for (i, a) in tagged.chunks.iter().enumerate() {
            for b in &tagged.chunks[i + 1..] {
                assert!(a.tag != b.tag);
            }
        }
    });
}

#[test]
fn distribution_is_exact_partition_for_any_linkage() {
    cases(0x3A9_0002, 96, |g| {
        let chunks = arb_chunks(g);
        let linkage = g.choose(&[Linkage::Total, Linkage::Average, Linkage::Sqrt]);
        let bthres = g.f64() * 0.5;
        let tree = tiny_tree();
        let params = ClusterParams {
            balance_threshold: bthres,
            linkage,
        };
        let dist = distribute(&chunks, &tree, &params);
        let total: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        assert_eq!(dist.total_iterations(), total);
        // No duplicated iteration.
        let mut seen = std::collections::HashSet::new();
        for items in &dist.per_client {
            for it in items {
                for k in it.start..it.end {
                    assert!(seen.insert((it.chunk, k)));
                }
            }
        }
    });
}

#[test]
fn schedule_is_a_permutation_of_the_distribution() {
    cases(0x3A9_0003, 96, |g| {
        let chunks = arb_chunks(g);
        let tree = tiny_tree();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        let sched = schedule(&dist, &chunks, &tree, &ScheduleParams::default());
        assert_eq!(sched.total_iterations(), dist.total_iterations());
        for c in 0..4 {
            let mut a = dist.per_client[c].clone();
            let mut b = sched.per_client[c].clone();
            a.sort_by_key(|i| (i.chunk, i.start));
            b.sort_by_key(|i| (i.chunk, i.start));
            assert_eq!(a, b, "client {} items changed", c);
        }
    });
}

#[test]
fn deeper_trees_distribute_over_all_clients() {
    cases(0x3A9_0004, 64, |g| {
        // A bigger tree must still partition exactly, with empty clients
        // allowed only when there are fewer items than clients.
        let chunks = arb_chunks(g);
        let cfg = PlatformConfig::paper_default().with_topology(16, 8, 4);
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        let dist = distribute(&chunks, &tree, &ClusterParams::default());
        let total: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        assert_eq!(dist.total_iterations(), total);
        assert_eq!(dist.per_client.len(), 16);
    });
}

#[test]
fn balance_threshold_zero_is_as_tight_as_granularity_allows() {
    cases(0x3A9_0005, 64, |g| {
        // Uniform chunks: with bthres 0 every client must land within
        // one chunk of the mean.
        let iters_per_chunk = g.usize_in(1, 5);
        let nchunks = g.usize_in(8, 40);
        let chunks: Vec<IterationChunk> = (0..nchunks)
            .map(|k| IterationChunk {
                nest: 0,
                tag: BitSet::from_bits(64, [k % 64, (k * 7) % 64]),
                points: (0..iters_per_chunk)
                    .map(|i| vec![(k * 8 + i) as i64])
                    .collect(),
            })
            .collect();
        let tree = tiny_tree();
        let params = ClusterParams {
            balance_threshold: 0.0,
            linkage: Linkage::Average,
        };
        let dist = distribute(&chunks, &tree, &params);
        let per = dist.iterations_per_client();
        let mean = per.iter().sum::<u64>() as f64 / per.len() as f64;
        for &p in &per {
            assert!(
                (p as f64 - mean).abs() <= iters_per_chunk as f64 + 1.0,
                "load {} vs mean {} (chunk size {})",
                p,
                mean,
                iters_per_chunk
            );
        }
    });
}
