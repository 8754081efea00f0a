//! Cross-crate property-based tests: random small loop nests and
//! platforms, checking the mapper's end-to-end invariants. Driven by the
//! in-repo deterministic harness (`cachemap_util::check`).

use cachemap::prelude::*;
use cachemap::util::check::{cases, Gen};

/// A random 1- or 2-deep affine nest over one or two arrays, kept small
/// enough that hundreds of cases run in seconds.
fn arb_program(g: &mut Gen) -> Program {
    let n0 = g.i64_in(2, 12);
    let n1 = g.i64_in(1, 10);
    let nreads = g.usize_in(1, 4);
    let off = g.i64_in(0, 5);
    let two_arrays = g.bool();
    let elems = (n0 + n1 + off + 8) * (n0 + n1 + off + 8);
    let mut arrays = vec![ArrayDecl::new("A", vec![elems], 8)];
    if two_arrays {
        arrays.push(ArrayDecl::new("B", vec![elems], 8));
    }
    let pitch = n1 + off + 4;
    let space = IterationSpace::rectangular(&[n0, n1]);
    let mut refs = Vec::new();
    for r in 0..nreads {
        let target = if two_arrays && r % 2 == 1 { 1 } else { 0 };
        refs.push(ArrayRef::read(
            target,
            vec![AffineExpr::new(vec![pitch, 1], off + r as i64)],
        ));
    }
    refs.push(ArrayRef::write(0, vec![AffineExpr::new(vec![pitch, 1], 0)]));
    let nest = LoopNest::new("rand", space, refs).with_compute_us(1.0);
    Program::new("rand", arrays, vec![nest])
}

fn tiny_platform(chunk_bytes: u64) -> PlatformConfig {
    let mut p = PlatformConfig::tiny();
    p.chunk_bytes = chunk_bytes;
    p
}

#[test]
fn all_versions_issue_identical_access_multisets() {
    cases(0xE2E_0001, 64, |g| {
        let program = arb_program(g);
        let chunk_bytes = g.choose(&[64u64, 128, 256]);
        let platform = tiny_platform(chunk_bytes);
        let data = DataSpace::new(&program.arrays, platform.chunk_bytes);
        let tree = HierarchyTree::from_config(&platform).unwrap();
        let mapper = Mapper::paper_defaults();

        let mut multisets: Vec<Vec<(usize, bool)>> = Vec::new();
        for version in Version::ALL {
            let mapped = mapper.map(&program, &data, &platform, &tree, version);
            let mut all: Vec<(usize, bool)> = mapped
                .per_client
                .iter()
                .flatten()
                .filter_map(|op| match op {
                    ClientOp::Access { chunk, write } => Some((*chunk, *write)),
                    _ => None,
                })
                .collect();
            all.sort_unstable();
            multisets.push(all);
        }
        for w in multisets.windows(2) {
            assert_eq!(&w[0], &w[1]);
        }
    });
}

#[test]
fn inter_mapping_partitions_every_iteration() {
    cases(0xE2E_0002, 64, |g| {
        let program = arb_program(g);
        let platform = tiny_platform(64);
        let data = DataSpace::new(&program.arrays, platform.chunk_bytes);
        let tree = HierarchyTree::from_config(&platform).unwrap();
        let mapper = Mapper::paper_defaults();
        let mapped = mapper.map(&program, &data, &platform, &tree, Version::InterProcessor);
        let per_iter_accesses = program.nests[0].refs.len() as u64;
        assert_eq!(
            mapped.total_accesses(),
            program.total_iterations() * per_iter_accesses
        );
    });
}

#[test]
fn simulation_statistics_are_self_consistent() {
    cases(0xE2E_0003, 64, |g| {
        let program = arb_program(g);
        let platform = tiny_platform(64);
        let data = DataSpace::new(&program.arrays, platform.chunk_bytes);
        let tree = HierarchyTree::from_config(&platform).unwrap();
        let mapper = Mapper::paper_defaults();
        let mapped = mapper.map(
            &program,
            &data,
            &platform,
            &tree,
            Version::InterProcessorScheduled,
        );
        let rep = Simulator::new(platform.clone())
            .unwrap()
            .run(&mapped)
            .unwrap();

        // Hierarchy access funnel.
        assert_eq!(rep.l1.accesses(), mapped.total_accesses());
        assert_eq!(rep.l2.accesses(), rep.l1.misses);
        assert_eq!(rep.l3.accesses(), rep.l2.misses);
        assert_eq!(rep.disk_reads, rep.l3.misses);
        // Times are sane.
        let max_finish = *rep.per_client_finish_ns.iter().max().unwrap();
        assert_eq!(rep.exec_time_ns, max_finish);
        let sum_io: u64 = rep.per_client_io_ns.iter().sum();
        assert_eq!(rep.io_latency_ns, sum_io);
        for (f, io) in rep.per_client_finish_ns.iter().zip(&rep.per_client_io_ns) {
            assert!(f >= io);
        }
    });
}

#[test]
fn balance_threshold_is_respected_up_to_granularity() {
    cases(0xE2E_0004, 64, |g| {
        let program = arb_program(g);
        let platform = tiny_platform(64);
        let data = DataSpace::new(&program.arrays, platform.chunk_bytes);
        let tree = HierarchyTree::from_config(&platform).unwrap();
        let tagged = cachemap::core::tags::tag_nest(&program, 0, &data);
        let dist =
            cachemap::core::cluster::distribute(&tagged.chunks, &tree, &ClusterParams::default());
        assert_eq!(dist.total_iterations(), program.total_iterations());
        // With splitting available, no client should exceed the mean by
        // more than the compounded threshold plus one chunk of slack.
        let per = dist.iterations_per_client();
        let mean = per.iter().sum::<u64>() as f64 / per.len() as f64;
        let largest_chunk = tagged.chunks.iter().map(|c| c.len()).max().unwrap_or(0) as f64;
        let slack = mean * 0.45 + largest_chunk + 1.0;
        for &p in &per {
            assert!(
                (p as f64) <= mean + slack,
                "client load {p} vs mean {mean} (slack {slack})"
            );
        }
    });
}
