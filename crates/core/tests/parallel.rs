//! Pool independence of the clustering entry points that accept a
//! pool. [`distribute_pooled`] and [`Mapper::with_pool`] take a
//! [`Pool`] and run the kernel on the calling thread, so for random
//! workloads and platforms every pool size must give results
//! byte-identical to the sequential kernel — in the wire serialization
//! of the distribution, in the mapped op streams, and in the profile
//! counter totals (wall-clock excluded). Failure remaps take no pool:
//! for random fault plans, profiling must not change a remap, and the
//! remap must survive the wire exactly. Driven by the in-repo
//! deterministic harness (`cachemap_util::check`).

use cachemap_core::cluster::{distribute, distribute_pooled, remap_failed, ClusterParams, Linkage};
use cachemap_core::tags::IterationChunk;
use cachemap_core::{wire, Mapper, MapperConfig, Version};
use cachemap_obs::Profile;
use cachemap_par::Pool;
use cachemap_polyhedral::{
    AffineExpr, ArrayDecl, ArrayRef, DataSpace, IterationSpace, LoopNest, Program,
};
use cachemap_storage::{HierarchyTree, PlatformConfig};
use cachemap_util::check::{cases, Gen};
use cachemap_util::{BitSet, Json, ToJson};

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

fn arb_chunks(g: &mut Gen) -> Vec<IterationChunk> {
    // Mostly small, but occasionally ~100 chunks, so long root merges
    // run above the lower levels' recursion.
    let nspecs = if g.usize_in(0, 7) == 0 {
        g.usize_in(96, 120)
    } else {
        g.usize_in(2, 28)
    };
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

fn arb_platform(g: &mut Gen) -> PlatformConfig {
    let storage = g.usize_in(1, 3);
    let io = storage * g.usize_in(1, 2);
    let clients = io * g.usize_in(1, 3);
    PlatformConfig::paper_default().with_topology(clients, io, storage)
}

fn arb_params(g: &mut Gen) -> ClusterParams {
    ClusterParams {
        balance_threshold: g.f64() * 0.4,
        linkage: g.choose(&[Linkage::Total, Linkage::Average, Linkage::Sqrt]),
    }
}

/// Recursively zeroes every `wall_ns` field, leaving the deterministic
/// span structure and counters.
fn strip_wall(json: &Json) -> Json {
    match json {
        Json::Object(pairs) => Json::Object(
            pairs
                .iter()
                .map(|(k, v)| {
                    if k == "wall_ns" {
                        (k.clone(), Json::UInt(0))
                    } else {
                        (k.clone(), strip_wall(v))
                    }
                })
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(strip_wall).collect()),
        other => other.clone(),
    }
}

fn counters_of(prof: &Profile) -> String {
    strip_wall(&prof.to_json()).to_string_compact()
}

#[test]
fn pooled_distribution_is_byte_identical_to_sequential() {
    cases(0x9A7_0001, 48, |g| {
        let chunks = arb_chunks(g);
        let platform = arb_platform(g);
        let tree = HierarchyTree::from_config(&platform).unwrap();
        let params = arb_params(g);

        let mut seq_prof = Profile::enabled();
        let seq = distribute_pooled(&chunks, &tree, &params, &Pool::sequential(), &mut seq_prof);
        let seq_bytes = seq.to_json().to_string_compact();
        let seq_counters = counters_of(&seq_prof);

        for threads in POOL_SIZES {
            let mut prof = Profile::enabled();
            let dist = distribute_pooled(&chunks, &tree, &params, &Pool::new(threads), &mut prof);
            assert_eq!(
                dist.to_json().to_string_compact(),
                seq_bytes,
                "distribution diverged at pool size {threads}"
            );
            assert_eq!(
                counters_of(&prof),
                seq_counters,
                "profile counters diverged at pool size {threads}"
            );
        }
    });
}

#[test]
fn profiled_remap_matches_unprofiled_and_round_trips_the_wire() {
    cases(0x9A7_0002, 48, |g| {
        let chunks = arb_chunks(g);
        let platform = arb_platform(g);
        let tree = HierarchyTree::from_config(&platform).unwrap();
        let params = arb_params(g);
        let dist = distribute(&chunks, &tree, &params);

        // Fail a random nonempty strict subset of the clients.
        let clients = platform.num_clients;
        if clients < 2 {
            return;
        }
        let nfail = g.usize_in(1, clients - 1);
        let mut failed: Vec<usize> = Vec::new();
        while failed.len() < nfail {
            let c = g.usize_in(0, clients - 1);
            if !failed.contains(&c) {
                failed.push(c);
            }
        }
        failed.sort_unstable();

        let remap = |prof: &mut Profile| {
            remap_failed(&dist, &chunks, &tree, &failed, &params, prof).unwrap()
        };
        let plain = remap(&mut Profile::disabled());
        let plain_bytes = plain.to_json().to_string_compact();
        let mut prof = Profile::enabled();
        let profiled = remap(&mut prof);
        assert_eq!(
            profiled.to_json().to_string_compact(),
            plain_bytes,
            "profiling changed the remap (failed: {failed:?})"
        );
        assert!(!prof.is_empty(), "the remap recorded no spans");

        // The wire round-trip must also be exact, so a memoized service
        // response replays byte-for-byte.
        let back = wire::distribution_from_json(&plain.to_json()).unwrap();
        assert_eq!(back.to_json().to_string_compact(), plain_bytes);
    });
}

/// Random small single-nest program with chunk-crossing strides (same
/// shape as the mapping property tests).
fn arb_program(g: &mut Gen) -> (Program, DataSpace) {
    let n = g.i64_in(4, 20);
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

#[test]
fn pooled_mapper_produces_identical_programs_and_counters() {
    cases(0x9A7_0003, 24, |g| {
        let (program, data) = arb_program(g);
        let platform = arb_platform(g);
        let tree = HierarchyTree::from_config(&platform).unwrap();
        let cfg = MapperConfig::default();
        let version = g.choose(&[Version::InterProcessor, Version::InterProcessorScheduled]);

        let mut seq_prof = Profile::enabled();
        let seq = Mapper::new(cfg).map_profiled(
            &program,
            &data,
            &platform,
            &tree,
            version,
            &mut seq_prof,
        );
        let seq_counters = counters_of(&seq_prof);

        for threads in POOL_SIZES {
            let mapper = Mapper::new(cfg).with_pool(Pool::new(threads));
            let mut prof = Profile::enabled();
            let mapped = mapper.map_profiled(&program, &data, &platform, &tree, version, &mut prof);
            assert_eq!(
                mapped, seq,
                "mapped program diverged at pool size {threads}"
            );
            assert_eq!(
                counters_of(&prof),
                seq_counters,
                "map_profiled counters diverged at pool size {threads}"
            );
        }
    });
}
