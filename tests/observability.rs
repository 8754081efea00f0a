//! Cross-crate observability properties: the engine's per-bucket metric
//! series must sum exactly to the aggregate [`SimReport`] counters (the
//! recorder calls are co-located with the stats updates, and these tests
//! keep them that way), and carrying a *disabled* recorder must leave
//! the simulation byte-for-byte identical. The caches are drawn small,
//! so evictions and writebacks happen at every level and their sums
//! are checked, not vacuous.

use cachemap::obs::{
    validate_artifact, ArtifactMeta, Level, ObsArtifact, Recorder, SCHEMA_VERSION,
};
use cachemap::prelude::*;
use cachemap::util::check::{cases, Gen};
use cachemap::util::ToJson;

/// A random small affine nest (same shape as the `properties.rs`
/// generator, kept independent so the two files stay self-contained).
fn arb_program(g: &mut Gen) -> Program {
    let n0 = g.i64_in(2, 10);
    let n1 = g.i64_in(1, 8);
    let nreads = g.usize_in(1, 3);
    let off = g.i64_in(0, 4);
    let elems = (n0 + n1 + off + 8) * (n0 + n1 + off + 8);
    let arrays = vec![ArrayDecl::new("A", vec![elems], 8)];
    let pitch = n1 + off + 4;
    let space = IterationSpace::rectangular(&[n0, n1]);
    let mut refs = Vec::new();
    for r in 0..nreads {
        refs.push(ArrayRef::read(
            0,
            vec![AffineExpr::new(vec![pitch, 1], off + r as i64)],
        ));
    }
    refs.push(ArrayRef::write(0, vec![AffineExpr::new(vec![pitch, 1], 0)]));
    let nest = LoopNest::new("rand", space, refs).with_compute_us(1.0);
    Program::new("rand", arrays, vec![nest])
}

fn setup(g: &mut Gen) -> (Program, PlatformConfig, MappedProgram, u64) {
    let program = arb_program(g);
    // Caches of at most 3 / 3 / 2 chunks of 32 or 64 bytes, so that
    // many cases write back at every level: each nest writes one
    // reference over at most ~1 KB.
    let mut platform = PlatformConfig::tiny().with_cache_chunks(
        g.usize_in(1, 4),
        g.usize_in(1, 4),
        g.usize_in(1, 3),
    );
    platform.chunk_bytes = g.choose(&[32u64, 64]);
    let data = DataSpace::new(&program.arrays, platform.chunk_bytes);
    let tree = HierarchyTree::from_config(&platform).unwrap();
    let mapper = Mapper::paper_defaults();
    let mapped = mapper.map(&program, &data, &platform, &tree, Version::InterProcessor);
    let horizon = Simulator::new(platform.clone())
        .unwrap()
        .run(&mapped)
        .unwrap()
        .exec_time_ns
        .max(2);
    (program, platform, mapped, horizon)
}

#[test]
fn bucket_series_sums_to_aggregate_report() {
    // Levels whose evictions / writebacks some case exercised.
    let mut evicted = [false; 3];
    let mut written_back = [false; 3];
    cases(0x0B5_0001, 48, |g| {
        let (_program, platform, mapped, horizon) = setup(g);
        let sim = Simulator::new(platform.clone()).unwrap();
        let mut rec = Recorder::enabled(g.u64_in(1, horizon));
        let rep = sim.run_observed(&mapped, &mut rec).unwrap();
        let obs = rec.finish().expect("enabled recorder yields a snapshot");

        for (i, (level, hm, tally)) in [
            (Level::L1, &rep.l1, &rep.l1_evictions),
            (Level::L2, &rep.l2, &rep.l2_evictions),
            (Level::L3, &rep.l3, &rep.l3_evictions),
        ]
        .into_iter()
        .enumerate()
        {
            let total = obs.level_totals(level);
            assert_eq!(total.hits, hm.hits, "{level:?} hits");
            assert_eq!(total.misses, hm.misses, "{level:?} misses");
            assert_eq!(total.evictions, tally.evictions, "{level:?} evictions");
            assert_eq!(total.writebacks, tally.writebacks, "{level:?} writebacks");
            evicted[i] |= tally.evictions > 0;
            written_back[i] |= tally.writebacks > 0;
        }

        // Every client access issues exactly one L1 access.
        let accesses: u64 = (0..platform.num_clients)
            .map(|c| obs.client_totals(c).accesses)
            .sum();
        assert_eq!(accesses, rep.l1.hits + rep.l1.misses, "client accesses");

        // Per-client I/O time buckets sum to the report's I/O tally.
        for c in 0..platform.num_clients {
            assert_eq!(
                obs.client_totals(c).io_ns,
                rep.per_client_io_ns[c],
                "client {c} io_ns"
            );
        }
    });
    assert_eq!(evicted, [true; 3], "evictions at L1, L2, L3");
    assert_eq!(written_back, [true; 3], "writebacks at L1, L2, L3");
}

#[test]
fn disabled_recorder_is_bit_identical() {
    cases(0x0B5_0002, 48, |g| {
        let (_program, platform, mapped, _horizon) = setup(g);
        let sim = Simulator::new(platform).unwrap();
        let plain = sim.run(&mapped).unwrap().to_json().to_string_compact();
        let mut rec = Recorder::disabled();
        let observed = sim
            .run_observed(&mapped, &mut rec)
            .unwrap()
            .to_json()
            .to_string_compact();
        assert_eq!(
            plain, observed,
            "a disabled recorder must not disturb the run"
        );
        assert!(rec.finish().is_none(), "disabled recorder records nothing");
    });
}

#[test]
fn recorded_runs_export_schema_valid_prometheus_ready_artifacts() {
    cases(0x0B5_0003, 16, |g| {
        let (_program, platform, mapped, horizon) = setup(g);
        let sim = Simulator::new(platform.clone()).unwrap();
        let mut rec = Recorder::enabled(g.u64_in(1, horizon));
        sim.run_observed(&mapped, &mut rec).unwrap();
        let artifact = ObsArtifact {
            meta: ArtifactMeta {
                schema_version: SCHEMA_VERSION,
                label: "prop/inter".to_string(),
                clients: platform.num_clients,
                io_nodes: platform.num_io_nodes,
                storage_nodes: platform.num_storage_nodes,
                chunk_bytes: platform.chunk_bytes,
                policies: [
                    platform.policies[0].label().to_string(),
                    platform.policies[1].label().to_string(),
                    platform.policies[2].label().to_string(),
                ],
            },
            mapper: None,
            engine: rec.finish(),
        };

        let json_text = artifact.to_json().to_string_pretty();
        let json = cachemap::util::json::parse(&json_text).unwrap();
        validate_artifact(&json).expect("exported artifact matches the schema");
        let back = ObsArtifact::parse(&json_text).expect("round-trip");
        assert_eq!(
            back.to_json().to_string_compact(),
            artifact.to_json().to_string_compact()
        );

        let prom = artifact.to_prometheus();
        for needle in [
            "# TYPE cachemap_cache_hits_total counter",
            "level=\"l1\"",
            "node=\"0\"",
            "client=\"0\"",
        ] {
            assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
        }
    });
}
