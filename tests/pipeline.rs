//! Full-pipeline integration tests over the evaluation suite (test
//! scale): every application × every version maps, lowers, and simulates;
//! all versions execute the same accesses; results are deterministic.
//! Mapping digests are pinned at test scale and at paper scale.

use cachemap::prelude::*;

fn platform() -> PlatformConfig {
    // Smaller caches so the test-scale datasets still exercise capacity
    // misses at every level.
    PlatformConfig::paper_default().with_cache_chunks(8, 16, 32)
}

#[test]
fn every_app_and_version_runs_end_to_end() {
    let platform = platform();
    let tree = HierarchyTree::from_config(&platform).unwrap();
    let sim = Simulator::new(platform.clone()).unwrap();
    let mapper = Mapper::paper_defaults();

    for app in cachemap::workloads::suite(Scale::Test) {
        let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        let mut access_counts = Vec::new();
        for version in Version::ALL {
            let mapped = mapper.map(&app.program, &data, &platform, &tree, version);
            access_counts.push(mapped.total_accesses());
            let rep = sim.run(&mapped).unwrap();
            assert!(rep.l1.accesses() > 0, "{} {:?}", app.name, version);
            assert!(rep.exec_time_ns > 0, "{} {:?}", app.name, version);
            // L2 sees exactly the L1 misses; L3 exactly the L2 misses.
            assert_eq!(rep.l2.accesses(), rep.l1.misses, "{}", app.name);
            assert_eq!(rep.l3.accesses(), rep.l2.misses, "{}", app.name);
        }
        assert!(
            access_counts.windows(2).all(|w| w[0] == w[1]),
            "{}: versions must issue identical access counts: {access_counts:?}",
            app.name
        );
    }
}

#[test]
fn mapping_and_simulation_are_deterministic() {
    let platform = platform();
    let tree = HierarchyTree::from_config(&platform).unwrap();
    let sim = Simulator::new(platform.clone()).unwrap();
    let mapper = Mapper::paper_defaults();
    let app = cachemap::workloads::by_name("madbench2", Scale::Test).unwrap();
    let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);

    let m1 = mapper.map(
        &app.program,
        &data,
        &platform,
        &tree,
        Version::InterProcessorScheduled,
    );
    let m2 = mapper.map(
        &app.program,
        &data,
        &platform,
        &tree,
        Version::InterProcessorScheduled,
    );
    assert_eq!(m1, m2, "mapping must be deterministic");

    let r1 = sim.run(&m1).unwrap();
    let r2 = sim.run(&m1).unwrap();
    assert_eq!(r1.per_client_finish_ns, r2.per_client_finish_ns);
    assert_eq!(r1.io_latency_ns, r2.io_latency_ns);
}

#[test]
fn inter_processor_balances_iterations_within_threshold() {
    let platform = platform();
    let tree = HierarchyTree::from_config(&platform).unwrap();
    let mapper = Mapper::paper_defaults();
    for app in cachemap::workloads::suite(Scale::Test) {
        let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        let mapped = mapper.map(
            &app.program,
            &data,
            &platform,
            &tree,
            Version::InterProcessor,
        );
        let per = mapped.accesses_per_client();
        let total: u64 = per.iter().sum();
        let mean = total as f64 / per.len() as f64;
        let max = *per.iter().max().unwrap() as f64;
        // 10% per level can compound down the three-level descent, plus
        // chunk granularity; anything beyond ~60% of the mean indicates
        // a balancing regression (the bug class we fixed during
        // calibration produced 200-300%).
        assert!(
            max <= mean * 1.6 + 8.0,
            "{}: per-client access imbalance: max {max} vs mean {mean:.1}",
            app.name
        );
    }
}

#[test]
fn multi_nest_apps_execute_nests_in_program_order() {
    // sar has two nests; per client, all range-pass accesses must come
    // before any azimuth-pass access (the mapper appends nest programs).
    let platform = platform();
    let tree = HierarchyTree::from_config(&platform).unwrap();
    let mapper = Mapper::paper_defaults();
    let app = cachemap::workloads::by_name("sar", Scale::Test).unwrap();
    let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
    let mapped = mapper.map(
        &app.program,
        &data,
        &platform,
        &tree,
        Version::InterProcessor,
    );

    // RAW (array 0) is only touched by the range pass; OUT (array 2)
    // only by azimuth. Track chunk id ranges.
    let raw_hi = data.array_base(0) + data.array_chunks(0);
    let out_lo = data.array_base(2);
    for (c, ops) in mapped.per_client.iter().enumerate() {
        let mut seen_azimuth = false;
        for op in ops {
            if let ClientOp::Access { chunk, .. } = op {
                if *chunk >= out_lo {
                    seen_azimuth = true;
                }
                if *chunk < raw_hi {
                    assert!(
                        !seen_azimuth,
                        "client {c}: range access after azimuth began"
                    );
                }
            }
        }
    }
}

#[test]
fn scheduled_version_keeps_the_distribution() {
    let platform = platform();
    let tree = HierarchyTree::from_config(&platform).unwrap();
    let mapper = Mapper::paper_defaults();
    let app = cachemap::workloads::by_name("hf", Scale::Test).unwrap();
    let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);

    let inter = mapper.map(
        &app.program,
        &data,
        &platform,
        &tree,
        Version::InterProcessor,
    );
    let sched = mapper.map(
        &app.program,
        &data,
        &platform,
        &tree,
        Version::InterProcessorScheduled,
    );
    // Same per-client access *multisets* (order may differ).
    for c in 0..platform.num_clients {
        let collect = |mp: &MappedProgram| {
            let mut v: Vec<(usize, bool)> = mp.per_client[c]
                .iter()
                .filter_map(|op| match op {
                    ClientOp::Access { chunk, write } => Some((*chunk, *write)),
                    _ => None,
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(collect(&inter), collect(&sched), "client {c}");
    }
}

/// FNV-1a/128 fingerprints (`util::fingerprint_json`) of every suite
/// app's mappings at test scale on [`platform`], one line per app:
/// name, `inter-processor` digest, `inter-processor+sched` digest. Any
/// change to tagging, clustering, balancing, scheduling or codegen that
/// moves a single op shows up here; update a line only for a change
/// that is meant to alter mappings.
const MAPPING_DIGESTS: &str = "\
hf        45fb77b19fd8463a046881eed708bd1a ba193d51902a3a5324465d8daeb24b42
sar       0b727ef9d6fcfed2074c237e9c628550 0b727ef9d6fcfed2074c237e9c628550
contour   d5b821bf9d9abe461b66ce631ef1c8df d5b821bf9d9abe461b66ce631ef1c8df
astro     5f73c562b78b3472bd2a5235216f92b8 5f73c562b78b3472bd2a5235216f92b8
e_elem    c8567bf7b2a30861d119d517ef838f0c c8567bf7b2a30861d119d517ef838f0c
apsi      ab3c2de68ded7d9db81e64c4513e33e1 ab3c2de68ded7d9db81e64c4513e33e1
madbench2 4442f19f1f1d804b5e8e1f3bd4639c12 4442f19f1f1d804b5e8e1f3bd4639c12
wupwise   edb1f24ffc2c1d91c840b468ddeaf84e 9cf9baca2d4f2fd771c6ac753443e046";

/// `inter-processor+sched` fingerprints of every suite app at paper
/// scale on `PlatformConfig::paper_default()`, one `name digest` line
/// per app. Paper-scale merge rounds are far longer than test-scale
/// ones, so this pins the clustering kernel on the inputs the benchmark
/// measures.
const PAPER_MAPPING_DIGESTS: &str = "\
hf        a31de21e1e562e3d01fce781bf8944ae
sar       435e49e0f56bda77c804a1400b1bff6a
contour   fd9c7161f75589e0c663fb94c55ef08c
astro     bc3e010e8b147aa5c2ee638bc9841178
e_elem    41f413b9033c651564873d400fdfa9f8
apsi      f9048c3ae36991619b4b46c24a065516
madbench2 f2d453c00a147cc1ef23cf765d1ed676
wupwise   bc7156eb770f1b4cdff6719bf7064183";

/// Maps every suite app at `scale` on `platform` in each of `versions`
/// and checks the fingerprints against `table`: one line per app, its
/// name and then one digest per version.
fn assert_pinned_digests(
    scale: Scale,
    platform: &PlatformConfig,
    versions: &[Version],
    table: &str,
) {
    use cachemap::util::{fingerprint_json, ToJson};
    let tree = HierarchyTree::from_config(platform).unwrap();
    let mapper = Mapper::paper_defaults();
    let apps = cachemap::workloads::suite(scale);
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(apps.len(), lines.len());
    for (app, line) in apps.iter().zip(lines) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 1 + versions.len(), "{line}");
        assert_eq!(app.name, fields[0]);
        let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
        for (&version, want) in versions.iter().zip(&fields[1..]) {
            let mapped = mapper.map(&app.program, &data, platform, &tree, version);
            let got = fingerprint_json(&mapped.to_json()).to_hex();
            assert_eq!(&got, want, "{} {}", app.name, version.label());
        }
    }
}

#[test]
fn inter_processor_mappings_match_pinned_digests() {
    let versions = [Version::InterProcessor, Version::InterProcessorScheduled];
    assert_pinned_digests(Scale::Test, &platform(), &versions, MAPPING_DIGESTS);
}

#[test]
fn paper_scale_scheduled_mappings_match_pinned_digests() {
    let platform = PlatformConfig::paper_default();
    let versions = [Version::InterProcessorScheduled];
    assert_pinned_digests(Scale::Paper, &platform, &versions, PAPER_MAPPING_DIGESTS);
}
