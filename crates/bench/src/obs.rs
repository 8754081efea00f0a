//! Observability plumbing for the harness: capture one fully observed
//! run (mapper phase profile + engine metric series), export it as a
//! `*.obs.json` artifact, and render artifacts for the `repro obs`
//! subcommand.

use cachemap_core::{Mapper, MapperConfig, Version};
use cachemap_obs::{
    ArtifactMeta, EngineObs, Level, ObsArtifact, Profile, Recorder, SCHEMA_VERSION,
};
use cachemap_polyhedral::DataSpace;
use cachemap_storage::{HierarchyTree, PlatformConfig, SimReport, Simulator};
use cachemap_util::table::TextTable;
use cachemap_workloads::Application;

/// How many simulated-time buckets the exporter aims for per run.
const TARGET_BUCKETS: u64 = 48;

/// Picks a bucket width giving roughly `TARGET_BUCKETS` buckets over a
/// run of `exec_ns`, rounded up to a 1-2-5 × 10ᵏ value so bucket edges
/// land on readable timestamps.
pub fn pick_bucket_ns(exec_ns: u64) -> u64 {
    let raw = (exec_ns / TARGET_BUCKETS).max(1);
    let mut step = 1u64;
    loop {
        for m in [1, 2, 5] {
            let cand = step.saturating_mul(m);
            if cand >= raw {
                return cand;
            }
        }
        step = step.saturating_mul(10);
    }
}

fn artifact_meta(platform: &PlatformConfig, label: &str) -> ArtifactMeta {
    let policy = |i: usize| platform.policies[i].label().to_string();
    ArtifactMeta {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        clients: platform.num_clients,
        io_nodes: platform.num_io_nodes,
        storage_nodes: platform.num_storage_nodes,
        chunk_bytes: platform.chunk_bytes,
        policies: [policy(0), policy(1), policy(2)],
    }
}

/// Runs one (application, version, platform) cell with full
/// observability: the mapping pipeline records a phase [`Profile`] and
/// the engine run records per-node time series. The simulation runs
/// twice — once unobserved to learn the execution time (which sizes the
/// buckets via [`pick_bucket_ns`]), once recorded; both runs produce the
/// same report since a recorder never disturbs the simulation.
pub fn run_cell_observed(
    app: &Application,
    platform: &PlatformConfig,
    mapper_cfg: &MapperConfig,
    version: Version,
    label: &str,
) -> (SimReport, ObsArtifact) {
    let data = DataSpace::new(&app.program.arrays, platform.chunk_bytes);
    let tree = HierarchyTree::from_config(platform).expect("valid platform config");
    let mapper = Mapper::new(*mapper_cfg);
    let mut prof = Profile::enabled();
    let mapped = mapper.map_profiled(&app.program, &data, platform, &tree, version, &mut prof);
    let sim = Simulator::new(platform.clone()).expect("valid platform config");
    let sizing = sim.run(&mapped).expect("well-formed mapped program");
    let mut rec = Recorder::enabled(pick_bucket_ns(sizing.exec_time_ns));
    let rep = sim
        .run_observed(&mapped, &mut rec)
        .expect("well-formed mapped program");
    let artifact = ObsArtifact {
        meta: artifact_meta(platform, label),
        mapper: Some(prof),
        engine: rec.finish(),
    };
    (rep, artifact)
}

const SPARK_RAMP: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// A fixed-width activity sparkline: one glyph per bucket `0..=max_b`,
/// scaled against the series' own peak.
fn sparkline(series: &std::collections::BTreeMap<u64, u64>, max_b: u64) -> String {
    let peak = series.values().copied().max().unwrap_or(0);
    (0..=max_b)
        .map(|b| {
            let v = series.get(&b).copied().unwrap_or(0);
            if peak == 0 || v == 0 {
                SPARK_RAMP[0]
            } else {
                // Nonzero activity always renders at least the lowest bar.
                let idx = 1 + (v.saturating_sub(1) * 7 / peak.max(1)) as usize;
                SPARK_RAMP[idx.min(8)]
            }
        })
        .collect()
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e6)
}

fn render_level_table(out: &mut String, obs: &EngineObs, level: Level, max_b: u64) {
    let nodes: Vec<_> = obs.nodes.iter().filter(|((l, _), _)| *l == level).collect();
    if nodes.is_empty() {
        return;
    }
    out.push_str(&format!(
        "-- {} nodes ({} buckets × {} ms) --\n",
        level.label(),
        max_b + 1,
        obs.bucket_ns as f64 / 1e6
    ));
    let mut t = TextTable::new([
        "node", "hits", "misses", "evict", "wback", "queue ms", "activity",
    ]);
    for ((_, node), series) in nodes {
        let mut total = cachemap_obs::BucketStats::default();
        for s in series.values() {
            total.add(s);
        }
        let activity: std::collections::BTreeMap<u64, u64> = series
            .iter()
            .map(|(&b, s)| (b, s.hits + s.misses))
            .collect();
        t.row([
            format!("{node}"),
            format!("{}", total.hits),
            format!("{}", total.misses),
            format!("{}", total.evictions),
            format!("{}", total.writebacks),
            fmt_ms(total.queue_ns),
            format!("|{}|", sparkline(&activity, max_b)),
        ]);
    }
    out.push_str(&t.render());
}

/// Renders one artifact as the `repro obs` text report: run metadata,
/// the mapper phase profile, per-level per-node time-series tables,
/// per-client timelines, the busiest links, and the hottest chunks.
pub fn render_artifact(artifact: &ObsArtifact) -> String {
    let meta = &artifact.meta;
    let mut out = format!(
        "== obs — {} ==\nplatform: {} clients / {} I/O nodes / {} storage nodes, {} B chunks\n\
         eviction policies: L1 {} / L2 {} / L3 {}\n",
        meta.label,
        meta.clients,
        meta.io_nodes,
        meta.storage_nodes,
        meta.chunk_bytes,
        meta.policies[0],
        meta.policies[1],
        meta.policies[2]
    );

    match &artifact.mapper {
        Some(prof) if !prof.is_empty() => {
            out.push_str("\n-- mapper phase profile --\n");
            out.push_str(&prof.render());
        }
        _ => out.push_str("\n-- mapper phase profile: (not captured) --\n"),
    }

    let Some(obs) = &artifact.engine else {
        out.push_str("\n-- engine series: (not captured) --\n");
        return out;
    };
    let max_b = obs.max_bucket();
    out.push('\n');
    for level in [Level::L1, Level::L2, Level::L3] {
        render_level_table(&mut out, obs, level, max_b);
    }

    if !obs.clients.is_empty() {
        out.push_str("-- client timelines (I/O activity per bucket) --\n");
        let mut t = TextTable::new(["client", "accesses", "io ms", "compute ms", "activity"]);
        for (&c, series) in &obs.clients {
            let total = obs.client_totals(c);
            let activity: std::collections::BTreeMap<u64, u64> =
                series.iter().map(|(&b, s)| (b, s.io_ns)).collect();
            t.row([
                format!("{c}"),
                format!("{}", total.accesses),
                fmt_ms(total.io_ns),
                fmt_ms(total.compute_ns),
                format!("|{}|", sparkline(&activity, max_b)),
            ]);
        }
        out.push_str(&t.render());
    }

    if !obs.links.is_empty() {
        out.push_str("-- busiest links --\n");
        let mut links: Vec<_> = obs.links.iter().collect();
        links.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let mut t = TextTable::new(["hop", "src", "dst", "bytes"]);
        for ((hop, src, dst), bytes) in links.into_iter().take(10) {
            t.row([
                hop.label().to_string(),
                format!("{src}"),
                format!("{dst}"),
                format!("{bytes}"),
            ]);
        }
        out.push_str(&t.render());
    }

    if !obs.hot_chunks.is_empty() {
        out.push_str("-- hottest chunks --\n");
        let mut t = TextTable::new(["chunk", "accesses"]);
        for (chunk, count) in obs.hot_chunks.iter().take(16) {
            t.row([format!("{chunk}"), format!("{count}")]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemap_util::ToJson;

    #[test]
    fn bucket_width_is_a_readable_step() {
        assert_eq!(pick_bucket_ns(0), 1);
        assert_eq!(pick_bucket_ns(48), 1);
        assert_eq!(pick_bucket_ns(480), 10);
        assert_eq!(pick_bucket_ns(48 * 3), 5);
        assert_eq!(pick_bucket_ns(48_000_000), 1_000_000);
        for exec in [1u64, 1000, 123_456_789, u64::MAX] {
            let b = pick_bucket_ns(exec);
            assert!(b >= 1);
            // 1-2-5 × 10^k shape.
            let mut x = b;
            while x.is_multiple_of(10) {
                x /= 10;
            }
            assert!(matches!(x, 1 | 2 | 5), "bucket {b} not 1-2-5-shaped");
        }
    }

    #[test]
    fn observed_cell_matches_plain_report_and_renders() {
        let app = cachemap_workloads::by_name("contour", cachemap_workloads::Scale::Test).unwrap();
        let platform = PlatformConfig::paper_default().with_cache_chunks(8, 8, 8);
        let cfg = MapperConfig::default();
        let plain = crate::run_cell(&app, &platform, &cfg, Version::InterProcessorScheduled);
        let (rep, artifact) = run_cell_observed(
            &app,
            &platform,
            &cfg,
            Version::InterProcessorScheduled,
            "contour/inter-scheduled",
        );
        assert_eq!(
            rep.to_json().to_string_compact(),
            plain.to_json().to_string_compact(),
            "recording must not disturb the simulation"
        );
        let text = render_artifact(&artifact);
        assert!(text.contains("mapper phase profile"));
        assert!(text.contains("l1 nodes"));
        assert!(text.contains("l2 nodes"));
        assert!(text.contains("l3 nodes"));
        assert!(text.contains("client timelines"));
        assert!(text.contains("hottest chunks"));
        let prof = artifact.mapper.as_ref().expect("mapper profile captured");
        let map = prof.root_named("map").expect("map span");
        assert!(
            map.children.iter().any(|&i| prof.node(i).name == "cluster"),
            "cluster span in the profile"
        );
        // Round-trips through JSON.
        let json = artifact.to_json().to_string_pretty();
        let back = ObsArtifact::parse(&json).expect("round-trip");
        assert_eq!(render_artifact(&back), text);
        cachemap_obs::validate_artifact(&cachemap_util::json::parse(&json).unwrap())
            .expect("schema-valid artifact");
    }
}
