//! `bench-cluster`: sequential vs. parallel clustering kernel.
//!
//! Runs [`cachemap_core::cluster::distribute`] on a seeded synthetic
//! workload at paper scale (64 clients / 32 I/O nodes / 16 storage
//! nodes) — first sequentially, then through [`Pool`]s of increasing
//! size — and reports wall-clock and speedup per pool size.
//!
//! Two invariants are **asserted** on every run, not just reported:
//!
//! 1. every parallel distribution is byte-identical to the sequential
//!    one (compared via the canonical wire serialization);
//! 2. the `distribute_profiled` counter totals (merges, dot sums,
//!    balance moves, …) match span-for-span once wall-clock fields are
//!    zeroed.
//!
//! Speedups are honest wall-clock measurements on the current machine;
//! `available_parallelism` is recorded in the report so a 1-core CI box
//! reporting ~1× is distinguishable from a regression.

use cachemap_core::cluster::{self, ClusterParams};
use cachemap_core::tags::IterationChunk;
use cachemap_obs::Profile;
use cachemap_par::Pool;
use cachemap_storage::{HierarchyTree, PlatformConfig};
use cachemap_util::rng::XorShift64;
use cachemap_util::{BitSet, Json, ToJson};
use std::time::Instant;

/// Knobs for the clustering microbenchmark.
#[derive(Debug, Clone)]
pub struct ClusterBenchConfig {
    /// Seed for the synthetic workload generator.
    pub seed: u64,
    /// Platform whose hierarchy tree the kernel descends.
    pub platform: PlatformConfig,
    /// Outer grid extent (time steps) of the synthetic workload.
    pub t_steps: usize,
    /// Inner grid extent (blocks per step); `t_steps * v` iteration
    /// chunks total.
    pub v: usize,
    /// Pool sizes to benchmark against the sequential kernel.
    pub pool_sizes: Vec<usize>,
    /// Timing repetitions per configuration (the minimum is reported).
    pub repeats: usize,
}

impl ClusterBenchConfig {
    /// Paper-scale defaults: the Figure 7 platform (64/32/16) with a
    /// 1024-chunk astro-shaped workload — large enough that the root
    /// merge round dominates, like the real suite. About half of a run
    /// repairs stale best-partner bounds in Stage 1, and building the
    /// sparse similarity graphs takes about 15%.
    pub fn paper_scale(seed: u64) -> Self {
        ClusterBenchConfig {
            seed,
            platform: PlatformConfig::paper_default(),
            t_steps: 8,
            v: 128,
            pool_sizes: vec![1, 2, 4, 8],
            repeats: 3,
        }
    }

    /// A seconds-not-minutes variant for CI smoke runs; same assertions,
    /// much smaller similarity graph.
    pub fn smoke(seed: u64) -> Self {
        ClusterBenchConfig {
            t_steps: 4,
            v: 48,
            repeats: 1,
            ..ClusterBenchConfig::paper_scale(seed)
        }
    }
}

/// One (pool size → timing) row of the report.
#[derive(Debug, Clone)]
pub struct PoolTiming {
    /// Worker threads the pool ran with.
    pub threads: usize,
    /// Best-of-`repeats` wall-clock for one `distribute` call, ms.
    pub ms: f64,
    /// Sequential time / this time.
    pub speedup: f64,
}

/// Result of the microbenchmark (see [`run`]).
#[derive(Debug, Clone)]
pub struct ClusterBenchReport {
    /// The workload seed.
    pub seed: u64,
    /// Iteration chunks clustered.
    pub chunks: usize,
    /// Tag width (distinct data chunks), bits.
    pub tag_bits: usize,
    /// `(clients, io_nodes, storage_nodes)` of the platform.
    pub topology: (usize, usize, usize),
    /// What the machine could offer (`std::thread::available_parallelism`).
    pub available_parallelism: usize,
    /// Best-of-`repeats` sequential wall-clock, ms.
    pub sequential_ms: f64,
    /// Per-pool-size timings, in `pool_sizes` order.
    pub runs: Vec<PoolTiming>,
}

impl ToJson for ClusterBenchReport {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("bench", Json::Str("cluster".into())),
            ("seed", Json::UInt(self.seed)),
            ("chunks", Json::UInt(self.chunks as u64)),
            ("tag_bits", Json::UInt(self.tag_bits as u64)),
            (
                "platform",
                Json::object(vec![
                    ("clients", Json::UInt(self.topology.0 as u64)),
                    ("io_nodes", Json::UInt(self.topology.1 as u64)),
                    ("storage_nodes", Json::UInt(self.topology.2 as u64)),
                ]),
            ),
            (
                "available_parallelism",
                Json::UInt(self.available_parallelism as u64),
            ),
            ("sequential_ms", Json::Float(self.sequential_ms)),
            (
                "runs",
                Json::Array(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::object(vec![
                                ("threads", Json::UInt(r.threads as u64)),
                                ("ms", Json::Float(r.ms)),
                                ("speedup", Json::Float(r.speedup)),
                                ("identical", Json::Bool(true)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ClusterBenchReport {
    /// Human-readable table for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench-cluster seed={} chunks={} tag_bits={} platform={}x{}x{} host_cpus={}\n",
            self.seed,
            self.chunks,
            self.tag_bits,
            self.topology.0,
            self.topology.1,
            self.topology.2,
            self.available_parallelism,
        ));
        out.push_str(&format!(
            "  sequential           {:>9.2} ms   1.00x (reference)\n",
            self.sequential_ms
        ));
        for r in &self.runs {
            out.push_str(&format!(
                "  pool threads={:<3}     {:>9.2} ms  {:>5.2}x  identical=yes\n",
                r.threads, r.ms, r.speedup
            ));
        }
        out
    }
}

/// Generates the synthetic astro-shaped workload: a `t_steps × v` grid
/// of iteration chunks where each chunk touches its own stream chunk,
/// a per-block template chunk shared down columns, a per-step stats
/// chunk shared across rows, and a few seeded extra chunks that create
/// irregular sharing (so dot products are varied, as in real suites).
pub fn synthetic_chunks(cfg: &ClusterBenchConfig) -> Vec<IterationChunk> {
    let (t_steps, v) = (cfg.t_steps, cfg.v);
    let r = t_steps * v + t_steps + v;
    let mut rng = XorShift64::new(cfg.seed);
    let mut chunks = Vec::with_capacity(t_steps * v);
    for t in 0..t_steps {
        for b in 0..v {
            let mut tag = BitSet::new(r);
            tag.set(t * v + b); // private stream chunk
            tag.set(t_steps * v + b); // per-block template chunk
            tag.set(t_steps * v + v + t); // per-step stats chunk
            for _ in 0..rng.usize_in(0, 4) {
                tag.set(rng.usize_in(0, r)); // irregular sharing
            }
            chunks.push(IterationChunk {
                nest: 0,
                tag,
                points: vec![vec![t as i64, b as i64, 0], vec![t as i64, b as i64, 1]],
            });
        }
    }
    chunks
}

/// Recursively zeroes every `wall_ns` field of a profile's JSON form,
/// leaving only the deterministic structure and counters.
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

/// Runs the microbenchmark. Panics if any parallel run diverges from
/// the sequential kernel — in the distribution bytes or in the profile
/// counter totals.
pub fn run(cfg: &ClusterBenchConfig) -> ClusterBenchReport {
    let chunks = synthetic_chunks(cfg);
    let tree = HierarchyTree::from_config(&cfg.platform).expect("valid platform config");
    let params = ClusterParams::default();
    let repeats = cfg.repeats.max(1);

    let time_best = |pool: &Pool| -> (f64, String, String) {
        let mut best_ms = f64::INFINITY;
        let mut dist_bytes = String::new();
        let mut counter_bytes = String::new();
        for _ in 0..repeats {
            let mut prof = Profile::enabled();
            let t0 = Instant::now();
            let dist = cluster::distribute_pooled(&chunks, &tree, &params, pool, &mut prof);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            best_ms = best_ms.min(ms);
            dist_bytes = dist.to_json().to_string_compact();
            counter_bytes = strip_wall(&prof.to_json()).to_string_compact();
        }
        (best_ms, dist_bytes, counter_bytes)
    };

    let (sequential_ms, seq_dist, seq_counters) = time_best(&Pool::sequential());
    let mut runs = Vec::with_capacity(cfg.pool_sizes.len());
    for &threads in &cfg.pool_sizes {
        let (ms, dist, counters) = time_best(&Pool::new(threads));
        assert_eq!(
            dist, seq_dist,
            "pool size {threads}: distribution diverged from the sequential kernel"
        );
        assert_eq!(
            counters, seq_counters,
            "pool size {threads}: profile counters diverged from the sequential kernel"
        );
        runs.push(PoolTiming {
            threads,
            ms,
            speedup: sequential_ms / ms,
        });
    }

    ClusterBenchReport {
        seed: cfg.seed,
        chunks: chunks.len(),
        tag_bits: chunks.first().map_or(0, |c| c.tag.len()),
        topology: (
            cfg.platform.num_clients,
            cfg.platform.num_io_nodes,
            cfg.platform.num_storage_nodes,
        ),
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        sequential_ms,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_asserts_identity_and_reports_all_pools() {
        let cfg = ClusterBenchConfig {
            pool_sizes: vec![2, 4],
            ..ClusterBenchConfig::smoke(7)
        };
        let report = run(&cfg);
        assert_eq!(report.chunks, cfg.t_steps * cfg.v);
        assert_eq!(report.runs.len(), 2);
        assert!(report.sequential_ms > 0.0);
        let json = report.to_json();
        assert_eq!(json.get("runs").and_then(Json::as_array).unwrap().len(), 2);
        assert!(report.render().contains("identical=yes"));
    }

    #[test]
    fn synthetic_workload_is_seed_deterministic() {
        let cfg = ClusterBenchConfig::smoke(42);
        let a = synthetic_chunks(&cfg);
        let b = synthetic_chunks(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tag, y.tag);
            assert_eq!(x.points, y.points);
        }
        let other = synthetic_chunks(&ClusterBenchConfig::smoke(43));
        assert!(
            a.iter().zip(&other).any(|(x, y)| x.tag != y.tag),
            "different seeds must vary the sharing pattern"
        );
    }
}
