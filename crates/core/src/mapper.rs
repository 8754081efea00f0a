//! The top-level mapping facade.
//!
//! [`Mapper`] ties the whole pipeline together and produces the three
//! program versions the evaluation compares (Section 5.1):
//!
//! * [`Version::Original`] — lexicographic block distribution;
//! * [`Version::IntraProcessor`] — state-of-the-art single-processor
//!   locality transformations, then block distribution;
//! * [`Version::InterProcessor`] — the paper's cache-hierarchy-aware
//!   distribution (Figure 5);
//! * [`Version::InterProcessorScheduled`] — the same plus the local
//!   scheduling enhancement (Figure 15).
//!
//! "The total set of loop iterations executed in parallel is the same in
//! all versions; the only difference is the set of iterations assigned
//! to each processor" — the mapper guarantees exactly that.

use crate::baseline;
use crate::cluster::{self, ClusterParams, RemapError};
use crate::codegen;
use crate::deps::{self, DepStrategy};
use crate::schedule::{self, ScheduleParams};
use crate::tags;
use cachemap_obs::Profile;
use cachemap_par::Pool;
use cachemap_polyhedral::{DataSpace, Program};
use cachemap_storage::{HierarchyTree, MappedProgram, PlatformConfig};

/// Which program version to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Lexicographic order, contiguous blocks (the paper's baseline).
    Original,
    /// Locality-transformed order (permutation/tiling search), contiguous
    /// blocks — cache-hierarchy agnostic.
    IntraProcessor,
    /// The paper's hierarchical clustering distribution.
    InterProcessor,
    /// Clustering plus the Figure 15 local scheduling enhancement.
    InterProcessorScheduled,
}

impl Version {
    /// All four versions, in the order the paper's figures present them.
    pub const ALL: [Version; 4] = [
        Version::Original,
        Version::IntraProcessor,
        Version::InterProcessor,
        Version::InterProcessorScheduled,
    ];

    /// Short label used in harness tables.
    pub fn label(&self) -> &'static str {
        match self {
            Version::Original => "original",
            Version::IntraProcessor => "intra-processor",
            Version::InterProcessor => "inter-processor",
            Version::InterProcessorScheduled => "inter-processor+sched",
        }
    }
}

/// Mapper tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapperConfig {
    /// Clustering / load-balance parameters (Figure 5).
    pub cluster: ClusterParams,
    /// Scheduling weights (Figure 15).
    pub schedule: ScheduleParams,
    /// How to handle cross-iteration dependences (Section 5.4).
    pub dep_strategy: DepStrategy,
    /// Map all nests of the program jointly (the §5.4 multi-nest
    /// extension) instead of nest-by-nest.
    pub joint_nests: bool,
    /// Optional boundary-refinement sweeps after clustering (0 = the
    /// paper's pipeline as-is; see [`crate::refine`]).
    pub refine_passes: usize,
}

impl Default for MapperConfig {
    fn default() -> Self {
        // The core scheme targets fully-parallel loops (Section 4); the
        // §5.4 dependence strategies are opt-in for loops that carry
        // dependences.
        MapperConfig {
            cluster: ClusterParams::default(),
            schedule: ScheduleParams::default(),
            dep_strategy: DepStrategy::Ignore,
            joint_nests: false,
            refine_passes: 0,
        }
    }
}

/// The compiler pass: maps a [`Program`] onto a platform.
#[derive(Debug, Clone)]
pub struct Mapper {
    cfg: MapperConfig,
}

impl Mapper {
    /// Creates a mapper with the given configuration.
    pub fn new(cfg: MapperConfig) -> Self {
        Mapper { cfg }
    }

    /// Creates a mapper with the paper's default parameters
    /// (10% balance threshold, α = β = 0.5, sync-insert dependences).
    pub fn paper_defaults() -> Self {
        Self::new(MapperConfig::default())
    }

    /// Accepts a worker pool and leaves it unused: the clustering kernel
    /// runs on the calling thread (see [`cluster::distribute_pooled`]
    /// for why). The mapper is the same with or without this call.
    pub fn with_pool(self, _pool: Pool) -> Self {
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.cfg
    }

    /// Maps `program` for `version` on the platform described by
    /// `platform` (whose hierarchy tree is `tree`), producing the op
    /// streams to simulate. The data space must be built from the
    /// program's arrays with the platform's chunk size.
    pub fn map(
        &self,
        program: &Program,
        data: &DataSpace,
        platform: &PlatformConfig,
        tree: &HierarchyTree,
        version: Version,
    ) -> MappedProgram {
        self.map_profiled(
            program,
            data,
            platform,
            tree,
            version,
            &mut Profile::disabled(),
        )
    }

    /// [`Mapper::map`] with phase accounting: the pipeline stages record
    /// wall-clock spans (`tagging`, `dependences`, `cluster` with one
    /// child per hierarchy level, `refine`, `schedule`/`order`, `lower`)
    /// and deterministic counters (chunk, edge, merge, balance-move
    /// totals) into `prof`. With a disabled profile this is exactly
    /// [`Mapper::map`]; the baselines record only the outer `map` span
    /// since they bypass the pipeline.
    pub fn map_profiled(
        &self,
        program: &Program,
        data: &DataSpace,
        platform: &PlatformConfig,
        tree: &HierarchyTree,
        version: Version,
        prof: &mut Profile,
    ) -> MappedProgram {
        prof.scope("map", |prof| {
            let k = platform.num_clients;
            match version {
                Version::Original => baseline::original(program, data, k),
                Version::IntraProcessor => {
                    baseline::intra_processor(program, data, k, platform.client_cache_chunks)
                }
                Version::InterProcessor | Version::InterProcessorScheduled => {
                    let sched = version == Version::InterProcessorScheduled;
                    match self.map_inter(program, data, tree, sched, &[], prof) {
                        Ok(mp) => mp,
                        Err(_) => {
                            // Invariant: with no failed clients the remap step
                            // is skipped, so map_inter cannot fail.
                            debug_assert!(false, "mapping without failures cannot fail");
                            MappedProgram::new(tree.num_clients())
                        }
                    }
                }
            }
        })
    }

    /// Failure-aware mapping: like [`Mapper::map`], but the iteration
    /// ranges of `failed_clients` are redistributed over the survivors.
    ///
    /// For the inter-processor versions the failed clients' chunks are
    /// re-clustered against the *pruned* hierarchy tree (Figure 5 on the
    /// degraded platform, honoring `BThres`); for the baselines — which
    /// are hierarchy-agnostic by construction — the orphaned op streams
    /// are reassigned round-robin over the survivors.
    ///
    /// # Errors
    /// See [`RemapError`]; an empty `failed_clients` never fails.
    pub fn map_with_failures(
        &self,
        program: &Program,
        data: &DataSpace,
        platform: &PlatformConfig,
        tree: &HierarchyTree,
        version: Version,
        failed_clients: &[usize],
    ) -> Result<MappedProgram, RemapError> {
        self.map_with_failures_profiled(
            program,
            data,
            platform,
            tree,
            version,
            failed_clients,
            &mut Profile::disabled(),
        )
    }

    /// [`Mapper::map_with_failures`] with phase accounting (see
    /// [`Mapper::map_profiled`]); the failure-aware re-clustering shows
    /// up as a `remap` span inside the pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn map_with_failures_profiled(
        &self,
        program: &Program,
        data: &DataSpace,
        platform: &PlatformConfig,
        tree: &HierarchyTree,
        version: Version,
        failed_clients: &[usize],
        prof: &mut Profile,
    ) -> Result<MappedProgram, RemapError> {
        if failed_clients.is_empty() {
            return Ok(self.map_profiled(program, data, platform, tree, version, prof));
        }
        prof.scope("map", |prof| match version {
            Version::Original | Version::IntraProcessor => {
                let mp = self.map(program, data, platform, tree, version);
                reassign_round_robin(mp, failed_clients)
            }
            Version::InterProcessor => {
                self.map_inter(program, data, tree, false, failed_clients, prof)
            }
            Version::InterProcessorScheduled => {
                self.map_inter(program, data, tree, true, failed_clients, prof)
            }
        })
    }

    /// The inter-processor pipeline: tag → cluster → (remap) →
    /// (schedule) → (dependences) → lower.
    fn map_inter(
        &self,
        program: &Program,
        data: &DataSpace,
        tree: &HierarchyTree,
        with_schedule: bool,
        failed_clients: &[usize],
        prof: &mut Profile,
    ) -> Result<MappedProgram, RemapError> {
        let nest_groups: Vec<Vec<usize>> = if self.cfg.joint_nests {
            vec![(0..program.nests.len()).collect()]
        } else {
            (0..program.nests.len()).map(|i| vec![i]).collect()
        };
        prof.count("nest_groups", nest_groups.len() as u64);

        let mut mp = MappedProgram::new(tree.num_clients());
        for group in nest_groups {
            let part = self.map_nest_group(
                program,
                data,
                tree,
                &group,
                with_schedule,
                failed_clients,
                prof,
            )?;
            codegen::append_program(&mut mp, part);
        }
        Ok(mp)
    }

    #[allow(clippy::too_many_arguments)]
    fn map_nest_group(
        &self,
        program: &Program,
        data: &DataSpace,
        tree: &HierarchyTree,
        nest_indices: &[usize],
        with_schedule: bool,
        failed_clients: &[usize],
        prof: &mut Profile,
    ) -> Result<MappedProgram, RemapError> {
        // 1. Tagging (multi-nest groups share the data space).
        let (mut chunks, _ranges) = prof.scope("tagging", |prof| {
            let tagged = tags::tag_nests(program, nest_indices, data);
            prof.count("nests", nest_indices.len() as u64);
            prof.count("chunks", tagged.0.len() as u64);
            tagged
        });

        // 2. Dependence discovery at chunk level (per nest; cross-nest
        //    dependences are sequenced by the per-client program order).
        let mut edges = Vec::new();
        if self.cfg.dep_strategy != DepStrategy::Ignore {
            prof.scope("dependences", |prof| {
                let mut offset = 0usize;
                for &ni in nest_indices {
                    let tagged = tags::tag_nest(program, ni, data);
                    let nest_edges = deps::chunk_dependence_edges(program, ni, data, &tagged);
                    edges.extend(
                        nest_edges
                            .into_iter()
                            .map(|(a, b)| (a + offset, b + offset)),
                    );
                    offset += tagged.chunks.len();
                }
                prof.count("edges", edges.len() as u64);
            });
        }

        // 3. Strategy 1 (co-clustering) rewrites the chunk list so the
        //    dependent components are atomic; no synchronization needed.
        if self.cfg.dep_strategy == DepStrategy::CoCluster && !edges.is_empty() {
            chunks = deps::co_cluster(&chunks, &edges);
            edges.clear();
        }

        // 4. Hierarchical distribution (Figure 5).
        let mut dist = prof.scope("cluster", |prof| {
            cluster::distribute_profiled(&chunks, tree, &self.cfg.cluster, prof)
        });

        // 4b. Optional boundary refinement (extension; off by default).
        if self.cfg.refine_passes > 0 {
            prof.scope("refine", |_| {
                crate::refine::refine(&mut dist, &chunks, tree, self.cfg.refine_passes);
            });
        }

        // 4c. Failure-aware remap: re-cluster the failed clients' work
        //     over the pruned hierarchy before scheduling/lowering.
        if !failed_clients.is_empty() {
            dist = prof.scope("remap", |prof| {
                prof.count("failed_clients", failed_clients.len() as u64);
                cluster::remap_failed(
                    &dist,
                    &chunks,
                    tree,
                    failed_clients,
                    &self.cfg.cluster,
                    prof,
                )
            })?;
        }

        // 5. Chunk execution order. The paper's base inter-processor
        //    scheme executed each client's chunks "randomly" (§5.4); we
        //    use deterministic program order (lexicographically first
        //    iteration) instead, which also preserves disk streaming.
        //    The Figure 15 scheduling enhancement replaces that order
        //    with the reuse-driven one.
        if with_schedule {
            dist = prof.scope("schedule", |_| {
                schedule::schedule(&dist, &chunks, tree, &self.cfg.schedule)
            });
        } else {
            prof.scope("order", |_| {
                for items in &mut dist.per_client {
                    items.sort_by_key(|it| {
                        chunks[it.chunk]
                            .points
                            .get(it.start)
                            .cloned()
                            .unwrap_or_default()
                    });
                }
            });
        }

        // 6. Respect dependences inside each client's order, then lower
        //    with synchronization for the cross-client edges.
        prof.scope("lower", |_| {
            if edges.is_empty() {
                Ok(codegen::lower_distribution(&dist, &chunks, program, data))
            } else {
                // Drop the (rare) cyclic artifacts of the conservative
                // chunk-granularity graph, impose one global topological
                // order on every client, then synchronize the remaining
                // forward edges — provably deadlock-free.
                let edges = deps::acyclic_edges(&edges);
                deps::enforce_intra_client_order(&mut dist, &edges);
                Ok(deps::lower_with_sync(&dist, &chunks, program, data, &edges))
            }
        })
    }
}

/// Reassigns the op streams of failed clients round-robin over the
/// survivors (the hierarchy-agnostic fallback used for the baseline
/// versions).
fn reassign_round_robin(
    mut mp: MappedProgram,
    failed: &[usize],
) -> Result<MappedProgram, RemapError> {
    use cachemap_storage::topology::PruneError;
    let n = mp.num_clients();
    let mut is_failed = vec![false; n];
    for &c in failed {
        if c >= n {
            return Err(RemapError::Prune(PruneError::UnknownClient {
                client: c,
                num_clients: n,
            }));
        }
        is_failed[c] = true;
    }
    let survivors: Vec<usize> = (0..n).filter(|&c| !is_failed[c]).collect();
    if survivors.is_empty() {
        return Err(RemapError::Prune(PruneError::NoSurvivors));
    }
    let mut rr = 0usize;
    for (c, &dead) in is_failed.iter().enumerate() {
        if dead {
            let ops = std::mem::take(&mut mp.per_client[c]);
            mp.per_client[survivors[rr % survivors.len()]].extend(ops);
            rr += 1;
        }
    }
    Ok(mp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemap_storage::Simulator;

    fn setup() -> (Program, DataSpace, PlatformConfig, HierarchyTree) {
        let (program, data) = crate::tags::tests::figure6_program(4);
        let cfg = PlatformConfig::tiny();
        let tree = HierarchyTree::from_config(&cfg).unwrap();
        (program, data, cfg, tree)
    }

    #[test]
    fn all_versions_execute_the_same_iterations() {
        let (program, data, cfg, tree) = setup();
        let mapper = Mapper::paper_defaults();
        let counts: Vec<u64> = Version::ALL
            .iter()
            .map(|&v| mapper.map(&program, &data, &cfg, &tree, v).total_accesses())
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "all versions must issue the same accesses: {counts:?}"
        );
    }

    #[test]
    fn versions_simulate_end_to_end() {
        let (program, data, cfg, tree) = setup();
        let mapper = Mapper::paper_defaults();
        let sim = Simulator::new(cfg.clone()).unwrap();
        for v in Version::ALL {
            let mp = mapper.map(&program, &data, &cfg, &tree, v);
            let rep = sim.run(&mp).unwrap();
            assert!(rep.l1.accesses() > 0, "{v:?} produced no accesses");
            assert!(rep.exec_time_ns > 0);
        }
    }

    #[test]
    fn failure_mapping_preserves_total_work_in_every_version() {
        let (program, data, cfg, tree) = setup();
        let mapper = Mapper::paper_defaults();
        for v in Version::ALL {
            let healthy = mapper.map(&program, &data, &cfg, &tree, v);
            let degraded = mapper
                .map_with_failures(&program, &data, &cfg, &tree, v, &[0])
                .unwrap();
            assert_eq!(
                degraded.total_accesses(),
                healthy.total_accesses(),
                "{v:?}: failures must not change the executed iterations"
            );
            assert!(
                degraded.per_client[0]
                    .iter()
                    .all(|op| !matches!(op, cachemap_storage::ClientOp::Access { .. })),
                "{v:?}: failed client 0 must issue no accesses"
            );
        }
    }

    #[test]
    fn failure_mapping_with_no_failures_matches_map() {
        let (program, data, cfg, tree) = setup();
        let mapper = Mapper::paper_defaults();
        for v in Version::ALL {
            let a = mapper.map(&program, &data, &cfg, &tree, v);
            let b = mapper
                .map_with_failures(&program, &data, &cfg, &tree, v, &[])
                .unwrap();
            assert_eq!(a, b, "{v:?}");
        }
    }

    #[test]
    fn failure_mapping_rejects_bad_client_sets() {
        let (program, data, cfg, tree) = setup();
        let mapper = Mapper::paper_defaults();
        for v in [Version::Original, Version::InterProcessor] {
            assert!(mapper
                .map_with_failures(&program, &data, &cfg, &tree, v, &[7])
                .is_err());
            assert!(mapper
                .map_with_failures(&program, &data, &cfg, &tree, v, &[0, 1, 2, 3])
                .is_err());
        }
    }

    #[test]
    fn degraded_inter_mapping_simulates_end_to_end() {
        let (program, data, cfg, tree) = setup();
        let mapper = Mapper::paper_defaults();
        let sim = Simulator::new(cfg.clone()).unwrap();
        let mp = mapper
            .map_with_failures(
                &program,
                &data,
                &cfg,
                &tree,
                Version::InterProcessor,
                &[0, 1],
            )
            .unwrap();
        let rep = sim.run(&mp).unwrap();
        assert!(rep.l1.accesses() > 0);
        assert_eq!(rep.per_client_finish_ns[0], 0, "failed client idles");
        assert_eq!(rep.per_client_finish_ns[1], 0, "failed client idles");
    }

    #[test]
    fn joint_nests_covers_everything_once() {
        let (mut program, data, cfg, tree) = setup();
        let second = program.nests[0].clone();
        program.nests.push(second);
        let mapper = Mapper::new(MapperConfig {
            joint_nests: true,
            ..MapperConfig::default()
        });
        let joint = mapper.map(&program, &data, &cfg, &tree, Version::InterProcessor);
        let mapper2 = Mapper::paper_defaults();
        let separate = mapper2.map(&program, &data, &cfg, &tree, Version::InterProcessor);
        assert_eq!(joint.total_accesses(), separate.total_accesses());
    }

    #[test]
    fn profiled_map_matches_unprofiled_and_records_pipeline_phases() {
        let (program, data, cfg, tree) = setup();
        let mapper = Mapper::paper_defaults();
        let v = Version::InterProcessorScheduled;
        let mut prof = Profile::enabled();
        let profiled = mapper.map_profiled(&program, &data, &cfg, &tree, v, &mut prof);
        assert_eq!(profiled, mapper.map(&program, &data, &cfg, &tree, v));

        let map = prof.root_named("map").expect("map span recorded");
        let names: Vec<&str> = map
            .children
            .iter()
            .map(|&i| prof.node(i).name.as_str())
            .collect();
        assert_eq!(names, ["tagging", "cluster", "schedule", "lower"]);
        let cluster = map
            .children
            .iter()
            .map(|&i| prof.node(i))
            .find(|n| n.name == "cluster")
            .unwrap();
        // tiny platform: storage root → I/O level → clients.
        let storage = cluster
            .children
            .iter()
            .map(|&i| prof.node(i))
            .find(|n| n.name == "level:storage")
            .expect("per-level span");
        assert!(storage.count("items").is_some_and(|v| v > 0));
        assert!(storage
            .children
            .iter()
            .any(|&i| prof.node(i).name == "level:io"));
    }

    #[test]
    fn profiled_failure_mapping_records_remap_span() {
        let (program, data, cfg, tree) = setup();
        let mapper = Mapper::paper_defaults();
        let mut prof = Profile::enabled();
        let mp = mapper
            .map_with_failures_profiled(
                &program,
                &data,
                &cfg,
                &tree,
                Version::InterProcessor,
                &[0],
                &mut prof,
            )
            .unwrap();
        assert_eq!(
            mp,
            mapper
                .map_with_failures(&program, &data, &cfg, &tree, Version::InterProcessor, &[0])
                .unwrap(),
            "profiling must not change the mapping"
        );
        let map = prof.root_named("map").expect("map span recorded");
        let remap = map
            .children
            .iter()
            .map(|&i| prof.node(i))
            .find(|n| n.name == "remap")
            .expect("remap span");
        assert_eq!(remap.count("failed_clients"), Some(1));
    }

    #[test]
    fn version_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            Version::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
