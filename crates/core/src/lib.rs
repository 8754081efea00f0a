//! Storage-cache-hierarchy-aware iteration-to-processor mapping.
//!
//! This crate implements the primary contribution of *"Computation
//! Mapping for Multi-Level Storage Cache Hierarchies"* (Kandemir et al.,
//! HPDC 2010): a compiler-directed scheme that distributes the parallel
//! iterations of I/O-intensive loop nests across client nodes so that the
//! multi-level storage cache hierarchy is used constructively rather than
//! destructively.
//!
//! The pipeline, mirroring Section 4 of the paper:
//!
//! 1. [`tags`] — assign every iteration its r-bit data-chunk access tag
//!    and group equal-tag iterations into **iteration chunks** (§4.2);
//! 2. [`graph`] — build the similarity graph whose edge weights are the
//!    common 1-bits between chunk tags (§4.3, *Initialization*);
//! 3. [`cluster`] — hierarchically cluster iteration chunks down the
//!    storage cache hierarchy tree, greedily merging by tag dot-product
//!    and load-balancing within the balance threshold (§4.3, Figure 5);
//! 4. [`schedule`] — optionally reorder each client's chunks to maximize
//!    vertical (own L1) and horizontal (shared I/O cache) reuse
//!    (§5.4, Figure 15);
//! 5. [`codegen`] — lower per-client chunk schedules to the simulator's
//!    operation streams (the stand-in for Omega `codegen` + MPI-IO
//!    calls);
//! 6. [`deps`] — the two §5.4 strategies for loops with cross-iteration
//!    dependences (forced co-clustering, or dependences-as-sharing with
//!    inserted synchronization);
//! 7. [`baseline`] — the two comparison versions of §5.1: the *original*
//!    lexicographic block mapping and the *intra-processor*
//!    state-of-the-art locality scheme (permutation + tiling chosen by
//!    search, cache-hierarchy agnostic);
//! 8. [`mapper`] — the top-level [`mapper::Mapper`] facade tying it all
//!    together, including multi-nest mapping (§5.4);
//! 9. [`refine`] / [`analysis`] — extensions beyond the paper: optional
//!    KL-style boundary refinement of the distribution, and static
//!    quality metrics (replication, affinity capture) for diagnostics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod baseline;
pub mod cluster;
pub mod codegen;
pub mod deps;
pub mod graph;
pub mod mapper;
pub mod refine;
pub mod schedule;
pub mod tags;
pub mod wire;

pub use cluster::{Distribution, WorkItem};
pub use mapper::{Mapper, MapperConfig, Version};
pub use tags::{IterationChunk, TaggedNest};
pub use wire::fingerprint;
