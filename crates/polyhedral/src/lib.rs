//! Polyhedral loop-nest substrate for `cachemap`.
//!
//! The HPDC'10 paper represents loops, disk-resident arrays, and array
//! references in a polyhedral model (Section 4.1) and manipulates them
//! with the Omega Library. Neither a Rust Omega binding nor a polyhedral
//! compiler ecosystem exists, so this crate is the substitute substrate:
//!
//! * [`affine`] — affine expressions over loop iterators (`Q·i + q̄` rows);
//! * [`space`] — iteration spaces `G = {(i1,…,in) | L_k ≤ i_k ≤ U_k}` with
//!   (possibly non-rectangular) affine bounds and lexicographic point
//!   enumeration — the `codegen(.)` equivalent;
//! * [`mod@array`] — disk-resident array declarations and row-major
//!   linearization;
//! * [`access`] — array references `R(i) = Q·i + q̄` with read/write kind;
//! * [`nest`] — loop nests and whole programs (multiple nests over a
//!   shared set of arrays);
//! * [`chunking`] — the data space of Figure 4: every array partitioned
//!   into equal-sized chunks, numbered globally across arrays;
//! * [`deps`] — data-dependence analysis (GCD and Banerjee tests, exact
//!   small-scale enumeration, distance/direction vectors);
//! * [`transform`] — loop permutation and tiling traversals, the substrate
//!   for the paper's "intra-processor" state-of-the-art locality baseline.
//!
//! Everything is deterministic and pure; the crate has no notion of
//! processors or caches — that lives in `cachemap-storage` and
//! `cachemap-core`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod affine;
pub mod array;
pub mod chunking;
pub mod deps;
pub mod nest;
pub mod space;
pub mod transform;
pub mod wire;

pub use access::{AccessKind, ArrayRef};
pub use affine::AffineExpr;
pub use array::{ArrayDecl, ArrayId};
pub use chunking::{ChunkId, DataSpace};
pub use nest::{LoopNest, Program};
pub use space::{IterationSpace, Loop, Point};
pub use wire::WireError;
