//! Graph substrate for truss decomposition.
//!
//! This crate provides everything the truss-decomposition algorithms of
//! Wang & Cheng (VLDB 2012) need from a graph library:
//!
//! * a compact, immutable [`CsrGraph`] (compressed sparse row) representation
//!   of an undirected simple graph with sorted neighbor slices and stable
//!   undirected edge ids,
//! * a [`GraphBuilder`] that normalizes arbitrary edge input (deduplication,
//!   self-loop removal, vertex compaction),
//! * deterministic random-graph **generators** (Erdős–Rényi, Barabási–Albert,
//!   R-MAT, Watts–Strogatz, planted cliques, overlapping communities) and the
//!   synthetic analogues of the paper's nine evaluation datasets,
//! * text (SNAP-style) and binary **I/O formats**, plus text
//!   [`EdgeDelta`] files for batched edge insertions/removals,
//! * graph **metrics** used in the paper's evaluation (degree statistics and
//!   clustering coefficients).
//!
//! Vertices are dense `u32` ids (`VertexId`); undirected edges are canonical
//! `(min, max)` pairs with dense `u32` ids (`EdgeId`) assigned in
//! lexicographic order. All generators take explicit seeds and are fully
//! deterministic.

pub mod builder;
pub mod csr;
pub mod delta;
pub mod edge;
pub mod error;
pub mod generators;
pub mod hash;
pub mod io;
pub mod metrics;
pub mod permute;
pub mod section;
pub mod splice;
pub mod subgraph;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::EdgeDelta;
pub use edge::Edge;
pub use error::GraphError;
pub use section::SectionBuf;
pub use splice::{CsrBuffers, EdgeIdMap};
pub use types::{EdgeId, VertexId};
