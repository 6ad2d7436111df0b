//! # fila-graph
//!
//! Directed acyclic **multigraph** substrate used throughout the `fila`
//! workspace.  A streaming application in the model of Buhler, Agrawal, Li
//! and Chamberlain (PPoPP 2012) is a DAG of compute nodes connected by
//! unidirectional FIFO channels, each with a finite buffer capacity.  This
//! crate provides that representation plus the graph algorithms the
//! deadlock-avoidance analysis is built on:
//!
//! * node / edge arenas with stable integer ids ([`NodeId`], [`EdgeId`]),
//! * per-edge buffer capacities (the edge "length" used by the paper),
//! * topological ordering, reachability, and transitive predecessor /
//!   successor queries ([`topo`]),
//! * DAG shortest paths by buffer weight and longest paths by hop count
//!   ([`paths`]),
//! * undirected connectivity and the biconnected blocks of an edge list
//!   ([`undirected`]) — used by the CS4 decomposition of §V,
//! * undirected simple-cycle enumeration with source/sink classification
//!   ([`cycles`]) — the exponential baseline of §II.B,
//! * canonical structural fingerprints for shape-level caching
//!   ([`fingerprint`]) — the key of the service layer's verdict cache.
//!
//! The crate is deliberately free of any deadlock-avoidance logic; it is the
//! substrate that `fila-spdag`, `fila-avoidance` and `fila-runtime` share.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod cycles;
pub mod error;
pub mod fingerprint;
pub mod ids;
pub mod multigraph;
pub mod paths;
pub mod topo;
pub mod undirected;

pub use builder::GraphBuilder;
pub use error::{GraphError, Result};
pub use fingerprint::Fingerprint;
pub use ids::{EdgeId, NodeId};
pub use multigraph::{Edge, Graph, Node};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::error::{GraphError, Result};
    pub use crate::ids::{EdgeId, NodeId};
    pub use crate::multigraph::{Edge, Graph, Node};
}
