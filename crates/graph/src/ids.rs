//! Stable, copyable identifiers for nodes and edges.
//!
//! Both identifiers are thin newtypes over `u32`; graphs in this workspace
//! are laptop-scale (at most a few hundred thousand edges in the benchmark
//! sweeps), so 32-bit indices keep hot structures compact (see the type-size
//! guidance of the Rust performance book).

use std::fmt;

/// Identifier of a compute node in a [`Graph`](crate::Graph).
///
/// Node ids are dense indices assigned in insertion order; they are valid
/// only for the graph that created them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Identifier of a directed channel (edge) in a [`Graph`](crate::Graph).
///
/// Because the graph is a *multigraph*, several edges may connect the same
/// ordered pair of nodes; each has its own id and its own buffer capacity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Intended for tests and for deserialisation of externally produced
    /// plans; normal construction goes through [`GraphBuilder`](crate::GraphBuilder).
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        EdgeId(raw)
    }

    /// Returns the raw dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::from_raw(7);
        assert_eq!(n.index(), 7);
        assert_eq!(format!("{n}"), "n7");
        assert_eq!(format!("{n:?}"), "n7");
    }

    #[test]
    fn edge_id_roundtrip() {
        let e = EdgeId::from_raw(42);
        assert_eq!(e.index(), 42);
        assert_eq!(format!("{e}"), "e42");
        assert_eq!(format!("{e:?}"), "e42");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId::from_raw(1) < NodeId::from_raw(2));
        assert!(EdgeId::from_raw(0) < EdgeId::from_raw(10));
    }

    #[test]
    fn ids_are_small() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<EdgeId>(), 4);
        assert_eq!(std::mem::size_of::<Option<NodeId>>(), 8);
    }
}
