//! CS4 recognition and decomposition (§V of the paper).
//!
//! A single-source, single-sink DAG is **CS4** if every undirected simple
//! cycle has exactly one source and one sink.  Theorem V.7 characterises the
//! CS4 graphs exactly as the serial compositions of SP-DAGs and SP-ladders,
//! and that is precisely how this module recognises them:
//!
//! 1. run the tracked series/parallel reduction (`fila-spdag`), which
//!    contracts every SP portion of the graph;
//! 2. split the surviving *skeleton* into biconnected components;
//! 3. a bridge component is a contracted SP segment; a larger component must
//!    decompose as an SP-ladder ([`crate::ladder`]).
//!
//! Graphs that fail step 3 are [`Structure::General`]; for them only the
//! exponential baseline of [`crate::exhaustive`] applies.  The decomposition
//! *is* the classification: an SP-DAG is the serial composition with no
//! ladder (one skeleton edge from source to sink), so [`Structure::of`] is
//! the only pass an admission makes over the graph's shape and
//! [`GraphClass`] is a view of its result.  The brute-force cycle-level
//! definition is also provided ([`is_cs4_by_cycle_enumeration`]) so tests
//! can cross-check the structural recogniser.

use fila_graph::undirected::biconnected_blocks;
use fila_graph::{cycles, Graph, GraphError, NodeId, Result};
use fila_spdag::{reduce, CompId, SpForest, SpMetrics, VirtualEdge};

use crate::ladder::{decompose_ladder, LadderDecomposition};

/// The topology class of a streaming application graph, in increasing order
/// of generality (and of deadlock-avoidance compilation cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphClass {
    /// A two-terminal series-parallel DAG (§III).
    SeriesParallel,
    /// A CS4 DAG that is not series-parallel: a serial composition of
    /// SP-DAGs and at least one SP-ladder (§V).
    Cs4,
    /// Anything else; only the exponential general-DAG algorithms apply.
    General,
}

/// One serial segment of a CS4 decomposition.
#[derive(Debug, Clone)]
pub enum Cs4Segment {
    /// A contracted series-parallel segment (a bridge of the skeleton).
    Sp {
        /// The component tree of the segment.
        comp: CompId,
        /// The segment's source terminal.
        source: NodeId,
        /// The segment's sink terminal.
        sink: NodeId,
    },
    /// An SP-ladder block.
    Ladder(LadderDecomposition),
}

/// The result of decomposing a CS4 graph.
#[derive(Debug, Clone)]
pub struct Cs4Decomposition {
    /// The component forest shared by all contracted segments.
    pub forest: SpForest,
    /// `L(H)` and `h(H)` of every component of `forest`.
    pub metrics: SpMetrics,
    /// The skeleton (surviving virtual edges) of the reduction.
    pub skeleton: Vec<VirtualEdge>,
    /// The serial segments, ordered by the topological position of their
    /// source node.
    pub segments: Vec<Cs4Segment>,
    /// The graph's unique source.
    pub source: NodeId,
    /// The graph's unique sink.
    pub sink: NodeId,
}

impl Cs4Decomposition {
    /// Number of SP-ladder blocks in the decomposition.
    pub fn ladder_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Cs4Segment::Ladder(_)))
            .count()
    }
}

/// What the planner knows about a topology's shape: everything the
/// structural interval algorithms start from, or the fact that none applies.
#[derive(Debug, Clone)]
pub enum Structure {
    /// A CS4 graph (Theorem V.7), plain SP-DAGs included.
    Decomposed(Cs4Decomposition),
    /// Anything else; only the exponential general-DAG algorithms apply.
    General,
}

impl Structure {
    /// Decomposes `g` — the one pass over its shape a plan, a certification
    /// walk or a classification needs.
    ///
    /// Invalid graphs (empty, cyclic, disconnected) produce an error; graphs
    /// that are valid but have multiple sources or sinks, or whose structure
    /// exceeds what the CS4 decomposition supports, are
    /// [`Structure::General`].
    pub fn of(g: &Graph) -> Result<Structure> {
        g.validate()?;
        if g.validate_two_terminal().is_err() {
            return Ok(Structure::General);
        }
        match decompose_cs4(g) {
            Ok(d) => Ok(Structure::Decomposed(d)),
            Err(GraphError::Structure(_)) => Ok(Structure::General),
            Err(other) => Err(other),
        }
    }

    /// The topology family this structure belongs to.
    pub fn class(&self) -> GraphClass {
        match self {
            Structure::Decomposed(d) if d.ladder_count() == 0 => GraphClass::SeriesParallel,
            Structure::Decomposed(_) => GraphClass::Cs4,
            Structure::General => GraphClass::General,
        }
    }
}

/// Decomposes a two-terminal DAG into its CS4 structure.
///
/// # Errors
///
/// Fails if the graph is not a valid two-terminal DAG, or if it is not a
/// (supported) CS4 graph — see the module documentation for the structural
/// restriction on chord graphs.
pub fn decompose_cs4(g: &Graph) -> Result<Cs4Decomposition> {
    let reduction = reduce(g)?;
    let order = fila_graph::topo::topological_order(g)?;
    let topo_pos = fila_graph::topo::topo_positions(g, &order);

    let source = reduction.source;
    let sink = reduction.sink;
    let forest = reduction.forest;
    let skeleton = reduction.skeleton;

    // Split the skeleton at its articulation points; block edge `i` is
    // `skeleton[i]`.
    let ends: Vec<(NodeId, NodeId)> = skeleton.iter().map(|ve| (ve.src, ve.dst)).collect();
    let mut segments = Vec::new();
    for block in biconnected_blocks(g.node_count(), &ends) {
        if let [i] = block[..] {
            let ve = skeleton[i];
            segments.push(Cs4Segment::Sp {
                comp: ve.comp,
                source: ve.src,
                sink: ve.dst,
            });
        } else {
            let block_edges: Vec<VirtualEdge> = block.iter().map(|&i| skeleton[i]).collect();
            let ladder = decompose_ladder(&topo_pos, &block_edges)?;
            segments.push(Cs4Segment::Ladder(ladder));
        }
    }
    segments.sort_by_key(|s| match s {
        Cs4Segment::Sp { source, .. } => topo_pos[source.index()],
        Cs4Segment::Ladder(l) => topo_pos[l.source.index()],
    });

    Ok(Cs4Decomposition {
        metrics: SpMetrics::compute(g, &forest),
        forest,
        skeleton,
        segments,
        source,
        sink,
    })
}

/// Classifies a streaming-application graph by topology family: the
/// [`GraphClass`] view of [`Structure::of`].
pub fn classify(g: &Graph) -> Result<GraphClass> {
    Ok(Structure::of(g)?.class())
}

/// The brute-force CS4 definition: single source, single sink, and every
/// undirected simple cycle has exactly one source and one sink.  Exponential
/// in the worst case; used to validate [`classify`] on test-sized graphs.
pub fn is_cs4_by_cycle_enumeration(g: &Graph) -> bool {
    g.validate_two_terminal().is_ok() && cycles::all_cycles_single_source_sink(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;
    use fila_spdag::{build_sp, SpSpec};

    fn crosslinked() -> Graph {
        let mut b = GraphBuilder::new();
        for (s, t) in [("x", "a"), ("x", "b"), ("a", "y"), ("b", "y"), ("a", "b")] {
            b.edge(s, t).unwrap();
        }
        b.build().unwrap()
    }

    fn butterfly() -> Graph {
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("x", "a"),
            ("x", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
            ("c", "y"),
            ("d", "y"),
        ] {
            b.edge(s, t).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn sp_dags_classify_as_series_parallel() {
        let (g, _) = build_sp(&SpSpec::Series(vec![
            SpSpec::Parallel(vec![SpSpec::Edge(1), SpSpec::pipeline(&[2, 3])]),
            SpSpec::Edge(4),
        ]));
        assert_eq!(classify(&g).unwrap(), GraphClass::SeriesParallel);
        assert!(is_cs4_by_cycle_enumeration(&g));
    }

    #[test]
    fn fig4_left_classifies_as_cs4() {
        let g = crosslinked();
        assert_eq!(classify(&g).unwrap(), GraphClass::Cs4);
        assert!(is_cs4_by_cycle_enumeration(&g));
        let d = decompose_cs4(&g).unwrap();
        assert_eq!(d.ladder_count(), 1);
        assert_eq!(d.segments.len(), 1);
    }

    #[test]
    fn fig4_butterfly_classifies_as_general() {
        let g = butterfly();
        assert_eq!(classify(&g).unwrap(), GraphClass::General);
        assert!(!is_cs4_by_cycle_enumeration(&g));
        assert!(decompose_cs4(&g).is_err());
    }

    #[test]
    fn serial_chain_of_sp_and_ladder_segments() {
        // pipeline -> diamond -> ladder -> pipeline, joined at articulation
        // points: a CS4 graph with both kinds of segment.
        let mut b = GraphBuilder::new();
        b.chain(&["s", "p1", "x"]).unwrap();
        // diamond between x and m
        b.edge("x", "d1").unwrap();
        b.edge("x", "d2").unwrap();
        b.edge("d1", "m").unwrap();
        b.edge("d2", "m").unwrap();
        // ladder between m and t
        b.chain(&["m", "u1", "t"]).unwrap();
        b.chain(&["m", "v1", "t"]).unwrap();
        b.edge("u1", "v1").unwrap();
        // tail pipeline
        b.chain(&["t", "q1", "end"]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(classify(&g).unwrap(), GraphClass::Cs4);
        assert!(is_cs4_by_cycle_enumeration(&g));
        let d = decompose_cs4(&g).unwrap();
        assert_eq!(d.ladder_count(), 1);
        // Segments: the head pipeline and the contracted diamond merge into
        // a single SP segment s->m during reduction, then the ladder m->t,
        // then the tail pipeline t->end.
        assert_eq!(d.segments.len(), 3);
        // Segments are ordered source-to-sink.
        let seg_sources: Vec<NodeId> = d
            .segments
            .iter()
            .map(|s| match s {
                Cs4Segment::Sp { source, .. } => *source,
                Cs4Segment::Ladder(l) => l.source,
            })
            .collect();
        assert_eq!(seg_sources[0], g.node_by_name("s").unwrap());
        assert_eq!(
            seg_sources.last().copied().unwrap(),
            g.node_by_name("t").unwrap()
        );
    }

    #[test]
    fn multi_source_graphs_are_general() {
        let mut b = GraphBuilder::new();
        b.edge("a", "c").unwrap();
        b.edge("b", "c").unwrap();
        let g = b.build().unwrap();
        assert_eq!(classify(&g).unwrap(), GraphClass::General);
        assert!(!is_cs4_by_cycle_enumeration(&g));
    }

    #[test]
    fn invalid_graphs_error() {
        let g = Graph::new();
        assert!(classify(&g).is_err());
    }

    #[test]
    fn classification_agrees_with_cycle_enumeration_on_small_graphs() {
        // A small zoo of graphs; the structural classifier must agree with
        // the brute-force definition about CS4 membership (it may be more
        // conservative only on shapes documented as unsupported, none of
        // which appear here).
        let graphs: Vec<Graph> = vec![
            crosslinked(),
            butterfly(),
            {
                let (g, _) = build_sp(&SpSpec::Parallel(vec![
                    SpSpec::pipeline(&[1, 2]),
                    SpSpec::Edge(3),
                ]));
                g
            },
            {
                // two ladders in series
                let mut b = GraphBuilder::new();
                b.chain(&["x", "u1", "m"]).unwrap();
                b.chain(&["x", "v1", "m"]).unwrap();
                b.edge("u1", "v1").unwrap();
                b.chain(&["m", "p1", "y"]).unwrap();
                b.chain(&["m", "q1", "y"]).unwrap();
                b.edge("q1", "p1").unwrap();
                b.build().unwrap()
            },
        ];
        for g in &graphs {
            let structural = matches!(
                classify(g).unwrap(),
                GraphClass::SeriesParallel | GraphClass::Cs4
            );
            assert_eq!(structural, is_cs4_by_cycle_enumeration(g));
        }
    }
}
