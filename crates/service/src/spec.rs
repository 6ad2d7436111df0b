//! Job specifications: what a client submits to the service.

use fila_avoidance::Algorithm;
use fila_graph::fingerprint::fingerprint_with;
use fila_graph::{Fingerprint, Graph};
use fila_runtime::{Periodic, Topology};

/// The filtering behaviour of a submitted job, expressed in the canonical
/// periodic convention shared with the benchmarks and equivalence tests:
/// output `j` of a node with period `p` carries sequence number `s` iff
/// `(s + j) % p == 0` (period 1 = broadcast, no filtering).
///
/// A declarative spec — rather than arbitrary behaviour closures — is what
/// makes jobs *fingerprintable*: two submissions with the same graph shape
/// and the same filter spec are the same workload, which the service's plan
/// cache and stats exploit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterSpec {
    /// Every node broadcasts (no filtering anywhere).
    Broadcast,
    /// Only the unique source node filters, with this period; everything
    /// downstream broadcasts.  This is the fork-filtering scenario of the
    /// paper's Figs. 1–3.
    Fork(u64),
    /// An explicit period per node, aligned with node ids (periods are
    /// clamped to ≥ 1).
    PerNode(Vec<u64>),
}

impl FilterSpec {
    /// Checks the spec against a graph; returns a human-readable reason if
    /// they do not fit together.
    pub fn check(&self, graph: &Graph) -> Result<(), String> {
        match self {
            FilterSpec::Broadcast => Ok(()),
            FilterSpec::Fork(_) => graph
                .single_source()
                .map(|_| ())
                .map_err(|e| format!("fork filtering needs a unique source: {e}")),
            FilterSpec::PerNode(periods) => {
                if periods.len() == graph.node_count() {
                    Ok(())
                } else {
                    Err(format!(
                        "per-node filter spec has {} periods for {} nodes",
                        periods.len(),
                        graph.node_count()
                    ))
                }
            }
        }
    }

    /// All per-node periods as a dense vector aligned with node ids
    /// (clamped to ≥ 1).  Call only after [`FilterSpec::check`] passed.
    pub fn periods(&self, graph: &Graph) -> Vec<u64> {
        match self {
            FilterSpec::Broadcast => vec![1; graph.node_count()],
            FilterSpec::Fork(period) => {
                let source = graph.single_source().ok();
                graph
                    .node_ids()
                    .map(|n| if source == Some(n) { (*period).max(1) } else { 1 })
                    .collect()
            }
            FilterSpec::PerNode(periods) => periods.iter().map(|p| (*p).max(1)).collect(),
        }
    }
}

/// Whether (and how) the service should plan deadlock avoidance for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvoidanceChoice {
    /// Plan with the given protocol; the submission is rejected as
    /// unplannable if no plan can be computed within the service's budget.
    /// [`JobSpec::new`] defaults to Non-Propagation: it is the protocol
    /// that protects interior-node filtering, which
    /// [`FilterSpec::PerNode`] permits.
    Planned(Algorithm),
    /// Run bare.  Filtering jobs may deadlock — which the shared pool
    /// detects exactly and reports as a per-job verdict.
    Disabled,
}

/// One job: a graph, its filtering, how many inputs to offer at every
/// source, and the avoidance choice.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The application graph (validated at submission).
    pub graph: Graph,
    /// The declarative filter spec.
    pub filters: FilterSpec,
    /// Input sequence numbers offered at every source node.
    pub inputs: u64,
    /// Deadlock-avoidance choice.
    pub avoidance: AvoidanceChoice,
    /// Filter-drift fault injection: when set, the job *executes* this
    /// profile while being admitted, fingerprinted, planned and certified
    /// against `filters` — exactly the lie a drifting tenant tells in
    /// production.  Identity ([`JobSpec::fingerprint`]) and certification
    /// stay on the declared profile on purpose: the point is that the
    /// certificate no longer covers the traffic, which is what the
    /// service's drift detector and response ladder exist to catch.
    pub actual: Option<FilterSpec>,
    /// Tenant tag for metrics attribution: the service's latency
    /// histograms and stats schema v6 key per-tenant percentiles by it.
    /// Deliberately **not** part of [`JobSpec::fingerprint`] — two tenants
    /// submitting the same shape share one cached plan.
    pub tenant: Option<String>,
}

impl JobSpec {
    /// Creates a job with the default avoidance choice
    /// (Non-Propagation-planned).
    pub fn new(graph: Graph, filters: FilterSpec, inputs: u64) -> Self {
        JobSpec {
            graph,
            filters,
            inputs,
            avoidance: AvoidanceChoice::Planned(Algorithm::NonPropagation),
            actual: None,
            tenant: None,
        }
    }

    /// The canonical conversion from generated workload shapes (e.g.
    /// `fila_workloads::jobs::JobShape`) — a graph, per-node filter
    /// periods, and the requested protocol (`None` = run bare).  The CLI,
    /// the storm example and the service bench all submit through this one
    /// mapping so their traffic cannot silently diverge.
    pub fn from_periods(
        graph: Graph,
        periods: Vec<u64>,
        inputs: u64,
        avoidance: Option<Algorithm>,
    ) -> Self {
        let spec = JobSpec::new(graph, FilterSpec::PerNode(periods), inputs);
        match avoidance {
            Some(algorithm) => spec.avoidance(AvoidanceChoice::Planned(algorithm)),
            None => spec.unplanned(),
        }
    }

    /// Builder-style avoidance override.
    pub fn avoidance(mut self, choice: AvoidanceChoice) -> Self {
        self.avoidance = choice;
        self
    }

    /// Runs the job without a plan (deadlocks become runtime verdicts).
    pub fn unplanned(mut self) -> Self {
        self.avoidance = AvoidanceChoice::Disabled;
        self
    }

    /// Builder-style drift injection: the job will *run* `actual` while
    /// declaring (and being certified for) `self.filters` — see the
    /// [`JobSpec::actual`] field docs.
    pub fn with_actual_filters(mut self, actual: FilterSpec) -> Self {
        self.actual = Some(actual);
        self
    }

    /// Builder-style tenant tag (see the [`JobSpec::tenant`] field docs).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// What the job runs: the spec's graph, lent, with the periodic filter
    /// of [`FilterSpec`] on every node that filters — what the service
    /// hands the pool (E41).  Drift injection ([`JobSpec::actual`])
    /// substitutes the executed profile here — and only here; identity and
    /// certification stay on the declared one.
    pub fn program(&self) -> Periodic<'_> {
        let executed = self.actual.as_ref().unwrap_or(&self.filters);
        Periodic::new(&self.graph, executed.periods(&self.graph))
    }

    /// [`JobSpec::program`] as a [`Topology`], a copy of the graph with a
    /// factory per filtering node.  It exists only because `ledger/`
    /// calls it; everything else runs [`JobSpec::program`].
    pub fn topology(&self) -> Topology {
        let program = self.program();
        let mut topo = Topology::from_graph(&self.graph);
        for n in self.graph.node_ids() {
            if let Some(period) = program.period(n) {
                topo = topo.with(n, move || Periodic::filter(period));
            }
        }
        topo
    }

    /// The job's canonical identity: the structural graph fingerprint with
    /// each node's filter period folded in.  Two submissions share it iff
    /// they are the same workload shape (names and declaration order aside)
    /// — the unit the service's stats count distinct shapes in.
    pub fn fingerprint(&self) -> Fingerprint {
        let periods = self.filters.periods(&self.graph);
        fingerprint_with(&self.graph, |n| periods[n.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;
    use fila_runtime::{ExecutionReport, Simulator};

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new().default_capacity(3);
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        b.edge("c", "d").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn per_node_spec_length_is_checked() {
        let g = diamond();
        assert!(FilterSpec::PerNode(vec![1, 2, 3]).check(&g).is_err());
        assert!(FilterSpec::PerNode(vec![1, 2, 3, 4]).check(&g).is_ok());
        assert!(FilterSpec::Broadcast.check(&g).is_ok());
        assert!(FilterSpec::Fork(2).check(&g).is_ok());
    }

    #[test]
    fn fork_spec_needs_single_source() {
        let mut b = GraphBuilder::new();
        let a = b.node("a");
        let c = b.node("c");
        let b2 = b.node("b");
        let mut g = b.build_unchecked();
        let _ = (a, c, b2);
        g.add_edge(a, b2, 1).unwrap();
        g.add_edge(c, b2, 1).unwrap();
        assert!(FilterSpec::Fork(2).check(&g).is_err());
    }

    /// `ledger/` still runs `JobSpec::topology`: on every shape of a mix,
    /// drifting ones included, it must run exactly what the service runs.
    #[test]
    fn the_topology_runs_what_the_program_runs() {
        use fila_avoidance::Planner;
        use fila_workloads::jobs::{job_mix_with_drift, JobKind};
        let shapes = job_mix_with_drift(7, 36, 0.5);
        assert!(shapes.iter().any(|s| s.kind == JobKind::Drifting));
        for shape in shapes {
            let mut spec = JobSpec::from_periods(
                shape.graph.clone(),
                shape.periods.clone(),
                shape.inputs.min(512),
                shape.avoidance,
            );
            if let Some(actual) = shape.actual_periods.clone() {
                spec = spec.with_actual_filters(FilterSpec::PerNode(actual));
            }
            let plan = (shape.avoidance)
                .and_then(|algorithm| Planner::new(&spec.graph).algorithm(algorithm).plan().ok());
            let run = |program: &dyn fila_runtime::Program| {
                let sim = Simulator::new(program);
                let sim = match &plan {
                    Some(plan) => sim.with_plan(plan),
                    None => sim,
                };
                let report = sim.run(spec.inputs);
                format!("{:?}", ExecutionReport { wall: Default::default(), ..report })
            };
            assert_eq!(run(&spec.topology()), run(&spec.program()), "{}", shape.label);
        }
    }

    #[test]
    fn fingerprint_distinguishes_filters_not_names() {
        let g = diamond();
        let plain = JobSpec::new(g.clone(), FilterSpec::Broadcast, 10).fingerprint();
        let forked = JobSpec::new(g.clone(), FilterSpec::Fork(2), 10).fingerprint();
        assert_ne!(plain, forked);
        // Same shape with renamed nodes: identical identity.
        let mut b = GraphBuilder::new().default_capacity(3);
        b.edge("w", "x").unwrap();
        b.edge("w", "y").unwrap();
        b.edge("x", "z").unwrap();
        b.edge("y", "z").unwrap();
        let renamed = b.build().unwrap();
        assert_eq!(
            plain,
            JobSpec::new(renamed, FilterSpec::Broadcast, 99).fingerprint()
        );
    }
}
