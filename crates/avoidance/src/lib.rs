//! # fila-avoidance
//!
//! The compile-time side of filtering-aware deadlock avoidance: computing,
//! for every channel `e` of a streaming DAG with finite buffers, the
//! **dummy-message interval** `[e]` required by the Propagation and
//! Non-Propagation deadlock-avoidance protocols of Buhler et al.
//!
//! The crate implements every algorithm of the paper:
//!
//! * [`prop_sp`] — `SETIVALS`, the `O(|G|)` top-down computation of
//!   Propagation intervals on SP-DAGs (Algorithm 1, §IV.A), plus the naive
//!   `O(|G|²)` post-order variant used as an ablation baseline;
//! * [`nonprop_sp`] — the `O(|G|²)` Non-Propagation computation on SP-DAGs
//!   (§IV.B);
//! * [`cs4`] / [`ladder`] — recognition and decomposition of CS4 DAGs into a
//!   serial chain of SP-DAGs and SP-ladders (§V);
//! * [`ladder_prop`] / [`ladder_nonprop`] — the interval computations on
//!   SP-ladders (§VI): Propagation in `O(|G|)`, Non-Propagation in
//!   `O(forks × |G|)` per distinct hop key, by one reverse min-DP per fork
//!   branch that is exact because a root is non-decreasing in its length;
//! * [`exhaustive`] — the exponential cycle-enumeration baseline that works
//!   on arbitrary DAGs (§II.B), used both as the only option for general
//!   topologies and as the ground truth the efficient algorithms are
//!   validated against;
//! * [`planner`] — a front door that classifies the topology and dispatches
//!   to the cheapest applicable algorithm;
//! * [`model`] — the paper's execution model stated once: messages, the
//!   dummy-message wrapper and the scalar step with its two deterministic
//!   schedulers; certification runs plans on it and `fila-runtime`'s
//!   `Simulator` is a driver of it;
//! * [`cache`] — a structural plan cache keyed by canonical topology
//!   fingerprints, sharing `Arc`-wrapped plans across repeat submissions
//!   of the same shape (the service layer's planning amortisation), plus a
//!   certification-verdict cache keyed by `(fingerprint, filter signature)`;
//! * [`verify`] — safety/optimality cross-checks of a computed plan against
//!   the cycle-level definition, and the **filtering-aware certification**
//!   pass ([`verify::certify_plan`]): a bounded model check of a plan
//!   against a declared filter profile and its worst-case adversarial
//!   escalations, driven by [`Planner::certify`] with an automatic
//!   Non-Prop → Propagation → exhaustive fallback chain (the E17
//!   postmortem's guarantee that an "admitted ⇒ deadlock-free" contract can
//!   never again silently depend on the client's filter pattern).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod cs4;
pub mod exhaustive;
pub mod interval;
pub mod ladder;
pub mod ladder_nonprop;
pub mod ladder_prop;
pub mod model;
pub mod nonprop_sp;
pub mod plan;
pub mod planner;
pub mod prop_sp;
pub mod verify;

pub use cache::{CachedPlan, CertifiedCached, GraphIdentity, PlanCache};
pub use cs4::{classify, Cs4Decomposition, Cs4Segment, GraphClass, Structure};
pub use interval::{DummyInterval, IntervalMap, Rounding};
pub use ladder::LadderDecomposition;
pub use plan::{Algorithm, AvoidancePlan};
pub use planner::{CertifiedPlan, CertifyAttempt, CertifyError, Planner};
pub use verify::{
    certify_plan, certify_plan_bounded, filter_signature, observed_periods, verify_plan,
    Certification, ModelOutcome, Verification,
};
