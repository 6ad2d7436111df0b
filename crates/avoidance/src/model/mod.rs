//! The paper's execution model (§II.A), stated once.
//!
//! Compute nodes are joined by bounded FIFO channels; every message carries
//! the sequence number of the input it derives from.  A node *accepts* the
//! minimum sequence number at the heads of its input channels, consumes
//! every head that carries it, fires (or filters) on each output, and the
//! runtime's dummy wrapper adds the dummy messages the avoidance plan's
//! intervals call for.  This module is that rule and nothing else:
//!
//! * [`message`] — what travels on a channel;
//! * [`wrapper`] — the Propagation / Non-Propagation gap rule and counters;
//! * [`engine`] — the scalar step over flat tables and the worklist
//!   scheduler that drives it (the reference schedule);
//! * [`steady`] — an observer of the worklist run that skips a recurring
//!   steady state exactly (certification's; the Simulator runs unobserved).
//!
//! It lives in `fila-avoidance` because certification
//! ([`crate::verify::certify_plan`]) has to *run* a plan, and the runtime
//! crate sits above this one; `fila_runtime::{message, wrapper}` re-export
//! the first two modules, and `fila_runtime::Simulator` is a driver of the
//! third.  The batched run loops of the pooled engine are the one other
//! implementation of the rule, pinned to this one by property tests.

pub mod engine;
pub mod message;
pub mod steady;
pub mod wrapper;

pub use engine::{periodic_emits, Engine, Halt, NodeState};
pub use message::{Message, Payload};
pub use steady::{Skip, SteadyState};
pub use wrapper::{AvoidanceMode, DummyWrapper, PropagationTrigger, RunDummies};
