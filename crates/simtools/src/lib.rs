//! Synthetic EDA tool substrate.
//!
//! The paper's Hercules invokes real CAD tools (a netlist editor, a
//! circuit simulator) whose runs create design data; reproducing the
//! *flow management* behaviour does not require the tools themselves,
//! only their observable shape: a run takes time that depends on the
//! tool and its inputs, produces output data, sometimes fails, and an
//! activity may need several iterations before the designer accepts the
//! result.
//!
//! This crate provides that shape, deterministically:
//!
//! * [`ToolModel`] — a parameterised behaviour model; invoking it with
//!   the same inputs always yields the same outcome (durations,
//!   output bytes, convergence), so every experiment in this
//!   repository is reproducible.
//! * [`ToolLibrary`] — tool-name → model, with calibrated defaults for
//!   the tool names used by the built-in schemas and a hash-derived
//!   fallback for any other name.
//! * [`cluster`] — simulated heterogeneous clusters (worker speed
//!   factors, seeded transfer delay) that policy-driven executors
//!   dispatch onto.
//! * [`rng`] — the SplitMix64 generator used for all deterministic
//!   pseudo-randomness.
//!
//! # Example
//!
//! ```
//! use simtools::{ToolInvocation, ToolLibrary};
//!
//! let lib = ToolLibrary::standard();
//! let outcome = lib.invoke("simulator", &ToolInvocation {
//!     input_bytes: 4096,
//!     iteration: 1,
//!     seed: 42,
//! });
//! assert!(outcome.duration_days > 0.0);
//! // Same request, same outcome: the substrate is deterministic.
//! let again = lib.invoke("simulator", &ToolInvocation {
//!     input_bytes: 4096,
//!     iteration: 1,
//!     seed: 42,
//! });
//! assert_eq!(outcome, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod library;
mod model;

pub mod cluster;
pub mod rng;
pub mod vfs;
pub mod workload;

pub use fault::{BrokenToolPlan, FaultInjector, FaultPlan, FaultedOutcome, InjectedFault};
pub use library::ToolLibrary;
pub use model::{ToolInvocation, ToolModel, ToolOutcome};
