#![warn(missing_docs)]
//! # archx-deg — dynamic event-dependence graphs and bottleneck analysis
//!
//! This crate implements the analytical core of the ArchExplorer paper:
//!
//! * [`graph`] — a compact typed DAG over `(instruction, pipeline-stage)`
//!   vertices placed on the real time axis;
//! * [`build`] — the paper's **new DEG formulation** (Section 4.1):
//!   pipeline, misprediction, hardware-resource (rename→rename,
//!   issue→issue) and true-data edges whose weights are *measured* time
//!   intervals, constructed from the simulator's per-instruction event
//!   record and resource scoreboard;
//! * [`induced`] — the **induced DEG** (Section 4.2): virtual edges added
//!   by Rule 1 (connect via closest time) and Rule 2 (connect via closest
//!   instruction sequence) so the critical path can chain consecutive
//!   resource-usage dependencies;
//! * [`critical`] — **Algorithm 1**: dynamic-programming longest path over
//!   a topological order, with edge costs chosen so the path is densely
//!   composed of resource-usage dependencies;
//! * [`bottleneck`] — resource contributions `c(b)` (Eq. 1) and their
//!   weighted multi-workload aggregation (Eq. 2);
//! * [`fused`] — the chain above (build, induce, Algorithm 1, `c(b)`) in
//!   one pass over the event record, with no stored edges: the
//!   evaluator's analysis, which the explicit chain checks;
//! * [`calipers`] — the *previous* DEG formulation (static weights,
//!   producer–consumer resource edges, fixed penalties) reimplemented as
//!   the comparison baseline of Figures 4–5 and the Calipers-guided DSE.
//!
//! ```
//! use archx_sim::{MicroArch, OooCore, trace_gen};
//! use archx_deg::{build_deg, critical_path, induce};
//!
//! let result = OooCore::new(MicroArch::baseline()).run(&trace_gen::mixed_workload(2_000, 1)).expect("simulates");
//! let deg = build_deg(&result);
//! let mut induced = induce(deg);
//! let path = critical_path(&mut induced);
//! // The new formulation is exact: path length == simulated runtime.
//! assert_eq!(path.total_delay, result.trace.cycles);
//! ```

pub mod bottleneck;
pub mod build;
pub mod calipers;
pub mod critical;
pub mod export;
pub mod fused;
pub mod graph;
pub mod induced;
pub mod naive;
pub mod validate;

pub use bottleneck::{merge_reports, BottleneckReport, BottleneckSource, NUM_SOURCES};
pub use build::build_deg;
pub use calipers::CalipersModel;
pub use critical::{critical_path, CriticalPath};
pub use graph::{Deg, Edge, EdgeKind, NodeId, Stage};
pub use induced::induce;
pub use validate::{
    validate_deg, validate_exactness, validate_exactness_window, validate_times, ValidationError,
};
