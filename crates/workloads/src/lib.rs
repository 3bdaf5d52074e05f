#![warn(missing_docs)]
//! # archx-workloads — synthetic SPEC-like workloads
//!
//! The paper evaluates ArchExplorer on SPEC CPU2006/CPU2017 Simpoints. This
//! crate substitutes seeded synthetic trace generators: each named workload
//! is parameterised (instruction mix, dependency-distance distribution,
//! branch predictability, memory footprint and access pattern, code
//! footprint, call depth) to stress the same microarchitectural structures
//! its SPEC counterpart is known for — e.g. the `mcf`-like workload is a
//! pointer chaser that hammers the D-cache and load queue, while the
//! `xz`-like workload carries long dependence chains that pressure the
//! physical integer register file.
//!
//! ```
//! use archx_workloads::spec06_suite;
//! let suite = spec06_suite();
//! assert_eq!(suite.len(), 12);
//! let trace = suite[0].generate(1_000, 1);
//! assert_eq!(trace.len(), 1_000);
//! ```

pub mod generator;
pub mod phases;
pub mod simpoints;
pub mod spec;
pub mod store;
pub mod suite_file;

pub use generator::{BranchProfile, MemoryProfile, OpMix, WorkloadSpec};
pub use phases::{Phase, PhasedWorkload};
pub use simpoints::{estimate, pick_simpoints, Simpoint};
pub use spec::{spec06_suite, spec17_suite, suite_named, suite_prefix, Workload, WorkloadId};
pub use store::{TraceKey, TraceStore};
pub use suite_file::parse_suite;
