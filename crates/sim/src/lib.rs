#![warn(missing_docs)]
//! # archx-sim — cycle-level out-of-order CPU simulator
//!
//! A from-scratch, trace-driven, cycle-level model of an out-of-order
//! superscalar processor, parameterised by every knob in the ArchExplorer
//! design space (Table 4 of the paper): pipeline width, fetch buffer and
//! fetch queue sizes, a tournament branch predictor with BTB and RAS,
//! ROB/IQ/LQ/SQ capacities, physical integer/floating-point register files,
//! per-class functional-unit counts, and L1 instruction/data caches backed
//! by a fixed L2 and DRAM.
//!
//! The simulator is the *substrate* the paper obtains from a modified gem5:
//! besides aggregate statistics it records, for every committed instruction,
//! the cycle at which each pipeline event occurred (`F1`, `F2`, `F`, `DC`,
//! `R`, `DP`, `I`, `M`, `P`, `C`) together with a **resource scoreboard**:
//! which instruction's release of which resource entry unblocked each stall.
//! That record is exactly what the new dynamic event-dependence graph (DEG)
//! formulation of the paper consumes.
//!
//! ## Quick example
//!
//! ```
//! use archx_sim::{MicroArch, OooCore, trace_gen};
//!
//! let arch = MicroArch::baseline();
//! let instrs = trace_gen::linear_int_chain(1000);
//! let result = OooCore::new(arch).run(&instrs).expect("simulates");
//! assert!(result.stats.cycles > 0);
//! assert_eq!(result.trace.events.len(), 1000);
//! ```
//!
//! ## Failure handling
//!
//! Simulation is fallible by design: [`OooCore::run`] returns
//! `Result<SimResult, SimError>` so a pathological design point inside a
//! DSE campaign fails as data instead of aborting the process. The
//! [`SimError`] taxonomy covers pipeline deadlock (watchdog), per-run
//! cycle budgets ([`OooCore::with_cycle_budget`]), invalid configurations
//! and external-trace ingestion errors.

pub mod bpred;
pub mod cache;
pub mod check;
pub mod config;
pub mod error;
pub mod extern_trace;
pub mod fu;
pub mod isa;
pub mod o3pipeview;
pub mod pipeline;
pub mod resources;
pub mod stats;
pub mod trace;
pub mod trace_gen;

pub use check::{CheckConfig, InjectedFault};
pub use config::MicroArch;
pub use error::SimError;
pub use isa::{Instruction, OpClass, Reg, RegClass};
pub use pipeline::OooCore;
pub use stats::SimStats;
pub use trace::{Cycle, FuKind, InstrEvents, InstrIdx, PipelineTrace, ResourceKind, SimResult};
