#![warn(missing_docs)]
//! # archx-power — a "McPAT-lite" analytic power and area model
//!
//! The paper reports power and area from McPAT. This crate substitutes a
//! compact analytic model with the properties the DSE actually relies on:
//!
//! * **component-additive** — every sized structure (queues, register
//!   files, predictor tables, caches, functional units) contributes area
//!   and leakage proportional to (a superlinear function of) its size, so
//!   over-provisioning any one resource visibly costs power/area;
//! * **activity-driven dynamic power** — per-event energies multiply the
//!   simulator's activity counters (commits, cache accesses, FU ops,
//!   predictor lookups), so a faster design that does the same work in
//!   fewer cycles has higher power but similar energy;
//! * **port scaling** — multi-ported CAM/RAM structures (rename register
//!   files, issue queue) grow superlinearly with pipeline width, which is
//!   what makes very wide machines area-inefficient in the paper's
//!   Figure 13.
//!
//! Constants are calibrated so the Table 1 baseline lands near the paper's
//! 0.2 W and 5.7 mm² at a nominal 2 GHz / 22 nm operating point.
//!
//! ```
//! use archx_power::PowerModel;
//! use archx_sim::{MicroArch, OooCore, trace_gen};
//!
//! let arch = MicroArch::baseline();
//! let result = OooCore::new(arch).run(&trace_gen::mixed_workload(5_000, 1)).expect("simulates");
//! let ppa = PowerModel.evaluate(&arch, &result.stats);
//! assert!(ppa.area_mm2 > 0.0 && ppa.power_w > 0.0);
//! ```

pub mod area;
pub mod energy;
pub mod model;

pub use model::{PowerBreakdown, PowerModel, PpaResult};
