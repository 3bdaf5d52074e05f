#![warn(missing_docs)]
//! # archexplorer — microarchitecture exploration via bottleneck analysis
//!
//! A from-scratch Rust reproduction of *“ArchExplorer: Microarchitecture
//! Exploration Via Bottleneck Analysis”* (MICRO 2023): a cycle-level
//! out-of-order CPU simulator, a McPAT-lite power/area model, the paper's
//! dynamic event-dependence graph (DEG) with induced-DEG critical-path
//! construction and bottleneck attribution, and the bottleneck-removal
//! design-space explorer with four black-box baselines.
//!
//! The crates compose bottom-up:
//!
//! | layer | crate | re-exported as |
//! |---|---|---|
//! | simulator substrate | `archx-sim` | [`sim`] |
//! | SPEC-like workloads | `archx-workloads` | [`workloads`] |
//! | power/area model | `archx-power` | [`power`] |
//! | DEG + critical path | `archx-deg` | [`deg`] |
//! | search + baselines | `archx-dse` | [`dse`] |
//! | metrics + progress | `archx-telemetry` | [`telemetry`] |
//!
//! ## Quickstart
//!
//! ```
//! use archexplorer::prelude::*;
//!
//! // Analyse one design's bottlenecks on a small workload sample.
//! let template = Evaluator::builder(suite_prefix(spec06_suite(), 2))
//!     .window(2_000)
//!     .threads(1);
//! let eval = template
//!     .clone()
//!     .build()
//!     .evaluate_with(&MicroArch::baseline(), Analysis::NewDeg)
//!     .expect("evaluates");
//! println!("{}", eval.report.expect("analysis requested").render());
//!
//! // Explore: bottleneck-removal-driven DSE under a simulation budget.
//! let space = DesignSpace::table4();
//! let log = run_method_on(Method::ArchExplorer, &space, &template.build(), 12, 1);
//! assert!(!log.records.is_empty());
//!
//! // Everything above was measured: dump the telemetry report.
//! println!("{}", archexplorer::telemetry::global().report().to_pretty());
//! ```

pub use archx_deg as deg;
pub use archx_dse as dse;
pub use archx_power as power;
pub use archx_sim as sim;
pub use archx_telemetry as telemetry;
pub use archx_workloads as workloads;

pub mod cliopt;

/// The most commonly used items across all layers.
pub mod prelude {
    pub use archx_deg::{
        build_deg, critical_path, induce, merge_reports, validate_deg, validate_exactness,
        validate_exactness_window, validate_times, BottleneckReport, BottleneckSource,
        CriticalPath, Deg, EdgeKind, NodeId, Stage, ValidationError, NUM_SOURCES,
    };
    pub use archx_dse::eval::EvalRecord;
    pub use archx_dse::pareto::dominates;
    pub use archx_dse::{
        aggregate_curves, default_threads, hypervolume, journal_run, pareto_front,
        run_archexplorer, run_journal_path, run_method_on, run_verify, Analysis,
        ArchExplorerOptions, CampaignError, CampaignRunner, DesignEval, DesignSpace, EvalError,
        EvalFailure, Evaluator, EvaluatorBuilder, Journal, JournalError, JournalFingerprint,
        JournalRecord, Method, ParamId, QuarantineEntry, RefPoint, RunLog, RunSpec, SimLimits,
        SweepCurve, VerifyConfig, VerifyReport, Violation,
    };
    pub use archx_power::{PowerModel, PpaResult};
    pub use archx_sim::{MicroArch, OooCore, SimStats};
    pub use archx_workloads::{spec06_suite, spec17_suite, suite_named, suite_prefix, Workload};
}
