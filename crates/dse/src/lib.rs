#![warn(missing_docs)]
//! # archx-dse — design-space exploration
//!
//! The search layer of the ArchExplorer reproduction:
//!
//! * [`space`] — the Table 4 design space (22 parameters, ~9 × 10¹⁴
//!   designs): candidate lattices, random sampling, next-larger /
//!   next-smaller moves, normalised features, mixed-radix indexing;
//! * [`eval`] — the shared design evaluator: workload-suite simulation,
//!   McPAT-lite power/area, design cache, simulation budget accounting,
//!   bottleneck analysis backends, run logs, and the failure-isolation
//!   layer (typed errors, bounded retry, quarantine);
//! * [`journal`] — the write-ahead evaluation journal (JSONL) that makes
//!   campaigns crash-safe and resumable;
//! * [`pareto`] — dominance, frontier maintenance, and exact 3-D Pareto
//!   hypervolume (Eq. 3);
//! * [`reassign`] + [`archexplorer`] — the bottleneck-removal-driven
//!   search of Section 4.3, with the cache/branch-predictor freeze rule,
//!   plateau early-stopping and restarts;
//! * [`baselines`] — random search, AdaBoost.RT, ArchRanker-style pairwise
//!   ranking, BOOM-Explorer-style GP Bayesian optimisation, and the
//!   Calipers-guided variant;
//! * [`ml`] — the self-contained surrogate toolkit (Cholesky, GP,
//!   regression trees, boosting, ranking);
//! * [`campaign`] — method-versus-method comparisons producing the
//!   hypervolume-versus-simulations curves of Figure 12 / Table 5;
//! * [`verify`] — the differential verification harness (`archx verify`):
//!   seeded design × workload × window sweeps under `CheckedCore`
//!   invariants and the DEG validation oracles, with metamorphic checks
//!   and shrinking reproducers.
//!
//! ```no_run
//! use archx_dse::prelude::*;
//! use archx_workloads::spec06_suite;
//!
//! let space = DesignSpace::table4();
//! let evaluator = Evaluator::builder(spec06_suite()).window(10_000).build();
//! let log = run_method_on(Method::ArchExplorer, &space, &evaluator, 120, 1);
//! println!("explored {} designs", log.records.len());
//! ```

pub mod archexplorer;
pub mod baselines;
pub mod campaign;
pub mod eval;
pub mod journal;
pub mod ml;
pub mod pareto;
pub mod reassign;
pub mod space;
pub mod verify;

/// Default worker-thread count for workload-parallel simulation: the
/// machine's parallelism, capped at 8 (suites have ≤14 workloads, and the
/// cap keeps laptop runs polite). The single source of truth for every
/// layer's default.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Locks `m` even if a thread panicked while holding it. Worker panics are
/// caught by `catch_unwind` and turned into failed evaluations, so one
/// must not make every later lock of a shared evaluator or campaign slot
/// panic too.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Convenient re-exports of the main entry points.
pub mod prelude {
    pub use crate::archexplorer::{run_archexplorer, ArchExplorerOptions};
    pub use crate::campaign::{
        aggregate_curves, run_journal_path, run_method_on, Campaign, CampaignError, CampaignRunner,
        Method, RunSpec, SweepCurve,
    };
    pub use crate::default_threads;
    pub use crate::eval::{
        Analysis, DesignEval, EvalError, EvalFailure, EvalRecord, Evaluator, EvaluatorBuilder,
        QuarantineEntry, RunLog, SimLimits,
    };
    pub use crate::journal::{Journal, JournalError, JournalFingerprint, JournalRecord};
    pub use crate::pareto::{dominates, hypervolume, pareto_front, ExplorationSet, RefPoint};
    pub use crate::space::{DesignSpace, ParamId};
    pub use crate::verify::{run_verify, VerifyConfig, VerifyReport, Violation};
}

pub use archexplorer::{run_archexplorer, ArchExplorerOptions};
pub use campaign::{
    aggregate_curves, run_journal_path, run_method_on, Campaign, CampaignError, CampaignRunner,
    Method, RunSpec, SweepCurve,
};
pub use eval::{
    Analysis, DesignEval, EvalError, EvalFailure, Evaluator, EvaluatorBuilder, QuarantineEntry,
    RunLog, SimLimits,
};
pub use journal::{Journal, JournalError, JournalFingerprint, JournalRecord};
pub use pareto::{hypervolume, pareto_front, ExplorationSet, RefPoint};
pub use space::{DesignSpace, ParamId};
pub use verify::{run_verify, VerifyConfig, VerifyReport, Violation};
