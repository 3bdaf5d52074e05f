//! Typed simulation failures.
//!
//! Long DSE campaigns evaluate thousands of design points; a single
//! pathological configuration must fail *as data*, not by aborting the
//! process. Every way a simulation can go wrong is therefore a
//! [`SimError`] variant that the evaluation layer can catch, retry,
//! quarantine and journal (see `archx-dse`).

use crate::config::ConfigError;
use crate::trace::{Cycle, InstrIdx};

/// A failed simulation, with enough context to diagnose the design point
/// that caused it.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The pipeline made no forward progress for the watchdog interval
    /// (an internal invariant violation, or a watchdog set low enough to
    /// treat pathological slowness as failure).
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: Cycle,
        /// Oldest uncommitted instruction at that point.
        commit_head: InstrIdx,
        /// The no-commit interval that fired (cycles).
        watchdog: Cycle,
    },
    /// The simulation exceeded its per-run cycle budget before committing
    /// the whole trace.
    CycleBudgetExceeded {
        /// The configured budget (cycles).
        budget: Cycle,
        /// Instructions committed before the budget ran out.
        committed: u64,
        /// Total instructions in the trace.
        total: u64,
    },
    /// The microarchitecture failed validation.
    InvalidArch {
        /// Rendered [`ConfigError`].
        message: String,
    },
    /// An external trace could not be ingested.
    TraceError {
        /// Rendered parse error (with line context where available).
        message: String,
    },
    /// A `CheckedCore` per-cycle invariant check failed (see
    /// `archx_sim::check`): the pipeline reached a state that breaks a
    /// structural property the model guarantees.
    InvariantViolation {
        /// Machine-readable check tag (e.g. `occupancy/ROB`), mirrored by
        /// the `verify/violation/<check>` telemetry counter.
        check: String,
        /// Cycle at which the violation was detected.
        cycle: Cycle,
        /// Rendered diagnostic.
        message: String,
    },
}

impl SimError {
    /// Short machine-readable tag (stable across releases; used by
    /// telemetry counters and the evaluation journal).
    pub fn tag(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::CycleBudgetExceeded { .. } => "cycle_budget",
            SimError::InvalidArch { .. } => "invalid_arch",
            SimError::TraceError { .. } => "trace_error",
            SimError::InvariantViolation { .. } => "invariant",
        }
    }

    /// Whether re-running the same design with a smaller instruction
    /// window could plausibly succeed. Validation failures and invariant
    /// violations are deterministic properties of the design (or of the
    /// simulator itself) and never retried.
    pub fn retryable(&self) -> bool {
        !matches!(
            self,
            SimError::InvalidArch { .. } | SimError::InvariantViolation { .. }
        )
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock {
                cycle,
                commit_head,
                watchdog,
            } => write!(
                f,
                "pipeline deadlock: no commit for {watchdog} cycles at cycle {cycle}, head {commit_head}"
            ),
            SimError::CycleBudgetExceeded {
                budget,
                committed,
                total,
            } => write!(
                f,
                "cycle budget of {budget} exceeded with {committed}/{total} instructions committed"
            ),
            SimError::InvalidArch { message } => write!(f, "invalid microarchitecture: {message}"),
            SimError::TraceError { message } => write!(f, "trace error: {message}"),
            SimError::InvariantViolation {
                check,
                cycle,
                message,
            } => write!(f, "invariant violation [{check}] at cycle {cycle}: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::InvalidArch {
            message: e.to_string(),
        }
    }
}

impl From<crate::extern_trace::ParseTraceError> for SimError {
    fn from(e: crate::extern_trace::ParseTraceError) -> Self {
        SimError::TraceError {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MicroArch;

    #[test]
    fn renders_and_tags() {
        let e = SimError::Deadlock {
            cycle: 42,
            commit_head: 7,
            watchdog: 10,
        };
        assert!(e.to_string().contains("cycle 42"));
        assert_eq!(e.tag(), "deadlock");
        assert!(e.retryable());
        let b = SimError::CycleBudgetExceeded {
            budget: 100,
            committed: 3,
            total: 9,
        };
        assert!(b.to_string().contains("3/9"));
        assert!(b.retryable());
    }

    #[test]
    fn config_errors_convert_and_never_retry() {
        let mut arch = MicroArch::baseline();
        arch.width = 0;
        let err: SimError = arch.validate().unwrap_err().into();
        assert_eq!(err.tag(), "invalid_arch");
        assert!(!err.retryable());
        assert!(err.to_string().contains("width"));
    }
}
