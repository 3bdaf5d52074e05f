//! A high-level session API tying the simulator, power model, DEG
//! analysis and explorers together behind one builder.

use archx_deg::BottleneckReport;
use archx_dse::campaign::{run_method_on, Method};
use archx_dse::eval::{Analysis, DesignEval, EvalFailure, Evaluator, EvaluatorBuilder, RunLog};
use archx_dse::space::DesignSpace;
use archx_sim::MicroArch;
use archx_workloads::{spec06_suite, spec17_suite, Workload};

/// Which bundled workload suite to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The 12 SPEC CPU2006-like workloads.
    Spec06,
    /// The 14 SPEC CPU2017-like workloads.
    Spec17,
}

impl Suite {
    /// Materialises the workload list.
    pub fn workloads(self) -> Vec<Workload> {
        match self {
            Suite::Spec06 => spec06_suite(),
            Suite::Spec17 => spec17_suite(),
        }
    }
}

/// Errors surfaced by [`Session`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The evaluator produced no bottleneck report for the requested
    /// analysis backend (it evaluated, but analysis yielded nothing).
    MissingReport {
        /// The analysis backend that was requested.
        analysis: Analysis,
    },
    /// An exploration run evaluated no designs (e.g. a zero budget).
    EmptyExploration {
        /// The method that was run.
        method: Method,
        /// The simulation budget it was given.
        sim_budget: u64,
    },
    /// A design evaluation failed past its retry budget and was
    /// quarantined (typed simulator error, worker panic, or non-finite
    /// PPA).
    EvaluationFailed {
        /// The design that failed.
        arch: MicroArch,
        /// Why it failed and how many attempts were made (boxed to keep
        /// the error type small on the happy path).
        failure: Box<EvalFailure>,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingReport { analysis } => {
                write!(
                    f,
                    "evaluation produced no bottleneck report for {analysis:?}"
                )
            }
            SessionError::EmptyExploration { method, sim_budget } => {
                write!(
                    f,
                    "{method} explored no designs within a budget of {sim_budget} simulations"
                )
            }
            SessionError::EvaluationFailed { arch, failure } => {
                write!(f, "evaluation of {arch} failed: {failure}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Builder for [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    suite: Suite,
    workload_limit: usize,
    instrs_per_workload: usize,
    seed: u64,
    threads: usize,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            suite: Suite::Spec06,
            workload_limit: usize::MAX,
            instrs_per_workload: 10_000,
            seed: 1,
            threads: archx_dse::default_threads(),
        }
    }
}

impl SessionBuilder {
    /// Selects the workload suite.
    pub fn suite(mut self, suite: Suite) -> Self {
        self.suite = suite;
        self
    }

    /// Uses only the first `n` workloads (useful for fast experiments).
    pub fn workload_limit(mut self, n: usize) -> Self {
        self.workload_limit = n.max(1);
        self
    }

    /// Instructions simulated per workload (the paper's analysis window).
    pub fn instrs_per_workload(mut self, n: usize) -> Self {
        self.instrs_per_workload = n.max(100);
        self
    }

    /// Seed for both the workload traces and the searches.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for workload-parallel simulation.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builds the session (resolves the workload traces through the
    /// process-global trace store, synthesising only those not already
    /// shared).
    pub fn build(self) -> Session {
        let mut suite = self.suite.workloads();
        suite.truncate(self.workload_limit);
        let w = 1.0 / suite.len() as f64;
        for wl in &mut suite {
            wl.weight = w;
        }
        let template = Evaluator::builder(suite)
            .window(self.instrs_per_workload)
            .seed(self.seed)
            .threads(self.threads);
        Session {
            space: DesignSpace::table4(),
            evaluator: template.clone().build(),
            template,
        }
    }
}

/// A configured exploration/analysis session.
#[derive(Debug)]
pub struct Session {
    space: DesignSpace,
    /// The configuration every evaluator of this session is built from.
    template: EvaluatorBuilder,
    evaluator: Evaluator,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The Table 4 design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The session's workload suite.
    pub fn suite(&self) -> &[Workload] {
        self.evaluator.workloads()
    }

    /// The shared evaluator (design cache + simulation counter).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Simulates a design over the suite and returns its PPA evaluation.
    /// A design that fails past its retry budget is quarantined and the
    /// failure surfaced as [`SessionError::EvaluationFailed`].
    pub fn evaluate(&self, arch: &MicroArch) -> Result<DesignEval, SessionError> {
        self.evaluator
            .evaluate(arch)
            .map_err(|failure| SessionError::EvaluationFailed {
                arch: *arch,
                failure: Box::new(failure),
            })
    }

    /// Full bottleneck analysis of a design (new DEG, merged over the
    /// suite with Eq. 2 weights).
    pub fn analyze(&self, arch: &MicroArch) -> Result<BottleneckReport, SessionError> {
        self.evaluator
            .evaluate_with(arch, Analysis::NewDeg)
            .map_err(|failure| SessionError::EvaluationFailed {
                arch: *arch,
                failure: Box::new(failure),
            })?
            .report
            .ok_or(SessionError::MissingReport {
                analysis: Analysis::NewDeg,
            })
    }

    /// Runs one DSE method for `sim_budget` simulations on a **fresh**
    /// evaluator (so methods never share caches or budgets).
    pub fn explore(&self, method: Method, sim_budget: u64) -> Result<RunLog, SessionError> {
        let log = run_method_on(
            method,
            &self.space,
            &self.template.clone().build(),
            sim_budget,
            self.template.trace_seed(),
        );
        if log.records.is_empty() {
            return Err(SessionError::EmptyExploration { method, sim_budget });
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Session {
        Session::builder()
            .suite(Suite::Spec06)
            .workload_limit(2)
            .instrs_per_workload(1_000)
            .threads(1)
            .build()
    }

    #[test]
    fn builder_limits_and_reweights() {
        let s = tiny();
        assert_eq!(s.suite().len(), 2);
        let total: f64 = s.suite().iter().map(|w| w.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_and_analyze() {
        let s = tiny();
        let e = s.evaluate(&MicroArch::baseline()).expect("evaluates");
        assert!(e.ppa.ipc > 0.0);
        let rep = s
            .analyze(&MicroArch::baseline())
            .expect("analysis succeeds");
        assert!(rep.length > 0);
    }

    #[test]
    fn explore_runs_each_method_fresh() {
        let s = tiny();
        let log = s
            .explore(Method::Random, 6)
            .expect("nonzero budget explores");
        assert!(!log.records.is_empty());
        // The session evaluator is untouched by exploration.
        assert_eq!(s.evaluator().sim_count(), 0);
    }

    #[test]
    fn explore_with_zero_budget_is_an_error() {
        let s = tiny();
        let err = s.explore(Method::Random, 0).expect_err("zero budget");
        assert_eq!(
            err,
            SessionError::EmptyExploration {
                method: Method::Random,
                sim_budget: 0
            }
        );
        assert!(err.to_string().contains("budget of 0"));
    }

    #[test]
    fn spec17_suite_selectable() {
        let s = Session::builder()
            .suite(Suite::Spec17)
            .workload_limit(3)
            .instrs_per_workload(500)
            .threads(1)
            .build();
        assert_eq!(s.suite().len(), 3);
    }
}
