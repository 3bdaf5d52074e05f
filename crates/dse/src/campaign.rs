//! Method-versus-method campaigns: run every DSE algorithm on identical
//! evaluators/budgets and collect their hypervolume-versus-simulations
//! curves (the machinery behind the paper's Figure 12 and Table 5).
//!
//! ## Concurrency model
//!
//! Every (method × seed) run owns a fresh evaluator and a deterministic
//! RNG, so runs are embarrassingly parallel. [`CampaignRunner`] fans runs
//! out across `jobs` worker threads under a shared [`ThreadGovernor`]
//! bounding *total* threads (campaign jobs plus each evaluator's workload
//! workers never exceed `total_threads`), with:
//!
//! * **deterministic ordering** — logs land in pre-allocated slots in the
//!   caller's (method, seed) order regardless of completion order, and a
//!   run's results are independent of worker-thread count, so `jobs = 4`
//!   produces byte-identical [`RunLog`]s to `jobs = 1`;
//! * **labelled progress** — a shared progress sink is wrapped per run in
//!   an [`archx_telemetry::LabelledSink`] so interleaved events remain
//!   attributable (`"ArchExplorer[s3]"`);
//! * **per-run journals** — [`run_journal_path`] gives each run its own
//!   journal file inside a campaign directory, so `--journal`/`--resume`
//!   keep working when runs execute concurrently.

use crate::archexplorer::{run_archexplorer, ArchExplorerOptions};
use crate::baselines::adaboost::AdaBoostOptions;
use crate::baselines::boom::BoomOptions;
use crate::baselines::ranker::RankerOptions;
use crate::baselines::{
    run_adaboost, run_archranker, run_boom_explorer, run_calipers_dse, run_random_search,
};
use crate::eval::{Evaluator, EvaluatorBuilder, RunLog, SimLimits};
use crate::governor::ThreadGovernor;
use crate::lock;
use crate::pareto::RefPoint;
use crate::space::DesignSpace;
use archx_telemetry::{self as telemetry, LabelledSink, ProgressSink};
use archx_workloads::{TraceStore, Workload};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The DSE methods under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Bottleneck-removal-driven search with the new DEG (this paper).
    ArchExplorer,
    /// Uniform random search.
    Random,
    /// AdaBoost.RT surrogate screening.
    AdaBoost,
    /// Pairwise-ranking surrogate (ArchRanker).
    ArchRanker,
    /// Gaussian-process Bayesian optimisation (BOOM-Explorer).
    BoomExplorer,
    /// Bottleneck-removal with the prior DEG formulation (Calipers).
    Calipers,
}

impl Method {
    /// The methods of the paper's headline comparison (Fig. 12 / Table 5).
    pub const PAPER_SET: [Method; 4] = [
        Method::ArchExplorer,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
    ];

    /// All implemented methods.
    pub const ALL: [Method; 6] = [
        Method::ArchExplorer,
        Method::Random,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
        Method::Calipers,
    ];
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::ArchExplorer => "ArchExplorer",
            Method::Random => "Random",
            Method::AdaBoost => "AdaBoost",
            Method::ArchRanker => "ArchRanker",
            Method::BoomExplorer => "BOOM-Explorer",
            Method::Calipers => "Calipers",
        };
        f.write_str(s)
    }
}

/// Campaign configuration shared by all methods.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Simulation budget per method.
    pub sim_budget: u64,
    /// Instructions simulated per workload during DSE (the paper's 100 K
    /// analysis window, scaled to taste).
    pub instrs_per_workload: usize,
    /// Search seed (also the trace seed unless `trace_seed` is set).
    pub seed: u64,
    /// Fixes the workload-trace seed independently of the search seed —
    /// seed sweeps use this so their error bars measure search variance,
    /// not workload variance.
    pub trace_seed: Option<u64>,
    /// Worker threads per evaluator.
    pub threads: usize,
    /// Per-simulation cycle budget (`None` = unlimited). Designs that
    /// exceed it fail as data and are quarantined instead of hanging the
    /// campaign.
    pub cycle_budget: Option<u64>,
    /// Retries (with a halved instruction window each time) before a
    /// failing design is quarantined.
    pub max_retries: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            sim_budget: 240,
            instrs_per_workload: 10_000,
            seed: 1,
            trace_seed: None,
            threads: crate::default_threads(),
            cycle_budget: None,
            max_retries: 1,
        }
    }
}

/// Builds the evaluator [`run_method`] would use for this configuration.
/// Exposed so callers can attach a journal / warm-start it before calling
/// [`run_method_on`]. Traces resolve through the process-global
/// [`TraceStore`], so every evaluator a campaign builds for the same
/// `(workload, trace seed, window)` shares one synthesised trace.
pub fn build_evaluator(suite: &[Workload], cfg: &CampaignConfig) -> Evaluator {
    build_evaluator_in(suite, cfg, TraceStore::global())
}

/// Like [`build_evaluator`], resolving traces through a caller-supplied
/// [`TraceStore`] — useful to isolate a campaign's hit/miss accounting or
/// to bound the store's lifetime to the campaign.
pub fn build_evaluator_in(
    suite: &[Workload],
    cfg: &CampaignConfig,
    store: Arc<TraceStore>,
) -> Evaluator {
    evaluator_builder(suite, cfg, store).build()
}

/// The builder behind [`build_evaluator_in`], for callers that add more
/// settings before building.
fn evaluator_builder(
    suite: &[Workload],
    cfg: &CampaignConfig,
    store: Arc<TraceStore>,
) -> EvaluatorBuilder {
    Evaluator::builder(suite.to_vec())
        .window(cfg.instrs_per_workload)
        .seed(cfg.trace_seed.unwrap_or(cfg.seed))
        .trace_store(store)
        .threads(cfg.threads)
        .limits(SimLimits {
            cycle_budget: cfg.cycle_budget,
            deadlock_watchdog: SimLimits::default().deadlock_watchdog,
        })
        .max_retries(cfg.max_retries)
}

/// Runs one method on a fresh evaluator over the given suite.
pub fn run_method(
    method: Method,
    space: &DesignSpace,
    suite: &[Workload],
    cfg: &CampaignConfig,
) -> RunLog {
    run_method_observed(method, space, suite, cfg, None)
}

/// Like [`run_method`], but additionally streams per-evaluation
/// [`archx_telemetry::Progress`] events (simulations done vs. budget,
/// hypervolume, best trade-off) to `sink`. Events also reach any sinks
/// registered on the global telemetry registry either way.
pub fn run_method_observed(
    method: Method,
    space: &DesignSpace,
    suite: &[Workload],
    cfg: &CampaignConfig,
    sink: Option<std::sync::Arc<dyn archx_telemetry::ProgressSink>>,
) -> RunLog {
    let evaluator = build_evaluator(suite, cfg);
    if let Some(sink) = sink {
        evaluator.set_progress_sink(sink);
    }
    run_method_on(method, space, &evaluator, cfg.sim_budget, cfg.seed)
}

/// Runs one method on a caller-supplied evaluator — the entry point for
/// resumable campaigns, where the evaluator was warm-started from a
/// journal (and keeps journaling) before the search begins. The search is
/// deterministic given `seed`, so a warm-started evaluator replays the
/// journaled prefix from cache and spends simulations only past it.
pub fn run_method_on(
    method: Method,
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    seed: u64,
) -> RunLog {
    let _timed = archx_telemetry::span("dse/run_method");
    evaluator.set_progress_target(method.to_string(), sim_budget);
    let ax_opts = ArchExplorerOptions {
        seed,
        ..ArchExplorerOptions::default()
    };
    match method {
        Method::ArchExplorer => run_archexplorer(space, evaluator, sim_budget, &ax_opts),
        Method::Random => run_random_search(space, evaluator, sim_budget, seed),
        Method::AdaBoost => run_adaboost(
            space,
            evaluator,
            sim_budget,
            seed,
            &AdaBoostOptions::default(),
        ),
        Method::ArchRanker => run_archranker(
            space,
            evaluator,
            sim_budget,
            seed,
            &RankerOptions::default(),
        ),
        Method::BoomExplorer => {
            run_boom_explorer(space, evaluator, sim_budget, seed, &BoomOptions::default())
        }
        Method::Calipers => run_calipers_dse(space, evaluator, sim_budget, &ax_opts),
    }
}

/// One unit of campaign work: a method run under a specific search seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// The method to run.
    pub method: Method,
    /// The search seed for this run.
    pub seed: u64,
}

impl RunSpec {
    /// Human-readable run label (`"ArchExplorer[s3]"`), used for progress
    /// events and error messages.
    pub fn label(&self) -> String {
        format!("{}[s{}]", self.method, self.seed)
    }
}

/// Journal file for one campaign run inside `dir`:
/// `<method-slug>-seed<seed>.jsonl`. The slug is filesystem-safe
/// (lowercase alphanumerics, other characters become `-`) and the name is
/// unique per (method, seed), so concurrent runs never share a journal.
pub fn run_journal_path(dir: &Path, spec: &RunSpec) -> PathBuf {
    let slug: String = spec
        .method
        .to_string()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    dir.join(format!("{slug}-seed{}.jsonl", spec.seed))
}

/// Campaign-level parallelism: how many runs execute concurrently and the
/// global thread budget they share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Concurrent (method × seed) runs. 1 = sequential.
    pub jobs: usize,
    /// Global thread budget shared by campaign jobs *and* their
    /// evaluators' workload workers (see [`ThreadGovernor`]). When it is
    /// smaller than `jobs`, runs are throttled rather than oversubscribed.
    pub total_threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            jobs: 1,
            total_threads: crate::default_threads(),
        }
    }
}

impl ParallelConfig {
    /// `jobs` concurrent runs with a thread budget that accommodates them
    /// (`max(jobs, default_threads())`).
    pub fn with_jobs(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        ParallelConfig {
            jobs,
            total_threads: jobs.max(crate::default_threads()),
        }
    }
}

/// Campaign execution and aggregation errors.
#[derive(Debug)]
pub enum CampaignError {
    /// Per-run setup (journal attach / warm start) failed.
    Setup {
        /// Label of the run whose setup failed.
        run: String,
        /// What went wrong.
        message: String,
    },
    /// Two seeds of one method disagreed on a hypervolume-curve budget
    /// coordinate — their curves cannot be aggregated point-by-point.
    BudgetMisaligned {
        /// Method whose curves disagree.
        method: String,
        /// Index of the first disagreeing point.
        index: usize,
        /// Coordinate of the first seed's curve at that index.
        expected: u64,
        /// The disagreeing coordinate.
        found: u64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Setup { run, message } => {
                write!(f, "campaign run {run}: setup failed: {message}")
            }
            CampaignError::BudgetMisaligned {
                method,
                index,
                expected,
                found,
            } => write!(
                f,
                "sweep[{method}]: seeds disagree on budget coordinate at point {index} \
                 ({expected} vs {found}); curves were sampled on different grids"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Per-run evaluator preparation hook (journal attachment, warm start),
/// invoked after the evaluator is built and before the search starts. May
/// run on a campaign worker thread.
pub type RunSetup<'a> = dyn Fn(&RunSpec, &Evaluator) -> Result<(), String> + Sync + 'a;

/// Executes campaign runs — sequentially or fanned out across a worker
/// pool under a global [`ThreadGovernor`] — with deterministic result
/// ordering, per-run progress labelling, and optional per-run setup.
pub struct CampaignRunner<'a> {
    parallel: ParallelConfig,
    sink: Option<Arc<dyn ProgressSink>>,
    setup: Option<&'a RunSetup<'a>>,
    trace_store: Option<Arc<TraceStore>>,
}

impl fmt::Debug for CampaignRunner<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("parallel", &self.parallel)
            .field("sink", &self.sink.is_some())
            .field("setup", &self.setup.is_some())
            .field("trace_store", &self.trace_store.is_some())
            .finish()
    }
}

impl Default for CampaignRunner<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> CampaignRunner<'a> {
    /// A sequential runner (jobs = 1, default thread budget).
    pub fn new() -> Self {
        CampaignRunner {
            parallel: ParallelConfig::default(),
            sink: None,
            setup: None,
            trace_store: None,
        }
    }

    /// Sets campaign-level parallelism.
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches a progress sink shared by every run; each run's events
    /// are relabelled with its [`RunSpec::label`] before forwarding.
    pub fn progress_sink(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a per-run setup hook (journal attachment, warm start).
    pub fn setup(mut self, setup: &'a RunSetup<'a>) -> Self {
        self.setup = Some(setup);
        self
    }

    /// Resolves every run's traces through `store` instead of the
    /// process-global [`TraceStore`]. All runs of a campaign share one
    /// trace seed, so each `(workload, window)` pair is synthesised at
    /// most once for the whole campaign — even at `jobs > 1`, where the
    /// first-arriving job synthesises and the rest share the `Arc`.
    pub fn trace_store(mut self, store: Arc<TraceStore>) -> Self {
        self.trace_store = Some(store);
        self
    }

    /// Runs every spec and returns logs **in spec order**, regardless of
    /// completion order. Each run gets a fresh evaluator seeded with the
    /// spec's search seed; workload traces are pinned to
    /// `cfg.trace_seed.unwrap_or(cfg.seed)` for every run, so multi-seed
    /// campaigns measure search variance, not workload variance.
    pub fn run_specs(
        &self,
        specs: &[RunSpec],
        space: &DesignSpace,
        suite: &[Workload],
        cfg: &CampaignConfig,
    ) -> Result<Vec<RunLog>, CampaignError> {
        let _timed = telemetry::span("dse/campaign");
        let governor = ThreadGovernor::new(self.parallel.total_threads);
        let jobs = self.parallel.jobs.clamp(1, specs.len().max(1));
        telemetry::counter_add("campaign/runs", specs.len() as u64);

        let run_one = |spec: &RunSpec| -> Result<RunLog, CampaignError> {
            // A campaign job works under one base governor permit; the
            // evaluator claims extra worker permits only when free.
            let _base = governor.acquire();
            let run_cfg = CampaignConfig {
                seed: spec.seed,
                trace_seed: Some(cfg.trace_seed.unwrap_or(cfg.seed)),
                ..cfg.clone()
            };
            let store = self.trace_store.clone().unwrap_or_else(TraceStore::global);
            let evaluator = evaluator_builder(suite, &run_cfg, store)
                .governor(Arc::clone(&governor))
                .build();
            if let Some(sink) = &self.sink {
                evaluator
                    .set_progress_sink(Arc::new(LabelledSink::new(spec.label(), Arc::clone(sink))));
            }
            if let Some(setup) = self.setup {
                setup(spec, &evaluator).map_err(|message| CampaignError::Setup {
                    run: spec.label(),
                    message,
                })?;
            }
            Ok(run_method_on(
                spec.method,
                space,
                &evaluator,
                run_cfg.sim_budget,
                run_cfg.seed,
            ))
        };

        if jobs <= 1 {
            return specs.iter().map(run_one).collect();
        }

        // Worker pool with deterministic, pre-allocated result slots:
        // workers pull the next spec index and write into slots[i], so
        // the output order is the caller's spec order however the runs
        // interleave.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<RunLog, CampaignError>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    *lock(&slots[i]) = Some(run_one(&specs[i]));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every spec ran")
            })
            .collect()
    }

    /// Runs `methods` at `cfg.seed` and collects the campaign.
    pub fn run(
        &self,
        methods: &[Method],
        space: &DesignSpace,
        suite: &[Workload],
        cfg: &CampaignConfig,
    ) -> Result<Campaign, CampaignError> {
        let specs: Vec<RunSpec> = methods
            .iter()
            .map(|&method| RunSpec {
                method,
                seed: cfg.seed,
            })
            .collect();
        Ok(Campaign {
            logs: self.run_specs(&specs, space, suite, cfg)?,
        })
    }

    /// Runs `methods` across `seeds` and aggregates each method's
    /// hypervolume curve on the shared budget grid (see
    /// [`aggregate_curves`] for the truncation accounting).
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty or `step` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep(
        &self,
        methods: &[Method],
        space: &DesignSpace,
        suite: &[Workload],
        cfg: &CampaignConfig,
        seeds: &[u64],
        r: &RefPoint,
        step: u64,
    ) -> Result<Vec<SweepCurve>, CampaignError> {
        assert!(!seeds.is_empty(), "need at least one seed");
        assert!(step > 0, "step must be positive");
        let specs: Vec<RunSpec> = methods
            .iter()
            .flat_map(|&method| seeds.iter().map(move |&seed| RunSpec { method, seed }))
            .collect();
        let logs = self.run_specs(&specs, space, suite, cfg)?;
        methods
            .iter()
            .enumerate()
            .map(|(mi, &method)| {
                let curves: Vec<Vec<(u64, f64)>> = logs[mi * seeds.len()..(mi + 1) * seeds.len()]
                    .iter()
                    .map(|log| log.hypervolume_curve(r, step))
                    .collect();
                aggregate_curves(&method.to_string(), &curves)
            })
            .collect()
    }
}

/// Result of a full campaign: one log per method.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// Per-method run logs.
    pub logs: Vec<RunLog>,
}

impl Campaign {
    /// Runs `methods` sequentially with identical configuration.
    pub fn run(
        methods: &[Method],
        space: &DesignSpace,
        suite: &[Workload],
        cfg: &CampaignConfig,
    ) -> Self {
        Self::run_parallel(methods, space, suite, cfg, &ParallelConfig::default())
    }

    /// Runs `methods` with campaign-level parallelism. Logs are returned
    /// in method order and are byte-identical to a sequential run — only
    /// wall-clock changes.
    pub fn run_parallel(
        methods: &[Method],
        space: &DesignSpace,
        suite: &[Workload],
        cfg: &CampaignConfig,
        parallel: &ParallelConfig,
    ) -> Self {
        CampaignRunner::new()
            .parallel(*parallel)
            .run(methods, space, suite, cfg)
            .expect("infallible without per-run setup hooks")
    }

    /// Hypervolume curves per method, sampled every `step` simulations.
    pub fn curves(&self, r: &RefPoint, step: u64) -> Vec<(String, Vec<(u64, f64)>)> {
        self.logs
            .iter()
            .map(|log| (log.method.clone(), log.hypervolume_curve(r, step)))
            .collect()
    }

    /// Simulations a method needed to first reach hypervolume `target`.
    pub fn sims_to_reach(&self, method: &str, r: &RefPoint, target: f64, step: u64) -> Option<u64> {
        let log = self.logs.iter().find(|l| l.method == method)?;
        log.hypervolume_curve(r, step)
            .into_iter()
            .find(|&(_, hv)| hv >= target)
            .map(|(sims, _)| sims)
    }

    /// Hypervolume a method attained within `budget` simulations.
    pub fn hv_at(&self, method: &str, r: &RefPoint, budget: u64) -> Option<f64> {
        let log = self.logs.iter().find(|l| l.method == method)?;
        let pts: Vec<_> = log
            .records
            .iter()
            .take_while(|rec| rec.sims_after <= budget)
            .map(|rec| rec.ppa)
            .collect();
        Some(crate::pareto::hypervolume(&pts, r))
    }
}

/// Mean ± standard deviation of one method's hypervolume curve over
/// several seeds (the paper's curves are single runs; seed sweeps add the
/// error bars reviewers ask for).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCurve {
    /// Method label.
    pub method: String,
    /// Per budget point: `(simulations, mean hypervolume, std deviation)`.
    pub points: Vec<(u64, f64, f64)>,
}

/// Runs `methods` across `seeds` (fresh evaluator per run) and aggregates
/// each method's hypervolume-versus-simulations curve. Sequential
/// convenience wrapper over [`CampaignRunner::sweep`].
///
/// # Panics
///
/// Panics when `seeds` is empty or `step` is zero.
pub fn sweep(
    methods: &[Method],
    space: &DesignSpace,
    suite: &[Workload],
    cfg: &CampaignConfig,
    seeds: &[u64],
    r: &RefPoint,
    step: u64,
) -> Result<Vec<SweepCurve>, CampaignError> {
    CampaignRunner::new().sweep(methods, space, suite, cfg, seeds, r, step)
}

/// Aggregates one method's per-seed hypervolume curves (mean ± std per
/// budget point) on their **shared budget grid**.
///
/// Seeds can produce curves of different lengths — a search that stops
/// early (plateau, quarantine) spends fewer simulations, so its curve has
/// fewer points. Aggregation uses the shared prefix of the grid; tail
/// points beyond it are dropped **with accounting** (telemetry counter
/// `campaign/sweep/dropped_tail_points` plus a stderr warning), never
/// silently. Every curve's coordinates are verified against the grid:
/// seeds that disagree on a budget coordinate are an error
/// ([`CampaignError::BudgetMisaligned`]), not a garbage mean.
pub fn aggregate_curves(
    method: &str,
    curves: &[Vec<(u64, f64)>],
) -> Result<SweepCurve, CampaignError> {
    assert!(!curves.is_empty(), "need at least one curve");
    let shared = curves.iter().map(Vec::len).min().unwrap_or(0);
    for i in 0..shared {
        let expected = curves[0][i].0;
        for curve in curves {
            if curve[i].0 != expected {
                return Err(CampaignError::BudgetMisaligned {
                    method: method.to_string(),
                    index: i,
                    expected,
                    found: curve[i].0,
                });
            }
        }
    }
    let dropped: usize = curves.iter().map(|c| c.len() - shared).sum();
    if dropped > 0 {
        telemetry::counter_add("campaign/sweep/dropped_tail_points", dropped as u64);
        eprintln!(
            "warning: sweep[{method}]: seeds produced curves of different lengths; \
             dropped {dropped} tail point(s) beyond the shared {shared}-point budget grid"
        );
    }
    let mut points = Vec::with_capacity(shared);
    for i in 0..shared {
        let sims = curves[0][i].0;
        let vals: Vec<f64> = curves.iter().map(|c| c[i].1).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        points.push((sims, mean, var.sqrt()));
    }
    Ok(SweepCurve {
        method: method.to_string(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_workloads::spec06_suite;

    #[test]
    fn tiny_campaign_runs_all_methods() {
        let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
        let cfg = CampaignConfig {
            sim_budget: 16,
            instrs_per_workload: 800,
            seed: 3,
            trace_seed: None,
            threads: 1,
            ..CampaignConfig::default()
        };
        let space = DesignSpace::table4();
        let campaign = Campaign::run(&Method::ALL, &space, &suite, &cfg);
        assert_eq!(campaign.logs.len(), Method::ALL.len());
        for log in &campaign.logs {
            assert!(
                !log.records.is_empty(),
                "{} produced no records",
                log.method
            );
        }
        let curves = campaign.curves(&RefPoint::default(), 8);
        assert_eq!(curves.len(), Method::ALL.len());
        let hv = campaign.hv_at("Random", &RefPoint::default(), 16);
        assert!(hv.is_some());
    }

    #[test]
    fn sweep_aggregates_across_seeds() {
        let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
        let cfg = CampaignConfig {
            sim_budget: 12,
            instrs_per_workload: 600,
            seed: 0,
            trace_seed: None,
            threads: 1,
            ..CampaignConfig::default()
        };
        let curves = sweep(
            &[Method::Random],
            &DesignSpace::table4(),
            &suite,
            &cfg,
            &[1, 2, 3],
            &RefPoint::default(),
            4,
        )
        .expect("aligned grids");
        assert_eq!(curves.len(), 1);
        let c = &curves[0];
        assert!(!c.points.is_empty());
        for &(_, mean, std) in &c.points {
            assert!(mean >= 0.0 && std >= 0.0);
        }
        // Different seeds explore different designs: some variance exists
        // at the first budget point with overwhelming probability.
        assert!(c.points.iter().any(|&(_, _, std)| std > 0.0));
    }

    #[test]
    fn aggregate_uses_shared_grid_and_counts_dropped_tail() {
        // Seed 2 stopped early: its curve is one point short. The mean at
        // shared points must use every seed, and the tail is dropped with
        // accounting, not silently.
        let curves = vec![
            vec![(4, 1.0), (8, 2.0), (12, 3.0)],
            vec![(4, 3.0), (8, 4.0)],
        ];
        let before = archx_telemetry::global()
            .report()
            .counter("campaign/sweep/dropped_tail_points");
        let agg = aggregate_curves("Random", &curves).expect("aligned");
        let after = archx_telemetry::global()
            .report()
            .counter("campaign/sweep/dropped_tail_points");
        assert_eq!(agg.points.len(), 2);
        assert_eq!(agg.points[0].0, 4);
        assert_eq!(agg.points[1].0, 8);
        assert!((agg.points[0].1 - 2.0).abs() < 1e-12);
        assert!((agg.points[1].1 - 3.0).abs() < 1e-12);
        assert!((agg.points[0].2 - 1.0).abs() < 1e-12);
        assert!(after > before, "dropped tail must be counted");
    }

    #[test]
    fn aggregate_rejects_misaligned_budget_coordinates() {
        // The second seed was sampled on a different grid: hard error,
        // not a mean of apples and oranges.
        let curves = vec![vec![(4, 1.0), (8, 2.0)], vec![(5, 1.0), (10, 2.0)]];
        let err = aggregate_curves("Random", &curves).expect_err("misaligned");
        match err {
            CampaignError::BudgetMisaligned {
                method,
                index,
                expected,
                found,
            } => {
                assert_eq!(method, "Random");
                assert_eq!(index, 0);
                assert_eq!(expected, 4);
                assert_eq!(found, 5);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn journal_paths_are_unique_and_filesystem_safe() {
        let dir = Path::new("/tmp/campaign");
        let mut seen = std::collections::HashSet::new();
        for &method in &Method::ALL {
            for seed in [1u64, 2] {
                let p = run_journal_path(dir, &RunSpec { method, seed });
                let name = p.file_name().unwrap().to_str().unwrap().to_string();
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'),
                    "unsafe journal name {name}"
                );
                assert!(seen.insert(p), "duplicate journal path");
            }
        }
        assert_eq!(
            run_journal_path(
                dir,
                &RunSpec {
                    method: Method::BoomExplorer,
                    seed: 7
                }
            ),
            dir.join("boom-explorer-seed7.jsonl")
        );
    }

    #[test]
    fn parallel_run_specs_match_sequential_order_and_content() {
        let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
        let cfg = CampaignConfig {
            sim_budget: 8,
            instrs_per_workload: 500,
            seed: 1,
            trace_seed: None,
            threads: 1,
            ..CampaignConfig::default()
        };
        let space = DesignSpace::table4();
        let specs: Vec<RunSpec> = [1u64, 2, 3]
            .iter()
            .map(|&seed| RunSpec {
                method: Method::Random,
                seed,
            })
            .collect();
        let serial = CampaignRunner::new()
            .run_specs(&specs, &space, &suite, &cfg)
            .expect("runs");
        let parallel = CampaignRunner::new()
            .parallel(ParallelConfig::with_jobs(3))
            .run_specs(&specs, &space, &suite, &cfg)
            .expect("runs");
        assert_eq!(serial, parallel, "jobs must not change results or order");
    }
}
