//! Method-versus-method campaigns: run every DSE algorithm on identical
//! evaluators/budgets and collect their hypervolume-versus-simulations
//! curves (the machinery behind the paper's Figure 12 and Table 5).
//!
//! ## Concurrency model
//!
//! Every (method × seed) run owns a fresh evaluator, built from a clone of
//! the campaign's [`EvaluatorBuilder`] template, and a deterministic RNG,
//! so runs are embarrassingly parallel. [`CampaignRunner`] fans runs
//! out across [`thread_split`]'s job threads, all inside one thread
//! budget: the template's [`EvaluatorBuilder::threads`]. The calling
//! thread is one of the job threads, and `jobs = 1` is simply the case
//! with no thread spawned: the same loop that fans an evaluation's
//! workloads out. Each job thread is one unit of the budget; the rest is
//! a shared count of lendable threads that evaluators borrow workload
//! workers from, without blocking, for the length of one evaluation
//! attempt. A job thread that finds no run left adds itself to the
//! count, so the campaign's last runs get the threads of the finished
//! ones. Campaign jobs plus workload workers never exceed the budget,
//! with:
//!
//! * **deterministic ordering** — logs come back in the caller's
//!   (method, seed) order regardless of completion order, and a run's
//!   results are independent of worker-thread count, so `jobs = 4`
//!   produces byte-identical [`RunLog`]s to `jobs = 1`;
//! * **labelled progress** — a shared progress sink is wrapped per run in
//!   an [`archx_telemetry::LabelledSink`] so interleaved events remain
//!   attributable (`"ArchExplorer[s3]"`);
//! * **per-run journals** — [`CampaignRunner::journal`] gives each run
//!   its own journal file inside a campaign directory
//!   ([`run_journal_path`]), opened or resumed by [`journal_run`], so
//!   `--journal`/`--resume` keep working when runs execute concurrently.

use crate::archexplorer::{run_archexplorer, ArchExplorerOptions};
use crate::baselines::{
    run_adaboost, run_archranker, run_boom_explorer, run_calipers_dse, run_random_search,
};
use crate::eval::{Evaluator, EvaluatorBuilder, RunLog};
use crate::journal::{Journal, JournalError};
use crate::pareto::RefPoint;
use crate::space::DesignSpace;
use archx_telemetry::{self as telemetry, LabelledSink, ProgressSink};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Runs one method for `sim_budget` simulations on `evaluator` under the
/// search seed `seed` — the one way to run a search. Build the evaluator
/// from an [`EvaluatorBuilder`]; attach a progress sink or a journal (and
/// warm-start it from one) before calling. The search is deterministic
/// given `seed`, so a warm-started evaluator replays the journaled prefix
/// from cache and spends simulations only past it. The log's
/// [`RunLog::sims_spent`] is the evaluator's simulation count, journaled
/// replays included.
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
    let mut log = match method {
        Method::ArchExplorer => run_archexplorer(space, evaluator, sim_budget, &ax_opts),
        Method::Random => run_random_search(space, evaluator, sim_budget, seed),
        Method::AdaBoost => run_adaboost(space, evaluator, sim_budget, seed),
        Method::ArchRanker => run_archranker(space, evaluator, sim_budget, seed),
        Method::BoomExplorer => run_boom_explorer(space, evaluator, sim_budget, seed),
        Method::Calipers => run_calipers_dse(space, evaluator, sim_budget, &ax_opts),
    };
    log.sims_spent = evaluator.sim_count();
    log
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

/// Attaches the journal at `path` to `evaluator` for the run `spec`.
/// With `resume`, the journal is reopened (a missing file starts a fresh
/// one) and its records warm-start the evaluator; without, a fresh
/// journal replaces any file at `path`. Returns the records replayed and
/// the simulations they hold.
///
/// # Errors
///
/// Returns [`JournalError`] when the file cannot be written or read, is
/// corrupt, or was written under a different configuration: the
/// fingerprint pins everything the replayed results depend on (the
/// evaluator's workloads, window, trace seed and limits, plus the run's
/// method and search seed).
pub fn journal_run(
    evaluator: &Evaluator,
    spec: &RunSpec,
    path: &Path,
    resume: bool,
) -> Result<(usize, u64), JournalError> {
    let fp = evaluator.fingerprint(vec![
        ("method".to_string(), spec.method.to_string()),
        ("search_seed".to_string(), spec.seed.to_string()),
    ]);
    let (journal, replayed, sims) = if resume {
        let (journal, records) = Journal::resume(path, &fp)?;
        let replayed = records.len();
        (journal, replayed, evaluator.warm_start(records))
    } else {
        (Journal::create(path, &fp)?, 0, 0)
    };
    evaluator.set_journal(journal);
    Ok((replayed, sims))
}

/// Splits a `threads` budget between job threads and lendable workers:
/// `min(jobs, runs, threads)` job threads (at least 1), and the rest of
/// the budget as the initial count of lendable threads. This is the split
/// [`CampaignRunner::run_specs`] runs with.
pub fn thread_split(threads: usize, jobs: usize, runs: usize) -> (usize, usize) {
    let threads = threads.max(1);
    let jobs = jobs.min(runs).clamp(1, threads);
    (jobs, threads - jobs)
}

/// Takes up to `want` threads from the lendable count without blocking
/// and returns how many it got, `min(want, available)`.
pub(crate) fn borrow_threads(lendable: &AtomicUsize, want: usize) -> usize {
    let mut got = 0;
    // The closure always returns `Some`, so the update cannot fail.
    let _ = lendable.fetch_update(Ordering::AcqRel, Ordering::Acquire, |available| {
        got = want.min(available);
        Some(available - got)
    });
    got
}

/// Returns `n` borrowed (or freed) threads to the lendable count.
pub(crate) fn return_threads(lendable: &AtomicUsize, n: usize) {
    lendable.fetch_add(n, Ordering::AcqRel);
}

/// Campaign execution and aggregation errors.
#[derive(Debug)]
pub enum CampaignError {
    /// A run's journal could not be opened or resumed.
    Journal {
        /// Label of the run whose journal failed.
        run: String,
        /// What went wrong.
        error: JournalError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal { run, error } => write!(f, "campaign run {run}: {error}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Executes campaign runs — sequentially or fanned out across job
/// threads inside the template's thread budget — with deterministic
/// result ordering, per-run progress labelling, and optional per-run
/// journals.
#[derive(Default)]
pub struct CampaignRunner {
    jobs: usize,
    sink: Option<Arc<dyn ProgressSink>>,
    journal: Option<(PathBuf, bool)>,
}

impl fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("jobs", &self.jobs)
            .field("sink", &self.sink.is_some())
            .field("journal", &self.journal)
            .finish()
    }
}

impl CampaignRunner {
    /// A sequential runner (jobs = 1).
    pub fn new() -> Self {
        Self::default().jobs(1)
    }

    /// Runs up to `jobs` (method × seed) runs at once. The template's
    /// [`EvaluatorBuilder::threads`] bounds the job count too: each job
    /// thread is one thread of that budget.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Attaches a progress sink shared by every run; each run's events
    /// are relabelled with its [`RunSpec::label`] before forwarding.
    pub fn progress_sink(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Journals every run to its own file in `dir` ([`run_journal_path`],
    /// through [`journal_run`]), creating `dir` if needed. With `resume`,
    /// each run first replays its file, so a killed campaign picks up
    /// where it stopped; a run whose file is missing starts fresh.
    pub fn journal(mut self, dir: impl AsRef<Path>, resume: bool) -> Self {
        self.journal = Some((dir.as_ref().to_path_buf(), resume));
        self
    }

    /// Runs every spec for `sim_budget` simulations and returns logs **in
    /// spec order**, regardless of completion order. Each run builds a
    /// fresh evaluator from a clone of `template` (borrowing workload
    /// workers from the campaign's lendable threads) and searches with
    /// the spec's seed. Workload traces use the template's seed for every
    /// run, so multi-seed campaigns measure search variance, not workload
    /// variance, and share one synthesised trace per `(workload, window)`
    /// through the template's trace store — even at `jobs > 1`.
    pub fn run_specs(
        &self,
        specs: &[RunSpec],
        space: &DesignSpace,
        template: &EvaluatorBuilder,
        sim_budget: u64,
    ) -> Result<Vec<RunLog>, CampaignError> {
        let _timed = telemetry::span("dse/campaign");
        let (jobs, lendable) = thread_split(template.thread_budget(), self.jobs, specs.len());
        let lendable = Arc::new(AtomicUsize::new(lendable));
        telemetry::counter_add("campaign/runs", specs.len() as u64);

        let run_one = |spec: &RunSpec| -> Result<RunLog, CampaignError> {
            let evaluator = template.clone().lend_from(Arc::clone(&lendable)).build();
            if let Some(sink) = &self.sink {
                evaluator
                    .set_progress_sink(Arc::new(LabelledSink::new(spec.label(), Arc::clone(sink))));
            }
            if let Some((dir, resume)) = &self.journal {
                let path = run_journal_path(dir, spec);
                let journaled = std::fs::create_dir_all(dir)
                    .map_err(|e| JournalError::Io {
                        path: dir.clone(),
                        message: e.to_string(),
                    })
                    .and_then(|()| journal_run(&evaluator, spec, &path, *resume));
                let (replayed, sims) = journaled.map_err(|error| CampaignError::Journal {
                    run: spec.label(),
                    error,
                })?;
                if *resume {
                    eprintln!(
                        "  [{}] resumed {}: {replayed} evaluation(s) replayed, {sims} \
                         simulation(s) already spent",
                        spec.label(),
                        path.display()
                    );
                }
            }
            let log = run_method_on(spec.method, space, &evaluator, sim_budget, spec.seed);
            if let Some(e) = evaluator.journal_error() {
                eprintln!(
                    "warning: [{}] journal writes failed ({e}); run continued unjournaled",
                    spec.label()
                );
            }
            Ok(log)
        };

        // The calling thread is one of the `jobs`; a job thread with no
        // run left lends itself to the runs still going.
        crate::fan_out(
            specs.len(),
            jobs - 1,
            |i| run_one(&specs[i]),
            || return_threads(&lendable, 1),
        )
        .into_iter()
        .collect()
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

/// Aggregates one method's per-seed runs into its hypervolume curve
/// (mean ± std per budget point), every run sampled at each multiple of
/// `step` ([`RunLog::hypervolume_curve`]).
///
/// Seeds can produce curves of different lengths — a search whose last
/// designs were quarantined logs its last record early, so its curve has
/// fewer points. Aggregation uses the shared prefix of the grid; tail
/// points beyond it are dropped **with accounting** (telemetry counter
/// `campaign/sweep/dropped_tail_points` plus a stderr warning), never
/// silently.
///
/// # Panics
///
/// Panics when `logs` is empty or `step` is zero.
pub fn aggregate_curves(method: &str, logs: &[RunLog], r: &RefPoint, step: u64) -> SweepCurve {
    assert!(!logs.is_empty(), "need at least one run");
    let curves: Vec<Vec<(u64, f64)>> = logs
        .iter()
        .map(|log| log.hypervolume_curve(r, step))
        .collect();
    let shared = curves.iter().map(Vec::len).min().unwrap_or(0);
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
    SweepCurve {
        method: method.to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SimLimits;
    use archx_power::PpaResult;
    use archx_sim::MicroArch;
    use archx_workloads::spec06_suite;

    /// Two workloads, serial evaluation, the given window and trace seed.
    fn template(window: usize, seed: u64) -> EvaluatorBuilder {
        Evaluator::builder(spec06_suite().into_iter().take(2).collect())
            .window(window)
            .seed(seed)
            .threads(1)
    }

    #[test]
    fn tiny_campaign_runs_all_methods() {
        let specs: Vec<RunSpec> = Method::ALL
            .iter()
            .map(|&method| RunSpec { method, seed: 3 })
            .collect();
        let logs = CampaignRunner::new()
            .run_specs(&specs, &DesignSpace::table4(), &template(800, 3), 16)
            .expect("runs");
        assert_eq!(logs.len(), Method::ALL.len());
        for log in &logs {
            assert!(
                !log.records.is_empty(),
                "{} produced no records",
                log.method
            );
            assert!(!log.hypervolume_curve(&RefPoint::default(), 8).is_empty());
        }
    }

    #[test]
    fn quarantined_run_reports_its_spending() {
        // A one-cycle budget fails every design: the log holds no record,
        // but the run still spent its whole budget.
        let template = template(1_000, 1).limits(SimLimits {
            cycle_budget: Some(1),
            ..SimLimits::default()
        });
        let spec = RunSpec {
            method: Method::AdaBoost,
            seed: 1,
        };
        let logs = CampaignRunner::new()
            .run_specs(&[spec], &DesignSpace::table4(), &template, 60)
            .expect("runs");
        assert!(logs[0].records.is_empty());
        assert!(logs[0].sims_spent >= 60, "spent {}", logs[0].sims_spent);
    }

    #[test]
    fn resumed_run_reads_the_same_as_an_uninterrupted_one() {
        let dir = std::env::temp_dir().join(format!("archx-resume-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = [RunSpec {
            method: Method::Random,
            seed: 2,
        }];
        let run = |resume| {
            CampaignRunner::new()
                .journal(&dir, resume)
                .run_specs(&specs, &DesignSpace::table4(), &template(600, 1), 8)
                .expect("runs")
        };
        let full = run(false);
        let resumed = run(true);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(full[0].sims_spent > 0);
        assert_eq!(full, resumed, "replays count as spent, records match");
    }

    #[test]
    fn sweep_aggregates_across_seeds() {
        let specs: Vec<RunSpec> = [1u64, 2, 3]
            .iter()
            .map(|&seed| RunSpec {
                method: Method::Random,
                seed,
            })
            .collect();
        let logs = CampaignRunner::new()
            .run_specs(&specs, &DesignSpace::table4(), &template(600, 0), 12)
            .expect("runs");
        let c = aggregate_curves("Random", &logs, &RefPoint::default(), 4);
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
        // The second run's last design came at 8 simulations: its curve is
        // one point short. The mean at shared points must use every run,
        // and the tail is dropped with accounting, not silently.
        let ppa = |ipc: f64| PpaResult {
            ipc,
            power_w: 0.2,
            area_mm2: 5.0,
        };
        let mut long = RunLog::new("Random");
        let mut short = RunLog::new("Random");
        for (sims, ipc) in [(4, 0.5), (8, 1.0), (12, 1.5)] {
            long.push(MicroArch::baseline(), ppa(ipc), sims);
        }
        for (sims, ipc) in [(4, 1.0), (8, 2.0)] {
            short.push(MicroArch::baseline(), ppa(ipc), sims);
        }
        let r = RefPoint::default();
        let before = archx_telemetry::global()
            .report()
            .counter("campaign/sweep/dropped_tail_points");
        let logs = [long, short];
        let agg = aggregate_curves("Random", &logs, &r, 4);
        let after = archx_telemetry::global()
            .report()
            .counter("campaign/sweep/dropped_tail_points");
        assert_eq!(
            agg.points.iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![4, 8],
            "aggregation uses the shared budget grid"
        );
        for &(sims, mean, std) in &agg.points {
            let (a, b) = (logs[0].hypervolume(&r, sims), logs[1].hypervolume(&r, sims));
            assert!((mean - (a + b) / 2.0).abs() < 1e-12);
            assert!((std - (a - b).abs() / 2.0).abs() < 1e-12);
        }
        assert!(after > before, "dropped tail must be counted");
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
        let template = template(500, 1);
        let space = DesignSpace::table4();
        let specs: Vec<RunSpec> = [1u64, 2, 3]
            .iter()
            .map(|&seed| RunSpec {
                method: Method::Random,
                seed,
            })
            .collect();
        let serial = CampaignRunner::new()
            .run_specs(&specs, &space, &template, 8)
            .expect("runs");
        let parallel = CampaignRunner::new()
            .jobs(3)
            .run_specs(&specs, &space, &template.threads(3), 8)
            .expect("runs");
        assert_eq!(serial, parallel, "jobs must not change results or order");
    }

    #[test]
    fn lending_grants_min_of_want_and_available() {
        let lendable = AtomicUsize::new(3);
        assert_eq!(borrow_threads(&lendable, 2), 2);
        assert_eq!(borrow_threads(&lendable, 5), 1, "grants only what is left");
        assert_eq!(
            borrow_threads(&lendable, 1),
            0,
            "an empty count grants zero without blocking"
        );
        assert_eq!(lendable.load(Ordering::SeqCst), 0);
        return_threads(&lendable, 2);
        assert_eq!(borrow_threads(&lendable, 0), 0);
        return_threads(&lendable, 1);
        assert_eq!(lendable.load(Ordering::SeqCst), 3, "every thread came back");
    }

    #[test]
    fn lending_stays_within_the_budget_under_an_8_thread_race() {
        const BUDGET: usize = 3;
        let lendable = AtomicUsize::new(BUDGET);
        let held = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (lendable, held, peak) = (&lendable, &held, &peak);
                s.spawn(move || {
                    for round in 0..500 {
                        let want = (t + round) % 4;
                        let got = borrow_threads(lendable, want);
                        assert!(got <= want);
                        peak.fetch_max(
                            held.fetch_add(got, Ordering::SeqCst) + got,
                            Ordering::SeqCst,
                        );
                        // A wrapped (negative) count would read as huge.
                        assert!(lendable.load(Ordering::SeqCst) <= BUDGET);
                        std::thread::yield_now();
                        held.fetch_sub(got, Ordering::SeqCst);
                        return_threads(lendable, got);
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= BUDGET,
            "borrowers never hold more than the budget"
        );
        assert_eq!(
            lendable.load(Ordering::SeqCst),
            BUDGET,
            "every thread came back"
        );
    }

    #[test]
    fn lending_split_clamps_zero_threads_to_one_and_jobs_to_threads() {
        assert_eq!(template(500, 1).threads(0).thread_budget(), 1);
        assert_eq!(thread_split(0, 1, 6), (1, 0));
        assert_eq!(thread_split(2, 4, 6), (2, 0), "jobs are clamped to threads");
        assert_eq!(thread_split(4, 2, 6), (2, 2));
        assert_eq!(
            thread_split(4, 4, 2),
            (2, 2),
            "no more job threads than runs"
        );
        assert_eq!(thread_split(4, 0, 6), (1, 3));
    }

    #[test]
    fn lending_campaign_lends_idle_threads_to_running_evaluators() {
        // threads=4 at jobs=2 leaves two threads to lend, and each run's
        // evaluator wants one worker beyond its own for its two
        // workloads. A static split (two threads per job) lends nothing.
        let lent = || {
            archx_telemetry::global()
                .report()
                .counter("eval/lent_workers")
        };
        let specs: Vec<RunSpec> = [1u64, 2]
            .iter()
            .map(|&seed| RunSpec {
                method: Method::Random,
                seed,
            })
            .collect();
        let before = lent();
        CampaignRunner::new()
            .jobs(2)
            .run_specs(
                &specs,
                &DesignSpace::table4(),
                &template(500, 1).threads(4),
                8,
            )
            .expect("runs");
        assert!(lent() > before, "no worker was lent");
    }

    #[test]
    fn zero_budget_explores_nothing_and_spends_nothing() {
        for method in Method::ALL {
            let evaluator = template(800, 1).build();
            let log = run_method_on(method, &DesignSpace::table4(), &evaluator, 0, 1);
            assert!(log.records.is_empty(), "{method} explored at budget 0");
            assert_eq!(evaluator.sim_count(), 0, "{method} simulated at budget 0");
        }
    }

    #[test]
    fn run_method_on_reports_exact_sim_count_through_sink() {
        let evaluator = template(1_000, 1).build(); // 2 workloads => 2 sims per design
        let sink = Arc::new(telemetry::CollectingSink::new());
        evaluator.set_progress_sink(sink.clone());
        let budget = 6;
        let log = run_method_on(
            Method::Random,
            &DesignSpace::table4(),
            &evaluator,
            budget,
            1,
        );
        // Random search evaluates whole designs: with 2 workloads and a
        // budget of 6, exactly 3 designs = 6 simulations are reported.
        assert_eq!(sink.max_sims_done(), budget);
        assert_eq!(sink.len(), log.records.len());
        let last = sink.last().expect("events were emitted");
        assert_eq!(last.sim_budget, budget);
        assert_eq!(last.source, Method::Random.to_string());
        assert!(last.hypervolume > 0.0);
    }
}
