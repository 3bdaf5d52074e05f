//! Design evaluation: simulate a workload suite, model power/area, and
//! (for bottleneck-driven explorers) produce the merged bottleneck report.
//!
//! Mirrors the paper's methodology: DSE-time analysis uses a bounded
//! instruction window per workload (the paper uses the first 100 K
//! instructions of each Simpoint), every workload simulation counts as one
//! simulation toward the budget, and results are cached per design.
//!
//! ## Failure handling
//!
//! Long campaigns evaluate thousands of design points, so a pathological
//! one must not abort the search. Every per-workload simulation runs
//! behind `catch_unwind` with the simulator's typed errors mapped into
//! [`EvalError`]; a failed design gets one bounded retry with a halved
//! instruction window (transient blow-ups — deadlock watchdogs, cycle
//! budgets — often clear in a smaller window), and a persistently failing
//! design is **quarantined**: recorded in the evaluator's quarantine log,
//! cached as failed (so it is never re-simulated), journaled, and
//! reported to the caller as `Err`. Searches skip quarantined designs and
//! keep spending the remaining budget. Every attempt costs one simulation
//! per workload regardless of outcome, so a budget always terminates even
//! if every sampled design fails.

use crate::campaign::{borrow_threads, return_threads};
use crate::journal::{Journal, JournalFingerprint, JournalRecord};
use crate::lock;
use crate::pareto::{hypervolume, RefPoint};
use archx_deg::{fused, merge_reports, BottleneckReport};
use archx_power::{PowerModel, PpaResult};
use archx_sim::isa::Instruction;
use archx_sim::pipeline::DEADLOCK_WATCHDOG;
use archx_sim::{Cycle, MicroArch, OooCore, SimError, SimResult};
use archx_telemetry::{self as telemetry, Progress, ProgressSink};
use archx_workloads::{TraceStore, Workload};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

thread_local! {
    /// The last simulation result on this thread, kept so the next
    /// evaluation overwrites it in place instead of allocating its event
    /// table afresh. Per thread rather than per evaluator: campaign jobs
    /// and one-shot callers alike often build a fresh evaluator per run or
    /// per design on a long-lived thread.
    static BUFFERS: RefCell<SimResult> = RefCell::default();
}

/// Which bottleneck analysis to run alongside the simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    /// Simulation only.
    None,
    /// The paper's new DEG formulation (induced DEG + Algorithm 1).
    NewDeg,
    /// The prior static formulation (Calipers baseline).
    Calipers,
}

/// Evaluation of one design over the whole suite.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignEval {
    /// Suite-average PPA (arithmetic mean of IPC and power; area is
    /// workload independent).
    pub ppa: PpaResult,
    /// Per-workload PPA, aligned with the evaluator's workload list.
    pub per_workload: Vec<PpaResult>,
    /// Weighted bottleneck report (Eq. 2), present when analysis was
    /// requested.
    pub report: Option<BottleneckReport>,
    /// Which analysis produced `report`.
    pub analysis: Analysis,
}

/// Why an evaluation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The simulator returned a typed error.
    Sim(SimError),
    /// The PPA model produced a NaN or infinite figure — treated as an
    /// evaluation failure so it can never corrupt a Pareto frontier.
    NonFinitePpa,
    /// A worker panicked; the panic was caught and the message preserved.
    WorkerPanic {
        /// The panic payload, rendered.
        message: String,
    },
    /// A failure replayed from an evaluation journal (the original typed
    /// error is preserved as its tag + rendered message).
    Journaled {
        /// Machine-readable tag of the original error.
        tag: String,
        /// Rendered original error.
        message: String,
    },
}

impl EvalError {
    /// Short machine-readable tag (stable; used by telemetry counters and
    /// the evaluation journal).
    pub fn tag(&self) -> &str {
        match self {
            EvalError::Sim(e) => e.tag(),
            EvalError::NonFinitePpa => "non_finite_ppa",
            EvalError::WorkerPanic { .. } => "worker_panic",
            EvalError::Journaled { tag, .. } => tag,
        }
    }

    /// Whether a retry with a smaller instruction window could plausibly
    /// succeed. Deterministic design properties (invalid configurations,
    /// non-finite PPA) and journaled verdicts are never retried.
    pub fn retryable(&self) -> bool {
        match self {
            EvalError::Sim(e) => e.retryable(),
            EvalError::NonFinitePpa | EvalError::Journaled { .. } => false,
            EvalError::WorkerPanic { .. } => true,
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Sim(e) => write!(f, "{e}"),
            EvalError::NonFinitePpa => write!(f, "PPA model produced a non-finite value"),
            EvalError::WorkerPanic { message } => write!(f, "worker panicked: {message}"),
            EvalError::Journaled { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A design evaluation that failed past its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalFailure {
    /// Name of the first workload (by suite order) that failed; empty for
    /// design-level failures detected before any workload ran.
    pub workload: String,
    /// The error from the final attempt.
    pub error: EvalError,
    /// Total attempts made (1 = no retry).
    pub attempts: u32,
}

impl std::fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.workload.is_empty() {
            write!(f, "{} after {} attempt(s)", self.error, self.attempts)
        } else {
            write!(
                f,
                "workload {}: {} after {} attempt(s)",
                self.workload, self.error, self.attempts
            )
        }
    }
}

/// One quarantined design point: the ISSUE-mandated
/// `(arch, workload, error, attempts)` record.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// The design that failed.
    pub arch: MicroArch,
    /// First failing workload (empty for design-level failures).
    pub workload: String,
    /// The error from the final attempt.
    pub error: EvalError,
    /// Attempts made before giving up.
    pub attempts: u32,
}

/// Per-simulation safety limits applied to every run the evaluator makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLimits {
    /// Per-run cycle budget (`None` = unlimited).
    pub cycle_budget: Option<Cycle>,
    /// Deadlock watchdog: cycles without a commit before the run fails.
    pub deadlock_watchdog: Cycle,
}

impl Default for SimLimits {
    fn default() -> Self {
        SimLimits {
            cycle_budget: None,
            deadlock_watchdog: DEADLOCK_WATCHDOG,
        }
    }
}

/// Campaign-progress state carried by the evaluator: who is searching,
/// against what budget, and the frontier statistics accumulated so far.
struct ProgressMeta {
    source: String,
    sim_budget: u64,
    sink: Option<Arc<dyn ProgressSink>>,
    points: Vec<PpaResult>,
    best_tradeoff: f64,
}

impl ProgressMeta {
    /// Adds a successfully evaluated design to the frontier statistics.
    fn record(&mut self, ppa: PpaResult) {
        self.points.push(ppa);
        self.best_tradeoff = self.best_tradeoff.max(ppa.tradeoff());
    }
}

impl Default for ProgressMeta {
    fn default() -> Self {
        ProgressMeta {
            source: "eval".to_string(),
            sim_budget: 0,
            sink: None,
            points: Vec::new(),
            best_tradeoff: 0.0,
        }
    }
}

/// Staged construction for [`Evaluator`], and the one description of an
/// evaluator's configuration.
///
/// Every knob is named and defaults are explicit. Traces are resolved
/// through a shared [`TraceStore`], so concurrent evaluators over the same
/// `(workload, seed, window)` key share one synthesised trace zero-copy.
/// Campaigns hold a builder as a template and clone it for every
/// evaluator they build, so all of a campaign's runs see the same
/// configuration.
///
/// ```
/// use archx_dse::eval::Evaluator;
/// use archx_workloads::spec06_suite;
/// let eval = Evaluator::builder(spec06_suite())
///     .window(5_000)
///     .seed(1)
///     .threads(1)
///     .build();
/// assert_eq!(eval.workloads().len(), spec06_suite().len());
/// ```
#[derive(Debug, Clone)]
pub struct EvaluatorBuilder {
    workloads: Vec<Workload>,
    window: usize,
    seed: u64,
    trace_store: Option<Arc<TraceStore>>,
    threads: usize,
    lendable: Option<Arc<AtomicUsize>>,
    limits: SimLimits,
    max_retries: u32,
}

impl EvaluatorBuilder {
    /// Starts a builder over `workloads` with the defaults the paper
    /// experiments use: a 20 000-instruction window, trace seed 1, all
    /// available threads, default [`SimLimits`], one retry,
    /// and the process-global trace store.
    pub fn new(workloads: Vec<Workload>) -> Self {
        EvaluatorBuilder {
            workloads,
            window: 20_000,
            seed: 1,
            trace_store: None,
            threads: crate::default_threads(),
            lendable: None,
            limits: SimLimits::default(),
            max_retries: 1,
        }
    }

    /// Instruction window per workload trace (clamped to at least 1).
    pub fn window(mut self, instrs: usize) -> Self {
        self.window = instrs.max(1);
        self
    }

    /// Seed for trace synthesis.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The trace seed set by [`Self::seed`]. Campaigns that search with
    /// one seed use it as their search seed too.
    pub fn trace_seed(&self) -> u64 {
        self.seed
    }

    /// Resolves traces through `store` instead of the process-global
    /// [`TraceStore::global`]. Evaluators sharing a store share traces
    /// zero-copy; a dedicated store also makes its hit/miss counters
    /// observable in isolation.
    pub fn trace_store(mut self, store: Arc<TraceStore>) -> Self {
        self.trace_store = Some(store);
        self
    }

    /// Worker threads (clamped to at least 1; 1 = fully serial; results
    /// are identical either way). A campaign reads this as its total
    /// thread budget, shared by its job threads and the workers they
    /// lend each other.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The thread count set by [`Self::threads`].
    pub fn thread_budget(&self) -> usize {
        self.threads
    }

    /// Makes the built evaluator borrow its extra workload workers from
    /// `lendable`, a campaign's count of idle threads, instead of from its
    /// own count of [`Self::threads`] − 1. The caller's thread always
    /// works; workers beyond it run only while the count has them.
    pub(crate) fn lend_from(mut self, lendable: Arc<AtomicUsize>) -> Self {
        self.lendable = Some(lendable);
        self
    }

    /// Per-simulation limits (cycle budget, deadlock watchdog).
    pub fn limits(mut self, limits: SimLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Bounds retries of retryable failures (each retry halves the
    /// instruction window again). Default: 1.
    pub fn max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Resolves every trace through the store (synthesising at most once
    /// per `(workload, seed, window)` key per store) and builds the
    /// evaluator.
    pub fn build(self) -> Evaluator {
        let store = self.trace_store.unwrap_or_else(TraceStore::global);
        let traces = self
            .workloads
            .iter()
            .map(|w| store.get(w, self.window, self.seed))
            .collect();
        Evaluator {
            workloads: self.workloads,
            traces,
            instrs_per_workload: self.window,
            trace_seed: self.seed,
            power: PowerModel,
            threads: self.threads,
            lendable: self
                .lendable
                .unwrap_or_else(|| Arc::new(AtomicUsize::new(self.threads - 1))),
            limits: self.limits,
            max_retries: self.max_retries,
            sims: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            cache: Mutex::new(HashMap::new()),
            replay_costs: Mutex::new(HashMap::new()),
            quarantine: Mutex::new(Vec::new()),
            journal: Mutex::new(None),
            journal_error: Mutex::new(None),
            progress: Mutex::new(ProgressMeta::default()),
        }
    }
}

/// Shared evaluator with a design cache and a simulation budget counter.
pub struct Evaluator {
    workloads: Vec<Workload>,
    traces: Vec<Arc<[Instruction]>>,
    instrs_per_workload: usize,
    trace_seed: u64,
    power: PowerModel,
    threads: usize,
    lendable: Arc<AtomicUsize>,
    limits: SimLimits,
    max_retries: u32,
    sims: AtomicU64,
    retries: AtomicU64,
    cache: Mutex<HashMap<MicroArch, Result<DesignEval, EvalFailure>>>,
    /// Journaled simulations of replayed designs the search has not asked
    /// for yet (see [`Evaluator::warm_start`]).
    replay_costs: Mutex<HashMap<MicroArch, u64>>,
    quarantine: Mutex<Vec<QuarantineEntry>>,
    journal: Mutex<Option<Journal>>,
    journal_error: Mutex<Option<String>>,
    progress: Mutex<ProgressMeta>,
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("workloads", &self.workloads.len())
            .field("instrs", &self.traces.first().map_or(0, |t| t.len()))
            .field("sims", &self.sim_count())
            .field("quarantined", &self.quarantine_len())
            .finish()
    }
}

impl Evaluator {
    /// Starts an [`EvaluatorBuilder`] over `workloads`.
    pub fn builder(workloads: Vec<Workload>) -> EvaluatorBuilder {
        EvaluatorBuilder::new(workloads)
    }

    /// The workload suite.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The per-simulation limits in force.
    pub fn limits(&self) -> SimLimits {
        self.limits
    }

    /// Simulations performed so far (one per workload per attempt on
    /// every uncached design, failures included), plus the journaled cost
    /// of every replayed design the search has asked for.
    pub fn sim_count(&self) -> u64 {
        self.sims.load(Ordering::Relaxed)
    }

    /// Retries performed so far.
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Snapshot of the quarantine log.
    pub fn quarantine(&self) -> Vec<QuarantineEntry> {
        lock(&self.quarantine).clone()
    }

    /// Number of quarantined designs.
    pub fn quarantine_len(&self) -> usize {
        lock(&self.quarantine).len()
    }

    /// The configuration fingerprint a journal for this evaluator must
    /// match; `extra` carries campaign-level metadata (method, seed, …).
    pub fn fingerprint(&self, extra: Vec<(String, String)>) -> JournalFingerprint {
        JournalFingerprint {
            workloads: self.workloads.iter().map(|w| w.id.to_string()).collect(),
            instrs_per_workload: self.instrs_per_workload,
            trace_seed: self.trace_seed,
            cycle_budget: self.limits.cycle_budget,
            deadlock_watchdog: self.limits.deadlock_watchdog,
            extra,
        }
    }

    /// Attaches a write-ahead journal: every subsequent uncached
    /// evaluation is appended and flushed before its result is returned.
    pub fn set_journal(&self, journal: Journal) {
        *lock(&self.journal) = Some(journal);
    }

    /// The first journal-append error, if any occurred (appends never
    /// abort a campaign; the error is surfaced here instead).
    pub fn journal_error(&self) -> Option<String> {
        lock(&self.journal_error).clone()
    }

    /// Replays journaled evaluations into the cache. A replayed design's
    /// journaled simulations are charged to the budget when the search
    /// first asks for it, not here, so a resumed deterministic search sees
    /// the budget of the uninterrupted run at every step, re-walks the
    /// whole replayed prefix (even one that spent the entire budget) and
    /// simulates only past it. Replayed successes join the progress
    /// frontier in journal order, so the progress events of the resumed
    /// run are those of the uninterrupted run. Returns the simulations
    /// the records hold.
    pub fn warm_start(&self, records: Vec<JournalRecord>) -> u64 {
        let replayed = records.len() as u64;
        let mut sims = 0u64;
        {
            let mut cache = lock(&self.cache);
            let mut costs = lock(&self.replay_costs);
            let mut meta = lock(&self.progress);
            for rec in records {
                sims += rec.sims_cost;
                *costs.entry(rec.arch).or_default() += rec.sims_cost;
                match &rec.outcome {
                    Ok(eval) => meta.record(eval.ppa),
                    Err(failure) => lock(&self.quarantine).push(QuarantineEntry {
                        arch: rec.arch,
                        workload: failure.workload.clone(),
                        error: failure.error.clone(),
                        attempts: failure.attempts,
                    }),
                }
                cache.insert(rec.arch, rec.outcome);
            }
        }
        telemetry::counter_add("journal/replayed", replayed);
        sims
    }

    /// Labels this evaluator's progress events (`source`, typically the
    /// search method's name) and the simulation budget they report against.
    pub fn set_progress_target(&self, source: impl Into<String>, sim_budget: u64) {
        let mut meta = lock(&self.progress);
        meta.source = source.into();
        meta.sim_budget = sim_budget;
    }

    /// Attaches the evaluator's progress sink. One sink per evaluator; a
    /// second call replaces the first.
    pub fn set_progress_sink(&self, sink: Arc<dyn ProgressSink>) {
        lock(&self.progress).sink = Some(sink);
    }

    /// Evaluates a design (simulation + PPA only, no bottleneck analysis).
    ///
    /// Cached: re-evaluating a design costs no simulations. `Err` means
    /// the design failed past its retry budget and is quarantined; the
    /// failure is cached too, so a quarantined design is never
    /// re-simulated.
    pub fn evaluate(&self, arch: &MicroArch) -> Result<DesignEval, EvalFailure> {
        self.evaluate_with(arch, Analysis::None)
    }

    /// Evaluates a design with an explicit bottleneck-analysis backend:
    /// [`Analysis::NewDeg`] additionally analyses each simulation with
    /// [`fused::analyze`] (the induced DEG's critical path) and merges the
    /// per-workload bottleneck reports (Eq. 2).
    ///
    /// Cached: re-evaluating a design costs no simulations. A cached
    /// design evaluated without a report will be re-simulated if a report
    /// is later requested (counting simulations again, as the paper's
    /// trace-dumping runs would). A cached *failure* is returned for any
    /// requested analysis — quarantine is a property of the design.
    pub fn evaluate_with(
        &self,
        arch: &MicroArch,
        analysis: Analysis,
    ) -> Result<DesignEval, EvalFailure> {
        if let Some(cost) = lock(&self.replay_costs).remove(arch) {
            self.sims.fetch_add(cost, Ordering::Relaxed);
        }
        if let Some(hit) = lock(&self.cache).get(arch) {
            match hit {
                Ok(eval) if analysis == Analysis::None || eval.analysis == analysis => {
                    telemetry::counter_add("eval/cache/hit", 1);
                    return Ok(eval.clone());
                }
                Err(failure) => {
                    telemetry::counter_add("eval/cache/hit", 1);
                    telemetry::counter_add("eval/cache/quarantined_hit", 1);
                    return Err(failure.clone());
                }
                Ok(_) => {}
            }
        }
        telemetry::counter_add("eval/cache/miss", 1);
        let sims_before = self.sim_count();
        let outcome = self.evaluate_uncached(arch, analysis);
        let sims_cost = self.sim_count() - sims_before;
        if let Err(failure) = &outcome {
            lock(&self.quarantine).push(QuarantineEntry {
                arch: *arch,
                workload: failure.workload.clone(),
                error: failure.error.clone(),
                attempts: failure.attempts,
            });
            telemetry::counter_add("eval/quarantine", 1);
            telemetry::counter_add(&format!("eval/failure/{}", failure.error.tag()), 1);
        }
        lock(&self.cache).insert(*arch, outcome.clone());
        self.journal_append(arch, analysis, sims_cost, &outcome);
        outcome
    }

    fn journal_append(
        &self,
        arch: &MicroArch,
        analysis: Analysis,
        sims_cost: u64,
        outcome: &Result<DesignEval, EvalFailure>,
    ) {
        let mut guard = lock(&self.journal);
        if let Some(journal) = guard.as_mut() {
            let rec = JournalRecord {
                arch: *arch,
                analysis,
                sims_cost,
                outcome: outcome.clone(),
            };
            if let Err(e) = journal.append(&rec) {
                telemetry::counter_add("journal/error", 1);
                let mut slot = lock(&self.journal_error);
                if slot.is_none() {
                    *slot = Some(e.to_string());
                }
            }
        }
    }

    fn evaluate_uncached(
        &self,
        arch: &MicroArch,
        analysis: Analysis,
    ) -> Result<DesignEval, EvalFailure> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            // Attempt k runs the first `len >> (k-1)` instructions of
            // each trace: retries halve the window.
            let divisor = 1usize << (attempts - 1).min(16);
            match self.attempt(arch, analysis, divisor) {
                Ok(eval) => {
                    self.emit_progress(eval.ppa);
                    return Ok(eval);
                }
                Err((workload, error)) => {
                    if error.retryable() && attempts <= self.max_retries {
                        telemetry::counter_add("eval/retry", 1);
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    return Err(EvalFailure {
                        workload,
                        error,
                        attempts,
                    });
                }
            }
        }
    }

    /// Simulates one trace and runs the requested analysis. Without one,
    /// only the statistics are computed ([`OooCore::stats`]); with one, the
    /// full record is written into `result`. A panic midway leaves `result`
    /// half-written, which is harmless: the next run overwrites it.
    fn run_workload(
        &self,
        arch: &MicroArch,
        analysis: Analysis,
        trace: &[Instruction],
        result: &mut SimResult,
    ) -> Result<(PpaResult, Option<BottleneckReport>), EvalError> {
        let mut core = OooCore::try_new(*arch)
            .map_err(EvalError::Sim)?
            .with_deadlock_watchdog(self.limits.deadlock_watchdog);
        if let Some(budget) = self.limits.cycle_budget {
            core = core.with_cycle_budget(budget);
        }
        let stats = {
            let _timed = telemetry::span("simulate");
            if analysis == Analysis::None {
                core.stats(trace).map_err(EvalError::Sim)?
            } else {
                core.run_into(trace, result).map_err(EvalError::Sim)?;
                result.stats.clone()
            }
        };
        stats.export_telemetry();
        let ppa = self.power.evaluate(arch, &stats);
        if !(ppa.ipc.is_finite() && ppa.power_w.is_finite() && ppa.area_mm2.is_finite()) {
            return Err(EvalError::NonFinitePpa);
        }
        let report = match analysis {
            Analysis::None => None,
            Analysis::NewDeg => Some(fused::analyze(result).1),
            Analysis::Calipers => Some(
                archx_deg::CalipersModel::from_arch(arch)
                    .analyze(trace, result)
                    .1,
            ),
        };
        Ok((ppa, report))
    }

    /// One evaluation attempt over the whole suite. Costs one simulation
    /// per workload whatever happens (so budgets terminate even under
    /// total failure, and accounting is identical for any thread count).
    /// On failure, reports the error of the smallest-index workload —
    /// deterministic regardless of worker scheduling.
    fn attempt(
        &self,
        arch: &MicroArch,
        analysis: Analysis,
        divisor: usize,
    ) -> Result<DesignEval, (String, EvalError)> {
        let n = self.workloads.len();
        self.sims.fetch_add(n as u64, Ordering::Relaxed);

        let run_one = |i: usize| -> Result<(PpaResult, Option<BottleneckReport>), EvalError> {
            // Everything below is attributed under `eval/...` — absolute,
            // so names match whether this runs on the caller's thread or
            // on a spawned worker. Scopes are thread-local.
            let _root = telemetry::root_scope();
            let _scope = telemetry::scope("eval");
            let full = &self.traces[i];
            // Retry sub-slicing: attempt k reads the first `len >> (k-1)`
            // instructions of the shared trace — a prefix view, never a
            // regeneration (the synthesiser's stream is prefix-stable).
            let window = (full.len() / divisor).max(1).min(full.len());
            let trace = &full[..window];
            BUFFERS.with_borrow_mut(|result| self.run_workload(arch, analysis, trace, result))
        };
        // A panicking worker must fail the design, not the campaign.
        let guarded = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| run_one(i))).unwrap_or_else(|payload| {
                Err(EvalError::WorkerPanic {
                    message: panic_message(&payload),
                })
            })
        };

        // The caller's thread always works; up to `min(threads, n) - 1`
        // more run while the lendable count has them.
        let lent = borrow_threads(&self.lendable, self.threads.min(n).saturating_sub(1));
        if lent > 0 {
            telemetry::counter_add("eval/lent_workers", lent as u64);
        }
        let outcomes = crate::fan_out(n, lent, guarded, || {});
        return_threads(&self.lendable, lent);

        let mut per_workload = Vec::with_capacity(n);
        let mut reports: Vec<Option<BottleneckReport>> = Vec::with_capacity(n);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok((ppa, rep)) => {
                    per_workload.push(ppa);
                    reports.push(rep);
                }
                Err(error) => return Err((self.workloads[i].id.to_string(), error)),
            }
        }

        let ipc = per_workload.iter().map(|p| p.ipc).sum::<f64>() / n as f64;
        let power = per_workload.iter().map(|p| p.power_w).sum::<f64>() / n as f64;
        let area = per_workload[0].area_mm2;
        let mean_ppa = PpaResult {
            ipc,
            power_w: power,
            area_mm2: area,
        };
        let report = if analysis != Analysis::None {
            let reps: Vec<BottleneckReport> = reports
                .into_iter()
                .map(|r| r.expect("analysis requested"))
                .collect();
            let weights: Vec<f64> = self.workloads.iter().map(|w| w.weight).collect();
            Some(merge_reports(&reps, &weights))
        } else {
            None
        };
        Ok(DesignEval {
            ppa: mean_ppa,
            per_workload,
            report,
            analysis,
        })
    }

    /// Records a successful uncached evaluation on the frontier and, when a
    /// progress sink is attached, publishes one progress event to it. The
    /// hypervolume is computed only for a sink, but every point is kept,
    /// so a sink attached later sees the whole frontier.
    fn emit_progress(&self, ppa: PpaResult) {
        let (event, sink) = {
            let mut meta = lock(&self.progress);
            meta.record(ppa);
            let Some(sink) = meta.sink.clone() else {
                return;
            };
            let event = Progress {
                source: meta.source.clone(),
                sims_done: self.sim_count(),
                sim_budget: meta.sim_budget,
                hypervolume: hypervolume(&meta.points, &RefPoint::default()),
                best_tradeoff: meta.best_tradeoff,
            };
            (event, sink)
        };
        sink.on_progress(&event);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One evaluated design within an exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// The design.
    pub arch: MicroArch,
    /// Suite-average PPA.
    pub ppa: PpaResult,
    /// Cumulative simulation count after this evaluation.
    pub sims_after: u64,
}

/// Log of an exploration run: every design in evaluation order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    /// Method label.
    pub method: String,
    /// Records in evaluation order.
    pub records: Vec<EvalRecord>,
    /// Simulations the run spent, journaled replays and quarantined
    /// designs included (set by [`run_method_on`](crate::run_method_on)).
    pub sims_spent: u64,
}

impl RunLog {
    /// Empty log for a method.
    pub fn new(method: impl Into<String>) -> Self {
        RunLog {
            method: method.into(),
            ..RunLog::default()
        }
    }

    /// Appends a record (one search iteration).
    pub fn push(&mut self, arch: MicroArch, ppa: PpaResult, sims_after: u64) {
        telemetry::counter_add("dse/iteration", 1);
        self.records.push(EvalRecord {
            arch,
            ppa,
            sims_after,
        });
    }

    /// Hypervolume (Eq. 3) of the designs the run had logged within
    /// `sims` simulations: the records with `sims_after <= sims`.
    /// `u64::MAX` covers the whole run.
    pub fn hypervolume(&self, r: &RefPoint, sims: u64) -> f64 {
        let pts: Vec<PpaResult> = self
            .records
            .iter()
            .take_while(|rec| rec.sims_after <= sims)
            .map(|rec| rec.ppa)
            .collect();
        hypervolume(&pts, r)
    }

    /// Hypervolume as a function of cumulative simulations, sampled at
    /// each multiple of `step` up to the run's last record.
    pub fn hypervolume_curve(&self, r: &RefPoint, step: u64) -> Vec<(u64, f64)> {
        assert!(step > 0, "step must be positive");
        let max_sims = self.records.last().map_or(0, |rec| rec.sims_after);
        (1..=max_sims / step)
            .map(|k| (k * step, self.hypervolume(r, k * step)))
            .collect()
    }

    /// Pareto frontier over all records: `(arch, ppa)` pairs.
    pub fn frontier(&self) -> Vec<(MicroArch, PpaResult)> {
        let pts: Vec<PpaResult> = self.records.iter().map(|r| r.ppa).collect();
        crate::pareto::pareto_front(&pts)
            .into_iter()
            .map(|i| (self.records[i].arch, self.records[i].ppa))
            .collect()
    }

    /// Best design by the paper's PPA trade-off metric. Records with a
    /// non-finite trade-off (which only enter a log built outside the
    /// evaluator, whose PPA is always finite) are ignored rather than
    /// allowed to poison the comparison.
    pub fn best_tradeoff(&self) -> Option<&EvalRecord> {
        self.records
            .iter()
            .filter(|r| r.ppa.tradeoff().is_finite())
            .max_by(|a, b| a.ppa.tradeoff().total_cmp(&b.ppa.tradeoff()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_workloads::spec06_suite;

    fn small_eval() -> Evaluator {
        let suite: Vec<Workload> = spec06_suite().into_iter().take(2).collect();
        Evaluator::builder(suite)
            .window(2_000)
            .seed(1)
            .threads(1)
            .build()
    }

    #[test]
    fn evaluation_counts_sims_and_caches() {
        let ev = small_eval();
        let arch = MicroArch::baseline();
        let e1 = ev.evaluate(&arch).expect("evaluates");
        assert_eq!(ev.sim_count(), 2);
        let e2 = ev.evaluate(&arch).expect("evaluates");
        assert_eq!(ev.sim_count(), 2, "cache hit must not count");
        assert_eq!(e1, e2);
        assert!(e1.ppa.ipc > 0.0);
        assert_eq!(e1.per_workload.len(), 2);
    }

    #[test]
    fn analysis_produces_merged_report() {
        let ev = small_eval();
        let e = ev
            .evaluate_with(&MicroArch::tiny(), Analysis::NewDeg)
            .expect("evaluates");
        let rep = e.report.expect("requested analysis");
        assert!(rep.total() > 0.5);
    }

    #[test]
    fn parallel_matches_serial() {
        let suite: Vec<Workload> = spec06_suite().into_iter().take(3).collect();
        let serial = Evaluator::builder(suite.clone())
            .window(2_000)
            .seed(1)
            .threads(1)
            .build();
        let parallel = Evaluator::builder(suite)
            .window(2_000)
            .seed(1)
            .threads(3)
            .build();
        let a = serial
            .evaluate_with(&MicroArch::baseline(), Analysis::NewDeg)
            .expect("evaluates");
        let b = parallel
            .evaluate_with(&MicroArch::baseline(), Analysis::NewDeg)
            .expect("evaluates");
        assert_eq!(a, b, "thread count must not change results");
    }

    #[test]
    fn progress_events_reach_the_sink() {
        let ev = small_eval();
        let sink = Arc::new(telemetry::CollectingSink::new());
        ev.set_progress_target("test", 4);
        ev.set_progress_sink(sink.clone());
        ev.evaluate(&MicroArch::baseline()).expect("evaluates");
        ev.evaluate(&MicroArch::baseline()).expect("evaluates"); // cached: no new event
        let events = sink.events();
        assert_eq!(events.len(), 1, "one event per uncached evaluation");
        assert_eq!(events[0].source, "test");
        assert_eq!(events[0].sims_done, 2);
        assert_eq!(events[0].sim_budget, 4);
        assert!(events[0].hypervolume > 0.0);
        assert!(events[0].best_tradeoff > 0.0);
    }

    #[test]
    fn a_sink_attached_late_sees_every_earlier_point() {
        let ev = small_eval();
        let mut narrow = MicroArch::baseline();
        narrow.width = 2;
        let designs = [MicroArch::tiny(), MicroArch::baseline(), narrow];
        let mut ppas = Vec::new();
        for arch in &designs[..2] {
            ppas.push(ev.evaluate(arch).expect("evaluates").ppa);
        }
        let sink = Arc::new(telemetry::CollectingSink::new());
        ev.set_progress_sink(sink.clone());
        ppas.push(ev.evaluate(&designs[2]).expect("evaluates").ppa);

        let events = sink.events();
        assert_eq!(events.len(), 1, "no event before the sink was attached");
        let r = RefPoint::default();
        assert_eq!(events[0].hypervolume, hypervolume(&ppas, &r));
        assert!(
            events[0].hypervolume > hypervolume(&ppas[2..], &r),
            "the earlier points widen the frontier"
        );
        let best = ppas.iter().map(|p| p.tradeoff()).fold(0.0, f64::max);
        assert_eq!(events[0].best_tradeoff, best);
    }

    #[test]
    fn watchdog_failure_is_retried_then_quarantined() {
        // A 1-cycle watchdog trips before the pipeline can possibly
        // commit, on the full window and on the halved retry window.
        let ev = {
            let suite: Vec<Workload> = spec06_suite().into_iter().take(2).collect();
            Evaluator::builder(suite)
                .window(2_000)
                .seed(1)
                .threads(1)
                .limits(SimLimits {
                    cycle_budget: None,
                    deadlock_watchdog: 1,
                })
                .build()
        };
        let arch = MicroArch::baseline();
        let failure = ev.evaluate(&arch).expect_err("must fail");
        assert_eq!(failure.error.tag(), "deadlock");
        assert_eq!(failure.attempts, 2, "one retry then quarantine");
        assert_eq!(ev.retry_count(), 1);
        assert_eq!(ev.quarantine_len(), 1);
        assert_eq!(ev.quarantine()[0].arch, arch);
        assert!(!ev.quarantine()[0].workload.is_empty());
        // Both attempts cost the full suite.
        assert_eq!(ev.sim_count(), 4);
        // The failure is cached: no re-simulation, same error.
        let again = ev.evaluate(&arch).expect_err("still quarantined");
        assert_eq!(again.error.tag(), "deadlock");
        assert_eq!(ev.sim_count(), 4, "quarantined design never re-simulates");
        assert_eq!(ev.quarantine_len(), 1, "no duplicate quarantine entry");
    }

    #[test]
    fn cycle_budget_trips_as_typed_failure() {
        let suite: Vec<Workload> = spec06_suite().into_iter().take(2).collect();
        let ev = Evaluator::builder(suite)
            .window(2_000)
            .seed(1)
            .threads(1)
            .limits(SimLimits {
                cycle_budget: Some(3),
                deadlock_watchdog: 1_000_000,
            })
            .build();
        let failure = ev.evaluate(&MicroArch::baseline()).expect_err("must fail");
        assert_eq!(failure.error.tag(), "cycle_budget");
        assert_eq!(ev.quarantine_len(), 1);
    }

    #[test]
    fn retry_with_halved_window_can_succeed() {
        // Self-calibrating: pick a cycle budget strictly between the
        // cycles of the half window and the full window, so the first
        // attempt fails and the halved retry succeeds.
        let suite: Vec<Workload> = spec06_suite().into_iter().take(1).collect();
        let arch = MicroArch::baseline();
        let trace = suite[0].generate(2_000, 1);
        let full = OooCore::new(arch)
            .run(&trace)
            .expect("simulates")
            .stats
            .cycles;
        let half = OooCore::new(arch)
            .run(&trace[..trace.len() / 2])
            .expect("simulates")
            .stats
            .cycles;
        assert!(half < full);
        let budget = (half + full) / 2;
        let ev = Evaluator::builder(suite)
            .window(2_000)
            .seed(1)
            .threads(1)
            .limits(SimLimits {
                cycle_budget: Some(budget),
                deadlock_watchdog: 1_000_000,
            })
            .build();
        let eval = ev.evaluate(&arch).expect("retry succeeds");
        assert!(eval.ppa.ipc > 0.0);
        assert_eq!(ev.retry_count(), 1);
        assert_eq!(ev.quarantine_len(), 0);
        assert_eq!(ev.sim_count(), 2, "both attempts count");
    }

    #[test]
    fn journal_warm_start_skips_simulation() {
        let dir = std::env::temp_dir().join(format!("archx-eval-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warmstart.jsonl");
        let _ = std::fs::remove_file(&path);

        let ev = small_eval();
        let journal = Journal::create(&path, &ev.fingerprint(Vec::new())).unwrap();
        ev.set_journal(journal);
        let a = MicroArch::baseline();
        let b = MicroArch::tiny();
        let ea = ev.evaluate(&a).expect("evaluates");
        let eb = ev.evaluate_with(&b, Analysis::NewDeg).expect("evaluates");
        assert_eq!(ev.sim_count(), 4);
        assert!(ev.journal_error().is_none());

        // A fresh evaluator resumes from the journal: same results, the
        // same budget position once the search has reached each replayed
        // design, zero new simulations.
        let ev2 = small_eval();
        let (journal2, records) = Journal::resume(&path, &ev2.fingerprint(Vec::new())).unwrap();
        assert_eq!(records.len(), 2);
        ev2.set_journal(journal2);
        assert_eq!(ev2.warm_start(records), 4, "the journal's simulations");
        assert_eq!(ev2.sim_count(), 0, "charged as the search reaches them");
        let ra = ev2.evaluate(&a).expect("cached");
        assert_eq!(ev2.sim_count(), 2, "a's journaled cost");
        let rb = ev2.evaluate_with(&b, Analysis::NewDeg).expect("cached");
        let ra_again = ev2.evaluate(&a).expect("cached");
        assert_eq!(ra, ea);
        assert_eq!(rb, eb);
        assert_eq!(ra_again, ea);
        assert_eq!(ev2.sim_count(), 4, "each replayed cost is charged once");
        assert!(ev2.journal_error().is_none());
        // Nothing was re-simulated: no evaluation was appended.
        let (_, records) = Journal::resume(&path, &ev2.fingerprint(Vec::new())).unwrap();
        assert_eq!(records.len(), 2, "no re-simulation after warm start");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resumed_progress_events_are_the_tail_of_the_uninterrupted_run() {
        let dir = std::env::temp_dir().join(format!("archx-eval-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume-progress.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut narrow = MicroArch::baseline();
        narrow.width = 2;
        let designs = [MicroArch::tiny(), MicroArch::baseline(), narrow];
        let run = |ev: &Evaluator| {
            let sink = Arc::new(telemetry::CollectingSink::new());
            ev.set_progress_target("test", 6);
            ev.set_progress_sink(sink.clone());
            for arch in &designs {
                ev.evaluate(arch).expect("evaluates");
            }
            sink.events()
        };

        let ev = small_eval();
        ev.set_journal(Journal::create(&path, &ev.fingerprint(Vec::new())).unwrap());
        let full = run(&ev);
        assert_eq!(full.len(), designs.len());

        // Resume from the first two evaluations only: the third design is
        // simulated anew, against the frontier of all three.
        let ev2 = small_eval();
        let (_, mut records) = Journal::resume(&path, &ev2.fingerprint(Vec::new())).unwrap();
        records.truncate(2);
        ev2.warm_start(records);
        let resumed = run(&ev2);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(resumed.len(), 1, "replayed designs emit no event");
        assert_eq!(resumed[..], full[2..], "the replayed designs count");
    }

    #[test]
    fn runlog_hypervolume_takes_the_records_within_the_budget() {
        let ppas = [
            PpaResult {
                ipc: 0.5,
                power_w: 0.3,
                area_mm2: 4.0,
            },
            PpaResult {
                ipc: 1.0,
                power_w: 0.6,
                area_mm2: 6.0,
            },
            PpaResult {
                ipc: 0.8,
                power_w: 0.2,
                area_mm2: 8.0,
            },
        ];
        let mut log = RunLog::new("test");
        for (k, &ppa) in ppas.iter().enumerate() {
            log.push(MicroArch::baseline(), ppa, 2 * (k as u64 + 1));
        }
        let r = RefPoint::default();
        let prefix: Vec<f64> = (1..=3).map(|n| hypervolume(&ppas[..n], &r)).collect();
        assert!(prefix[0] < prefix[1] && prefix[1] < prefix[2]);
        assert_eq!(log.hypervolume(&r, 3).to_bits(), prefix[0].to_bits());
        assert_eq!(log.hypervolume(&r, 4).to_bits(), prefix[1].to_bits());
        assert_eq!(log.hypervolume(&r, u64::MAX).to_bits(), prefix[2].to_bits());
        assert_eq!(
            log.hypervolume_curve(&r, 2),
            vec![(2, prefix[0]), (4, prefix[1]), (6, prefix[2])]
        );
    }

    #[test]
    fn runlog_curve_is_monotone() {
        let mut log = RunLog::new("test");
        let mk = |ipc: f64| PpaResult {
            ipc,
            power_w: 0.2,
            area_mm2: 5.0,
        };
        log.push(MicroArch::baseline(), mk(0.5), 2);
        log.push(MicroArch::baseline(), mk(1.0), 4);
        log.push(MicroArch::baseline(), mk(0.8), 6);
        let curve = log.hypervolume_curve(&RefPoint::default(), 2);
        assert_eq!(curve.len(), 3);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "hypervolume must be non-decreasing");
        }
        assert!((log.best_tradeoff().unwrap().ppa.ipc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_tradeoff_ignores_non_finite_records() {
        let mut log = RunLog::new("test");
        let mk = |ipc: f64| PpaResult {
            ipc,
            power_w: 0.2,
            area_mm2: 5.0,
        };
        log.push(MicroArch::baseline(), mk(1.0), 2);
        log.push(
            MicroArch::baseline(),
            PpaResult {
                ipc: f64::NAN,
                power_w: 0.2,
                area_mm2: 5.0,
            },
            4,
        );
        log.push(
            MicroArch::baseline(),
            PpaResult {
                ipc: f64::INFINITY,
                power_w: 0.2,
                area_mm2: 5.0,
            },
            6,
        );
        let best = log.best_tradeoff().expect("finite record exists");
        assert!((best.ppa.ipc - 1.0).abs() < 1e-12);
        // An all-non-finite log yields None, not a panic.
        let mut bad = RunLog::new("bad");
        bad.push(
            MicroArch::baseline(),
            PpaResult {
                ipc: f64::NAN,
                power_w: 0.2,
                area_mm2: 5.0,
            },
            1,
        );
        assert!(bad.best_tradeoff().is_none());
    }
}
