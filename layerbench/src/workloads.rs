//! The three benchmark workloads. Each one draws its inputs from the seed,
//! sets up its traces, measures for the given seconds and checks what it
//! measured.
//!
//! - `evaluate`: one-shot ArchExplorer evaluations (the `archx analyze`
//!   path) — simulate four SPEC06-like traces, then build, induce and walk
//!   the DEG and attribute the critical path. Exercises every analysis
//!   layer.
//! - `simulate`: the same designs and traces evaluated without analysis,
//!   the path random search and the surrogate baselines take. Bypasses the
//!   DEG layers.
//! - `explore`: 240-simulation ArchExplorer searches with a write-ahead
//!   journal. Exercises the search moves, the design cache (revisits),
//!   the progress hypervolume and journal appends; a task is one search
//!   step, timed between the evaluator's progress events.

use crate::layers;
use crate::measure::{self, Calibrator, Step};
use crate::Outcome;
use archexplorer::dse::eval::{Analysis, DesignEval, RunLog};
use archexplorer::dse::{run_method_on, DesignSpace, Evaluator, Journal, Method, ParamId};
use archexplorer::sim::MicroArch;
use archexplorer::telemetry::{Progress, ProgressSink};
use archexplorer::workloads::{spec06_suite, TraceStore, Workload};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["evaluate", "simulate", "explore"];

/// A workload: `(seed, seconds, trace) -> outcome`.
pub type Run = fn(u64, f64, bool) -> Outcome;

pub fn by_name(name: &str) -> Option<Run> {
    match name {
        "evaluate" => Some(evaluate),
        "simulate" => Some(simulate),
        "explore" => Some(explore),
        _ => None,
    }
}

/// Instructions per trace: the window of `archx analyze`, `archx explore`
/// and every run in EXPERIMENTS.md (`instrs=20000`).
const WINDOW: usize = 20_000;
/// Traces of the `evaluate` and `simulate` workloads: integer
/// compression, pointer chasing, compute-bound and FP streaming.
const DESIGN_SUITE: [&str; 4] = ["401.bzip2", "429.mcf", "456.hmmer", "470.lbm"];
/// Designs per round of `evaluate` and of `simulate`; either round takes
/// about 25 s on one vCPU of a shared 2.1 GHz x86-64 host.
const EVALUATE_DESIGNS: usize = 96;
const SIMULATE_DESIGNS: usize = 512;
/// Traces, simulation budget (the `archx explore` default, as in the
/// Figure 14 runs of EXPERIMENTS.md) and number of the `explore` searches.
const EXPLORE_SUITE: [&str; 2] = ["403.gcc", "462.libquantum"];
const EXPLORE_BUDGET: u64 = 240;
const EXPLORE_SEARCHES: usize = 3;
/// Seed of every synthesised trace. The traces stay fixed, as a
/// campaign's do, so that the spread between runs of different seeds
/// measures the designs and searches, not trace synthesis.
const TRACE_SEED: u64 = 1;
/// Designs re-checked against the stage-by-stage oracle.
const CHECKED: usize = 3;

/// SplitMix64: the inputs of a run are a pure function of its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` designs of the Table 4 space in a Latin hypercube: for every
    /// parameter, each of `n` equal strata of its candidate list holds
    /// exactly one design. The set then spans every parameter's range
    /// evenly, which keeps the median cost of a run close to that of the
    /// whole space whatever the seed.
    pub fn designs(&mut self, space: &DesignSpace, n: usize) -> Vec<MicroArch> {
        let mut designs = vec![MicroArch::baseline(); n];
        for &p in &ParamId::ALL {
            let c = space.candidates(p);
            let mut strata: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                strata.swap(i, (self.next() % (i as u64 + 1)) as usize);
            }
            for (arch, s) in designs.iter_mut().zip(strata) {
                let at = ((s as f64 + self.unit()) * c.len() as f64 / n as f64) as usize;
                p.set(arch, c[at.min(c.len() - 1)]);
            }
        }
        designs
    }
}

/// The named SPEC06-like workloads, weighted uniformly.
pub fn suite(names: &[&str]) -> Vec<Workload> {
    let all = spec06_suite();
    names
        .iter()
        .map(|name| {
            let mut w = *all
                .iter()
                .find(|w| w.id.0 == *name)
                .unwrap_or_else(|| panic!("workload {name} is not in the SPEC06 suite"));
            w.weight = 1.0 / names.len() as f64;
            w
        })
        .collect()
}

/// Set-up: synthesises the suite's traces into a fresh store.
fn synthesise(suite: &[Workload]) -> Arc<TraceStore> {
    let store = Arc::new(TraceStore::new());
    for w in suite {
        std::hint::black_box(store.get(w, WINDOW, TRACE_SEED));
    }
    store
}

/// A round is as long as a run, so an untraced run makes one. A traced
/// run makes two, one with telemetry on and one with it off.
fn min_rounds(trace: bool) -> usize {
    if trace {
        2
    } else {
        1
    }
}

fn evaluator(suite: &[Workload], store: &Arc<TraceStore>) -> Evaluator {
    Evaluator::builder(suite.to_vec())
        .window(WINDOW)
        .seed(TRACE_SEED)
        .trace_store(Arc::clone(store))
        .threads(1)
        .build()
}

fn evaluate(seed: u64, seconds: f64, trace: bool) -> Outcome {
    design_evaluations(seed, seconds, trace, Analysis::NewDeg, EVALUATE_DESIGNS)
}

fn simulate(seed: u64, seconds: f64, trace: bool) -> Outcome {
    design_evaluations(seed, seconds, trace, Analysis::None, SIMULATE_DESIGNS)
}

/// Evaluates a fixed set of designs once per round, each on a new
/// evaluator sharing the set-up traces, as a one-shot analysis does.
fn design_evaluations(
    seed: u64,
    seconds: f64,
    trace: bool,
    analysis: Analysis,
    n: usize,
) -> Outcome {
    let suite = suite(&DESIGN_SUITE);
    let space = DesignSpace::table4();
    let mut rng = Rng::new(seed);
    let designs = rng.designs(&space, n);
    let store = synthesise(&suite);
    let traces: Vec<_> = suite
        .iter()
        .map(|w| store.get(w, WINDOW, TRACE_SEED))
        .collect();
    let mut out = Outcome::default();
    let mut first: Vec<Option<DesignEval>> = vec![None; n];
    let mut diverged = Vec::new();

    let mut cal = Calibrator::new();
    let start = layers::snapshot();
    let resetup = || drop(synthesise(&suite));
    let rounds = measure::rounds(
        min_rounds(trace),
        n,
        seconds,
        trace,
        &mut out.failed,
        resetup,
        |i| {
            let (eval, step) =
                cal.time(|| evaluator(&suite, &store).evaluate_with(&designs[i], analysis));
            let eval = eval.map_err(|e| format!("{:?}: {e}", designs[i]))?;
            match &first[i] {
                None => first[i] = Some(eval),
                Some(seen) if *seen == eval => {}
                Some(_) => diverged.push(format!("{:?} evaluated differently twice", designs[i])),
            }
            Ok(vec![step])
        },
    );
    let after_loop = layers::snapshot();
    out.problems.extend(diverged);
    out.record(&rounds);

    layers::set_telemetry(trace);
    for (arch, eval) in designs.iter().zip(&first).take(CHECKED) {
        let Some(eval) = eval else { continue };
        match layers::recompute(arch, &suite, &traces, analysis) {
            Ok(expected) if expected == *eval => {}
            Ok(expected) => out.problems.push(format!(
                "{arch:?}: evaluator gave {eval:?}, stage-by-stage {expected:?}"
            )),
            Err(e) => out.problems.push(e),
        }
        if analysis == Analysis::None {
            // Analysis must not perturb the simulation it analyses.
            match evaluator(&suite, &store).evaluate_with(arch, Analysis::NewDeg) {
                Ok(full) if full.per_workload == eval.per_workload && full.report.is_some() => {}
                Ok(full) => out.problems.push(format!(
                    "{arch:?}: analysed run gave {:?}, plain run {:?}",
                    full.per_workload, eval.per_workload
                )),
                Err(e) => out
                    .problems
                    .push(format!("{arch:?}: analysed run failed: {e}")),
            }
        }
    }
    layers::set_telemetry(false);
    if trace {
        out.layers = layers::metrics(
            &start,
            &after_loop,
            &layers::snapshot(),
            &rounds,
            suite.len(),
        );
    }
    out
}

/// Times the steps of a search, one per uncached design evaluation, from
/// one progress event (emitted after an evaluation completes) to the
/// next. A calibration run at every event, outside the steps, brackets
/// each step.
struct StepClock(Mutex<StepState>);

struct StepState {
    cal: Calibrator,
    last_cal_ms: f64,
    began: Instant,
    steps: Vec<Step>,
}

impl StepClock {
    /// Starts the first step.
    fn start() -> Self {
        let mut cal = Calibrator::new();
        let last_cal_ms = cal.time_ms();
        StepClock(Mutex::new(StepState {
            cal,
            last_cal_ms,
            began: Instant::now(),
            steps: Vec::new(),
        }))
    }

    fn steps(&self) -> Vec<Step> {
        self.0.lock().expect("step clock lock").steps.clone()
    }
}

impl ProgressSink for StepClock {
    fn on_progress(&self, _event: &Progress) {
        let ended = Instant::now();
        let mut s = self.0.lock().expect("step clock lock");
        let ms = ended.duration_since(s.began).as_secs_f64() * 1e3;
        let cal_ms = s.cal.time_ms();
        let step = Step::new(ms, s.last_cal_ms, cal_ms);
        s.steps.push(step);
        s.last_cal_ms = cal_ms;
        s.began = Instant::now();
    }
}

/// Runs a fixed set of budgeted ArchExplorer searches once per round, each
/// on a new journaled evaluator sharing the set-up traces. A search's
/// steps are timed from one progress event to the next.
fn explore(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let suite = suite(&EXPLORE_SUITE);
    let space = DesignSpace::table4();
    let mut rng = Rng::new(seed);
    let search_seeds: Vec<u64> = (0..EXPLORE_SEARCHES).map(|_| rng.next()).collect();
    let store = synthesise(&suite);
    let traces: Vec<_> = suite
        .iter()
        .map(|w| store.get(w, WINDOW, TRACE_SEED))
        .collect();
    let mut out = Outcome::default();
    let dir = PathBuf::from(".layerbench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.problems
            .push(format!("cannot create {}: {e}", dir.display()));
        return out;
    }
    let journals: Vec<PathBuf> = (0..EXPLORE_SEARCHES)
        .map(|i| dir.join(format!("journal-{}-{i}.jsonl", std::process::id())))
        .collect();
    let fingerprint = evaluator(&suite, &store).fingerprint(Vec::new());
    // The first round's log and uncached evaluation count of each search.
    let mut firsts: Vec<Option<(RunLog, usize)>> = vec![None; EXPLORE_SEARCHES];
    let mut problems = Vec::new();

    let start = layers::snapshot();
    let resetup = || drop(synthesise(&suite));
    let rounds = measure::rounds(
        min_rounds(trace),
        EXPLORE_SEARCHES,
        seconds,
        trace,
        &mut out.failed,
        resetup,
        |i| {
            let clock = Arc::new(StepClock::start());
            let ev = evaluator(&suite, &store);
            ev.set_progress_sink(clock.clone());
            let journal =
                Journal::create(&journals[i], &fingerprint).map_err(|e| format!("journal: {e}"))?;
            ev.set_journal(journal);
            let log = run_method_on(
                Method::ArchExplorer,
                &space,
                &ev,
                EXPLORE_BUDGET,
                search_seeds[i],
            );
            let steps = clock.steps();
            if ev.quarantine_len() > 0 || ev.retry_count() > 0 {
                return Err(format!("search {i}: a design failed to evaluate"));
            }
            if let Some(e) = ev.journal_error() {
                return Err(format!("search {i}: journal append: {e}"));
            }
            match &firsts[i] {
                Some((seen, _)) if *seen == log => {}
                Some(_) => problems.push(format!(
                    "search seed {} is not reproducible",
                    search_seeds[i]
                )),
                None => firsts[i] = Some((log, steps.len())),
            }
            Ok(steps)
        },
    );
    let after_loop = layers::snapshot();
    out.problems.extend(problems);
    out.record(&rounds);

    // Every uncached evaluation of the last round must be journaled and
    // replay.
    for (path, first) in journals.iter().zip(&firsts) {
        if let Some((_, evals)) = first {
            match Journal::resume(path, &fingerprint) {
                Ok((_, records)) if records.len() == *evals => {}
                Ok((_, records)) => out.problems.push(format!(
                    "journal holds {} records for {evals} evaluations",
                    records.len()
                )),
                Err(e) => out.problems.push(format!("journal replay: {e}")),
            }
        }
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir(&dir);

    layers::set_telemetry(trace);
    // Each search's best design must re-evaluate, stage by stage, to the
    // PPA the search logged.
    for (log, _) in firsts.iter().flatten().take(CHECKED) {
        match log.best_tradeoff() {
            Some(best) => match layers::recompute(&best.arch, &suite, &traces, Analysis::NewDeg) {
                Ok(expected) if expected.ppa == best.ppa => {}
                Ok(expected) => out.problems.push(format!(
                    "{:?}: search logged {:?}, stage-by-stage {:?}",
                    best.arch, best.ppa, expected.ppa
                )),
                Err(e) => out.problems.push(e),
            },
            None => out.problems.push("a search explored no design".into()),
        }
    }
    layers::set_telemetry(false);
    if trace {
        out.layers = layers::metrics(
            &start,
            &after_loop,
            &layers::snapshot(),
            &rounds,
            suite.len(),
        );
    }
    out
}
