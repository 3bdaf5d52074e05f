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
//! use archx_dse::{run_method_on, DesignSpace, Evaluator, Method};
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
/// must not make every later lock of a shared evaluator panic too.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `work(i)` for every `i < n` on the calling thread plus `extra`
/// scoped threads, which pull indices from one shared counter, and
/// returns the results in index order. Each thread calls `idle` once when
/// no index is left. With `extra == 0` everything runs on the calling
/// thread and no thread is spawned. A panic in `work` reaches the caller
/// after every thread has stopped.
pub(crate) fn fan_out<T: Send>(
    n: usize,
    extra: usize,
    work: impl Fn(usize) -> T + Sync,
    idle: impl Fn() + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, work(i)));
        }
        idle();
        done
    };
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..extra).map(|_| s.spawn(worker)).collect();
        let mut done = worker();
        for handle in spawned {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

pub use archexplorer::{run_archexplorer, ArchExplorerOptions};
pub use campaign::{
    aggregate_curves, journal_run, run_journal_path, run_method_on, CampaignError, CampaignRunner,
    Method, RunSpec, SweepCurve,
};
pub use eval::{
    Analysis, DesignEval, EvalError, EvalFailure, Evaluator, EvaluatorBuilder, QuarantineEntry,
    RunLog, SimLimits,
};
pub use journal::{Journal, JournalError, JournalFingerprint, JournalRecord};
pub use pareto::{hypervolume, pareto_front, RefPoint};
pub use space::{DesignSpace, ParamId};
pub use verify::{run_verify, VerifyConfig, VerifyReport, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    #[test]
    fn fan_out_runs_every_index_once_in_order_on_at_most_extra_plus_one_threads() {
        let caller = thread::current().id();
        for n in 0..=5 {
            for extra in 0..=4 {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let idled: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
                let out = fan_out(
                    n,
                    extra,
                    |i| {
                        runs[i].fetch_add(1, Ordering::SeqCst);
                        (i, thread::current().id())
                    },
                    || lock(&idled).push(thread::current().id()),
                );
                let case = format!("n={n} extra={extra}");
                let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "{case}: index order");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                    "{case}: every index runs exactly once"
                );
                let workers: HashSet<ThreadId> = out.iter().map(|&(_, t)| t).collect();
                assert!(workers.len() <= extra + 1, "{case}: too many threads");
                if extra == 0 {
                    assert!(
                        workers.iter().all(|&t| t == caller),
                        "{case}: the calling thread runs everything"
                    );
                }
                let idled = idled.into_inner().expect("no panics");
                let distinct: HashSet<ThreadId> = idled.iter().copied().collect();
                assert_eq!(idled.len(), extra + 1, "{case}: one idle call per thread");
                assert_eq!(
                    distinct.len(),
                    idled.len(),
                    "{case}: idle twice on a thread"
                );
                assert!(distinct.contains(&caller), "{case}: the caller idles too");
                assert!(workers.is_subset(&distinct), "{case}: a worker never idled");
            }
        }
    }
}
