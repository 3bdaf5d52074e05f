//! Baseline DSE methods the paper compares against: random search,
//! AdaBoost(.RT), ArchRanker-style pairwise ranking, a
//! BOOM-Explorer-style Gaussian-process Bayesian optimiser, and the
//! Calipers-guided variant of bottleneck-driven search.
//!
//! Fidelity notes (also in DESIGN.md): the published baselines target
//! multi-objective spaces with method-specific machinery (ArchRanker's
//! constrained binary search, BOOM-Explorer's DKL-GP with EIPV). Here each
//! keeps its algorithmic core — the surrogate/ranking model and its
//! acquisition loop — while sharing this crate's evaluator; acquisition is
//! driven by the paper's scalar PPA trade-off `Perf²/(Power×Area)` and the
//! Pareto frontier is computed from all simulated designs, exactly as the
//! paper evaluates every method by the hypervolume of its exploration set.
//!
//! The three surrogate methods share one screening loop, `screen`, and
//! differ only in their initial designs and in the scorer they fit.

pub mod adaboost;
pub mod boom;
pub mod calipers_dse;
pub mod random;
pub mod ranker;

pub use adaboost::run_adaboost;
pub use boom::run_boom_explorer;
pub use calipers_dse::run_calipers_dse;
pub use random::run_random_search;
pub use ranker::run_archranker;

use crate::eval::{Evaluator, RunLog};
use crate::space::DesignSpace;
use archx_sim::MicroArch;
use rand::rngs::StdRng;
use std::collections::HashSet;

/// A surrogate method's label and screening schedule.
struct Schedule {
    /// Method label of the run log.
    method: &'static str,
    /// Random candidates scored per round.
    pool: usize,
    /// Best-scored unseen candidates simulated per round.
    batch: usize,
}

/// The screening loop of the surrogate baselines: simulate `initial`,
/// then each round fit a scorer to the features and PPA trade-offs of
/// every design simulated so far, score `pool` random designs and
/// simulate the best `batch` not tried yet (a stable sort by descending
/// score). A round with no training data, no scorer or no unseen
/// candidate simulates one random design instead, so a run whose designs
/// are all quarantined still spends its budget.
fn screen<S: Fn(&[f64]) -> f64>(
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    mut rng: StdRng,
    initial: Vec<MicroArch>,
    schedule: &Schedule,
    mut fit: impl FnMut(&[Vec<f64>], &[f64]) -> Option<S>,
) -> RunLog {
    let mut log = RunLog::new(schedule.method);
    let mut seen: HashSet<MicroArch> = HashSet::new();
    let mut x: Vec<Vec<f64>> = Vec::new();
    let mut y: Vec<f64> = Vec::new();
    let mut queue = initial.into_iter();
    while evaluator.sim_count() < sim_budget {
        let Some(arch) = queue.next() else {
            let scorer = if y.is_empty() { None } else { fit(&x, &y) };
            let mut picks: Vec<MicroArch> = Vec::new();
            if let Some(score) = scorer {
                let mut scored: Vec<(f64, MicroArch)> = (0..schedule.pool)
                    .map(|_| space.random(&mut rng))
                    .filter(|a| !seen.contains(a))
                    .map(|a| (score(&space.features(&a)), a))
                    .collect();
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
                picks = scored
                    .into_iter()
                    .take(schedule.batch)
                    .map(|(_, a)| a)
                    .collect();
            }
            if picks.is_empty() {
                picks.push(space.random(&mut rng));
            }
            queue = picks.into_iter();
            continue;
        };
        if !seen.insert(arch) {
            continue;
        }
        // A quarantined design trains nothing; its budget is spent.
        let Ok(e) = evaluator.evaluate(&arch) else {
            continue;
        };
        log.push(arch, e.ppa, evaluator.sim_count());
        x.push(space.features(&arch));
        y.push(e.ppa.tradeoff());
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SimLimits;
    use archx_workloads::spec06_suite;

    #[test]
    fn fully_quarantined_start_spends_the_budget() {
        type Run = fn(&DesignSpace, &Evaluator, u64, u64) -> RunLog;
        let runs: [(&str, Run); 3] = [
            ("AdaBoost", run_adaboost),
            ("ArchRanker", run_archranker),
            ("BOOM-Explorer", run_boom_explorer),
        ];
        for (name, run) in runs {
            let ev = Evaluator::builder(spec06_suite().into_iter().take(2).collect())
                .window(1_000)
                .seed(1)
                .threads(1)
                .limits(SimLimits {
                    cycle_budget: Some(1),
                    ..SimLimits::default()
                })
                .build();
            let log = run(&DesignSpace::table4(), &ev, 60, 3);
            assert!(log.records.is_empty(), "{name} logged a failed design");
            assert!(ev.sim_count() >= 60, "{name} stopped at {}", ev.sim_count());
        }
    }
}
