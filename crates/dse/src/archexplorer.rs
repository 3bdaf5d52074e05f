//! The ArchExplorer search loop: bottleneck-removal-driven DSE
//! (paper Section 4.3, Figure 6).
//!
//! Each round starts from a (random or supplied) design, repeatedly
//! analyses the microexecution, grows the top bottlenecks and shrinks idle
//! resources, and stops when the PPA trade-off plateaus; then it restarts
//! from a fresh design. All evaluated designs feed one exploration set
//! whose Pareto frontier is the result.

use crate::eval::{Evaluator, RunLog};
use crate::reassign::{freezable, reassign, ReassignOptions};
use crate::space::{DesignSpace, ParamId};
use archx_sim::MicroArch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// What the bottleneck-removal trajectory climbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// The paper's default: maximise `Perf²/(Power×Area)`.
    Tradeoff,
    /// Constrained DSE (as ArchRanker frames it): maximise performance
    /// subject to power and area budgets; infeasible designs score by how
    /// far outside the budgets they are (negative).
    ConstrainedPerf {
        /// Power budget in watts.
        power_cap: f64,
        /// Area budget in mm².
        area_cap: f64,
    },
}

impl Objective {
    /// Scalar score to maximise (higher is better).
    pub fn score(&self, ppa: &archx_power::PpaResult) -> f64 {
        match *self {
            Objective::Tradeoff => ppa.tradeoff(),
            Objective::ConstrainedPerf {
                power_cap,
                area_cap,
            } => {
                let violation = (ppa.power_w / power_cap - 1.0).max(0.0)
                    + (ppa.area_mm2 / area_cap - 1.0).max(0.0);
                if violation > 0.0 {
                    -violation
                } else {
                    ppa.ipc
                }
            }
        }
    }

    /// Whether a design satisfies this objective's constraints.
    pub fn feasible(&self, ppa: &archx_power::PpaResult) -> bool {
        match *self {
            Objective::Tradeoff => true,
            Objective::ConstrainedPerf {
                power_cap,
                area_cap,
            } => ppa.power_w <= power_cap && ppa.area_mm2 <= area_cap,
        }
    }
}

/// Steps without PPA-trade-off improvement before a restart.
const PLATEAU_PATIENCE: usize = 5;

/// Per-parameter mutation probability when perturbing the incumbent.
const MUTATE_PROB: f64 = 0.3;

/// Tuning knobs of the ArchExplorer loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchExplorerOptions {
    /// Reassignment policy.
    pub reassign: ReassignOptions,
    /// Minimum relative trade-off improvement for a freezable parameter's
    /// growth to count as useful (the cache/BP freeze rule).
    pub freeze_threshold: f64,
    /// Probability that a restart perturbs the best design found so far
    /// instead of sampling uniformly (intensification vs exploration).
    pub intensify_prob: f64,
    /// RNG seed for initial designs.
    pub seed: u64,
    /// What each trajectory climbs.
    pub objective: Objective,
}

impl Default for ArchExplorerOptions {
    fn default() -> Self {
        ArchExplorerOptions {
            reassign: ReassignOptions::default(),
            freeze_threshold: 0.01,
            intensify_prob: 0.5,
            seed: 0xA5C3,
            objective: Objective::Tradeoff,
        }
    }
}

/// Perturbs `best` by moving each parameter one candidate step up or down
/// with probability [`MUTATE_PROB`].
fn perturb(space: &DesignSpace, best: &MicroArch, rng: &mut StdRng) -> MicroArch {
    let mut arch = *best;
    for &p in &ParamId::ALL {
        if rng.gen_bool(MUTATE_PROB) {
            let v = p.get(&arch);
            let next = if rng.gen_bool(0.5) {
                space.next_larger(p, v)
            } else {
                space.next_smaller(p, v)
            };
            if let Some(nv) = next {
                p.set(&mut arch, nv);
            }
        }
    }
    arch
}

/// Runs ArchExplorer until `sim_budget` simulations have been spent.
///
/// Returns the log of every evaluated design in order.
pub fn run_archexplorer(
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    opts: &ArchExplorerOptions,
) -> RunLog {
    run_bottleneck_driven(
        space,
        evaluator,
        sim_budget,
        opts,
        "ArchExplorer",
        |ev, arch| {
            ev.evaluate_with(arch, crate::eval::Analysis::NewDeg)
                .map(|e| (e.ppa, e.report.expect("analysis requested")))
        },
    )
}

/// Generic bottleneck-removal loop, parameterised by the analysis backend
/// (the new DEG for ArchExplorer, the static model for the Calipers
/// baseline).
pub fn run_bottleneck_driven<F>(
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    opts: &ArchExplorerOptions,
    method: &str,
    mut analyze: F,
) -> RunLog
where
    F: FnMut(
        &Evaluator,
        &MicroArch,
    ) -> Result<
        (archx_power::PpaResult, archx_deg::BottleneckReport),
        crate::eval::EvalFailure,
    >,
{
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut log = RunLog::new(method);
    let mut frozen: HashSet<ParamId> = HashSet::new();
    let mut global_best: Option<(f64, MicroArch)> = None;

    'outer: while evaluator.sim_count() < sim_budget {
        // Fresh round: either a uniform random start (exploration) or a
        // perturbation of the best design found so far (intensification).
        // Freezes persist across rounds — they encode workload properties,
        // not start-point properties.
        let mut current = match &global_best {
            Some((_, best)) if rng.gen_bool(opts.intensify_prob) => perturb(space, best, &mut rng),
            _ => space.random(&mut rng),
        };
        // A quarantined start design scores as non-Pareto (it never
        // enters the log) and the round restarts from a fresh design —
        // the attempt still consumed budget, so this always terminates.
        let Ok((mut ppa, mut report)) = analyze(evaluator, &current) else {
            continue 'outer;
        };
        log.push(current, ppa, evaluator.sim_count());
        let mut best_score = opts.objective.score(&ppa);
        let mut stale = 0usize;
        if global_best
            .as_ref()
            .is_none_or(|(t, _)| opts.objective.score(&ppa) > *t)
        {
            global_best = Some((opts.objective.score(&ppa), current));
        }
        // Per-trajectory freezes: any grown parameter whose growth failed
        // to pay is not grown again this round, steering the tail of the
        // trajectory toward pure power/area reclamation (Fig. 10, step 4).
        let mut round_frozen: HashSet<ParamId> = frozen.clone();

        while evaluator.sim_count() < sim_budget {
            let step = reassign(space, &current, &report, &round_frozen, &opts.reassign);
            if step.arch == current {
                continue 'outer; // no move possible: restart
            }
            let prev_score = opts.objective.score(&ppa);
            let next = step.arch;
            // A failed step design ends the trajectory (there is no
            // bottleneck report to steer by); the search restarts.
            let Ok((next_ppa, next_report)) = analyze(evaluator, &next) else {
                continue 'outer;
            };
            log.push(next, next_ppa, evaluator.sim_count());

            // Freeze rules (paper §4.3): growth that did not clearly pay is
            // not retried — permanently for caches/predictors (their limits
            // are algorithmic, not capacity), for the rest of this round
            // otherwise.
            let gain = (opts.objective.score(&next_ppa) - prev_score) / prev_score.abs().max(1e-12);
            if gain < opts.freeze_threshold {
                for &p in &step.grown {
                    round_frozen.insert(p);
                    if freezable(p) {
                        frozen.insert(p);
                    }
                }
            }

            current = next;
            ppa = next_ppa;
            report = next_report;
            let score = opts.objective.score(&ppa);
            if global_best.as_ref().is_none_or(|(t, _)| score > *t) {
                global_best = Some((score, current));
            }
            if score > best_score + best_score.abs() * 1e-6 {
                best_score = score;
                stale = 0;
            } else {
                stale += 1;
                if stale >= PLATEAU_PATIENCE {
                    continue 'outer; // plateau: restart
                }
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_workloads::spec06_suite;

    fn tiny_evaluator() -> Evaluator {
        let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
        Evaluator::builder(suite)
            .window(2_000)
            .seed(7)
            .threads(1)
            .build()
    }

    #[test]
    fn respects_budget_and_logs_everything() {
        let space = DesignSpace::table4();
        let ev = tiny_evaluator();
        let log = run_archexplorer(&space, &ev, 20, &ArchExplorerOptions::default());
        assert!(!log.records.is_empty());
        // Budget check: stops within one design evaluation of the budget.
        assert!(ev.sim_count() >= 20);
        assert!(ev.sim_count() <= 20 + 2);
        // Cumulative counts are monotone.
        for w in log.records.windows(2) {
            assert!(w[1].sims_after >= w[0].sims_after);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let space = DesignSpace::table4();
        let a = run_archexplorer(
            &space,
            &tiny_evaluator(),
            12,
            &ArchExplorerOptions::default(),
        );
        let b = run_archexplorer(
            &space,
            &tiny_evaluator(),
            12,
            &ArchExplorerOptions::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn improves_tradeoff_within_a_round() {
        let space = DesignSpace::table4();
        let ev = tiny_evaluator();
        let log = run_archexplorer(&space, &ev, 40, &ArchExplorerOptions::default());
        let first = log.records.first().unwrap().ppa.tradeoff();
        let best = log.best_tradeoff().unwrap().ppa.tradeoff();
        assert!(
            best >= first,
            "bottleneck removal must not end below the start: {best} vs {first}"
        );
    }
}
