//! AdaBoost(.RT)-driven DSE (the paper's AdaBoost baseline, after
//! Li et al.'s "efficient sampling + ensemble learning" methodology).
//!
//! An initial random sample trains an AdaBoost.RT regressor from design
//! features to the PPA trade-off; each round the model screens a large
//! random candidate pool and the top predictions are simulated and added
//! to the training set.

use super::{screen, Schedule};
use crate::eval::{Evaluator, RunLog};
use crate::ml::AdaBoostRt;
use crate::space::DesignSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random designs simulated before the first model fit.
const INIT_DESIGNS: usize = 8;

/// Boosting rounds per fit.
const ROUNDS: usize = 25;

const SCHEDULE: Schedule = Schedule {
    method: "AdaBoost",
    pool: 512,
    batch: 4,
};

/// Runs the AdaBoost.RT DSE until the budget is exhausted.
pub fn run_adaboost(
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    seed: u64,
) -> RunLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = (0..INIT_DESIGNS).map(|_| space.random(&mut rng)).collect();
    screen(
        space,
        evaluator,
        sim_budget,
        rng,
        initial,
        &SCHEDULE,
        |x, y| {
            let model = AdaBoostRt::fit(x, y, ROUNDS, 2, 0.05);
            Some(move |f: &[f64]| model.predict(f))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::random::run_random_search;
    use crate::pareto::RefPoint;
    use archx_workloads::spec06_suite;

    #[test]
    fn runs_within_budget_and_learns() {
        let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
        let space = DesignSpace::table4();
        let ev = Evaluator::builder(suite.clone())
            .window(1_000)
            .seed(1)
            .threads(1)
            .build();
        let log = run_adaboost(&space, &ev, 30, 7);
        assert!(ev.sim_count() >= 30);
        assert!(!log.records.is_empty());
        // Sanity: the curve exists and is monotone.
        let curve = log.hypervolume_curve(&RefPoint::default(), 10);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // And a random run on the same budget also works (smoke parity).
        let ev2 = Evaluator::builder(suite)
            .window(1_000)
            .seed(1)
            .threads(1)
            .build();
        let _ = run_random_search(&space, &ev2, 30, 7);
    }
}
