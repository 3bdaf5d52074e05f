//! ArchRanker-style DSE: a pairwise ranking model over design features
//! (Chen et al.). The model learns "which of two designs is better" from
//! simulated comparisons, then each round ranks a candidate pool by
//! tournament against the incumbent set and simulates the designs ranked
//! most promising.

use super::{screen, Schedule};
use crate::eval::{Evaluator, RunLog};
use crate::ml::RankBoost;
use crate::space::DesignSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random designs simulated before the first fit.
const INIT_DESIGNS: usize = 10;

/// Boosting rounds of the ranking model.
const ROUNDS: usize = 20;

/// Incumbents each candidate is compared against.
const TOURNAMENT: usize = 8;

/// Ordered pairs the model trains on, to keep fitting cheap on long runs.
const MAX_PAIRS: usize = 2_000;

const SCHEDULE: Schedule = Schedule {
    method: "ArchRanker",
    pool: 256,
    batch: 4,
};

/// Runs the pairwise-ranking DSE until the budget is exhausted.
pub fn run_archranker(
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
            // All ordered pairs with distinct outcomes become training data.
            let mut pairs: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
            for i in 0..y.len() {
                for j in i + 1..y.len() {
                    if y[i] > y[j] {
                        pairs.push((x[i].clone(), x[j].clone()));
                    } else if y[j] > y[i] {
                        pairs.push((x[j].clone(), x[i].clone()));
                    }
                }
            }
            if pairs.is_empty() {
                return None;
            }
            pairs.truncate(MAX_PAIRS);
            let ranker = RankBoost::fit(&pairs, ROUNDS);
            // Rank candidates by wins against the best incumbents.
            let mut order: Vec<usize> = (0..y.len()).collect();
            order.sort_by(|&a, &b| y[b].partial_cmp(&y[a]).expect("finite tradeoffs"));
            let incumbents: Vec<Vec<f64>> = order[..order.len().min(TOURNAMENT)]
                .iter()
                .map(|&i| x[i].clone())
                .collect();
            Some(move |f: &[f64]| {
                incumbents
                    .iter()
                    .map(|inc| ranker.compare(f, inc))
                    .sum::<f64>()
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_workloads::spec06_suite;

    #[test]
    fn respects_budget() {
        let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
        let ev = Evaluator::builder(suite)
            .window(1_000)
            .seed(1)
            .threads(1)
            .build();
        let log = run_archranker(&DesignSpace::table4(), &ev, 26, 3);
        assert!(ev.sim_count() >= 26);
        assert!(log.records.len() >= 13);
        assert_eq!(log.method, "ArchRanker");
    }
}
