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
            let pairs = training_pairs(x, y);
            if pairs.is_empty() {
                return None;
            }
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

/// The training data: ordered `(better, worse)` feature pairs of designs
/// with distinct outcomes, enumerated over `i < j` and cut at
/// `MAX_PAIRS`. Only the pairs kept are cloned.
fn training_pairs(x: &[Vec<f64>], y: &[f64]) -> Vec<(Vec<f64>, Vec<f64>)> {
    (0..y.len())
        .flat_map(|i| (i + 1..y.len()).map(move |j| (i, j)))
        .filter_map(|(i, j)| {
            if y[i] > y[j] {
                Some((i, j))
            } else if y[j] > y[i] {
                Some((j, i))
            } else {
                None
            }
        })
        .take(MAX_PAIRS)
        .map(|(better, worse)| (x[better].clone(), x[worse].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_workloads::spec06_suite;
    use rand::Rng;

    #[test]
    fn training_pairs_are_the_first_max_pairs_of_all_pairs() {
        let mut rng = StdRng::seed_from_u64(80);
        let x: Vec<Vec<f64>> = (0..80)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        // Coarse outcomes, so some pairs tie and are skipped.
        let y: Vec<f64> = (0..80).map(|_| rng.gen_range(0..40usize) as f64).collect();
        let mut all = Vec::new();
        for i in 0..y.len() {
            for j in i + 1..y.len() {
                if y[i] > y[j] {
                    all.push((x[i].clone(), x[j].clone()));
                } else if y[j] > y[i] {
                    all.push((x[j].clone(), x[i].clone()));
                }
            }
        }
        assert!(all.len() > MAX_PAIRS);
        all.truncate(MAX_PAIRS);
        assert_eq!(training_pairs(&x, &y), all);
    }

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
