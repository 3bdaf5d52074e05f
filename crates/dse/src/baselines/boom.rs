//! BOOM-Explorer-style Bayesian optimisation (Bai et al.): a
//! Gaussian-process surrogate with diversity-aware initial sampling and an
//! expected-improvement acquisition, batched per round.

use super::{screen, Schedule};
use crate::eval::{Evaluator, RunLog};
use crate::ml::GaussianProcess;
use crate::space::DesignSpace;
use archx_sim::MicroArch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Initial designs chosen by maximin diversity sampling.
const INIT_DESIGNS: usize = 8;

/// GP observation noise.
const NOISE: f64 = 1e-4;

/// The pool serves both the initial sampling and each acquisition round.
const SCHEDULE: Schedule = Schedule {
    method: "BOOM-Explorer",
    pool: 512,
    batch: 2,
};

/// Maximin (farthest-point) selection of `k` diverse designs from a pool —
/// the stand-in for BOOM-Explorer's clustered initial sampling.
fn maximin_sample(space: &DesignSpace, pool: &[MicroArch], k: usize) -> Vec<MicroArch> {
    if pool.is_empty() {
        return Vec::new();
    }
    let feats: Vec<Vec<f64>> = pool.iter().map(|a| space.features(a)).collect();
    let mut chosen = vec![0usize];
    while chosen.len() < k.min(pool.len()) {
        let next = (0..pool.len())
            .filter(|i| !chosen.contains(i))
            .max_by(|&a, &b| {
                let da = chosen
                    .iter()
                    .map(|&c| sq(&feats[a], &feats[c]))
                    .fold(f64::INFINITY, f64::min);
                let db = chosen
                    .iter()
                    .map(|&c| sq(&feats[b], &feats[c]))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("non-empty remainder");
        chosen.push(next);
    }
    chosen.into_iter().map(|i| pool[i]).collect()
}

fn sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Runs GP Bayesian optimisation until the budget is exhausted.
pub fn run_boom_explorer(
    space: &DesignSpace,
    evaluator: &Evaluator,
    sim_budget: u64,
    seed: u64,
) -> RunLog {
    let mut rng = StdRng::seed_from_u64(seed);
    // Diversity-aware initialisation.
    let pool: Vec<MicroArch> = (0..SCHEDULE.pool).map(|_| space.random(&mut rng)).collect();
    let initial = maximin_sample(space, &pool, INIT_DESIGNS);
    screen(
        space,
        evaluator,
        sim_budget,
        rng,
        initial,
        &SCHEDULE,
        |x, y| {
            let gp = GaussianProcess::fit(x.to_vec(), y, NOISE);
            let best = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Some(move |f: &[f64]| gp.expected_improvement(f, best))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_workloads::spec06_suite;
    use std::collections::HashSet;

    #[test]
    fn maximin_prefers_spread() {
        let space = DesignSpace::table4();
        let mut rng = StdRng::seed_from_u64(1);
        let pool: Vec<MicroArch> = (0..50).map(|_| space.random(&mut rng)).collect();
        let chosen = maximin_sample(&space, &pool, 5);
        assert_eq!(chosen.len(), 5);
        let distinct: HashSet<_> = chosen.iter().collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn respects_budget() {
        let suite: Vec<_> = spec06_suite().into_iter().take(2).collect();
        let ev = Evaluator::builder(suite)
            .window(1_000)
            .seed(1)
            .threads(1)
            .build();
        let log = run_boom_explorer(&DesignSpace::table4(), &ev, 24, 5);
        assert!(ev.sim_count() >= 24);
        assert!(log.records.len() >= 12);
        assert_eq!(log.method, "BOOM-Explorer");
    }
}
