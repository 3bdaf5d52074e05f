//! **Table 5**: normalised comparison of the DSE methods — simulations
//! needed to reach a target hypervolume, and hypervolume attained at a
//! fixed simulation budget, with ratios relative to ArchRanker (as in the
//! paper).
//!
//! Paper shape: ArchExplorer reaches the target with the fewest
//! simulations (up to ~75% savings) and the highest hypervolume at the
//! fixed budget.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin tab5_comparison \
//!     [budget=N] [instrs=N] [seed=S] [workloads=N] [target_frac=F] \
//!     [jobs=N] [threads=N]
//! ```
//!
//! `jobs=N` runs the four methods concurrently inside a `threads=`
//! budget (default: the larger of `jobs` and the host's threads) that
//! the runs share, lending idle threads to each other's workload
//! simulations; the table is identical to `jobs=1`.

use archexplorer::prelude::*;
use archx_bench::{Args, Table};

/// Simulations a run needed to first reach hypervolume `target` on its
/// hypervolume `curve`.
fn sims_to_reach(curve: &[(u64, f64)], target: f64) -> Option<u64> {
    curve
        .iter()
        .find(|&&(_, hv)| hv >= target)
        .map(|&(sims, _)| sims)
}

fn main() {
    let args = Args::from_env();
    let sim_budget = args.get_u64("budget", 360);
    let instrs = args.get_usize("instrs", 20_000);
    let seed = args.get_u64("seed", 1);
    let limit = args.get_usize("workloads", usize::MAX);
    // Target = this fraction of the best final hypervolume across methods.
    let target_frac = args.get_f64("target_frac", 0.95);
    let jobs = args.get_usize("jobs", 1).max(1);
    let threads = args.get_usize("threads", jobs.max(archexplorer::dse::default_threads()));

    for (name, suite) in [("SPEC06", spec06_suite()), ("SPEC17", spec17_suite())] {
        let suite = suite_prefix(suite, limit);
        let methods = [
            Method::ArchRanker,
            Method::AdaBoost,
            Method::BoomExplorer,
            Method::ArchExplorer,
        ];
        eprintln!(
            "[{name}] running {} methods x {sim_budget} sims ({jobs} jobs)...",
            methods.len()
        );
        let template = Evaluator::builder(suite)
            .window(instrs)
            .seed(seed)
            .threads(threads);
        let specs: Vec<RunSpec> = methods
            .iter()
            .map(|&method| RunSpec { method, seed })
            .collect();
        let logs = CampaignRunner::new()
            .jobs(jobs)
            .run_specs(&specs, &DesignSpace::table4(), &template, sim_budget)
            .expect("no journal to fail");

        let r = RefPoint::default();
        let step = (sim_budget / 60).max(1);
        // Target hypervolume: a fraction of the best final value, so every
        // run has a chance to reach it (the paper picks the y where curves
        // begin to converge).
        let curves: Vec<Vec<(u64, f64)>> = logs
            .iter()
            .map(|log| log.hypervolume_curve(&r, step))
            .collect();
        let best_final = curves
            .iter()
            .filter_map(|c| c.last().map(|&(_, hv)| hv))
            .fold(0.0f64, f64::max);
        let target = target_frac * best_final;
        let budget_x = sim_budget * 2 / 3;

        // `logs[0]` is ArchRanker's run, the baseline of the ratios.
        let ranker_sims = sims_to_reach(&curves[0], target).unwrap_or(sim_budget);
        let ranker_hv = logs[0].hypervolume(&r, budget_x);

        let mut t = Table::new(["method", "sims@target", "ratio", "hv@budget", "ratio"]);
        for (log, curve) in logs.iter().zip(&curves) {
            let sims = sims_to_reach(curve, target);
            let hv = log.hypervolume(&r, budget_x);
            t.row([
                log.method.clone(),
                sims.map_or("never".to_string(), |s| s.to_string()),
                sims.map_or("-".to_string(), |s| {
                    format!("{:.4}", s as f64 / ranker_sims as f64)
                }),
                format!("{hv:.4}"),
                format!("{:.4}", hv / ranker_hv.max(1e-12)),
            ]);
        }
        println!(
            "\nTable 5 [{name}]: target HV = {target:.4} ({}% of best), fixed budget = {budget_x} sims",
            (target_frac * 100.0) as u32
        );
        println!("{}", t.to_text());
    }
}
