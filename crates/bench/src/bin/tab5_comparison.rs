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

fn main() {
    let args = Args::from_env();
    let telemetry_mode = args.telemetry();
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
        let campaign = CampaignRunner::new()
            .jobs(jobs)
            .run(&methods, &DesignSpace::table4(), &template, sim_budget)
            .expect("no per-run setup to fail");

        let r = RefPoint::default();
        let step = (sim_budget / 60).max(1);
        // Target hypervolume: a fraction of the best final value, so every
        // run has a chance to reach it (the paper picks the y where curves
        // begin to converge).
        let best_final = campaign
            .logs
            .iter()
            .filter_map(|l| l.hypervolume_curve(&r, step).last().map(|&(_, hv)| hv))
            .fold(0.0f64, f64::max);
        let target = target_frac * best_final;
        let budget_x = sim_budget * 2 / 3;

        let ranker_sims = campaign
            .sims_to_reach("ArchRanker", &r, target, step)
            .unwrap_or(sim_budget);
        let ranker_hv = campaign.hv_at("ArchRanker", &r, budget_x).unwrap_or(0.0);

        let mut t = Table::new(["method", "sims@target", "ratio", "hv@budget", "ratio"]);
        for m in ["ArchRanker", "AdaBoost", "BOOM-Explorer", "ArchExplorer"] {
            let sims = campaign.sims_to_reach(m, &r, target, step);
            let hv = campaign.hv_at(m, &r, budget_x).unwrap_or(0.0);
            t.row([
                m.to_string(),
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
    archx_bench::emit::emit_telemetry(&telemetry_mode);
}
