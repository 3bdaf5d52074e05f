//! **Figure 12**: Pareto-hypervolume-versus-simulations curves for every
//! DSE method on the SPEC06- and SPEC17-like suites.
//!
//! Paper shape: ArchExplorer's curve rises earliest and dominates the
//! black-box baselines across budgets.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig12_hypervolume \
//!     [budget=N] [instrs=N] [seed=S] [workloads=N] [suite=spec06|spec17|both] \
//!     [seeds=N] [jobs=N] [threads=N]
//! ```
//!
//! Defaults keep the run in minutes; raise `budget`/`instrs` for smoother
//! curves (the paper runs to 3000+ simulations of 100 K-instruction
//! Simpoint windows). `jobs=N` fans the (method × seed) runs out across N
//! job threads inside a `threads=` budget (default: the larger of `jobs`
//! and the host's threads) that the runs share, lending idle threads to
//! each other's workload simulations; results are identical to `jobs=1`,
//! only wall-clock changes.

use archexplorer::prelude::*;
use archx_bench::{Args, Table};

/// Runs every method under every seed and prints each method's curve:
/// the hypervolume of its one run, or the mean ± std over several seeds.
fn run_suite(name: &str, template: &EvaluatorBuilder, sim_budget: u64, seeds: &[u64], jobs: usize) {
    let methods = [
        Method::ArchExplorer,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
        Method::Random,
        Method::Calipers,
    ];
    eprintln!(
        "[{name}] running {} methods x {sim_budget} sims x {} seed(s) ({jobs} jobs)...",
        methods.len(),
        seeds.len(),
    );
    let specs: Vec<RunSpec> = methods
        .iter()
        .flat_map(|&method| seeds.iter().map(move |&seed| RunSpec { method, seed }))
        .collect();
    let logs = CampaignRunner::new()
        .jobs(jobs)
        .run_specs(&specs, &DesignSpace::table4(), template, sim_budget)
        .expect("no journal to fail");

    let r = RefPoint::default();
    let step = (sim_budget / 12).max(1);
    let curves: Vec<SweepCurve> = methods
        .iter()
        .zip(logs.chunks(seeds.len()))
        .map(|(method, logs)| aggregate_curves(&method.to_string(), logs, &r, step))
        .collect();
    let mut header = vec!["sims".to_string()];
    header.extend(curves.iter().map(|c| c.method.clone()));
    let mut t = Table::new(header);
    let len = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for i in 0..len {
        let mut row = vec![((i as u64 + 1) * step).to_string()];
        for c in &curves {
            row.push(match c.points.get(i) {
                Some(&(_, hv, _)) if seeds.len() == 1 => format!("{hv:.4}"),
                Some(&(_, mean, std)) => format!("{mean:.3}±{std:.3}"),
                None => "-".to_string(),
            });
        }
        t.row(row);
    }
    if seeds.len() > 1 {
        println!(
            "\nFigure 12 [{name}] over seeds {seeds:?}: mean ± std hypervolume\n{}",
            t.to_text()
        );
        return;
    }
    println!(
        "\nFigure 12 [{name}]: Pareto hypervolume vs simulations\n{}",
        t.to_text()
    );

    // Shape check: where does ArchExplorer stand at the final budget?
    let finals: Vec<(String, f64)> = curves
        .iter()
        .filter_map(|c| c.points.last().map(|&(_, hv, _)| (c.method.clone(), hv)))
        .collect();
    let ax = finals
        .iter()
        .find(|(m, _)| m == "ArchExplorer")
        .map(|&(_, hv)| hv)
        .unwrap_or(0.0);
    let beaten = finals
        .iter()
        .filter(|(m, hv)| m != "ArchExplorer" && ax >= *hv)
        .count();
    println!(
        "[{name}] ArchExplorer final HV {ax:.4} ≥ {beaten}/{} baselines",
        finals.len() - 1
    );
}

fn main() {
    let args = Args::from_env();
    let sim_budget = args.get_u64("budget", 360);
    let instrs = args.get_usize("instrs", 20_000);
    let seed = args.get_u64("seed", 1);
    let limit = args.get_usize("workloads", usize::MAX);
    let which = args.get_str("suite", "both");
    let n_seeds = args.get_usize("seeds", 1).max(1);
    let jobs = args.get_usize("jobs", 1).max(1);
    let threads = args.get_usize("threads", jobs.max(archexplorer::dse::default_threads()));

    let names = match which.as_str() {
        "both" => vec!["spec06", "spec17"],
        one => vec![one],
    };
    let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| seed + i).collect();
    for name in names {
        let suite = suite_named(name).unwrap_or_else(|e| archx_bench::args::fail(&e));
        // Every run's traces use the first search seed.
        let template = Evaluator::builder(suite_prefix(suite, limit))
            .window(instrs)
            .seed(seed)
            .threads(threads);
        run_suite(&name.to_uppercase(), &template, sim_budget, &seeds, jobs);
    }
}
