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

/// Multi-seed variant: prints mean ± std hypervolume per budget point.
fn run_suite_sweep(
    name: &str,
    template: &EvaluatorBuilder,
    sim_budget: u64,
    seeds: &[u64],
    jobs: usize,
) {
    let space = DesignSpace::table4();
    let methods = [
        Method::ArchExplorer,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
        Method::Random,
        Method::Calipers,
    ];
    eprintln!(
        "[{name}] sweeping {} methods x {sim_budget} sims x {} seeds ({} jobs)...",
        methods.len(),
        seeds.len(),
        jobs
    );
    let r = RefPoint::default();
    let step = (sim_budget / 12).max(1);
    let curves = CampaignRunner::new()
        .jobs(jobs)
        .sweep(&methods, &space, template, sim_budget, seeds, &r, step)
        .expect("seeds sample aligned budget grids");
    let mut header = vec!["sims".to_string()];
    header.extend(curves.iter().map(|c| c.method.clone()));
    let mut t = Table::new(header);
    let len = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for i in 0..len {
        let mut row = vec![((i as u64 + 1) * step).to_string()];
        for c in &curves {
            row.push(
                c.points
                    .get(i)
                    .map(|&(_, mean, std)| format!("{mean:.3}±{std:.3}"))
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        t.row(row);
    }
    println!(
        "
Figure 12 [{name}] over seeds {seeds:?}: mean ± std hypervolume
{}",
        t.to_text()
    );
}

fn run_suite(name: &str, template: &EvaluatorBuilder, sim_budget: u64, jobs: usize) {
    let space = DesignSpace::table4();
    let methods = [
        Method::ArchExplorer,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
        Method::Random,
        Method::Calipers,
    ];
    eprintln!(
        "[{name}] running {} methods x {sim_budget} sims ({} jobs)...",
        methods.len(),
        jobs
    );
    let campaign = CampaignRunner::new()
        .jobs(jobs)
        .run(&methods, &space, template, sim_budget)
        .expect("no per-run setup to fail");

    let r = RefPoint::default();
    let step = (sim_budget / 12).max(1);
    let curves = campaign.curves(&r, step);
    let mut header = vec!["sims".to_string()];
    header.extend(curves.iter().map(|(m, _)| m.clone()));
    let mut t = Table::new(header);
    let len = curves.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for i in 0..len {
        let mut row = vec![((i as u64 + 1) * step).to_string()];
        for (_, curve) in &curves {
            row.push(
                curve
                    .get(i)
                    .map(|(_, hv)| format!("{hv:.4}"))
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        t.row(row);
    }
    println!(
        "\nFigure 12 [{name}]: Pareto hypervolume vs simulations\n{}",
        t.to_text()
    );

    // Shape check: where does ArchExplorer stand at the final budget?
    let finals: Vec<(String, f64)> = curves
        .iter()
        .filter_map(|(m, c)| c.last().map(|&(_, hv)| (m.clone(), hv)))
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
    let telemetry_mode = args.telemetry();
    let sim_budget = args.get_u64("budget", 360);
    let instrs = args.get_usize("instrs", 20_000);
    let seed = args.get_u64("seed", 1);
    let limit = args.get_usize("workloads", usize::MAX);
    let which = args.get_str("suite", "both");
    let n_seeds = args.get_usize("seeds", 1);
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
        let name = name.to_uppercase();
        if n_seeds > 1 {
            run_suite_sweep(&name, &template, sim_budget, &seeds, jobs);
        } else {
            run_suite(&name, &template, sim_budget, jobs);
        }
    }
    archx_bench::emit::emit_telemetry(&telemetry_mode);
}
