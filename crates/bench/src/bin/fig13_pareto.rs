//! **Figure 13**: Pareto frontiers of all methods in the three pairwise
//! projections (performance–power, performance–area, area–power) plus the
//! distribution of PPA trade-offs over each method's Pareto designs.
//!
//! Paper shape: the frontiers are close in perf–power space, but
//! ArchExplorer dominates regions of perf–area and area–power, and its
//! Pareto designs have the best mean trade-off.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig13_pareto \
//!     [budget=N] [instrs=N] [seed=S] [workloads=N]
//! ```

use archexplorer::prelude::*;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let sim_budget = args.get_u64("budget", 360);
    let limit = args.get_usize("workloads", usize::MAX);
    let template = Evaluator::builder(suite_prefix(spec06_suite(), limit))
        .window(args.get_usize("instrs", 20_000))
        .seed(args.get_u64("seed", 1));

    let methods = [
        Method::ArchExplorer,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
    ];
    eprintln!(
        "[SPEC06] running {} methods x {sim_budget} sims...",
        methods.len()
    );
    let specs: Vec<RunSpec> = methods
        .iter()
        .map(|&method| RunSpec {
            method,
            seed: template.trace_seed(),
        })
        .collect();
    let logs = CampaignRunner::new()
        .run_specs(&specs, &DesignSpace::table4(), &template, sim_budget)
        .expect("no journal to fail");

    let frontiers: Vec<Vec<(MicroArch, PpaResult)>> = logs.iter().map(RunLog::frontier).collect();
    println!("Figure 13 data: Pareto-frontier points per method (CSV)");
    let mut t = Table::new(["method", "ipc", "power_w", "area_mm2", "tradeoff"]);
    for (log, frontier) in logs.iter().zip(&frontiers) {
        for (_, ppa) in frontier {
            t.row([
                log.method.clone(),
                format!("{:.4}", ppa.ipc),
                format!("{:.4}", ppa.power_w),
                format!("{:.4}", ppa.area_mm2),
                format!("{:.4}", ppa.tradeoff()),
            ]);
        }
    }
    println!("{}", t.to_csv());

    println!("PPA trade-off distribution of Pareto designs:");
    let mut s = Table::new(["method", "n", "mean", "min", "max"]);
    let mut means: Vec<(String, f64)> = Vec::new();
    for (log, frontier) in logs.iter().zip(&frontiers) {
        let tr: Vec<f64> = frontier.iter().map(|(_, p)| p.tradeoff()).collect();
        let mean = tr.iter().sum::<f64>() / tr.len().max(1) as f64;
        means.push((log.method.clone(), mean));
        s.row([
            log.method.clone(),
            tr.len().to_string(),
            format!("{mean:.4}"),
            format!("{:.4}", tr.iter().copied().fold(f64::INFINITY, f64::min)),
            format!(
                "{:.4}",
                tr.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            ),
        ]);
    }
    println!("{}", s.to_text());

    let ax = means
        .iter()
        .find(|(m, _)| m == "ArchExplorer")
        .map(|&(_, v)| v)
        .unwrap_or(0.0);
    for (m, v) in &means {
        if m != "ArchExplorer" {
            println!(
                "ArchExplorer mean trade-off vs {m}: {:+.2}% (paper: +7..+19%)",
                100.0 * (ax / v.max(1e-12) - 1.0)
            );
        }
    }
}
