//! **Figure 14** (the per-benchmark results bars): for each method's best
//! PPA-trade-off design, the per-workload trade-off across both suites.
//!
//! Paper shape: ArchExplorer's best design wins or ties on most workloads.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig14_per_workload \
//!     [budget=N] [instrs=N] [seed=S] [workloads=N]
//! ```

use archexplorer::prelude::*;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let sim_budget = args.get_u64("budget", 240);
    let instrs = args.get_usize("instrs", 20_000);
    let seed = args.get_u64("seed", 1);
    let limit = args.get_usize("workloads", usize::MAX);
    let methods = [
        Method::ArchExplorer,
        Method::AdaBoost,
        Method::ArchRanker,
        Method::BoomExplorer,
    ];

    for (name, suite) in [("SPEC06", spec06_suite()), ("SPEC17", spec17_suite())] {
        let suite = suite_prefix(suite, limit);
        let space = DesignSpace::table4();
        let template = Evaluator::builder(suite.clone()).window(instrs).seed(seed);

        // Find each method's best design, then re-evaluate per workload.
        let mut best: Vec<(String, MicroArch)> = Vec::new();
        for &m in &methods {
            eprintln!("[{name}] {m}: exploring {sim_budget} sims...");
            let log = run_method_on(m, &space, &template.clone().build(), sim_budget, seed);
            let rec = log.best_tradeoff().expect("non-empty log");
            best.push((m.to_string(), rec.arch));
        }

        let evaluator = template.build();
        let mut header = vec!["workload".to_string()];
        header.extend(best.iter().map(|(m, _)| m.clone()));
        let mut t = Table::new(header);
        let evals: Vec<_> = best
            .iter()
            .map(|(_, arch)| evaluator.evaluate(arch).expect("winning designs evaluate"))
            .collect();
        let mut wins = vec![0usize; best.len()];
        for (wi, wl) in suite.iter().enumerate() {
            let mut row = vec![wl.id.0.to_string()];
            let tr: Vec<f64> = evals
                .iter()
                .map(|e| e.per_workload[wi].tradeoff())
                .collect();
            let top = tr
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty");
            wins[top] += 1;
            for v in &tr {
                row.push(format!("{v:.4}"));
            }
            t.row(row);
        }
        println!("\nFigure 14 [{name}]: per-workload PPA trade-off of each method's best design");
        println!("{}", t.to_text());
        for ((m, _), w) in best.iter().zip(&wins) {
            println!("  {m}: best on {w}/{} workloads", suite.len());
        }
    }
}
