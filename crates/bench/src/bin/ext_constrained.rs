//! **Extension**: constrained DSE — maximise performance under power and
//! area budgets (the problem framing ArchRanker uses). Bottleneck-removal
//! search with a constrained objective versus random search at the same
//! simulation budget.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ext_constrained \
//!     [budget=N] [instrs=N] [power_cap=W] [area_cap=MM2] [workloads=N]
//! ```

use archexplorer::dse::archexplorer::{run_archexplorer, ArchExplorerOptions, Objective};
use archexplorer::dse::baselines::run_random_search;
use archexplorer::dse::eval::Evaluator;
use archexplorer::prelude::*;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let budget = args.get_u64("budget", 240);
    let instrs = args.get_usize("instrs", 15_000);
    let power_cap = args.get_f64("power_cap", 0.15);
    let area_cap = args.get_f64("area_cap", 4.5);
    let limit = args.get_usize("workloads", 6);

    let suite = suite_prefix(spec06_suite(), limit);
    let space = DesignSpace::table4();
    let objective = Objective::ConstrainedPerf {
        power_cap,
        area_cap,
    };

    eprintln!("constrained DSE: max IPC s.t. power <= {power_cap} W, area <= {area_cap} mm²");
    let mut t = Table::new([
        "method",
        "best_feasible_ipc",
        "power_w",
        "area_mm2",
        "feasible_designs",
    ]);
    for (name, constrained) in [("ArchExplorer(constrained)", true), ("Random", false)] {
        let ev = Evaluator::builder(suite.clone())
            .window(instrs)
            .seed(1)
            .build();
        let log = if constrained {
            let opts = ArchExplorerOptions {
                seed: 1,
                objective,
                ..Default::default()
            };
            run_archexplorer(&space, &ev, budget, &opts)
        } else {
            run_random_search(&space, &ev, budget, 1)
        };
        let feasible: Vec<_> = log
            .records
            .iter()
            .filter(|r| objective.feasible(&r.ppa))
            .collect();
        let best = feasible
            .iter()
            .max_by(|a, b| a.ppa.ipc.partial_cmp(&b.ppa.ipc).expect("finite ipc"));
        match best {
            Some(rec) => t.row([
                name.to_string(),
                format!("{:.4}", rec.ppa.ipc),
                format!("{:.4}", rec.ppa.power_w),
                format!("{:.4}", rec.ppa.area_mm2),
                feasible.len().to_string(),
            ]),
            None => t.row([
                name.to_string(),
                "none".to_string(),
                "-".to_string(),
                "-".to_string(),
                "0".to_string(),
            ]),
        };
    }
    println!(
        "\nConstrained exploration ({budget} sims, {} workloads)\n{}",
        suite.len(),
        t.to_text()
    );
    println!("expected: the constrained bottleneck search finds a faster design inside the");
    println!("budgets than random sampling, and spends most of its budget on feasible points.");
}
