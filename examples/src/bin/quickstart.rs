//! Quickstart: simulate the Table 1 baseline, print its PPA, run a
//! bottleneck analysis, and let ArchExplorer improve the design.
//!
//! ```sh
//! cargo run -p archx-examples --release --bin quickstart
//! ```

use archexplorer::prelude::*;

fn main() {
    // A small, fast setup: 4 SPEC06-like workloads, 10 K instructions each
    // (the paper analyses the first 100 K of each Simpoint; scale up the
    // window if you have the time).
    let template = Evaluator::builder(suite_prefix(spec06_suite(), 4)).window(10_000);

    // 1. Evaluate the paper's Table 1 baseline, with its critical-path
    //    bottleneck analysis.
    let baseline = MicroArch::baseline();
    let eval = template
        .clone()
        .build()
        .evaluate_with(&baseline, Analysis::NewDeg)
        .expect("baseline evaluates");
    println!("baseline: {baseline}");
    println!(
        "  IPC {:.4}  power {:.4} W  area {:.4} mm²  PPA trade-off {:.4}\n",
        eval.ppa.ipc,
        eval.ppa.power_w,
        eval.ppa.area_mm2,
        eval.ppa.tradeoff()
    );

    // 2. Where do the cycles go? (critical-path bottleneck report)
    let report = eval.report.as_ref().expect("analysis requested");
    println!("{}", report.render());

    // 3. Let ArchExplorer reassign hardware for 120 simulations, on a
    //    fresh evaluator so the search pays for every simulation.
    let log = run_method_on(
        Method::ArchExplorer,
        &DesignSpace::table4(),
        &template.build(),
        120,
        1,
    );
    let best = log.best_tradeoff().expect("explored at least one design");
    println!(
        "after {} designs ({} simulations):",
        log.records.len(),
        log.records.last().map_or(0, |r| r.sims_after)
    );
    println!("  best design: {}", best.arch);
    println!(
        "  IPC {:.4}  power {:.4} W  area {:.4} mm²  PPA trade-off {:.4}",
        best.ppa.ipc,
        best.ppa.power_w,
        best.ppa.area_mm2,
        best.ppa.tradeoff()
    );
    println!(
        "  improvement over baseline: {:+.1}%",
        100.0 * (best.ppa.tradeoff() / eval.ppa.tradeoff() - 1.0)
    );
    println!("  Pareto frontier size: {}", log.frontier().len());
}
