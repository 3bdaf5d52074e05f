//! DSE shootout: all six methods on the same suite and budget, reporting
//! hypervolume-versus-simulations — a miniature of the paper's Figure 12.
//!
//! ```sh
//! cargo run -p archx-examples --release --bin dse_shootout [SIM_BUDGET]
//! ```

use archexplorer::dse::prelude::*;
use archexplorer::workloads::spec06_suite;

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(160);
    let suite: Vec<_> = spec06_suite().into_iter().take(4).collect();
    let space = DesignSpace::table4();
    let template = Evaluator::builder(suite).window(8_000).seed(7);

    println!(
        "running {} methods, {budget} simulations each...",
        Method::ALL.len()
    );
    let campaign = CampaignRunner::new()
        .run(&Method::ALL, &space, &template, budget)
        .expect("no per-run setup to fail");

    let r = RefPoint::default();
    let step = (budget / 10).max(1);
    println!("\nhypervolume vs simulations (step {step}):");
    print!("{:>6}", "sims");
    for log in &campaign.logs {
        print!("{:>15}", log.method);
    }
    println!();
    let curves = campaign.curves(&r, step);
    let len = curves.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for i in 0..len {
        let sims = (i as u64 + 1) * step;
        print!("{sims:>6}");
        for (_, curve) in &curves {
            match curve.get(i) {
                Some((_, hv)) => print!("{hv:>15.4}"),
                None => print!("{:>15}", "-"),
            }
        }
        println!();
    }

    println!("\nfinal Pareto frontiers and best trade-offs:");
    for log in &campaign.logs {
        let best = log.best_tradeoff().expect("non-empty log");
        println!(
            "  {:>14}: frontier {:>3} designs, best Perf²/(P×A) = {:.4}",
            log.method,
            log.frontier().len(),
            best.ppa.tradeoff()
        );
    }
}
