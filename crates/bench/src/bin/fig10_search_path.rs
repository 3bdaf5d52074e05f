//! **Figure 10**: a narrated ArchExplorer search path. Starting from a
//! design whose store queue is deliberately starved, each step prints the
//! bottleneck report, what got grown/shrunk, and the PPA movement — the
//! store-queue contribution should fall step by step while the trade-off
//! climbs.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig10_search_path [instrs=N] [steps=N]
//! ```

use archexplorer::dse::eval::{Analysis, Evaluator};
use archexplorer::dse::reassign::{reassign, ReassignOptions};
use archexplorer::dse::space::ParamId;
use archexplorer::prelude::*;
use archx_bench::Args;
use std::collections::HashSet;

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 20_000);
    let steps = args.get_usize("steps", 5);

    // Store-heavy suite slice: the lbm-like workloads write constantly.
    let suite: Vec<Workload> = spec17_suite()
        .into_iter()
        .filter(|w| w.id.0.contains("lbm") || w.id.0.contains("cactu") || w.id.0.contains("x264"))
        .collect();
    let evaluator = Evaluator::builder(suite).window(instrs).seed(1).build();
    let space = DesignSpace::table4();

    // Start: a mid-size design with the smallest possible store queue.
    let mut arch = space.snap(&MicroArch::baseline());
    arch.sq_entries = 20;
    arch.rob_entries = 128;
    arch.iq_entries = 48;

    let frozen: HashSet<ParamId> = HashSet::new();
    let opts = ReassignOptions::default();
    let mut prev_tradeoff = None::<f64>;
    for step in 0..=steps {
        let e = evaluator
            .evaluate_with(&arch, Analysis::NewDeg)
            .expect("baseline-derived designs evaluate");
        let report = e.report.as_ref().expect("analysis requested");
        println!("=== step {step}: {} ===", arch);
        println!(
            "IPC {:.4}  power {:.4} W  area {:.4} mm²  trade-off {:.4}{}",
            e.ppa.ipc,
            e.ppa.power_w,
            e.ppa.area_mm2,
            e.ppa.tradeoff(),
            prev_tradeoff
                .map(|p| format!("  ({:+.1}% vs prev)", 100.0 * (e.ppa.tradeoff() / p - 1.0)))
                .unwrap_or_default()
        );
        println!(
            "SQ contribution: {:.2}%",
            100.0 * report.contribution(BottleneckSource::Sq)
        );
        println!("{}", report.render());
        prev_tradeoff = Some(e.ppa.tradeoff());
        if step == steps {
            break;
        }
        let r = reassign(&space, &arch, report, &frozen, &opts);
        println!("reassign: grow {:?}, shrink {:?}\n", r.grown, r.shrunk);
        if r.arch == arch {
            println!("(no further move possible)");
            break;
        }
        arch = r.arch;
    }
}
