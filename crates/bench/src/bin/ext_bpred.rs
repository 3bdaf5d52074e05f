//! **Extension study**: branch prediction *algorithms* at fixed storage.
//! The paper (§4.3) argues that once predictor capacity stops paying, only
//! a better algorithm helps — this harness quantifies that by swapping the
//! direction predictor (bimodal / gshare / tournament) on the Table 1
//! baseline and measuring misprediction rate, IPC, and the BPred
//! bottleneck contribution.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ext_bpred [instrs=N]
//! ```

use archexplorer::prelude::*;
use archexplorer::sim::config::BpKind;
use archexplorer::sim::OooCore;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 30_000);
    // Branch-hostile workloads show the algorithm differences best.
    let suite: Vec<Workload> = spec06_suite()
        .into_iter()
        .filter(|w| {
            ["sjeng", "gcc", "bzip2", "h264"]
                .iter()
                .any(|n| w.id.0.contains(n))
        })
        .collect();

    let mut t = Table::new([
        "workload",
        "predictor",
        "bp_miss_%",
        "ipc",
        "bpred_contrib_%",
    ]);
    for w in &suite {
        let trace = w.generate(instrs, 1);
        for kind in [BpKind::Bimodal, BpKind::GShare, BpKind::Tournament] {
            let mut arch = MicroArch::baseline();
            arch.bp_kind = kind;
            let r = OooCore::new(arch).run(&trace).expect("simulates");
            let mut deg = induce(build_deg(&r));
            let path = archexplorer::deg::critical::critical_path(&mut deg);
            let rep = archexplorer::deg::bottleneck::analyze(&deg, &path);
            t.row([
                w.id.0.to_string(),
                format!("{kind:?}"),
                format!("{:.2}", 100.0 * r.stats.mispredict_rate()),
                format!("{:.4}", r.stats.ipc()),
                format!("{:.2}", 100.0 * rep.contribution(BottleneckSource::BPred)),
            ]);
        }
    }
    println!(
        "Branch-predictor algorithm study ({instrs} instrs per workload)\n{}",
        t.to_text()
    );
    println!("expected: tournament ≤ gshare ≤ bimodal misprediction rates at equal storage;");
    println!("the BPred bottleneck contribution falls with the better algorithm — the lever the");
    println!("paper says capacity alone cannot provide.");
}
