//! **Extension study**: L1 cache replacement policies. The paper (§4.3)
//! notes that capacity/associativity cannot remove cache bottlenecks on
//! hard access patterns — "a better cache replacement policy" is the other
//! lever. This harness swaps LRU / FIFO / random on the baseline's L1s and
//! measures D-cache behaviour, IPC, and the D-cache bottleneck
//! contribution.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ext_replacement [instrs=N]
//! ```

use archexplorer::prelude::*;
use archexplorer::sim::config::ReplPolicy;
use archexplorer::sim::OooCore;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 30_000);
    // Memory-sensitive workloads.
    let suite: Vec<Workload> = spec06_suite()
        .into_iter()
        .filter(|w| {
            ["mcf", "soplex", "dealII", "libquantum"]
                .iter()
                .any(|n| w.id.0.contains(n))
        })
        .collect();

    let mut t = Table::new(["workload", "policy", "d$_miss_%", "ipc", "dcache_contrib_%"]);
    for w in &suite {
        let trace = w.generate(instrs, 1);
        for policy in [ReplPolicy::Lru, ReplPolicy::Fifo, ReplPolicy::Random] {
            let mut arch = MicroArch::baseline();
            arch.replacement = policy;
            let r = OooCore::new(arch).run(&trace).expect("simulates");
            let mut deg = induce(build_deg(&r));
            let path = archexplorer::deg::critical::critical_path(&mut deg);
            let rep = archexplorer::deg::bottleneck::analyze(&deg, &path);
            t.row([
                w.id.0.to_string(),
                format!("{policy:?}"),
                format!("{:.2}", 100.0 * r.stats.dcache_miss_rate()),
                format!("{:.4}", r.stats.ipc()),
                format!("{:.2}", 100.0 * rep.contribution(BottleneckSource::DCache)),
            ]);
        }
    }
    println!(
        "Cache replacement-policy study ({instrs} instrs per workload)\n{}",
        t.to_text()
    );
    println!("expected: LRU ≤ FIFO ≈ random miss rates; the differences are small next to");
    println!("capacity effects — matching the paper's point that pattern-hostile workloads");
    println!("need smarter policies, not just bigger arrays.");
}
