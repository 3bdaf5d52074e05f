//! **Extension study**: memory-dependence speculation (store-set style),
//! the "memory address dependence misprediction" the paper's Table 2 edge
//! set anticipates. Compares the conservative policy (loads wait for all
//! older store addresses) against speculative issue with a per-PC conflict
//! predictor, per workload, and shows the new `MemDep` bottleneck source
//! in the reports.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ext_memdep [instrs=N]
//! ```

use archexplorer::prelude::*;
use archexplorer::sim::config::MemDepPolicy;
use archexplorer::sim::OooCore;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 30_000);
    let suite = spec17_suite();

    let mut cons_arch = MicroArch::baseline();
    cons_arch.mem_dep = MemDepPolicy::Conservative;
    let mut spec_arch = MicroArch::baseline();
    spec_arch.mem_dep = MemDepPolicy::StoreSets;

    let mut t = Table::new([
        "workload",
        "ipc_conservative",
        "ipc_storesets",
        "speedup_%",
        "violations",
        "memdep_contrib_%",
    ]);
    let (mut c_sum, mut s_sum) = (0.0, 0.0);
    for w in &suite {
        let trace = w.generate(instrs, 1);
        let cons = OooCore::new(cons_arch).run(&trace).expect("simulates");
        let spec = OooCore::new(spec_arch).run(&trace).expect("simulates");
        c_sum += cons.stats.ipc();
        s_sum += spec.stats.ipc();
        let mut deg = induce(build_deg(&spec));
        let path = archexplorer::deg::critical::critical_path(&mut deg);
        let rep = archexplorer::deg::bottleneck::analyze(&deg, &path);
        assert_eq!(
            path.total_delay, spec.trace.cycles,
            "exactness holds under speculation"
        );
        t.row([
            w.id.0.to_string(),
            format!("{:.4}", cons.stats.ipc()),
            format!("{:.4}", spec.stats.ipc()),
            format!(
                "{:+.2}",
                100.0 * (spec.stats.ipc() / cons.stats.ipc() - 1.0)
            ),
            spec.stats.mem_dep_violations.to_string(),
            format!("{:.3}", 100.0 * rep.contribution(BottleneckSource::MemDep)),
        ]);
    }
    println!(
        "Memory-dependence speculation extension (SPEC17-like, {instrs} instrs)\n{}",
        t.to_text()
    );
    println!(
        "suite average IPC: conservative {:.4} -> store-sets {:.4} ({:+.2}%)",
        c_sum / suite.len() as f64,
        s_sum / suite.len() as f64,
        100.0 * (s_sum / c_sum - 1.0)
    );
    println!("reading: speculation recovers load parallelism lost to unknown store addresses;");
    println!("violations are replays, visible as the MemDep source in the bottleneck report.");
}
