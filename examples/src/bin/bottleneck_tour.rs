//! Bottleneck tour: build the new DEG by hand for three contrasting
//! workloads and show how the critical path pins the blame — the paper's
//! Section 4 walkthrough as a runnable program.
//!
//! ```sh
//! cargo run -p archx-examples --release --bin bottleneck_tour
//! ```

use archexplorer::deg::{bottleneck, build_deg, induce, CalipersModel};
use archexplorer::sim::{trace_gen, MicroArch, OooCore};

fn analyze(label: &str, arch: MicroArch, trace: &[archexplorer::sim::Instruction]) {
    let result = OooCore::new(arch).run(trace).expect("simulates");
    let mut deg = induce(build_deg(&result));
    let path = archexplorer::deg::critical::critical_path(&mut deg);
    let report = bottleneck::analyze(&deg, &path);

    println!("=== {label} ===");
    println!(
        "simulated {} instructions in {} cycles (IPC {:.3})",
        result.stats.committed,
        result.trace.cycles,
        result.stats.ipc()
    );
    println!(
        "induced DEG: {} vertices, {} edges; critical path: {} edges, cost {}, length {}",
        deg.node_count(),
        deg.edge_count(),
        path.len(),
        path.cost,
        path.total_delay
    );
    assert_eq!(
        path.total_delay, result.trace.cycles,
        "the new formulation is exact"
    );
    println!("{}", report.render());

    // Contrast with the prior static formulation.
    let (estimate, _) = CalipersModel::from_arch(&arch).analyze(trace, &result);
    println!(
        "prior (static) formulation estimates {estimate} cycles ({:+.1}% vs actual)\n",
        100.0 * (estimate as f64 / result.trace.cycles as f64 - 1.0)
    );
}

fn main() {
    let arch = MicroArch::baseline();

    // 1. Branch-hostile code: the squash edges expose the predictor.
    analyze(
        "hard-to-predict branches",
        arch,
        &trace_gen::random_branches(20_000, 11),
    );

    // 2. Cache-hostile pointer chasing: D-cache and queue pressure.
    let mut small = MicroArch::tiny();
    small.rob_entries = 32;
    analyze(
        "pointer chase on a tiny core",
        small,
        &trace_gen::pointer_chase(20_000, 32 << 20, 7),
    );

    // 3. Divide-heavy code through a single divider.
    analyze("divider pressure", arch, &trace_gen::divide_heavy(5_000));
}
