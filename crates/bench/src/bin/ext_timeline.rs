//! **Extension**: bottleneck evolution over time — the critical path
//! split into time windows, showing how the dominant resource changes as
//! a phased program moves between kernels (a CPI-stack-over-time view the
//! DEG makes exact).
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ext_timeline [instrs=N] [bins=N]
//! ```

use archexplorer::deg::bottleneck::timeline;
use archexplorer::prelude::*;
use archexplorer::sim::OooCore;
use archexplorer::workloads::{
    BranchProfile, MemoryProfile, OpMix, Phase, PhasedWorkload, WorkloadSpec,
};
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 60_000);
    let bins = args.get_usize("bins", 6);

    // Three contrasting phases: FP compute → pointer chasing → branchy.
    let program = PhasedWorkload::new(vec![
        Phase {
            spec: WorkloadSpec {
                mix: OpMix::fp_default(),
                mean_dep_distance: 12.0,
                ..WorkloadSpec::balanced()
            },
            instrs: instrs / 3,
        },
        Phase {
            spec: WorkloadSpec {
                memory: MemoryProfile::hostile(),
                mean_dep_distance: 2.2,
                ..WorkloadSpec::balanced()
            },
            instrs: instrs / 3,
        },
        Phase {
            spec: WorkloadSpec {
                branches: BranchProfile::hostile(),
                ..WorkloadSpec::balanced()
            },
            instrs: instrs / 3,
        },
    ]);

    let r = OooCore::new(MicroArch::baseline())
        .run(&program.generate(instrs, 1))
        .expect("simulates");
    let mut deg = induce(build_deg(&r));
    let path = archexplorer::deg::critical::critical_path(&mut deg);
    let windows = timeline(&deg, &path, bins);

    println!(
        "bottleneck evolution over {} instructions / {} cycles ({bins} windows):\n",
        r.stats.committed, r.trace.cycles
    );
    let mut header = vec!["source".to_string()];
    header.extend((0..bins).map(|i| format!("w{i}_%")));
    let mut t = Table::new(header);
    for &src in &BottleneckSource::ALL {
        let vals: Vec<f64> = windows.iter().map(|w| w.contribution(src)).collect();
        if vals.iter().all(|&v| v < 0.02) {
            continue;
        }
        let mut row = vec![src.to_string()];
        row.extend(vals.iter().map(|v| format!("{:.1}", 100.0 * v)));
        t.row(row);
    }
    println!("{}", t.to_text());
    println!("expected: the dominant source shifts window to window as the phases change —");
    println!("ROB/FP-unit pressure first, IntRF held by the pointer-chasing loads in the");
    println!("middle, branch squashes at the end.");
}
