//! **Methodology check**: mini-SimPoint sampling accuracy. The paper
//! evaluates on SPEC Simpoints — representative intervals that stand in
//! for whole programs. This harness builds phased workloads, picks
//! simpoints by basic-block-vector clustering, and compares the
//! weighted-simpoint CPI estimate against full-trace simulation.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ext_simpoints \
//!     [instrs=N] [interval=N] [k=N]
//! ```

use archexplorer::prelude::*;
use archexplorer::sim::OooCore;
use archexplorer::workloads::{
    pick_simpoints, BranchProfile, MemoryProfile, OpMix, Phase, PhasedWorkload, WorkloadSpec,
};
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 200_000);
    let interval = args.get_usize("interval", 10_000);
    let k = args.get_usize("k", 4);
    // Like the paper's Simpoints (10 M warm-up before each 100 M window),
    // each representative interval is preceded by a warm-up stretch that
    // fills caches and predictors but is not measured.
    let warmup = args.get_usize("warmup", 3 * interval);

    // Three phased programs with contrasting phase structures.
    let compute = WorkloadSpec {
        mix: OpMix::fp_default(),
        mean_dep_distance: 12.0,
        ..WorkloadSpec::balanced()
    };
    let memory = WorkloadSpec {
        memory: MemoryProfile::hostile(),
        mean_dep_distance: 2.5,
        ..WorkloadSpec::balanced()
    };
    let branchy = WorkloadSpec {
        branches: BranchProfile::hostile(),
        ..WorkloadSpec::balanced()
    };
    let programs: Vec<(&str, PhasedWorkload)> = vec![
        (
            "compute<->memory",
            PhasedWorkload::new(vec![
                Phase {
                    spec: compute,
                    instrs: 10_000,
                },
                Phase {
                    spec: memory,
                    instrs: 10_000,
                },
            ]),
        ),
        (
            "three-phase",
            PhasedWorkload::new(vec![
                Phase {
                    spec: compute,
                    instrs: 8_000,
                },
                Phase {
                    spec: branchy,
                    instrs: 8_000,
                },
                Phase {
                    spec: memory,
                    instrs: 4_000,
                },
            ]),
        ),
        (
            "long-kernel",
            PhasedWorkload::new(vec![
                Phase {
                    spec: branchy,
                    instrs: 3_000,
                },
                Phase {
                    spec: compute,
                    instrs: 30_000,
                },
            ]),
        ),
    ];

    let core = OooCore::new(MicroArch::baseline());
    let mut t = Table::new([
        "program",
        "full_cpi",
        "simpoint_cpi",
        "error_%",
        "sims_saved_%",
    ]);
    for (name, program) in &programs {
        let trace = program.generate(instrs, 1);
        let full = core.run(&trace).expect("simulates");
        let full_cpi = full.stats.cycles as f64 / full.stats.committed as f64;

        let sps = pick_simpoints(&trace, interval, k, 7);
        // Measure CPI per representative interval with warm-up: simulate
        // [start-warmup, start+len) and count only the measured window's
        // cycles (commit-to-commit).
        let mut simulated = 0usize;
        let est_cpi: f64 = sps
            .iter()
            .map(|sp| {
                let pre = sp.start.min(warmup);
                let lo = sp.start - pre;
                let hi = sp.start + sp.len;
                simulated += hi - lo;
                let r = core.run(&trace[lo..hi]).expect("simulates");
                let end = r.trace.events.last().expect("non-empty").c;
                let begin = if pre > 0 {
                    r.trace.events[pre - 1].c
                } else {
                    0
                };
                sp.weight * (end - begin) as f64 / sp.len as f64
            })
            .sum();
        t.row([
            name.to_string(),
            format!("{full_cpi:.4}"),
            format!("{est_cpi:.4}"),
            format!("{:+.2}", 100.0 * (est_cpi / full_cpi - 1.0)),
            format!(
                "{:.1}",
                100.0 * (1.0 - simulated as f64 / trace.len() as f64)
            ),
        ]);
    }
    println!(
        "Mini-SimPoint accuracy ({instrs} instrs, {interval}-instr intervals, k={k})\n{}",
        t.to_text()
    );
    println!("expected: a few percent CPI error while simulating a fraction of the trace — the");
    println!("sampling methodology the paper's evaluation rests on. DRAM-dominated phases with");
    println!("high inter-interval variance (three-phase above) need more clusters or longer");
    println!("windows, the same trade real SimPoint makes.");
}
