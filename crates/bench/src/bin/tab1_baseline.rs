//! **Table 1**: the baseline microarchitecture specification and its
//! measured IPC / power / area on the SPEC CPU2017-like suite.
//!
//! Paper values: IPC 0.9418, 0.2027 W, 5.6609 mm². Our substrate differs
//! (synthetic workloads, McPAT-lite), so expect the same order of
//! magnitude, not equality.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin tab1_baseline [instrs=N]
//! ```

use archexplorer::prelude::*;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 50_000);
    let evaluator = Evaluator::builder(spec17_suite()).window(instrs).build();

    let arch = MicroArch::baseline();
    let mut spec = Table::new(["component", "value"]);
    spec.row(["Pipeline width", &arch.width.to_string()])
        .row(["Fetch buffer (bytes)", &arch.fetch_buffer_bytes.to_string()])
        .row(["Fetch queue (uops)", &arch.fetch_queue_uops.to_string()])
        .row([
            "Tournament BP (local/global/choice)".to_string(),
            format!(
                "{}/{}/{}",
                arch.local_predictor, arch.global_predictor, arch.choice_predictor
            ),
        ])
        .row([
            "RAS / BTB".to_string(),
            format!("{} / {}", arch.ras_entries, arch.btb_entries),
        ])
        .row([
            "ROB/IQ/LQ/SQ".to_string(),
            format!(
                "{}/{}/{}/{}",
                arch.rob_entries, arch.iq_entries, arch.lq_entries, arch.sq_entries
            ),
        ])
        .row([
            "Int RF / Fp RF".to_string(),
            format!("{} / {}", arch.int_rf, arch.fp_rf),
        ])
        .row([
            "FUs (IntALU/IntMD/FpALU/FpMD/Port)".to_string(),
            format!(
                "{}/{}/{}/{}/{}",
                arch.int_alu, arch.int_mult_div, arch.fp_alu, arch.fp_mult_div, arch.rd_wr_ports
            ),
        ])
        .row([
            "L1 I$".to_string(),
            format!("{}-way, {} KB", arch.icache_assoc, arch.icache_kb),
        ])
        .row([
            "L1 D$".to_string(),
            format!("{}-way, {} KB", arch.dcache_assoc, arch.dcache_kb),
        ]);
    println!("Table 1: baseline microarchitecture\n{}", spec.to_text());

    let eval = evaluator.evaluate(&arch).expect("baseline evaluates");
    let mut out = Table::new(["metric", "measured", "paper"]);
    out.row([
        "IPC".to_string(),
        format!("{:.4}", eval.ppa.ipc),
        "0.9418".to_string(),
    ])
    .row([
        "Power (W)".to_string(),
        format!("{:.4}", eval.ppa.power_w),
        "0.2027".to_string(),
    ])
    .row([
        "Area (mm²)".to_string(),
        format!("{:.4}", eval.ppa.area_mm2),
        "5.6609".to_string(),
    ])
    .row([
        "Perf²/(Power×Area)".to_string(),
        format!("{:.4}", eval.ppa.tradeoff()),
        "-".to_string(),
    ]);
    println!(
        "measured on {} SPEC17-like workloads, {} instrs each:\n{}",
        evaluator.workloads().len(),
        instrs,
        out.to_text()
    );

    println!("per-workload IPC:");
    let mut t = Table::new(["workload", "ipc", "power_w"]);
    for (w, ppa) in evaluator.workloads().iter().zip(&eval.per_workload) {
        t.row([
            w.id.0.to_string(),
            format!("{:.4}", ppa.ipc),
            format!("{:.4}", ppa.power_w),
        ]);
    }
    println!("{}", t.to_text());
}
