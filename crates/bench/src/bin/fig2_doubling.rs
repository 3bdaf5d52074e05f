//! **Figure 2**: comparative simulations that double one baseline
//! parameter at a time (SPEC CPU2017-like suite) and report each metric as
//! a percentage of the baseline, plus the PPA trade-off
//! `Perf²/(Power×Area)`.
//!
//! Paper shape: doubling FpALU worsens power/area with no performance
//! gain; doubling IntRF improves performance by ~23% and the trade-off by
//! ~27%.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig2_doubling [instrs=N]
//! ```

use archexplorer::dse::space::ParamId;
use archexplorer::prelude::*;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 30_000);
    let evaluator = Evaluator::builder(spec17_suite()).window(instrs).build();

    let baseline = MicroArch::baseline();
    let base = evaluator.evaluate(&baseline).expect("evaluates").ppa;
    println!(
        "baseline: IPC {:.4}, power {:.4} W, area {:.4} mm², trade-off {:.4}\n",
        base.ipc,
        base.power_w,
        base.area_mm2,
        base.tradeoff()
    );

    let doubled: &[(ParamId, &str)] = &[
        (ParamId::Rob, "ROB x2"),
        (ParamId::Iq, "IQ x2"),
        (ParamId::Lq, "LQ x2"),
        (ParamId::Sq, "SQ x2"),
        (ParamId::IntRf, "IntRF x2"),
        (ParamId::FpRf, "FpRF x2"),
        (ParamId::IntMultDiv, "IntMultDiv x2"),
        (ParamId::FpAlu, "FpALU x2"),
        (ParamId::FpMultDiv, "FpMultDiv x2"),
        (ParamId::FetchQueue, "FetchQueue x2"),
        (ParamId::FetchBuffer, "FetchBuf x2"),
        (ParamId::ICacheKb, "I$ x2"),
        (ParamId::DCacheKb, "D$ x2"),
        (ParamId::Width, "Width x2"),
    ];

    let mut t = Table::new([
        "configuration",
        "perf_%",
        "power_%",
        "area_%",
        "ppa_tradeoff_%",
    ]);
    for &(param, label) in doubled {
        let mut arch = baseline;
        param.set(&mut arch, param.get(&baseline) * 2);
        if arch.validate().is_err() {
            continue;
        }
        let ppa = evaluator.evaluate(&arch).expect("evaluates").ppa;
        t.row([
            label.to_string(),
            format!("{:.2}", 100.0 * ppa.ipc / base.ipc),
            format!("{:.2}", 100.0 * ppa.power_w / base.power_w),
            format!("{:.2}", 100.0 * ppa.area_mm2 / base.area_mm2),
            format!("{:.2}", 100.0 * ppa.tradeoff() / base.tradeoff()),
        ]);
    }
    println!(
        "Figure 2: each metric as % of baseline (100 = unchanged)\n{}",
        t.to_text()
    );
    println!(
        "expected shape: IntRF x2 lifts perf & trade-off; FpALU/FpMultDiv x2 only add power/area."
    );
}
