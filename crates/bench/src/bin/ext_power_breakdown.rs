//! **Extension**: per-component power breakdown of a design under a
//! workload — the McPAT-style component table behind the headline watt
//! number, useful for sanity-checking where the model says the energy
//! goes.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin ext_power_breakdown \
//!     [instrs=N] [workload=NAME]
//! ```

use archexplorer::prelude::*;
use archexplorer::sim::OooCore;
use archx_bench::{Args, Table};

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 30_000);
    let name = args.get_str("workload", "x264");
    let suite = spec17_suite();
    let workload = suite
        .iter()
        .find(|w| w.id.0.contains(&name))
        .unwrap_or(&suite[0]);

    let arch = MicroArch::baseline();
    let r = OooCore::new(arch)
        .run(&workload.generate(instrs, 1))
        .expect("simulates");
    let model = PowerModel;
    let ppa = model.evaluate(&arch, &r.stats);
    let mut breakdown = model.power_breakdown(&arch, &r.stats);
    breakdown.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite watts"));
    let total: f64 = breakdown.iter().map(|(_, w)| w).sum();

    println!(
        "power breakdown: {} on {} ({} instrs, IPC {:.3})\n",
        arch,
        workload.id,
        instrs,
        r.stats.ipc()
    );
    let mut t = Table::new(["component", "watts", "share_%"]);
    for (name, w) in &breakdown {
        t.row([
            name.to_string(),
            format!("{w:.4}"),
            format!("{:.1}", 100.0 * w / total),
        ]);
    }
    t.row([
        "TOTAL".to_string(),
        format!("{total:.4}"),
        "100.0".to_string(),
    ]);
    println!("{}", t.to_text());
    println!(
        "headline model power: {:.4} W (breakdown splits the same energy heuristically)",
        ppa.power_w
    );
}
