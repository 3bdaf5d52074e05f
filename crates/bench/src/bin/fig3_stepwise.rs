//! **Figure 3**: the motivating stepwise search — adjust resources by
//! their *necessity* (the fraction of rename stalls each caused, read off
//! the simulation trace, no DEG yet) for six simulations, tracking
//! performance, power, area and the PPA trade-off relative to the start.
//!
//! Paper shape: within six simulations the heuristic improves performance
//! slightly while cutting power and area, lifting the trade-off ~30%.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig3_stepwise [instrs=N] [steps=N]
//! ```

use archexplorer::dse::space::{DesignSpace, ParamId};
use archexplorer::prelude::*;
use archexplorer::sim::trace::ResourceKind;
use archexplorer::sim::OooCore;
use archx_bench::{Args, Table};

/// Per-resource stall necessity, peak-occupancy fraction, and suite PPA.
fn necessity(
    arch: &MicroArch,
    suite: &[Workload],
    instrs: usize,
) -> ([f64; 6], [f64; 6], PpaResult) {
    let power = PowerModel;
    let mut stalls = [0u64; 6];
    let mut occ = [0.0f64; 6];
    let mut cycles = 0u64;
    let mut ipc = 0.0;
    let mut pw = 0.0;
    for w in suite {
        let r = OooCore::new(*arch)
            .run(&w.generate(instrs, 1))
            .expect("simulates");
        for i in 0..6 {
            stalls[i] += r.stats.rename_stall_cycles[i];
            occ[i] = occ[i].max(r.stats.avg_occupancy[i]);
        }
        cycles += r.stats.cycles;
        let ppa = power.evaluate(arch, &r.stats);
        ipc += ppa.ipc / suite.len() as f64;
        pw += ppa.power_w / suite.len() as f64;
    }
    let caps = [
        arch.rob_entries,
        arch.iq_entries,
        arch.lq_entries,
        arch.sq_entries,
        arch.int_rf.saturating_sub(32).max(1),
        arch.fp_rf.saturating_sub(32).max(1),
    ];
    let mut necessity = [0.0; 6];
    let mut occ_frac = [0.0; 6];
    for i in 0..6 {
        necessity[i] = stalls[i] as f64 / cycles.max(1) as f64;
        occ_frac[i] = occ[i] / caps[i] as f64;
    }
    (
        necessity,
        occ_frac,
        PpaResult {
            ipc,
            power_w: pw,
            area_mm2: power.area(arch),
        },
    )
}

fn param_of(kind: ResourceKind) -> ParamId {
    match kind {
        ResourceKind::Rob => ParamId::Rob,
        ResourceKind::Iq => ParamId::Iq,
        ResourceKind::Lq => ParamId::Lq,
        ResourceKind::Sq => ParamId::Sq,
        ResourceKind::IntRf => ParamId::IntRf,
        ResourceKind::FpRf => ParamId::FpRf,
    }
}

fn main() {
    let args = Args::from_env();
    let instrs = args.get_usize("instrs", 20_000);
    let steps = args.get_usize("steps", 6);
    let suite = spec17_suite();
    let space = DesignSpace::table4();

    let mut arch = space.snap(&MicroArch::baseline());
    let (_, _, base) = necessity(&arch, &suite, instrs);

    let mut t = Table::new(["step", "perf_%", "power_%", "area_%", "ppa_%", "action"]);
    t.row([
        "0".to_string(),
        "100.00".to_string(),
        "100.00".to_string(),
        "100.00".to_string(),
        "100.00".to_string(),
        "baseline".to_string(),
    ]);
    let mut frozen: Vec<ParamId> = Vec::new();
    let mut prev_tradeoff = base.tradeoff();
    let mut prev_arch = arch;
    for step in 1..=steps {
        let (nec, occ, _) = necessity(&arch, &suite, instrs);
        // Grow the most necessary resource; shrink resources that neither
        // stall anyone nor come close to full occupancy (the "reduce
        // redundant ones" half of the paper's heuristic).
        let mut action = String::new();
        let mut order: Vec<usize> = (0..6).collect();
        order.sort_by(|&a, &b| nec[b].partial_cmp(&nec[a]).expect("finite"));
        let mut top = 6;
        for &i in &order {
            let p = param_of(ResourceKind::ALL[i]);
            if nec[i] > 0.0 && !frozen.contains(&p) {
                if let Some(v) = space.next_larger(p, p.get(&arch)) {
                    p.set(&mut arch, v);
                    action.push_str(&format!("+{p} "));
                    top = i;
                    break;
                }
            }
        }
        for i in 0..6 {
            if i != top && nec[i] < 1e-6 && occ[i] < 0.55 {
                let p = param_of(ResourceKind::ALL[i]);
                if let Some(v) = space.next_smaller(p, p.get(&arch)) {
                    p.set(&mut arch, v);
                    action.push_str(&format!("-{p} "));
                }
            }
        }
        let (_, _, ppa) = necessity(&arch, &suite, instrs);
        // The architect watches the PPA: an increase that did not pay for
        // itself is reverted and not retried.
        if ppa.tradeoff() < prev_tradeoff && top < 6 {
            frozen.push(param_of(ResourceKind::ALL[top]));
            arch = prev_arch;
            action.push_str("(reverted)");
        } else {
            prev_tradeoff = ppa.tradeoff();
            prev_arch = arch;
        }
        t.row([
            step.to_string(),
            format!("{:.2}", 100.0 * ppa.ipc / base.ipc),
            format!("{:.2}", 100.0 * ppa.power_w / base.power_w),
            format!("{:.2}", 100.0 * ppa.area_mm2 / base.area_mm2),
            format!("{:.2}", 100.0 * ppa.tradeoff() / base.tradeoff()),
            action.trim().to_string(),
        ]);
    }
    println!(
        "Figure 3: stepwise necessity-driven search (six simulations)\n{}",
        t.to_text()
    );
    println!("expected shape: power/area drop as idle queues shrink; the trade-off climbs well above 100%.");
}
