//! The top-level PPA model: combines per-component areas, leakage, and
//! activity-driven dynamic power.

use crate::area;
use crate::energy::{EventEnergies, FREQ_HZ, LEAKAGE_W_PER_MM2};
use archx_sim::{MicroArch, SimStats};

/// Power/area evaluation of one simulated design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaResult {
    /// Instructions per cycle achieved in the simulation.
    pub ipc: f64,
    /// Total core power in watts (dynamic + leakage).
    pub power_w: f64,
    /// Core area in mm².
    pub area_mm2: f64,
}

impl PpaResult {
    /// The paper's PPA trade-off metric, `Perf² / (Power × Area)`.
    pub fn tradeoff(&self) -> f64 {
        if self.power_w <= 0.0 || self.area_mm2 <= 0.0 {
            return 0.0;
        }
        self.ipc * self.ipc / (self.power_w * self.area_mm2)
    }
}

/// Detailed power decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Dynamic power in watts.
    pub dynamic_w: f64,
    /// Leakage power in watts.
    pub leakage_w: f64,
}

/// The analytic PPA model, calibrated to the nominal technology of
/// [`crate::energy`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerModel;

impl PowerModel {
    /// Core area in mm² for a configuration.
    pub fn area(&self, arch: &MicroArch) -> f64 {
        area::total_area(arch)
    }

    /// Power decomposition for a configuration under observed activity.
    pub fn power(&self, arch: &MicroArch, stats: &SimStats) -> PowerBreakdown {
        let e = EventEnergies::for_arch(arch);
        let cycles = stats.cycles.max(1) as f64;
        let seconds = cycles / FREQ_HZ;

        let dram_accesses = stats.l2_misses as f64;
        let dynamic_nj = stats.committed as f64 * e.per_commit_nj
            + stats.bp_lookups as f64 * e.per_bp_lookup_nj
            + (stats.icache_accesses + stats.dcache_accesses) as f64 * e.per_l1_access_nj
            + stats.l2_accesses as f64 * e.per_l2_access_nj
            + dram_accesses * e.per_dram_access_nj
            + stats.fu_issued[0] as f64 * e.per_int_alu_nj
            + stats.fu_issued[1] as f64 * e.per_int_mult_nj
            + stats.fu_issued[2] as f64 * e.per_fp_alu_nj
            + stats.fu_issued[3] as f64 * e.per_fp_mult_nj
            + stats.fu_issued[4] as f64 * e.per_mem_port_nj
            + cycles * e.per_cycle_base_nj;
        let dynamic_w = dynamic_nj * 1e-9 / seconds.max(1e-12);
        let leakage_w = LEAKAGE_W_PER_MM2 * self.area(arch);
        PowerBreakdown {
            dynamic_w,
            leakage_w,
        }
    }

    /// Per-component power decomposition: each component's leakage (from
    /// its area share) plus the dynamic energy of the activity it hosts.
    ///
    /// Components follow [`crate::area::component_areas`]; dynamic terms
    /// are assigned to the structure that consumes them (commit traffic to
    /// rename/ROB/register files, lookups to the predictor, accesses to
    /// the caches, ops to their functional units).
    pub fn power_breakdown(&self, arch: &MicroArch, stats: &SimStats) -> Vec<(&'static str, f64)> {
        let e = EventEnergies::for_arch(arch);
        let cycles = stats.cycles.max(1) as f64;
        let seconds = cycles / FREQ_HZ;
        let to_w = |nj: f64| nj * 1e-9 / seconds.max(1e-12);
        let commits = stats.committed as f64;

        let mut dynamic: Vec<(&'static str, f64)> = vec![
            ("fetch", to_w(cycles * e.per_cycle_base_nj * 0.25)),
            ("bpred", to_w(stats.bp_lookups as f64 * e.per_bp_lookup_nj)),
            ("decode", to_w(commits * e.per_commit_nj * 0.15)),
            ("rename", to_w(commits * e.per_commit_nj * 0.25)),
            ("rob", to_w(commits * e.per_commit_nj * 0.25)),
            ("int_rf", to_w(commits * e.per_commit_nj * 0.175)),
            ("fp_rf", to_w(commits * e.per_commit_nj * 0.075)),
            ("iq", to_w(commits * e.per_commit_nj * 0.10)),
            ("lq", to_w(cycles * e.per_cycle_base_nj * 0.05)),
            ("sq", to_w(cycles * e.per_cycle_base_nj * 0.05)),
            (
                "int_alu",
                to_w(stats.fu_issued[0] as f64 * e.per_int_alu_nj),
            ),
            (
                "int_mult_div",
                to_w(stats.fu_issued[1] as f64 * e.per_int_mult_nj),
            ),
            ("fp_alu", to_w(stats.fu_issued[2] as f64 * e.per_fp_alu_nj)),
            (
                "fp_mult_div",
                to_w(stats.fu_issued[3] as f64 * e.per_fp_mult_nj),
            ),
            (
                "mem_ports",
                to_w(stats.fu_issued[4] as f64 * e.per_mem_port_nj),
            ),
            (
                "icache",
                to_w(stats.icache_accesses as f64 * e.per_l1_access_nj),
            ),
            (
                "dcache",
                to_w(
                    stats.dcache_accesses as f64 * e.per_l1_access_nj
                        + stats.l2_accesses as f64 * e.per_l2_access_nj
                        + stats.l2_misses as f64 * e.per_dram_access_nj,
                ),
            ),
        ];
        // Leakage per component, folded in.
        for comp in crate::area::component_areas(arch) {
            let leak = LEAKAGE_W_PER_MM2 * comp.mm2;
            if let Some(entry) = dynamic.iter_mut().find(|(n, _)| *n == comp.name) {
                entry.1 += leak;
            } else {
                dynamic.push((comp.name, leak));
            }
        }
        dynamic
    }

    /// Full PPA evaluation of a simulated design point.
    pub fn evaluate(&self, arch: &MicroArch, stats: &SimStats) -> PpaResult {
        let p = self.power(arch, stats);
        PpaResult {
            ipc: stats.ipc(),
            power_w: p.dynamic_w + p.leakage_w,
            area_mm2: self.area(arch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_sim::{trace_gen, OooCore};

    fn baseline_run() -> (MicroArch, SimStats) {
        let arch = MicroArch::baseline();
        let r = OooCore::new(arch)
            .run(&trace_gen::mixed_workload(20_000, 1))
            .expect("simulates");
        (arch, r.stats)
    }

    #[test]
    fn baseline_power_in_paper_ballpark() {
        let (arch, stats) = baseline_run();
        let ppa = PowerModel.evaluate(&arch, &stats);
        assert!(
            (0.05..1.0).contains(&ppa.power_w),
            "baseline power {} should be near the paper's 0.2 W",
            ppa.power_w
        );
        assert!(
            (3.0..9.0).contains(&ppa.area_mm2),
            "baseline area {} should be near the paper's 5.66 mm²",
            ppa.area_mm2
        );
    }

    #[test]
    fn tradeoff_metric() {
        let ppa = PpaResult {
            ipc: 2.0,
            power_w: 0.5,
            area_mm2: 4.0,
        };
        assert!((ppa.tradeoff() - 2.0).abs() < 1e-12);
        let degenerate = PpaResult {
            ipc: 1.0,
            power_w: 0.0,
            area_mm2: 1.0,
        };
        assert_eq!(degenerate.tradeoff(), 0.0);
    }

    #[test]
    fn doubling_fp_alu_raises_power_without_perf_on_int_code() {
        let arch = MicroArch::baseline();
        let trace = trace_gen::independent_int_ops(20_000);
        let r0 = OooCore::new(arch).run(&trace).expect("simulates");
        let mut fat = arch;
        fat.fp_alu = 2 * arch.fp_alu;
        let r1 = OooCore::new(fat).run(&trace).expect("simulates");
        let m = PowerModel;
        let p0 = m.evaluate(&arch, &r0.stats);
        let p1 = m.evaluate(&fat, &r1.stats);
        assert!(p1.area_mm2 > p0.area_mm2);
        assert!(p1.power_w >= p0.power_w);
        assert!(
            (p1.ipc - p0.ipc).abs() < 0.02,
            "FP units don't help int code"
        );
    }

    #[test]
    fn leakage_scales_with_area() {
        let m = PowerModel;
        let (arch, stats) = baseline_run();
        let mut big = arch;
        big.rob_entries = 256;
        big.int_rf = 304;
        big.fp_rf = 304;
        let pb = m.power(&arch, &stats);
        let pg = m.power(&big, &stats);
        assert!(pg.leakage_w > pb.leakage_w);
    }

    #[test]
    fn breakdown_components_are_positive_and_plausible() {
        let (arch, stats) = baseline_run();
        let m = PowerModel;
        let breakdown = m.power_breakdown(&arch, &stats);
        assert!(breakdown.len() >= 15);
        let total: f64 = breakdown.iter().map(|(_, w)| w).sum();
        assert!(breakdown.iter().all(|&(_, w)| w >= 0.0));
        // The breakdown should land in the same ballpark as the headline
        // number (it splits the same dynamic energy heuristically).
        let headline = m.evaluate(&arch, &stats).power_w;
        assert!(
            (total / headline - 1.0).abs() < 0.35,
            "breakdown total {total} vs headline {headline}"
        );
        // Caches should be among the larger consumers on a mixed workload.
        let dcache = breakdown
            .iter()
            .find(|(n, _)| *n == "dcache")
            .expect("dcache entry")
            .1;
        assert!(dcache > 0.001);
    }
}
