//! Bottleneck attribution (paper Section 4.3, Eq. 1–2).
//!
//! Every edge of the critical path is a non-overlapping segment of the
//! microexecution; its measured delay is attributed to the hardware
//! resource that caused it. A resource's contribution `c(b)` is its share
//! of the critical-path length; multi-workload reports are merged with the
//! designer's workload weights (Eq. 2).
//!
//! Attribution rules:
//!
//! * skewed edges carry their cause directly: `Resource(kind)` → that
//!   queue/register file, `Fu(kind)` → that functional-unit class,
//!   `Mispredict` → the branch predictor, `Data` → true data dependence
//!   (the perfect-machine floor — not a reassignable resource);
//! * pipeline edges split into an irreducible single-cycle/base component
//!   and an excess: I-cache time beyond the L1 hit latency → `ICache`,
//!   D-cache time beyond the hit latency → `DCache`, waits in the fetch
//!   buffer → `FetchQueue`, decode/rename/issue/commit bandwidth excess →
//!   `Width`;
//! * virtual edges are never attributed (paper §4.3); their spans count
//!   toward the unattributed remainder.

use crate::critical::CriticalPath;
use crate::graph::{Deg, EdgeKind, Stage};
use archx_sim::config::L1_HIT_CYCLES;
use archx_sim::trace::{Cycle, FuKind, ResourceKind};
use std::fmt;

/// Number of bottleneck sources (the length of [`BottleneckSource::ALL`]).
pub const NUM_SOURCES: usize = 20;

/// Everything a critical-path cycle can be blamed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BottleneckSource {
    /// Reorder buffer entries.
    Rob,
    /// Issue queue entries.
    Iq,
    /// Load queue entries.
    Lq,
    /// Store queue entries.
    Sq,
    /// Physical integer registers.
    IntRf,
    /// Physical floating-point registers.
    FpRf,
    /// Integer ALUs.
    IntAlu,
    /// Integer multiplier/dividers.
    IntMultDiv,
    /// Floating-point ALUs.
    FpAlu,
    /// Floating-point multiplier/dividers.
    FpMultDiv,
    /// Cache read/write ports.
    RdWrPort,
    /// L1 instruction cache (miss time).
    ICache,
    /// L1 data cache (miss time).
    DCache,
    /// Branch predictor (squash time).
    BPred,
    /// Fetch buffer / fetch queue occupancy waits.
    FetchQueue,
    /// Pipeline bandwidth (decode/rename/issue/commit width).
    Width,
    /// Memory-address-dependence mispredictions (store-set speculation) —
    /// reducible by a better memory-dependence predictor, not by sizing.
    MemDep,
    /// True data dependencies — the perfect-machine floor.
    TrueDep,
    /// Irreducible single-cycle pipeline latency.
    Base,
    /// Unattributed (virtual-edge spans).
    Unattributed,
}

impl BottleneckSource {
    /// All sources, in a stable order.
    pub const ALL: [BottleneckSource; NUM_SOURCES] = [
        BottleneckSource::Rob,
        BottleneckSource::Iq,
        BottleneckSource::Lq,
        BottleneckSource::Sq,
        BottleneckSource::IntRf,
        BottleneckSource::FpRf,
        BottleneckSource::IntAlu,
        BottleneckSource::IntMultDiv,
        BottleneckSource::FpAlu,
        BottleneckSource::FpMultDiv,
        BottleneckSource::RdWrPort,
        BottleneckSource::ICache,
        BottleneckSource::DCache,
        BottleneckSource::BPred,
        BottleneckSource::FetchQueue,
        BottleneckSource::Width,
        BottleneckSource::MemDep,
        BottleneckSource::TrueDep,
        BottleneckSource::Base,
        BottleneckSource::Unattributed,
    ];

    /// Index within [`BottleneckSource::ALL`].
    pub fn index(self) -> usize {
        // `ALL` lists the variants in declaration order.
        self as usize
    }

    /// Whether the DSE can reassign hardware to address this source.
    pub fn is_reassignable(self) -> bool {
        !matches!(
            self,
            BottleneckSource::TrueDep
                | BottleneckSource::MemDep
                | BottleneckSource::Base
                | BottleneckSource::Unattributed
        )
    }
}

impl fmt::Display for BottleneckSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BottleneckSource::Rob => "ROB",
            BottleneckSource::Iq => "IQ",
            BottleneckSource::Lq => "LQ",
            BottleneckSource::Sq => "SQ",
            BottleneckSource::IntRf => "IntRF",
            BottleneckSource::FpRf => "FpRF",
            BottleneckSource::IntAlu => "IntALU",
            BottleneckSource::IntMultDiv => "IntMultDiv",
            BottleneckSource::FpAlu => "FpALU",
            BottleneckSource::FpMultDiv => "FpMultDiv",
            BottleneckSource::RdWrPort => "RdWrPort",
            BottleneckSource::ICache => "I-cache",
            BottleneckSource::DCache => "D-cache",
            BottleneckSource::BPred => "BPred",
            BottleneckSource::FetchQueue => "FetchQueue",
            BottleneckSource::Width => "Width",
            BottleneckSource::MemDep => "MemDep",
            BottleneckSource::TrueDep => "TrueDep",
            BottleneckSource::Base => "Base",
            BottleneckSource::Unattributed => "Unattributed",
        };
        f.write_str(s)
    }
}

/// The source a resource-usage wait is blamed on.
pub(crate) fn resource_source(kind: ResourceKind) -> BottleneckSource {
    match kind {
        ResourceKind::Rob => BottleneckSource::Rob,
        ResourceKind::Iq => BottleneckSource::Iq,
        ResourceKind::Lq => BottleneckSource::Lq,
        ResourceKind::Sq => BottleneckSource::Sq,
        ResourceKind::IntRf => BottleneckSource::IntRf,
        ResourceKind::FpRf => BottleneckSource::FpRf,
    }
}

/// The source a functional-unit wait is blamed on.
pub(crate) fn fu_source(kind: FuKind) -> BottleneckSource {
    match kind {
        FuKind::IntAlu => BottleneckSource::IntAlu,
        FuKind::IntMultDiv => BottleneckSource::IntMultDiv,
        FuKind::FpAlu => BottleneckSource::FpAlu,
        FuKind::FpMultDiv => BottleneckSource::FpMultDiv,
        FuKind::RdWrPort => BottleneckSource::RdWrPort,
    }
}

/// A bottleneck analysis report: per-source contributions `c(b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Contribution per source, indexed as [`BottleneckSource::ALL`];
    /// fractions of the critical-path length, each in `[0, 1]`.
    pub contributions: [f64; NUM_SOURCES],
    /// Critical-path length (cycles) the fractions are relative to.
    pub length: u64,
}

impl BottleneckReport {
    /// Contribution of one source.
    pub fn contribution(&self, source: BottleneckSource) -> f64 {
        self.contributions[source.index()]
    }

    /// Sources sorted by contribution, descending.
    pub fn ranked(&self) -> Vec<(BottleneckSource, f64)> {
        let mut v: Vec<(BottleneckSource, f64)> = BottleneckSource::ALL
            .iter()
            .map(|&s| (s, self.contribution(s)))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite contributions"));
        v
    }

    /// Sum of all contributions (≤ 1; the remainder is rounding).
    pub fn total(&self) -> f64 {
        self.contributions.iter().sum()
    }

    /// Renders a human-readable report (the paper's "bottleneck analysis
    /// report" of Figure 6/10).
    pub fn render(&self) -> String {
        let mut out = String::from("bottleneck analysis report\n");
        out.push_str(&format!("critical path length: {} cycles\n", self.length));
        for (s, c) in self.ranked() {
            if c > 0.0005 {
                out.push_str(&format!("  {s:<12} {:>6.2}%\n", c * 100.0));
            }
        }
        out
    }
}

/// Computes the bottleneck report for a critical path over its DEG
/// (paper Eq. 1).
pub fn analyze(deg: &Deg, path: &CriticalPath) -> BottleneckReport {
    let mut cycles = [0u64; NUM_SOURCES];
    for e in &path.edges {
        attribute_cycles(deg.locate(e.from).1, e.kind, deg.interval(e), &mut cycles);
    }
    report_from_cycles(&cycles, path.total_delay)
}

/// Adds the `w` cycles of one critical-path edge of `kind`, leaving a
/// vertex of stage `from`, to the sources they are attributed to — the
/// per-edge rule of Eq. 1, pipeline base/excess split included.
pub(crate) fn attribute_cycles(
    from: Stage,
    kind: EdgeKind,
    w: Cycle,
    cycles: &mut [u64; NUM_SOURCES],
) {
    if w == 0 {
        return;
    }
    match kind {
        EdgeKind::Resource(kind) => cycles[resource_source(kind).index()] += w,
        EdgeKind::Fu(kind) => cycles[fu_source(kind).index()] += w,
        EdgeKind::Mispredict => cycles[BottleneckSource::BPred.index()] += w,
        EdgeKind::Data => cycles[BottleneckSource::TrueDep.index()] += w,
        EdgeKind::FetchSlot | EdgeKind::FetchBw => {
            cycles[BottleneckSource::FetchQueue.index()] += w
        }
        EdgeKind::MemDep => cycles[BottleneckSource::MemDep.index()] += w,
        EdgeKind::Virtual => cycles[BottleneckSource::Unattributed.index()] += w,
        EdgeKind::Pipeline => {
            let (base, excess_src) = match from {
                // I-cache access: hit latency is irreducible, the rest
                // is miss time.
                Stage::F1 => (L1_HIT_CYCLES, BottleneckSource::ICache),
                // Waiting in the fetch buffer for fetch-queue space.
                Stage::F2 => (0, BottleneckSource::FetchQueue),
                // Front-end bandwidth.
                Stage::F | Stage::Dc => (1, BottleneckSource::Width),
                Stage::R => (1, BottleneckSource::Base),
                // Waiting in the issue queue beyond the dispatch cycle
                // (scheduling/bandwidth; operand and FU waits have their
                // own skewed edges).
                Stage::Dp => (0, BottleneckSource::Width),
                Stage::I => (1, BottleneckSource::Base),
                // Memory time beyond the L1 hit: D-cache misses.
                Stage::M => (L1_HIT_CYCLES, BottleneckSource::DCache),
                // Commit-order wait beyond the writeback cycle.
                Stage::P => (1, BottleneckSource::Width),
                Stage::C => (0, BottleneckSource::Base),
            };
            let base_part = w.min(base);
            cycles[BottleneckSource::Base.index()] += base_part;
            cycles[excess_src.index()] += w - base_part;
        }
    }
}

/// The report for per-source critical-path `cycles` over a path spanning
/// `total_delay` cycles.
pub(crate) fn report_from_cycles(
    cycles: &[u64; NUM_SOURCES],
    total_delay: Cycle,
) -> BottleneckReport {
    let length = total_delay.max(1);
    let mut contributions = [0.0f64; NUM_SOURCES];
    for (i, c) in cycles.iter().enumerate() {
        contributions[i] = *c as f64 / length as f64;
    }
    BottleneckReport {
        contributions,
        length: total_delay,
    }
}

/// Splits the critical path into `bins` consecutive time windows and
/// returns one report per window — the evolution of the bottleneck
/// composition over the microexecution (a CPI-stack-over-time view; the
/// paper's Figure 10 shows this per search step, this shows it within one
/// run).
///
/// # Panics
///
/// Panics when `bins` is zero.
pub fn timeline(deg: &Deg, path: &CriticalPath, bins: usize) -> Vec<BottleneckReport> {
    assert!(bins > 0, "need at least one bin");
    let total = path.total_delay.max(1);
    let bin_len = total.div_ceil(bins as u64).max(1);
    let mut cycles = vec![[0u64; NUM_SOURCES]; bins];
    let mut lengths = vec![0u64; bins];
    let t0 = deg.time(path.start);
    let base = BottleneckSource::Base.index();
    for e in &path.edges {
        // Attribute the edge as `analyze` does, then lay its parts out in
        // time: a pipeline edge's base cycles come first, then its excess
        // (an edge has at most one source besides Base).
        let mut parts = [0u64; NUM_SOURCES];
        attribute_cycles(deg.locate(e.from).1, e.kind, deg.interval(e), &mut parts);
        let mut from = deg.time(e.from) - t0;
        for source in std::iter::once(base).chain((0..NUM_SOURCES).filter(|&s| s != base)) {
            // Each part goes to the bins it crosses.
            let to = from + parts[source];
            while from < to {
                let bin = ((from / bin_len) as usize).min(bins - 1);
                let bin_end = ((bin as u64 + 1) * bin_len).min(to);
                cycles[bin][source] += bin_end - from;
                lengths[bin] += bin_end - from;
                from = bin_end;
            }
        }
    }
    cycles
        .iter()
        .zip(lengths)
        .map(|(c, len)| report_from_cycles(c, len))
        .collect()
}

/// Weighted multi-workload aggregation (paper Eq. 2).
///
/// # Panics
///
/// Panics if `reports` and `weights` differ in length or are empty.
pub fn merge_reports(reports: &[BottleneckReport], weights: &[f64]) -> BottleneckReport {
    assert!(!reports.is_empty(), "no reports to merge");
    assert_eq!(reports.len(), weights.len(), "one weight per report");
    let wsum: f64 = weights.iter().sum();
    let mut contributions = [0.0f64; NUM_SOURCES];
    let mut length = 0.0f64;
    for (r, &w) in reports.iter().zip(weights) {
        let wn = w / wsum;
        for (c, rc) in contributions.iter_mut().zip(&r.contributions) {
            *c += wn * rc;
        }
        length += wn * r.length as f64;
    }
    BottleneckReport {
        contributions,
        length: length.round() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_deg;
    use crate::critical::critical_path;
    use crate::induced::induce;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn report_for(trace: &[archx_sim::Instruction], arch: MicroArch) -> BottleneckReport {
        let r = OooCore::new(arch).run(trace).expect("simulates");
        let mut deg = induce(build_deg(&r));
        let path = critical_path(&mut deg);
        analyze(&deg, &path)
    }

    #[test]
    fn contributions_form_a_partition() {
        let rep = report_for(&trace_gen::mixed_workload(2_000, 13), MicroArch::baseline());
        assert!(rep.contributions.iter().all(|&c| (0.0..=1.0).contains(&c)));
        // Every critical-path cycle is attributed somewhere: the path spans
        // the whole runtime, so the parts must sum to ~1.
        assert!(
            (rep.total() - 1.0).abs() < 1e-9,
            "contributions sum to {}",
            rep.total()
        );
    }

    #[test]
    fn serial_chain_exposes_backpressure_and_true_deps() {
        // A fully serial chain saturates any finite issue queue: the report
        // shows the queue exhaustion (rename backpressure) with a visible
        // true-data-dependence floor underneath.
        let rep = report_for(&trace_gen::linear_int_chain(3_000), MicroArch::baseline());
        let floor = rep.contribution(BottleneckSource::TrueDep);
        let backpressure = rep.contribution(BottleneckSource::Iq)
            + rep.contribution(BottleneckSource::Rob)
            + rep.contribution(BottleneckSource::IntRf);
        // The serial chain saturates the issue queue; the paper's cost rule
        // deliberately prefers resource-usage edges, so the dependence floor
        // surfaces as IQ backpressure whose spans mirror the data deps.
        assert!(
            floor + backpressure > 0.4,
            "chain must be dominated by deps + queue backpressure: {}",
            rep.render()
        );
    }

    #[test]
    fn random_branches_blame_the_predictor() {
        let rep = report_for(
            &trace_gen::random_branches(4_000, 17),
            MicroArch::baseline(),
        );
        assert!(
            rep.contribution(BottleneckSource::BPred) > 0.1,
            "random branches must expose BPred: {}",
            rep.render()
        );
    }

    #[test]
    fn divider_pressure_blames_int_mult_div() {
        let rep = report_for(&trace_gen::divide_heavy(1_500), MicroArch::baseline());
        assert!(
            rep.contribution(BottleneckSource::IntMultDiv) > 0.3,
            "divides through one unit must expose IntMultDiv: {}",
            rep.render()
        );
    }

    #[test]
    fn tiny_regfile_blames_int_rf() {
        // Independent L2-resident loads (latency ~14) with only 34 physical
        // integer registers: sustaining the memory parallelism would need
        // throughput × lifetime ≈ 68 in-flight registers, so the register
        // file throttles issue while ports, queues and ALUs have headroom —
        // IntRF is the binding resource.
        use archx_sim::isa::{Instruction, Reg};
        let mut arch = MicroArch::baseline();
        arch.int_rf = 34;
        arch.rob_entries = 256;
        arch.iq_entries = 80;
        arch.lq_entries = 48;
        arch.rd_wr_ports = 4;
        let instrs: Vec<Instruction> = (0..20_000usize)
            .map(|k| {
                let pc = 0x1000 + 4 * (k as u64 % 512);
                Instruction::load(
                    pc,
                    0x10_0000 + (k as u64 * 128) % (64 * 1024),
                    Reg::int(1),
                    Reg::int((k % 24) as u8 + 2),
                )
            })
            .collect();
        let rep = report_for(&instrs, arch);
        assert!(
            rep.contribution(BottleneckSource::IntRf) > 0.15,
            "starved IntRF must dominate: {}",
            rep.render()
        );
        // Among the rename-checked resources, IntRF must rank first.
        for other in [
            BottleneckSource::Rob,
            BottleneckSource::Iq,
            BottleneckSource::Lq,
            BottleneckSource::Sq,
            BottleneckSource::FpRf,
        ] {
            assert!(rep.contribution(BottleneckSource::IntRf) >= rep.contribution(other));
        }
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, s) in BottleneckSource::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{s}");
        }
    }

    #[test]
    fn merge_respects_weights() {
        let mut a = BottleneckReport {
            contributions: [0.0; NUM_SOURCES],
            length: 100,
        };
        a.contributions[BottleneckSource::Rob.index()] = 1.0;
        let mut b = BottleneckReport {
            contributions: [0.0; NUM_SOURCES],
            length: 300,
        };
        b.contributions[BottleneckSource::DCache.index()] = 1.0;
        let m = merge_reports(&[a, b], &[3.0, 1.0]);
        assert!((m.contribution(BottleneckSource::Rob) - 0.75).abs() < 1e-12);
        assert!((m.contribution(BottleneckSource::DCache) - 0.25).abs() < 1e-12);
        assert_eq!(m.length, 150);
    }

    #[test]
    #[should_panic(expected = "one weight per report")]
    fn merge_length_mismatch_panics() {
        let r = BottleneckReport {
            contributions: [0.0; NUM_SOURCES],
            length: 1,
        };
        let _ = merge_reports(&[r], &[1.0, 2.0]);
    }

    #[test]
    fn timeline_bins_partition_the_runtime() {
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(2_000, 31))
            .expect("simulates");
        let mut deg = induce(build_deg(&r));
        let path = critical_path(&mut deg);
        let bins = timeline(&deg, &path, 8);
        assert_eq!(bins.len(), 8);
        let total: u64 = bins.iter().map(|b| b.length).sum();
        assert_eq!(total, path.total_delay, "bins must partition the path");
        for b in &bins {
            assert!(b.total() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn one_bin_timeline_equals_analyze() {
        for w in archx_workloads::spec06_suite().iter().take(6) {
            let r = OooCore::new(MicroArch::baseline())
                .run(&w.generate(5_000, 1))
                .expect("simulates");
            let mut deg = induce(build_deg(&r));
            let path = critical_path(&mut deg);
            assert_eq!(
                timeline(&deg, &path, 1),
                vec![analyze(&deg, &path)],
                "{}",
                w.id.0
            );
        }
    }

    #[test]
    fn timeline_detects_phase_changes() {
        use archx_sim::isa::{Instruction, OpClass, Reg};
        // First half: serial divides; second half: random branches — the
        // dominant source must differ between early and late bins.
        let mut instrs: Vec<Instruction> = trace_gen::divide_heavy(600);
        instrs.extend(
            trace_gen::random_branches(3_000, 3)
                .into_iter()
                .map(|mut i| {
                    i.pc += 0x10_0000;
                    if i.op == OpClass::BranchCond {
                        i.target += 0x10_0000;
                    }
                    let _ = Reg::int(1);
                    i
                }),
        );
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        let mut deg = induce(build_deg(&r));
        let path = critical_path(&mut deg);
        let bins = timeline(&deg, &path, 4);
        let early_div = bins[0].contribution(BottleneckSource::IntMultDiv);
        let late_div = bins[3].contribution(BottleneckSource::IntMultDiv);
        assert!(
            early_div > late_div,
            "divider pressure must fade across phases: {early_div} vs {late_div}"
        );
    }

    #[test]
    fn ranked_is_descending_and_render_nonempty() {
        let rep = report_for(&trace_gen::mixed_workload(1_000, 21), MicroArch::baseline());
        let ranked = rep.ranked();
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(rep.render().contains("critical path length"));
    }
}
