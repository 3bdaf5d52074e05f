//! Named SPEC-like workloads (paper Table 3: 12 SPEC CPU2006 and 14 SPEC
//! CPU2017 workloads).
//!
//! Each entry tunes the synthesiser toward the pressure points its SPEC
//! counterpart is known for in the architecture literature: `mcf` chases
//! pointers through a huge working set, `sjeng`/`deepsjeng` are branchy and
//! hard to predict, `namd`/`lbm` are floating-point dense with high ILP,
//! `gcc`/`perlbench` have large instruction footprints, `xz` carries long
//! integer dependence chains, and so on.

use crate::generator::{BranchProfile, MemoryProfile, OpMix, WorkloadSpec};
use archx_sim::isa::Instruction;
use std::fmt;
use std::sync::Arc;

/// Identifier of a named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadId(pub &'static str);

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A named workload: a specification plus its identity and suite weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Display name, mirroring the SPEC workload it imitates.
    pub id: WorkloadId,
    /// Generator specification.
    pub spec: WorkloadSpec,
    /// Weight in multi-workload aggregation (paper Eq. 2 `w_i`).
    pub weight: f64,
}

impl Workload {
    /// Creates a workload with unit weight.
    pub fn new(name: &'static str, spec: WorkloadSpec) -> Self {
        Workload {
            id: WorkloadId(name),
            spec,
            weight: 1.0,
        }
    }

    /// Synthesises a trace of `n` instructions; seed is derived from the
    /// workload's name so different workloads differ even at equal seeds.
    ///
    /// The trace is handed out as an immutable `Arc<[Instruction]>` so
    /// callers (and the [`crate::store::TraceStore`]) can share it
    /// zero-copy; slice it (`&trace[..n]`) for shorter windows — the
    /// generator emits a prefix-stable stream, so `generate(n)` equals the
    /// first `n` instructions of `generate(2n)`.
    pub fn generate(&self, n: usize, seed: u64) -> Arc<[Instruction]> {
        let name_hash = self.id.0.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
        self.spec.synthesise(n, seed ^ name_hash)
    }
}

fn wl(name: &'static str, spec: WorkloadSpec) -> Workload {
    debug_assert!(spec.validate().is_ok(), "workload {name} invalid");
    Workload::new(name, spec)
}

fn mix(load: f64, store: f64, branch: f64, fp: f64, fp_mult: f64, int_mult: f64) -> OpMix {
    OpMix {
        load,
        store,
        branch,
        call_ret: 0.01,
        fp_alu: fp,
        fp_mult,
        fp_div: if fp > 0.0 { 0.005 } else { 0.0 },
        int_mult,
        int_div: 0.003,
    }
}

fn spec_of(m: OpMix, dep: f64, br: BranchProfile, mem: MemoryProfile, code: u32) -> WorkloadSpec {
    WorkloadSpec {
        mix: m,
        mean_dep_distance: dep,
        branches: br,
        memory: mem,
        code_instrs: code,
    }
}

fn mem(footprint: u64, streaming: f64, stride: u64) -> MemoryProfile {
    mem_hot(
        footprint,
        streaming,
        stride,
        0.92,
        (16 * KB).min(footprint / 2).max(4 * KB),
    )
}

fn mem_hot(
    footprint: u64,
    streaming: f64,
    stride: u64,
    hot_fraction: f64,
    hot_bytes: u64,
) -> MemoryProfile {
    MemoryProfile {
        footprint_bytes: footprint,
        streaming_fraction: streaming,
        stride,
        hot_fraction,
        hot_bytes: hot_bytes.min(footprint),
    }
}

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// The 12-workload SPEC CPU2006-like suite with uniform weights.
pub fn spec06_suite() -> Vec<Workload> {
    let mut v = vec![
        // Integer compression: moderate memory, fairly predictable.
        wl(
            "401.bzip2",
            spec_of(
                mix(0.26, 0.09, 0.14, 0.0, 0.0, 0.01),
                4.0,
                BranchProfile {
                    biased_fraction: 0.8,
                    bias: 0.95,
                    patterned_fraction: 0.15,
                    pattern_period: 3,
                },
                mem(8 * MB, 0.55, 8),
                3000,
            ),
        ),
        // Compiler: big code footprint, branchy.
        wl(
            "403.gcc",
            spec_of(
                mix(0.25, 0.13, 0.20, 0.0, 0.0, 0.005),
                5.0,
                BranchProfile {
                    biased_fraction: 0.7,
                    bias: 0.94,
                    patterned_fraction: 0.2,
                    pattern_period: 4,
                },
                mem(24 * MB, 0.3, 32),
                16000,
            ),
        ),
        // Pointer-chasing graph optimiser: memory bound, low ILP.
        wl(
            "429.mcf",
            spec_of(
                mix(0.32, 0.08, 0.17, 0.0, 0.0, 0.0),
                2.2,
                BranchProfile {
                    biased_fraction: 0.65,
                    bias: 0.93,
                    patterned_fraction: 0.1,
                    pattern_period: 2,
                },
                mem_hot(96 * MB, 0.05, 64, 0.35, 256 * KB),
                1500,
            ),
        ),
        // Molecular dynamics: FP dense, very high ILP, cache resident.
        wl(
            "444.namd",
            spec_of(
                mix(0.23, 0.07, 0.05, 0.22, 0.18, 0.0),
                14.0,
                BranchProfile::predictable(),
                mem(512 * KB, 0.85, 8),
                2500,
            ),
        ),
        // FP PDE solver with heavy memory traffic.
        wl(
            "447.dealII",
            spec_of(
                mix(0.30, 0.10, 0.08, 0.18, 0.12, 0.0),
                8.0,
                BranchProfile::predictable(),
                mem(16 * MB, 0.5, 24),
                6000,
            ),
        ),
        // Protein search: integer, extremely high ILP, port pressure.
        wl(
            "456.hmmer",
            spec_of(
                mix(0.34, 0.12, 0.06, 0.0, 0.0, 0.02),
                18.0,
                BranchProfile::predictable(),
                mem(256 * KB, 0.9, 8),
                1200,
            ),
        ),
        // Chess: branch-hostile integer code.
        wl(
            "458.sjeng",
            spec_of(
                mix(0.22, 0.09, 0.19, 0.0, 0.0, 0.01),
                4.5,
                BranchProfile::hostile(),
                mem(2 * MB, 0.3, 8),
                4000,
            ),
        ),
        // Quantum simulation: streaming memory, simple loops.
        wl(
            "462.libquantum",
            spec_of(
                mix(0.28, 0.11, 0.10, 0.05, 0.03, 0.02),
                10.0,
                BranchProfile::predictable(),
                mem(48 * MB, 0.95, 16),
                600,
            ),
        ),
        // Video encoder: integer, high ILP, moderate footprint.
        wl(
            "464.h264ref",
            spec_of(
                mix(0.30, 0.13, 0.09, 0.02, 0.01, 0.04),
                12.0,
                BranchProfile::predictable(),
                mem(4 * MB, 0.7, 8),
                5000,
            ),
        ),
        // LP solver: FP with irregular sparse accesses.
        wl(
            "450.soplex",
            spec_of(
                mix(0.31, 0.08, 0.12, 0.14, 0.10, 0.0),
                6.0,
                BranchProfile {
                    biased_fraction: 0.75,
                    bias: 0.95,
                    patterned_fraction: 0.1,
                    pattern_period: 3,
                },
                mem_hot(32 * MB, 0.25, 32, 0.7, 256 * KB),
                3500,
            ),
        ),
        // Ray tracer: FP, branchy but predictable, cache friendly.
        wl(
            "453.povray",
            spec_of(
                mix(0.24, 0.09, 0.14, 0.18, 0.12, 0.0),
                7.0,
                BranchProfile::predictable(),
                mem(MB, 0.6, 8),
                7000,
            ),
        ),
        // Lattice-Boltzmann: FP streaming, store heavy.
        wl(
            "470.lbm",
            spec_of(
                mix(0.26, 0.17, 0.03, 0.20, 0.14, 0.0),
                16.0,
                BranchProfile::predictable(),
                mem(64 * MB, 0.97, 64),
                500,
            ),
        ),
    ];
    let w = 1.0 / v.len() as f64;
    for x in &mut v {
        x.weight = w;
    }
    v
}

/// The 14-workload SPEC CPU2017-like suite with uniform weights.
pub fn spec17_suite() -> Vec<Workload> {
    let mut v = vec![
        wl(
            "600.perlbench_s",
            spec_of(
                mix(0.27, 0.14, 0.18, 0.0, 0.0, 0.005),
                4.5,
                BranchProfile {
                    biased_fraction: 0.72,
                    bias: 0.94,
                    patterned_fraction: 0.15,
                    pattern_period: 4,
                },
                mem(16 * MB, 0.35, 16),
                12000,
            ),
        ),
        wl(
            "602.gcc_s",
            spec_of(
                mix(0.25, 0.13, 0.20, 0.0, 0.0, 0.005),
                5.0,
                BranchProfile {
                    biased_fraction: 0.7,
                    bias: 0.94,
                    patterned_fraction: 0.2,
                    pattern_period: 4,
                },
                mem(28 * MB, 0.3, 32),
                16000,
            ),
        ),
        wl(
            "605.mcf_s",
            spec_of(
                mix(0.33, 0.08, 0.16, 0.0, 0.0, 0.0),
                2.2,
                BranchProfile {
                    biased_fraction: 0.65,
                    bias: 0.93,
                    patterned_fraction: 0.1,
                    pattern_period: 2,
                },
                mem_hot(128 * MB, 0.05, 64, 0.35, 256 * KB),
                1500,
            ),
        ),
        // Discrete-event simulator: branchy with poor locality.
        wl(
            "620.omnetpp_s",
            spec_of(
                mix(0.29, 0.12, 0.17, 0.0, 0.0, 0.0),
                3.5,
                BranchProfile::hostile(),
                mem_hot(48 * MB, 0.15, 32, 0.55, 512 * KB),
                9000,
            ),
        ),
        // XML transformer: integer with moderate everything.
        wl(
            "623.xalancbmk_s",
            spec_of(
                mix(0.30, 0.10, 0.16, 0.0, 0.0, 0.0),
                5.5,
                BranchProfile::predictable(),
                mem(12 * MB, 0.4, 8),
                10000,
            ),
        ),
        // Video encoder: high ILP integer, rename pressure.
        wl(
            "625.x264_s",
            spec_of(
                mix(0.31, 0.14, 0.07, 0.02, 0.01, 0.05),
                15.0,
                BranchProfile::predictable(),
                mem(6 * MB, 0.75, 8),
                4500,
            ),
        ),
        // Chess (deep search): branch hostile.
        wl(
            "631.deepsjeng_s",
            spec_of(
                mix(0.23, 0.10, 0.19, 0.0, 0.0, 0.01),
                4.0,
                BranchProfile::hostile(),
                mem(4 * MB, 0.3, 8),
                4000,
            ),
        ),
        // Go AI: branchy, moderate memory.
        wl(
            "641.leela_s",
            spec_of(
                mix(0.25, 0.09, 0.18, 0.02, 0.01, 0.01),
                5.0,
                BranchProfile::hostile(),
                mem(2 * MB, 0.4, 8),
                5000,
            ),
        ),
        // Generated Fortran: very predictable, compute dense.
        wl(
            "648.exchange2_s",
            spec_of(
                mix(0.18, 0.08, 0.12, 0.0, 0.0, 0.04),
                9.0,
                BranchProfile::predictable(),
                mem(256 * KB, 0.8, 8),
                8000,
            ),
        ),
        // LZMA compressor: long integer dependence chains → IntRF pressure.
        wl(
            "657.xz_s",
            spec_of(
                mix(0.28, 0.11, 0.14, 0.0, 0.0, 0.02),
                2.5,
                BranchProfile {
                    biased_fraction: 0.65,
                    bias: 0.93,
                    patterned_fraction: 0.2,
                    pattern_period: 3,
                },
                mem(24 * MB, 0.45, 8),
                2500,
            ),
        ),
        // Numerical relativity: FP dense with large stencils.
        wl(
            "607.cactuBSSN_s",
            spec_of(
                mix(0.30, 0.12, 0.04, 0.22, 0.16, 0.0),
                13.0,
                BranchProfile::predictable(),
                mem(40 * MB, 0.85, 64),
                3500,
            ),
        ),
        // Lattice-Boltzmann: FP streaming, store heavy.
        wl(
            "619.lbm_s",
            spec_of(
                mix(0.26, 0.17, 0.03, 0.20, 0.14, 0.0),
                16.0,
                BranchProfile::predictable(),
                mem(96 * MB, 0.97, 64),
                500,
            ),
        ),
        // Image manipulation: FP with integer address math.
        wl(
            "638.imagick_s",
            spec_of(
                mix(0.27, 0.10, 0.08, 0.18, 0.14, 0.01),
                11.0,
                BranchProfile::predictable(),
                mem(8 * MB, 0.7, 8),
                3000,
            ),
        ),
        // Molecular modelling: FP dense, cache resident.
        wl(
            "644.nab_s",
            spec_of(
                mix(0.25, 0.08, 0.06, 0.24, 0.16, 0.0),
                12.0,
                BranchProfile::predictable(),
                mem(MB, 0.8, 8),
                2000,
            ),
        ),
    ];
    let w = 1.0 / v.len() as f64;
    for x in &mut v {
        x.weight = w;
    }
    v
}

/// The bundled suite called `name`: `spec06` ([`spec06_suite`]) or
/// `spec17` ([`spec17_suite`]).
pub fn suite_named(name: &str) -> Result<Vec<Workload>, String> {
    match name {
        "spec06" => Ok(spec06_suite()),
        "spec17" => Ok(spec17_suite()),
        other => Err(format!(
            "unknown suite `{other}` (expected spec06 or spec17)"
        )),
    }
}

/// Keeps the first `n` workloads of `suite` (at least one) and
/// renormalises their weights over that prefix, keeping their ratios.
///
/// Equal weights become exactly `1.0 / k` rather than `w / (k * w)`:
/// the two can differ in the last bit, and every evaluation of a
/// bundled suite (or a prefix of one) is pinned to the uniform weights
/// callers have always set. A prefix whose weights already sum to
/// exactly one, such as a whole suite, comes back bit for bit.
pub fn suite_prefix(mut suite: Vec<Workload>, n: usize) -> Vec<Workload> {
    suite.truncate(n.max(1));
    let uniform = suite.windows(2).all(|p| p[0].weight == p[1].weight);
    let total: f64 = suite.iter().map(|w| w.weight).sum();
    let w = 1.0 / suite.len() as f64;
    for x in &mut suite {
        x.weight = if uniform { w } else { x.weight / total };
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_sim::{MicroArch, OooCore};

    #[test]
    fn suites_have_paper_sizes_and_uniform_weights() {
        let s06 = spec06_suite();
        let s17 = spec17_suite();
        assert_eq!(s06.len(), 12);
        assert_eq!(s17.len(), 14);
        for s in s06.iter().chain(s17.iter()) {
            assert!((s.weight - 1.0 / 12.0).abs() < 1e-9 || (s.weight - 1.0 / 14.0).abs() < 1e-9);
            assert!(s.spec.validate().is_ok(), "{} invalid", s.id);
        }
        let sum06: f64 = s06.iter().map(|w| w.weight).sum();
        assert!((sum06 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prefixes_renormalise_kept_weights() {
        let unit = spec06_suite()[0];
        let weighted = |ws: &[f64]| -> Vec<Workload> {
            ws.iter()
                .map(|&weight| Workload { weight, ..unit })
                .collect()
        };
        // Ratios survive the cut: 3:1 over the kept pair, whatever was
        // dropped after it.
        let kept = suite_prefix(weighted(&[3.0, 1.0, 4.0]), 2);
        assert_eq!(kept.len(), 2);
        assert_eq!((kept[0].weight, kept[1].weight), (0.75, 0.25));
        // Equal weights become exactly 1/k.
        let s06 = suite_prefix(spec06_suite(), 4);
        assert_eq!(s06.len(), 4);
        assert!(s06.iter().all(|w| w.weight == 0.25));
        // Whole suites come back bit for bit; a zero limit keeps one.
        for full in [spec06_suite(), spec17_suite(), weighted(&[0.75, 0.25])] {
            assert_eq!(suite_prefix(full.clone(), usize::MAX), full);
        }
        assert_eq!(suite_prefix(spec06_suite(), 0)[0].weight, 1.0);
    }

    #[test]
    fn spec17_prefix_selectable_by_name() {
        let s17 = suite_prefix(suite_named("spec17").expect("bundled"), 3);
        assert_eq!(s17.len(), 3);
        for (kept, full) in s17.iter().zip(spec17_suite()) {
            assert_eq!(kept.id, full.id);
            assert_eq!(kept.weight, 1.0 / 3.0);
        }
        assert!(suite_named("spec18").is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = spec06_suite()
            .iter()
            .chain(spec17_suite().iter())
            .map(|w| w.id.0)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn workloads_differ_from_each_other() {
        let s = spec06_suite();
        let a = s[0].generate(500, 1);
        let b = s[1].generate(500, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn mcf_like_misses_more_than_hmmer_like() {
        let s06 = spec06_suite();
        let mcf = s06.iter().find(|w| w.id.0.contains("mcf")).unwrap();
        let hmmer = s06.iter().find(|w| w.id.0.contains("hmmer")).unwrap();
        let core = OooCore::new(MicroArch::baseline());
        let rm = core.run(&mcf.generate(20_000, 1)).expect("simulates").stats;
        let rh = core
            .run(&hmmer.generate(20_000, 1))
            .expect("simulates")
            .stats;
        assert!(
            rm.dcache_miss_rate() > rh.dcache_miss_rate() + 0.05,
            "mcf {} vs hmmer {}",
            rm.dcache_miss_rate(),
            rh.dcache_miss_rate()
        );
        assert!(rm.ipc() < rh.ipc(), "memory-bound must be slower");
    }

    #[test]
    fn branch_hostile_mispredicts_more() {
        let s06 = spec06_suite();
        let sjeng = s06.iter().find(|w| w.id.0.contains("sjeng")).unwrap();
        let namd = s06.iter().find(|w| w.id.0.contains("namd")).unwrap();
        let core = OooCore::new(MicroArch::baseline());
        let rs = core
            .run(&sjeng.generate(20_000, 1))
            .expect("simulates")
            .stats;
        let rn = core
            .run(&namd.generate(20_000, 1))
            .expect("simulates")
            .stats;
        assert!(
            rs.mispredict_rate() > rn.mispredict_rate(),
            "sjeng {} vs namd {}",
            rs.mispredict_rate(),
            rn.mispredict_rate()
        );
    }
}
