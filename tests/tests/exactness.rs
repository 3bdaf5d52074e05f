//! Cross-crate invariant: the induced DEG's critical path length equals
//! the simulated runtime exactly, across workloads and configurations —
//! the headline property of the paper's new formulation.

use archexplorer::prelude::*;
use archexplorer::sim::OooCore;

fn assert_exact(arch: MicroArch, instrs: &[archexplorer::sim::Instruction]) {
    let r = OooCore::new(arch).run(instrs).expect("simulates");
    let mut deg = induce(build_deg(&r));
    let path = archexplorer::deg::critical::critical_path(&mut deg);
    assert_eq!(
        path.total_delay, r.trace.cycles,
        "critical path must equal runtime for {arch}"
    );
}

#[test]
fn exact_on_every_spec06_workload() {
    for w in spec06_suite() {
        assert_exact(MicroArch::baseline(), &w.generate(4_000, 1));
    }
}

#[test]
fn exact_on_every_spec17_workload() {
    for w in spec17_suite() {
        assert_exact(MicroArch::baseline(), &w.generate(4_000, 2));
    }
}

#[test]
fn exact_on_extreme_configurations() {
    let w = &spec06_suite()[0];
    let trace = w.generate(5_000, 3);
    // Minimal machine.
    let mut tiny = MicroArch::tiny();
    tiny.width = 1;
    assert_exact(tiny, &trace);
    // Maximal machine.
    let big = MicroArch {
        width: 8,
        fetch_buffer_bytes: 64,
        fetch_queue_uops: 48,
        local_predictor: 2048,
        global_predictor: 8192,
        choice_predictor: 8192,
        ras_entries: 40,
        btb_entries: 4096,
        rob_entries: 256,
        int_rf: 304,
        fp_rf: 304,
        iq_entries: 80,
        lq_entries: 48,
        sq_entries: 48,
        int_alu: 6,
        int_mult_div: 2,
        fp_alu: 2,
        fp_mult_div: 2,
        rd_wr_ports: 2,
        icache_kb: 64,
        icache_assoc: 4,
        dcache_kb: 64,
        dcache_assoc: 4,
        mem_dep: archexplorer::sim::config::MemDepPolicy::Conservative,
        bp_kind: archexplorer::sim::config::BpKind::Tournament,
        replacement: archexplorer::sim::config::ReplPolicy::Lru,
    };
    assert_exact(big, &trace);
}

#[test]
fn exact_on_random_lattice_designs() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let space = DesignSpace::table4();
    let mut rng = StdRng::seed_from_u64(99);
    let trace = spec17_suite()[3].generate(3_000, 7);
    for _ in 0..10 {
        assert_exact(space.random(&mut rng), &trace);
    }
}

/// The fused analysis the evaluator runs returns the explicit chain's
/// critical path and a bit-identical report on Table-4 designs over the
/// traces of the layer benchmark's `evaluate` workload.
#[test]
fn fused_equals_explicit_on_table4_designs() {
    use archexplorer::deg::{bottleneck, fused};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let space = DesignSpace::table4();
    let mut rng = StdRng::seed_from_u64(11);
    let designs: Vec<MicroArch> = (0..12).map(|_| space.random(&mut rng)).collect();
    let suite = spec06_suite();
    for name in ["401.bzip2", "429.mcf", "456.hmmer", "470.lbm"] {
        let w = suite.iter().find(|w| w.id.0 == name).expect("in SPEC06");
        let trace = w.generate(3_000, 1);
        for &arch in &designs {
            let r = OooCore::new(arch).run(&trace).expect("simulates");
            let mut deg = induce(build_deg(&r));
            let path = critical_path(&mut deg);
            let report = bottleneck::analyze(&deg, &path);
            let (fused_path, fused_report) = fused::analyze(&r);
            assert_eq!(fused_path, path, "{name} on {arch}");
            assert_eq!(fused_report.length, report.length);
            for (f, e) in fused_report.contributions.iter().zip(&report.contributions) {
                assert_eq!(f.to_bits(), e.to_bits(), "{name} on {arch}");
            }
        }
    }
}
