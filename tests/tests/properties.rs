//! Property-based tests over the cross-crate pipeline: arbitrary workload
//! specifications and lattice designs must preserve every structural
//! invariant of the simulator, the DEG, and the Pareto machinery.

use archexplorer::power::{PowerModel, PpaResult};
use archexplorer::prelude::*;
use archexplorer::sim::OooCore;
use archexplorer::workloads::{BranchProfile, MemoryProfile, OpMix, WorkloadSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        0.0f64..0.35,
        0.0f64..0.2,
        0.0f64..0.25,
        1.0f64..20.0,
        0.0f64..1.0,
        (64u64..8 << 20),
        64u32..4096,
    )
        .prop_map(
            |(load, store, branch, dep, streaming, footprint, code)| WorkloadSpec {
                mix: OpMix {
                    load,
                    store,
                    branch,
                    call_ret: 0.01,
                    fp_alu: 0.05,
                    fp_mult: 0.03,
                    fp_div: 0.002,
                    int_mult: 0.02,
                    int_div: 0.002,
                },
                mean_dep_distance: dep,
                branches: BranchProfile {
                    biased_fraction: 0.7,
                    bias: 0.9,
                    patterned_fraction: 0.2,
                    pattern_period: 3,
                },
                memory: MemoryProfile {
                    footprint_bytes: footprint,
                    streaming_fraction: streaming,
                    stride: 8,
                    hot_fraction: 0.8,
                    hot_bytes: (footprint / 2).max(64),
                },
                code_instrs: code,
            },
        )
}

fn arb_design() -> impl Strategy<Value = MicroArch> {
    any::<u64>().prop_map(|seed| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        DesignSpace::table4().random(&mut StdRng::seed_from_u64(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_invariants_hold_for_arbitrary_specs(spec in arb_spec(), design in arb_design()) {
        prop_assume!(spec.validate().is_ok());
        let trace = spec.generate(1_500, 5);
        let r = OooCore::new(design).run(&trace).expect("simulates");
        prop_assert_eq!(r.stats.committed, 1_500);
        let mut prev_r = 0;
        let mut prev_c = 0;
        for ev in &r.trace.events {
            // Stage ordering per instruction.
            prop_assert!(ev.f1 <= ev.f2 && ev.f2 <= ev.f && ev.f < ev.dc);
            prop_assert!(ev.dc < ev.r && ev.r < ev.dp && ev.dp <= ev.i);
            prop_assert!(ev.i <= ev.m && ev.m < ev.p && ev.p < ev.c);
            // Rename and commit are program-ordered.
            prop_assert!(ev.r >= prev_r);
            prop_assert!(ev.c >= prev_c);
            prev_r = ev.r;
            prev_c = ev.c;
        }
    }

    #[test]
    fn deg_exactness_holds_for_arbitrary_specs(spec in arb_spec(), design in arb_design()) {
        prop_assume!(spec.validate().is_ok());
        let trace = spec.generate(1_200, 9);
        let r = OooCore::new(design).run(&trace).expect("simulates");
        let mut deg = induce(build_deg(&r));
        validate_deg(&deg).expect("well-formed induced DEG");
        let path = archexplorer::deg::critical::critical_path(&mut deg);
        prop_assert_eq!(path.total_delay, r.trace.cycles);
        let report = archexplorer::deg::bottleneck::analyze(&deg, &path);
        let total = report.total();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&total));
    }

    #[test]
    fn fused_analysis_equals_explicit_for_arbitrary_specs(spec in arb_spec(), design in arb_design()) {
        prop_assume!(spec.validate().is_ok());
        let trace = spec.generate(1_200, 9);
        let r = OooCore::new(design).run(&trace).expect("simulates");
        let mut deg = induce(build_deg(&r));
        let path = critical_path(&mut deg);
        let report = archexplorer::deg::bottleneck::analyze(&deg, &path);
        let (fused_path, fused_report) = archexplorer::deg::fused::analyze(&r);
        prop_assert_eq!(fused_path, path);
        prop_assert_eq!(fused_report.length, report.length);
        for (f, e) in fused_report.contributions.iter().zip(&report.contributions) {
            prop_assert_eq!(f.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn power_model_is_positive_and_monotone_in_activity(design in arb_design()) {
        let trace = spec06_suite()[0].generate(1_000, 1);
        let r = OooCore::new(design).run(&trace).expect("simulates");
        let ppa = PowerModel.evaluate(&design, &r.stats);
        prop_assert!(ppa.power_w > 0.0);
        prop_assert!(ppa.area_mm2 > 0.0);
        prop_assert!(ppa.ipc > 0.0);
    }

    #[test]
    fn hypervolume_is_monotone_under_union(
        xs in proptest::collection::vec((0.1f64..2.0, 0.05f64..1.0, 2.0f64..12.0), 1..20)
    ) {
        let pts: Vec<PpaResult> = xs
            .iter()
            .map(|&(ipc, power_w, area_mm2)| PpaResult { ipc, power_w, area_mm2 })
            .collect();
        let r = RefPoint::default();
        let mut prev = 0.0;
        for k in 1..=pts.len() {
            let hv = hypervolume(&pts[..k], &r);
            prop_assert!(hv >= prev - 1e-12, "hypervolume must grow with points");
            prev = hv;
        }
        // And never exceeds the reference box.
        prop_assert!(prev <= 2.0 * r.power_w * r.area_mm2);
    }

    #[test]
    fn space_index_roundtrip(seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let space = DesignSpace::table4();
        let a = space.random(&mut StdRng::seed_from_u64(seed));
        prop_assert!(a.validate().is_ok());
        prop_assert_eq!(space.design_at(space.index_of(&a)), a);
    }
}
