//! The differential verification harness, tested end to end: seeded
//! property sweeps of random designs × workload specs through the
//! `CheckedCore` invariants and the DEG validation oracles, the
//! metamorphic properties the `archx verify` sweep relies on, and the
//! fault-injection path (an intentionally broken invariant must be caught
//! and shrunk to a replayable reproducer).

use archexplorer::dse::verify::{run_verify, VerifyConfig};
use archexplorer::prelude::*;
use archexplorer::sim::{trace_gen, CheckConfig, InjectedFault, OooCore, SimError};
use archexplorer::telemetry::JsonValue;
use archexplorer::workloads::{BranchProfile, MemoryProfile, OpMix, WorkloadSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        0.0f64..0.35,
        0.0f64..0.2,
        0.0f64..0.25,
        1.0f64..20.0,
        (64u64..8 << 20),
    )
        .prop_map(|(load, store, branch, dep, footprint)| WorkloadSpec {
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
                streaming_fraction: 0.3,
                stride: 8,
                hot_fraction: 0.8,
                hot_bytes: (footprint / 2).max(64),
            },
            code_instrs: 1024,
        })
}

fn arb_design() -> impl Strategy<Value = MicroArch> {
    any::<u64>().prop_map(|seed| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        DesignSpace::table4().random(&mut StdRng::seed_from_u64(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Every healthy (design, workload) pair passes the per-cycle
    // invariant checker and the full DEG oracle chain, and checking does
    // not perturb the simulation.
    #[test]
    fn checked_runs_are_clean_and_unperturbed(
        spec in arb_spec(),
        design in arb_design(),
        trace_seed in 0u64..1_000,
    ) {
        prop_assume!(spec.validate().is_ok());
        let trace = spec.generate(1_200, trace_seed);
        let plain = OooCore::new(design).run(&trace).expect("simulates");
        let checked = OooCore::checked(design)
            .run(&trace)
            .expect("healthy pipelines have no invariant violations");
        prop_assert_eq!(&plain.trace, &checked.trace);
        prop_assert_eq!(&plain.stats, &checked.stats);
        let path = validate_exactness(&checked).expect("DEG oracles hold");
        prop_assert_eq!(path.total_delay, checked.trace.cycles);
    }

    // The windowed oracle holds on arbitrary interior windows: builders
    // agree, validation passes, and the windowed path cannot exceed the
    // full runtime.
    #[test]
    fn windowed_oracle_holds_on_arbitrary_windows(
        design in arb_design(),
        start in 0usize..600,
        len in 100usize..600,
    ) {
        let trace = trace_gen::mixed_workload(1_500, 21);
        let r = OooCore::new(design).run(&trace).expect("simulates");
        let end = (start + len).min(r.trace.events.len());
        let path = validate_exactness_window(&r, start, end).expect("windowed oracles hold");
        prop_assert!(path.total_delay <= r.trace.cycles);
    }

    // Metamorphic: on a compute-bound independent-ALU stream, enlarging
    // the ROB never increases cycles. (On memory-bound streams cache-LRU
    // reordering breaks strict monotonicity, which is why the harness
    // scopes this property the same way.)
    #[test]
    fn rob_enlargement_is_monotone_on_compute_bound_streams(design in arb_design()) {
        let space = DesignSpace::table4();
        let trace = trace_gen::independent_int_ops(2_000);
        let cycles = |d: &MicroArch| OooCore::new(*d).run(&trace).expect("simulates").trace.cycles;
        if let Some(bigger) = space.next_larger(ParamId::Rob, ParamId::Rob.get(&design)) {
            let mut enlarged = design;
            ParamId::Rob.set(&mut enlarged, bigger);
            prop_assume!(enlarged.validate().is_ok());
            prop_assert!(cycles(&enlarged) <= cycles(&design));
        }
    }

    // Metamorphic: trace synthesis is prefix-stable — a shorter window is
    // exactly the prefix of a longer one (the property the evaluator's
    // retry-on-halved-window path depends on).
    #[test]
    fn trace_synthesis_is_prefix_stable(
        spec in arb_spec(),
        trace_seed in 0u64..1_000,
        window in 200usize..2_000,
    ) {
        prop_assume!(spec.validate().is_ok());
        let full = spec.generate(window, trace_seed);
        let half = spec.generate(window / 2, trace_seed);
        prop_assert_eq!(&half[..], &full[..window / 2]);
    }
}

#[test]
fn clean_sweep_finds_no_violations() {
    let report = run_verify(&VerifyConfig {
        designs: 8,
        seed: 7,
        window: 1_000,
        ..VerifyConfig::default()
    });
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.designs, 8);
}

#[test]
fn injected_fault_is_caught_shrunk_and_reported_as_json() {
    let report = run_verify(&VerifyConfig {
        designs: 2,
        seed: 7,
        window: 1_000,
        fault: Some(InjectedFault::RobCapacityOffByOne),
        metamorphic: false,
        ..VerifyConfig::default()
    });
    assert!(!report.ok(), "the injected fault must surface");
    let v = report
        .violations
        .iter()
        .find(|v| v.check == "occupancy/ROB")
        .expect("the believed ROB capacity must be exceeded");
    let repro = v.shrunk.as_ref().expect("deterministic failures shrink");
    assert!(repro.window <= v.window, "shrinking never grows the window");
    assert!(repro.command.starts_with("archx verify workload="));
    assert!(repro.command.contains("inject=rob-off-by-one"));

    // The machine-readable report round-trips through the JSON parser and
    // carries the repro command.
    let json = JsonValue::parse(&report.to_json()).expect("report is valid JSON");
    assert_eq!(json.get("ok"), Some(&JsonValue::Bool(false)));
    let JsonValue::Arr(violations) = json.get("violations").expect("violations array") else {
        panic!("violations must be an array");
    };
    assert_eq!(violations.len(), report.violations.len());
    let rendered = report.to_json();
    assert!(rendered.contains(&repro.command));
}

#[test]
fn shrunk_repro_replays_to_the_same_violation() {
    let report = run_verify(&VerifyConfig {
        designs: 1,
        seed: 3,
        window: 1_000,
        fault: Some(InjectedFault::RobCapacityOffByOne),
        metamorphic: false,
        ..VerifyConfig::default()
    });
    let v = &report.violations[0];
    let repro = v.shrunk.as_ref().expect("shrinks");
    // Replay the shrunk reproducer the way `archx verify` would: pin the
    // design, window, and trace seed from the repro record.
    let suite = archexplorer::workloads::spec06_suite();
    let workload = suite
        .iter()
        .find(|w| w.id.0 == v.workload)
        .expect("repro names a suite workload");
    let replay = run_verify(&VerifyConfig {
        designs: 1,
        seed: repro.trace_seed,
        window: repro.window,
        workloads: vec![*workload],
        fault: Some(InjectedFault::RobCapacityOffByOne),
        metamorphic: false,
        only_design: Some(repro.design),
    });
    assert!(!replay.ok(), "the shrunk reproducer must still fail");
    assert_eq!(replay.violations[0].check, v.check);
}

#[test]
fn checked_core_error_carries_cycle_and_check() {
    let mut arch = MicroArch::baseline();
    arch.rob_entries = 32;
    arch.iq_entries = 48;
    arch.int_rf = 128;
    let err = OooCore::new(arch)
        .with_invariant_checks(CheckConfig {
            fault: Some(InjectedFault::RobCapacityOffByOne),
        })
        .run(&trace_gen::linear_int_chain(2_000))
        .expect_err("fault trips");
    match err {
        SimError::InvariantViolation { check, cycle, .. } => {
            assert_eq!(check, "occupancy/ROB");
            assert!(cycle > 0);
        }
        other => panic!("expected an invariant violation, got {other}"),
    }
}
