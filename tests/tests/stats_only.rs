//! A stats-only simulation (`OooCore::stats`) must return exactly the
//! statistics of a recorded run (`OooCore::run`), fail with exactly the
//! same errors, and still let the invariant checker fire.
//!
//! `stats` shares `run`'s loop but skips the per-instruction record, so
//! every timing the loop reads back has to come from somewhere else; a
//! slip shows up here as a statistic that differs in some bit.

use archexplorer::sim::check::{CheckConfig, InjectedFault};
use archexplorer::sim::config::MemDepPolicy;
use archexplorer::sim::{
    trace_gen, Instruction, MicroArch, OooCore, OpClass, Reg, SimError, SimStats,
};
use archx_integration::sim_inputs::{designs, traces};

/// Asserts two statistics are equal bit for bit (floats by their bits, so
/// a NaN or a signed zero cannot hide a difference).
fn assert_same_bits(got: &SimStats, want: &SimStats, what: &str) {
    let bits = |s: &SimStats| s.avg_occupancy.map(f64::to_bits);
    assert_eq!(bits(got), bits(want), "{what}: occupancies differ");
    assert_eq!(got, want, "{what}: statistics differ");
}

#[test]
fn stats_equal_the_recorded_runs_statistics_on_the_digest_inputs() {
    let traces = traces();
    let mut violations = 0;
    for (d, arch) in designs().into_iter().enumerate() {
        let core = OooCore::new(arch);
        for (t, trace) in traces.iter().enumerate() {
            let full = core.run(trace).expect("simulates");
            let stats = core.stats(trace).expect("simulates");
            assert_same_bits(&stats, &full.stats, &format!("design {d}, trace {t}"));
            assert_eq!(stats.cycles, full.trace.cycles);
            if arch.mem_dep == MemDepPolicy::StoreSets {
                violations += stats.mem_dep_violations;
            }
        }
    }
    assert!(violations > 0, "no store-set run caught a violation");
}

/// Blocks of a divide, two stores to one address whose base register
/// waits for the divide, and a younger independent load from that address:
/// under store-set speculation the load issues first, and both stores then
/// resolve after it.
fn twice_caught_loads(blocks: u64) -> Vec<Instruction> {
    let mut trace = Vec::new();
    for k in 0..blocks {
        let pc = 0x1_0000 + 0x40 * k;
        let addr = 0x8000 + 64 * k;
        trace.push(Instruction::op(
            pc,
            OpClass::IntDiv,
            [Some(Reg::int(1)), None],
            Some(Reg::int(1)),
        ));
        trace.push(Instruction::store(pc + 4, addr, Reg::int(1), Reg::int(2)));
        trace.push(Instruction::store(pc + 8, addr, Reg::int(1), Reg::int(2)));
        trace.push(Instruction::load(pc + 12, addr, Reg::int(3), Reg::int(4)));
    }
    trace
}

#[test]
fn a_load_is_caught_by_one_violation_only() {
    let mut arch = MicroArch::baseline();
    arch.mem_dep = MemDepPolicy::StoreSets;
    let core = OooCore::new(arch);
    let trace = twice_caught_loads(200);
    let full = core.run(&trace).expect("simulates");
    let caught = full
        .trace
        .events
        .iter()
        .filter(|e| e.mem_dep_violation.is_some())
        .count() as u64;
    assert!(caught > 0, "the trace must provoke violations");
    assert_eq!(full.stats.mem_dep_violations, caught);
    let stats = core.stats(&trace).expect("simulates");
    assert_same_bits(&stats, &full.stats, "twice-caught loads");
}

#[test]
fn empty_trace_has_empty_stats() {
    let core = OooCore::new(MicroArch::baseline());
    let stats = core.stats(&[]).expect("simulates");
    assert_same_bits(&stats, &core.run(&[]).expect("simulates").stats, "empty");
    assert_eq!((stats.committed, stats.cycles), (0, 0));
}

#[test]
fn a_tripped_watchdog_reports_the_same_deadlock() {
    // Past the cold start, this trace goes longer than the watchdog
    // without a commit.
    let trace = trace_gen::mixed_workload(3_000, 5);
    let core = OooCore::new(MicroArch::baseline()).with_deadlock_watchdog(150);
    let want = core.run(&trace).expect_err("the watchdog trips");
    let got = core.stats(&trace).expect_err("the watchdog trips");
    assert_eq!(got, want);
    match got {
        SimError::Deadlock { commit_head, .. } => {
            assert!(commit_head > 0, "trips mid-run, after some commits")
        }
        other => panic!("expected a deadlock, got {other}"),
    }
}

#[test]
fn an_exhausted_budget_reports_the_same_progress() {
    let trace = trace_gen::mixed_workload(3_000, 5);
    let core = OooCore::new(MicroArch::baseline()).with_cycle_budget(700);
    let want = core.run(&trace).expect_err("the budget runs out");
    let got = core.stats(&trace).expect_err("the budget runs out");
    assert_eq!(got, want);
    match got {
        SimError::CycleBudgetExceeded {
            budget, committed, ..
        } => {
            assert_eq!(budget, 700);
            assert!(committed > 0, "runs out mid-run, after some commits");
        }
        other => panic!("expected an exhausted budget, got {other}"),
    }
}

#[test]
fn checked_stats_equal_unchecked_stats() {
    let trace = trace_gen::mixed_workload(2_000, 11);
    let plain = OooCore::new(MicroArch::baseline())
        .stats(&trace)
        .expect("simulates");
    let checked = OooCore::checked(MicroArch::baseline())
        .stats(&trace)
        .expect("a clean run has no violations");
    assert_same_bits(&checked, &plain, "checked");
}

fn injected(arch: MicroArch, fault: InjectedFault) -> OooCore {
    OooCore::new(arch).with_invariant_checks(CheckConfig { fault: Some(fault) })
}

#[test]
fn injected_faults_fire_through_stats() {
    // The ROB binds (IQ and register file both larger), so it fills.
    let mut rob_bound = MicroArch::baseline();
    rob_bound.rob_entries = 32;
    rob_bound.iq_entries = 48;
    rob_bound.int_rf = 128;
    let cases = [
        (
            rob_bound,
            InjectedFault::RobCapacityOffByOne,
            "occupancy/ROB",
        ),
        (
            MicroArch::baseline(),
            InjectedFault::LostWakeup,
            "issue/wakeup",
        ),
    ];
    let trace = trace_gen::linear_int_chain(2_000);
    for (arch, fault, want) in cases {
        let err = injected(arch, fault)
            .stats(&trace)
            .expect_err("the injected fault trips the checker");
        match err {
            SimError::InvariantViolation { check, .. } => assert_eq!(check, want),
            other => panic!("expected {want}, got {other}"),
        }
    }
}
