//! The bottleneck report must *react* to induced pressure: starving a
//! resource raises its contribution, relieving it lowers it — the property
//! the whole DSE loop depends on.

use archexplorer::prelude::*;

fn evaluator() -> Evaluator {
    Evaluator::builder(suite_prefix(spec06_suite(), 3))
        .window(6_000)
        .threads(1)
        .build()
}

fn analyze(evaluator: &Evaluator, arch: &MicroArch) -> BottleneckReport {
    evaluator
        .evaluate_with(arch, Analysis::NewDeg)
        .expect("evaluates")
        .report
        .expect("analysis requested")
}

#[test]
fn starving_the_rob_raises_its_contribution() {
    let s = evaluator();
    let mut small = MicroArch::baseline();
    small.rob_entries = 32;
    small.int_rf = 300;
    small.fp_rf = 300;
    small.iq_entries = 80;
    let mut big = small;
    big.rob_entries = 256;
    let c_small = analyze(&s, &small).contribution(BottleneckSource::Rob);
    let c_big = analyze(&s, &big).contribution(BottleneckSource::Rob);
    assert!(
        c_small > c_big,
        "ROB contribution must fall when the ROB grows: {c_small} vs {c_big}"
    );
}

#[test]
fn branch_hostile_code_raises_bpred() {
    // A branch-hostile workload (sjeng-like) must show a larger BPred
    // contribution than a predictable floating-point one (namd-like).
    let suite = spec06_suite();
    let pick = |name: &str| {
        suite
            .iter()
            .copied()
            .find(|w| w.id.0.contains(name))
            .expect("workload present")
    };
    let arch = MicroArch::baseline();
    let bpred_of = |w| {
        Evaluator::builder(vec![w])
            .window(8_000)
            .seed(1)
            .threads(1)
            .build()
            .evaluate_with(&arch, Analysis::NewDeg)
            .expect("evaluates")
            .report
            .expect("analysis requested")
            .contribution(BottleneckSource::BPred)
    };
    let hostile = bpred_of(pick("sjeng"));
    let friendly = bpred_of(pick("namd"));
    assert!(
        hostile > friendly,
        "sjeng-like must expose BPred more than namd-like: {hostile} vs {friendly}"
    );
}

#[test]
fn contribution_guides_growth_usefully() {
    // Growing the top-ranked reassignable resource should help performance
    // more than growing the bottom-ranked one.
    let s = evaluator();
    let space = DesignSpace::table4();
    let arch = space.snap(&MicroArch::tiny());
    let report = analyze(&s, &arch);
    let base_ipc = s.evaluate(&arch).expect("evaluates").ppa.ipc;

    let ranked: Vec<_> = report
        .ranked()
        .into_iter()
        .filter(|(src, _)| src.is_reassignable())
        .collect();
    let top = ranked.first().expect("non-empty ranking").0;
    let grow = |src| {
        let mut a = arch;
        for &p in archexplorer::dse::reassign::params_for(src) {
            if let Some(v) = space.next_larger(p, p.get(&a)) {
                p.set(&mut a, v);
                break;
            }
        }
        s.evaluate(&a).expect("evaluates").ppa.ipc
    };
    let ipc_top = grow(top);
    assert!(
        ipc_top >= base_ipc * 0.999,
        "growing the top bottleneck must not hurt: {ipc_top} vs {base_ipc}"
    );
}
