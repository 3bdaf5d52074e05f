//! The shared-trace-store / buffer-reuse hot path, end to end: a campaign
//! synthesises each `(workload, seed, window)` trace exactly once however
//! many jobs run, retries slice the shared trace instead of regenerating
//! it, and the per-thread reused buffers never change an evaluation
//! result.

use archexplorer::dse::campaign::{CampaignRunner, RunSpec};
use archexplorer::prelude::*;
use archexplorer::workloads::TraceStore;
use std::sync::Arc;

#[test]
fn campaign_at_jobs_4_synthesises_each_trace_exactly_once() {
    let suite = suite_prefix(spec06_suite(), 3);
    // 4 concurrent jobs, every run over the same trace seed: the store
    // must miss exactly once per workload — the first-arriving job
    // synthesises, the other three share the Arc.
    let store = Arc::new(TraceStore::new());
    let template = Evaluator::builder(suite.clone())
        .window(600)
        .seed(1)
        .trace_store(Arc::clone(&store))
        .threads(4);
    let specs: Vec<RunSpec> = [1u64, 2, 3, 4]
        .iter()
        .map(|&seed| RunSpec {
            method: Method::Random,
            seed,
        })
        .collect();
    let logs = CampaignRunner::new()
        .jobs(4)
        .run_specs(&specs, &DesignSpace::table4(), &template, 8)
        .expect("campaign runs");
    assert_eq!(logs.len(), specs.len());
    assert_eq!(
        store.misses(),
        suite.len() as u64,
        "each (workload, seed, window) must be synthesised exactly once"
    );
    assert_eq!(
        store.hits(),
        (specs.len() as u64 - 1) * suite.len() as u64,
        "every other evaluator shares the stored trace"
    );
}

#[test]
fn campaign_store_results_match_per_run_generation() {
    let template = Evaluator::builder(suite_prefix(spec06_suite(), 2))
        .window(500)
        .seed(5)
        .threads(1);
    let specs = [RunSpec {
        method: Method::Random,
        seed: 5,
    }];
    let space = DesignSpace::table4();
    // Two dedicated stores: each campaign synthesises independently, so
    // identical logs prove the store itself adds nothing to the results.
    let run = || {
        CampaignRunner::new()
            .run_specs(
                &specs,
                &space,
                &template.clone().trace_store(Arc::new(TraceStore::new())),
                6,
            )
            .expect("runs")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
}

#[test]
fn warm_thread_evaluation_matches_a_fresh_thread() {
    let suite = suite_prefix(spec06_suite(), 2);
    let evaluate = |window: usize, arch: &MicroArch, analysis: Analysis| {
        Evaluator::builder(suite.clone())
            .window(window)
            .seed(1)
            .trace_store(Arc::new(TraceStore::new()))
            .threads(1)
            .build()
            .evaluate_with(arch, analysis)
            .expect("evaluates")
    };
    // Leave this thread's reused simulation result and DEG holding other
    // designs, longer and shorter windows, and every analysis kind.
    for (window, arch, analysis) in [
        (3_000, MicroArch::baseline(), Analysis::NewDeg),
        (1_000, MicroArch::baseline(), Analysis::Calipers),
        (2_500, MicroArch::tiny(), Analysis::None),
    ] {
        evaluate(window, &arch, analysis);
    }
    let target = MicroArch::tiny();
    for analysis in [Analysis::NewDeg, Analysis::Calipers, Analysis::None] {
        let warm = evaluate(2_000, &target, analysis);
        let fresh = std::thread::scope(|s| {
            s.spawn(|| evaluate(2_000, &target, analysis))
                .join()
                .expect("fresh thread")
        });
        assert_eq!(warm, fresh, "reused buffers changed a {analysis:?} result");
    }
}

#[test]
fn retry_window_is_a_prefix_of_the_shared_trace() {
    // The halved-window retry path slices the stored trace; the slice
    // must equal a direct synthesis of the shorter window (the generator
    // is prefix-stable), so retries never regenerate.
    let store = TraceStore::new();
    let w = &suite_prefix(spec06_suite(), 1)[0];
    let full = store.get(w, 2_000, 7);
    let half = store.get(w, 1_000, 7);
    assert_eq!(&full[..1_000], &half[..]);
    assert_eq!(store.misses(), 2, "two windows, two syntheses");
    assert_eq!(
        &full[..1_000],
        &w.generate(1_000, 7)[..],
        "sub-slice equals direct generation of the shorter window"
    );
}
