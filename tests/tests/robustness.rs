//! Fault-injection and crash-recovery behaviour of full campaigns:
//! quarantined designs must never abort a search, failed attempts must
//! still consume budget (so budgets always terminate), and a killed
//! journaled campaign must resume to the same frontier without
//! re-simulating journaled designs.

use archexplorer::dse::campaign::run_method_on;
use archexplorer::dse::journal::{Journal, JournalError};
use archexplorer::prelude::*;
use std::path::PathBuf;

fn suite() -> Vec<Workload> {
    let mut s: Vec<_> = spec06_suite().into_iter().take(2).collect();
    for w in &mut s {
        w.weight = 0.5;
    }
    s
}

/// The campaigns' evaluator: two workloads at a 2 000-instruction window,
/// trace seed 9.
fn template() -> EvaluatorBuilder {
    Evaluator::builder(suite()).window(2_000).seed(9).threads(2)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archx-robustness-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn all_failing_campaign_still_finishes_its_budget() {
    // A 3-cycle budget makes every simulation fail: the campaign must
    // quarantine everything, charge every attempt against the budget, and
    // terminate instead of spinning or aborting.
    let ev = Evaluator::builder(suite())
        .window(2_000)
        .seed(9)
        .threads(2)
        .limits(SimLimits {
            cycle_budget: Some(3),
            ..SimLimits::default()
        })
        .max_retries(1)
        .build();
    let log = run_method_on(Method::Random, &DesignSpace::table4(), &ev, 12, 9);
    assert!(
        ev.sim_count() >= 12,
        "failed attempts must consume budget, got {}",
        ev.sim_count()
    );
    assert!(ev.quarantine_len() > 0, "failures must be quarantined");
    assert!(
        log.records.is_empty(),
        "no design can commit 2000 instructions in 3 cycles"
    );
    for q in ev.quarantine() {
        assert_eq!(q.error.tag(), "cycle_budget");
        assert_eq!(q.attempts, 2, "one retry on a halved window was allowed");
    }
}

#[test]
fn mixed_campaign_quarantines_failures_and_keeps_searching() {
    // Calibrate a cycle budget that splits real designs: probe a Random
    // run with no limits, recover each design's slowest-workload cycle
    // count from its per-workload IPC, and pick the midpoint.
    let space = DesignSpace::table4();
    let instrs = 2_000u64;
    let probe = template().build();
    let log = run_method_on(Method::Random, &space, &probe, 16, 9);
    let cycles_of = |arch: &MicroArch| -> u64 {
        let e = probe.evaluate(arch).expect("unlimited run succeeds");
        e.per_workload
            .iter()
            .map(|p| (instrs as f64 / p.ipc).round() as u64)
            .max()
            .expect("non-empty suite")
    };
    let cycles: Vec<u64> = log.records.iter().map(|r| cycles_of(&r.arch)).collect();
    let (lo, hi) = (
        *cycles.iter().min().expect("non-empty log"),
        *cycles.iter().max().expect("non-empty log"),
    );
    assert!(lo < hi, "random designs should differ in cycle count");
    let split = lo.midpoint(hi);

    // Re-run the same seeded search under the splitting budget with
    // retries off: slow designs are quarantined, fast ones keep the
    // search fed, and the budget still completes.
    let limited = template()
        .limits(SimLimits {
            cycle_budget: Some(split),
            ..SimLimits::default()
        })
        .max_retries(0)
        .build();
    let log = run_method_on(Method::Random, &space, &limited, 16, 9);
    assert!(limited.sim_count() >= 16, "budget must complete");
    assert!(limited.quarantine_len() > 0, "slow designs must fail");
    assert!(!log.records.is_empty(), "fast designs must survive");
    for r in &log.records {
        assert!(r.ppa.tradeoff().is_finite());
    }
}

#[test]
fn killed_campaign_resumes_to_the_same_frontier_without_resimulating() {
    let dir = temp_dir("resume");
    let full_path = dir.join("full.jsonl");
    let killed_path = dir.join("killed.jsonl");
    let budget = 24;

    // Reference campaign, journaled to completion.
    let ev_full = template().build();
    let fp = ev_full.fingerprint(vec![("method".into(), "Random".into())]);
    ev_full.set_journal(Journal::create(&full_path, &fp).expect("create journal"));
    let log_full = run_method_on(Method::Random, &DesignSpace::table4(), &ev_full, budget, 9);
    assert!(ev_full.journal_error().is_none());
    let sims_full = ev_full.sim_count();
    let frontier_full = log_full.frontier();

    // Simulate a mid-campaign kill: keep the header and the first half of
    // the evaluation records.
    let text = std::fs::read_to_string(&full_path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    let records_written = lines.len() - 1;
    assert!(
        records_written >= 4,
        "campaign should journal several designs"
    );
    let keep = 1 + records_written / 2;
    let mut truncated: String = lines[..keep].join("\n");
    truncated.push('\n');
    std::fs::write(&killed_path, truncated).expect("write truncated journal");

    // Resume: journaled designs replay from the journal (no simulation),
    // the budget picks up where the kill left off, and the deterministic
    // search reaches the same frontier.
    let ev_res = template().build();
    let (journal, records) = Journal::resume(
        &killed_path,
        &ev_res.fingerprint(vec![("method".into(), "Random".into())]),
    )
    .expect("resume journal");
    assert_eq!(records.len(), keep - 1);
    let warm = ev_res.warm_start(records);
    assert_eq!(warm, (keep as u64 - 1) * 2, "2 sims per journaled design");
    assert!(warm < sims_full, "the kill must leave budget unspent");
    ev_res.set_journal(journal);
    let log_res = run_method_on(Method::Random, &DesignSpace::table4(), &ev_res, budget, 9);
    assert!(ev_res.journal_error().is_none());

    // Same frontier, and the total simulation count matches the
    // uninterrupted run: the replayed prefix cost zero new simulations.
    assert_eq!(log_res.frontier(), frontier_full);
    assert_eq!(log_res, log_full, "same designs at the same budget points");
    assert_eq!(ev_res.sim_count(), sims_full);
    let best_full = log_full.best_tradeoff().expect("non-empty").ppa;
    let best_res = log_res.best_tradeoff().expect("non-empty").ppa;
    assert_eq!(best_full, best_res);

    // The resumed journal now covers the whole campaign: resuming it
    // again replays everything, simulates nothing, and the search still
    // walks the whole run to the same frontier.
    let ev_done = template().build();
    let (_, records) = Journal::resume(
        &killed_path,
        &ev_done.fingerprint(vec![("method".into(), "Random".into())]),
    )
    .expect("second resume");
    assert_eq!(records.len(), records_written);
    assert_eq!(ev_done.warm_start(records), sims_full);
    let log_done = run_method_on(Method::Random, &DesignSpace::table4(), &ev_done, budget, 9);
    assert_eq!(log_done, log_full, "a fully journaled run replays whole");
    assert_eq!(ev_done.sim_count(), sims_full);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_mismatched_campaign() {
    let dir = temp_dir("mismatch");
    let path = dir.join("j.jsonl");
    let ev = template().build();
    let fp = ev.fingerprint(vec![]);
    drop(Journal::create(&path, &fp).expect("create"));

    // Different trace seed → different workloads → journaled results are
    // not transferable; resume must refuse rather than corrupt a search.
    let other = Evaluator::builder(suite())
        .window(2_000)
        .seed(1234)
        .threads(1)
        .build();
    let err = Journal::resume(&path, &other.fingerprint(vec![])).expect_err("must mismatch");
    assert!(err.to_string().contains("trace_seed"), "got: {err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_reevaluated_but_interior_corruption_is_fatal() {
    // A `kill -9` mid-append leaves half a JSON record at the end of the
    // journal: resume must drop exactly that record (the evaluation it
    // described is simply redone). The same damage anywhere *earlier*
    // means the file was edited or the disk lied — a hard error.
    let dir = temp_dir("torn");
    let path = dir.join("full.jsonl");
    let budget = 12;
    let ev = template().build();
    let fp = ev.fingerprint(vec![("method".into(), "Random".into())]);
    ev.set_journal(Journal::create(&path, &fp).expect("create journal"));
    run_method_on(Method::Random, &DesignSpace::table4(), &ev, budget, 9);
    assert!(ev.journal_error().is_none());

    let text = std::fs::read_to_string(&path).expect("journal readable");
    let records_written = text.lines().count() - 1;
    assert!(
        records_written >= 3,
        "campaign should journal several designs"
    );

    // Cut the file mid-way through the final record (byte-level, not at a
    // line boundary).
    let body = text.trim_end();
    let last_line_start = body.rfind('\n').expect("multi-line journal") + 1;
    let cut = last_line_start + (body.len() - last_line_start) / 2;
    let torn_path = dir.join("torn.jsonl");
    std::fs::write(&torn_path, &text[..cut]).expect("write torn journal");

    let ev_torn = template().build();
    let (_, records) = Journal::resume(
        &torn_path,
        &ev_torn.fingerprint(vec![("method".into(), "Random".into())]),
    )
    .expect("a torn tail is recoverable");
    assert_eq!(
        records.len(),
        records_written - 1,
        "only the torn final record is dropped"
    );

    // The identical half-record damage on an interior line is fatal, and
    // the error names the corrupt line.
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let mid = 1 + records_written / 2;
    let keep = lines[mid].len() / 2;
    lines[mid].truncate(keep);
    let corrupt_path = dir.join("corrupt.jsonl");
    std::fs::write(&corrupt_path, lines.join("\n") + "\n").expect("write corrupt journal");

    let ev_corrupt = template().build();
    let err = Journal::resume(
        &corrupt_path,
        &ev_corrupt.fingerprint(vec![("method".into(), "Random".into())]),
    )
    .expect_err("interior corruption must not be silently dropped");
    match err {
        JournalError::Corrupt { line, .. } => assert_eq!(line, mid + 1),
        other => panic!("expected JournalError::Corrupt, got {other}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
