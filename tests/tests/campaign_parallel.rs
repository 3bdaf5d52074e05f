//! Determinism of the parallel campaign layer: fanning runs out across
//! job threads that share the template's thread budget, and lend idle
//! threads to each other's workload simulations, must not change a
//! single byte of any result — logs and journal contents are identical
//! to a sequential run, and per-run journal files let
//! `--journal`/`--resume` work when runs execute concurrently.

use archexplorer::dse::campaign::{
    run_journal_path, run_method_on, CampaignRunner, Method, RunSpec,
};
use archexplorer::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Two equally weighted workloads at a 700-instruction window, trace seed
/// 1, serial evaluation. Parallel runs raise `threads` to their job count
/// so the jobs really run at once.
fn template() -> EvaluatorBuilder {
    let mut s: Vec<_> = spec06_suite().into_iter().take(2).collect();
    for w in &mut s {
        w.weight = 0.5;
    }
    Evaluator::builder(s).window(700).seed(1).threads(1)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archx-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn all_method_specs(seeds: &[u64]) -> Vec<RunSpec> {
    Method::ALL
        .iter()
        .flat_map(|&method| seeds.iter().map(move |&seed| RunSpec { method, seed }))
        .collect()
}

#[test]
fn parallel_campaign_is_byte_identical_to_sequential() {
    // The acceptance campaign: every method x 2 seeds, jobs=4 in a
    // 4-thread budget, compared against the sequential run.
    let template = template();
    let budget = 8;
    let space = DesignSpace::table4();
    let specs = all_method_specs(&[1, 2]);

    let serial = CampaignRunner::new()
        .run_specs(&specs, &space, &template, budget)
        .expect("serial campaign");
    let parallel = CampaignRunner::new()
        .jobs(4)
        .run_specs(&specs, &space, &template.clone().threads(4), budget)
        .expect("parallel campaign");

    assert_eq!(serial.len(), specs.len());
    assert_eq!(serial, parallel, "jobs=4 must not change any result");
    // Byte-level check on the full debug rendering, not just PartialEq.
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    // Logs land in spec order regardless of completion order.
    for (spec, log) in specs.iter().zip(&serial) {
        assert_eq!(log.method, spec.method.to_string());
    }
}

#[test]
fn campaign_runs_equal_run_method_on_a_fresh_evaluator_from_the_template() {
    // The campaign adds nothing between the template and the search
    // primitive: at any job count, each run's log is the log of
    // `run_method_on` on an evaluator built from the same template.
    let template = template();
    let budget = 8;
    let space = DesignSpace::table4();
    let specs = all_method_specs(&[1, 2]);
    let direct: Vec<RunLog> = specs
        .iter()
        .map(|spec| {
            run_method_on(
                spec.method,
                &space,
                &template.clone().build(),
                budget,
                spec.seed,
            )
        })
        .collect();
    for jobs in [1, 3] {
        let logs = CampaignRunner::new()
            .jobs(jobs)
            .run_specs(&specs, &space, &template.clone().threads(jobs), budget)
            .expect("campaign");
        for ((spec, run), want) in specs.iter().zip(&logs).zip(&direct) {
            assert_eq!(run, want, "{} at jobs={jobs}", spec.label());
        }
    }
}

#[test]
fn labelled_progress_attributes_interleaved_events_to_their_run() {
    let template = template();
    let budget = 6;
    let space = DesignSpace::table4();
    let specs = all_method_specs(&[5]);
    let sink = Arc::new(archexplorer::telemetry::CollectingSink::new());
    CampaignRunner::new()
        .jobs(3)
        .progress_sink(sink.clone())
        .run_specs(&specs, &space, &template.clone().threads(3), budget)
        .expect("campaign");
    let events = sink.events();
    assert!(!events.is_empty(), "runs must emit progress");
    let labels: std::collections::HashSet<String> =
        events.iter().map(|e| e.source.clone()).collect();
    for spec in &specs {
        assert!(
            labels.contains(&spec.label()),
            "missing events for {}",
            spec.label()
        );
    }
    for label in &labels {
        assert!(
            specs.iter().any(|s| s.label() == *label),
            "event with unknown label {label}"
        );
    }
}

#[test]
fn concurrent_runs_journal_to_distinct_files_and_resume() {
    let dir = temp_dir("journal");
    let template = template();
    let budget = 8;
    let space = DesignSpace::table4();
    let specs = all_method_specs(&[1, 2]);

    let logs = CampaignRunner::new()
        .jobs(4)
        .journal(&dir, false)
        .run_specs(&specs, &space, &template.clone().threads(4), budget)
        .expect("journaled campaign");

    // Every run journaled to its own file.
    for spec in &specs {
        let path = run_journal_path(&dir, spec);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            text.lines().count() >= 2,
            "{} journaled nothing beyond its header",
            path.display()
        );
    }

    // Kill-and-resume per run: truncate every journal to half its records
    // and rerun resuming; each run must replay its own prefix and land on
    // the same frontier while the campaign executes concurrently.
    for spec in &specs {
        let path = run_journal_path(&dir, spec);
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<&str> = text.lines().collect();
        let keep = 1 + (lines.len() - 1) / 2;
        let mut truncated = lines[..keep].join("\n");
        truncated.push('\n');
        std::fs::write(&path, truncated).expect("truncate journal");
    }
    let resumed = CampaignRunner::new()
        .jobs(4)
        .journal(&dir, true)
        .run_specs(&specs, &space, &template.clone().threads(4), budget)
        .expect("resumed campaign");
    for ((spec, full), res) in specs.iter().zip(&logs).zip(&resumed) {
        assert_eq!(
            full.frontier(),
            res.frontier(),
            "{} must resume to the same frontier",
            spec.label()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
