//! **BENCH_campaign**: wall-clock of a fixed tiny campaign (all 6 methods
//! × 2 seeds) executed serially on one thread versus fanned out across
//! `jobs` campaign jobs sharing `jobs` threads, plus a hard determinism
//! check — the parallel run must produce logs identical to the serial run
//! or the binary exits non-zero.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin bench_campaign \
//!     [budget=N] [instrs=N] [workloads=N] [jobs=N] [out=PATH]
//! ```
//!
//! Writes a JSON record (`out=`, default `BENCH_campaign.json`) with both
//! timings and the speedup. On a single-core machine the speedup hovers
//! around 1.0 — the point of the record is the identical-results check and
//! an honest timing baseline; the speedup shows on multi-core CI.

use archexplorer::dse::campaign::{CampaignRunner, RunSpec};
use archexplorer::prelude::*;
use archexplorer::telemetry::JsonValue;
use archx_bench::Args;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args = Args::from_env();
    let telemetry_mode = args.telemetry();
    let jobs = args.get_usize("jobs", 4).max(2);
    let out = args.get_str("out", "BENCH_campaign.json");
    let sim_budget = args.get_u64("budget", 10);
    let instrs = args.get_usize("instrs", 800);
    let suite = suite_prefix(spec06_suite(), args.get_usize("workloads", 2));
    let workloads = suite.len();
    let template = Evaluator::builder(suite).window(instrs).seed(1).threads(1);
    let space = DesignSpace::table4();
    let seeds = [1u64, 2];
    let specs: Vec<RunSpec> = Method::ALL
        .iter()
        .flat_map(|&method| seeds.iter().map(move |&seed| RunSpec { method, seed }))
        .collect();

    eprintln!(
        "campaign bench: {} runs x {} sims, serial then jobs={jobs}...",
        specs.len(),
        sim_budget
    );
    let t0 = Instant::now();
    let serial = CampaignRunner::new()
        .run_specs(&specs, &space, &template, sim_budget)
        .expect("serial campaign");
    let serial_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = CampaignRunner::new()
        .jobs(jobs)
        .run_specs(&specs, &space, &template.clone().threads(jobs), sim_budget)
        .expect("parallel campaign");
    let parallel_s = t1.elapsed().as_secs_f64();

    let identical = serial == parallel;
    let speedup = serial_s / parallel_s.max(1e-9);
    println!(
        "serial {serial_s:.3}s  jobs={jobs} {parallel_s:.3}s  speedup {speedup:.2}x  \
         identical results: {identical}"
    );

    let json = JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("campaign".into())),
        ("methods".into(), JsonValue::Int(Method::ALL.len() as u64)),
        ("seeds".into(), JsonValue::Int(seeds.len() as u64)),
        ("runs".into(), JsonValue::Int(specs.len() as u64)),
        ("sim_budget".into(), JsonValue::Int(sim_budget)),
        ("instrs_per_workload".into(), JsonValue::Int(instrs as u64)),
        ("workloads".into(), JsonValue::Int(workloads as u64)),
        ("jobs".into(), JsonValue::Int(jobs as u64)),
        (
            "host_threads".into(),
            JsonValue::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("serial_seconds".into(), JsonValue::Float(serial_s)),
        ("parallel_seconds".into(), JsonValue::Float(parallel_s)),
        ("speedup".into(), JsonValue::Float(speedup)),
        ("logs_identical".into(), JsonValue::Bool(identical)),
    ]);
    if let Err(e) = std::fs::write(&out, json.render() + "\n") {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    archx_bench::emit::emit_telemetry(&telemetry_mode);
    if identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: parallel campaign diverged from serial results");
        ExitCode::FAILURE
    }
}
