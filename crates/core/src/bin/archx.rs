//! `archx` — command-line front end for the ArchExplorer reproduction.
//!
//! ```text
//! archx analyze  [suite=spec06|spec17] [workloads=N] [instrs=N] [--threads N] [PARAM=V ...]
//! archx explore  [method=NAME] [budget=N] [suite=...] [instrs=N] [seed=N] [--threads N]
//!                [--journal PATH | --resume PATH] [--cycle-budget N] [--retries N]
//! archx campaign [methods=all|paper|a,b,...] [seeds=1,2,...] [budget=N] [suite=...]
//!                [--jobs N] [--threads N] [--journal DIR | --resume DIR]
//!                [--cycle-budget N] [--retries N]
//! archx export   [workload=NAME] [instrs=N] [seed=N]        # trace to stdout
//! archx import   file=TRACE                                  # analyze external trace
//! archx verify   [--designs N] [--seed N] [--window N] [--report PATH]
//!                [--inject FAULT] [PARAM=V ...]              # invariant sweep
//! archx space                                                # design-space summary
//! ```
//!
//! Parameter overrides use the Table 4 names (`Rob=128`, `IntRf=160`,
//! `Width=6`, `DCacheKb=64`, …). Every command accepts
//! `--telemetry json|pretty|off` (default `off`): after the command runs,
//! the process-wide telemetry report (span timers like `eval/simulate` and
//! `eval/deg/build`, counters like `dse/iteration`, latency histograms) is
//! printed to stderr as JSON or an aligned table.
//!
//! `--threads N` sets the threads an evaluation's workload simulations
//! run on; results are identical for any N. `campaign` runs a full
//! (methods × seeds) comparison, and there `--threads N` is the total
//! budget: `--jobs N` fans runs out across up to N job threads, each one
//! thread of the budget, and the rest of the budget is lent as workload
//! workers to whichever runs are going (a finished job lends its thread
//! too). Results print in deterministic (method, seed) order whatever
//! the completion order. `--journal DIR` gives every run its own journal
//! file inside DIR (`<method>-seed<seed>.jsonl`), and `--resume DIR`
//! warm-starts each run from its own file — safe under concurrency
//! because no two runs share a journal.
//!
//! `explore` campaigns are crash-safe: `--journal PATH` appends every
//! evaluation (design, per-workload PPA, analysis, outcome) to a JSONL
//! write-ahead journal, and `--resume PATH` warm-starts the evaluator from
//! it — journaled designs are replayed from the journal without
//! re-simulation and the simulation budget picks up where the killed run
//! left off. `--cycle-budget N` bounds each simulation; designs that
//! deadlock, exceed the budget, or panic are retried once on a halved
//! instruction window, then quarantined (reported, never Pareto-eligible)
//! while the search continues.
//!
//! `verify` sweeps seeded-random designs × workloads × windows through the
//! simulator with per-cycle invariant checking (`CheckedCore`), the DEG
//! validation oracles (acyclicity, Table 2 endpoints, critical-path
//! exactness) and metamorphic checks; failures shrink to a minimal
//! reproducer and `--report PATH` writes a machine-readable JSON violation
//! report. `--inject rob-off-by-one` intentionally breaks an invariant to
//! prove the checker fires, Table 4 overrides (`Rob=32 ...`) pin a single
//! design for repro runs, and the exit status is nonzero on any violation.

use archexplorer::cliopt::{
    extract_telemetry, get, normalize_flags, parse_kv, parse_method, parse_methods, parse_seeds,
    workloads, TelemetryMode,
};
use archexplorer::deg::prelude::*;
use archexplorer::dse::journal::Journal;
use archexplorer::prelude::*;
use archexplorer::sim::extern_trace;
use archexplorer::telemetry;
use std::collections::HashMap;
use std::process::ExitCode;

fn arch_with_overrides(kv: &HashMap<String, String>) -> Result<MicroArch, String> {
    let mut arch = MicroArch::baseline();
    for (k, v) in kv {
        if let Some(param) = ParamId::ALL.iter().find(|p| format!("{p}") == *k) {
            let value: u32 = v
                .parse()
                .map_err(|_| format!("parameter {k} needs an integer, got `{v}`"))?;
            param.set(&mut arch, value);
        }
    }
    arch.validate().map_err(|e| e.to_string())?;
    Ok(arch)
}

fn cmd_analyze(kv: &HashMap<String, String>) -> Result<(), String> {
    let arch = arch_with_overrides(kv)?;
    let evaluator = evaluator_template(
        kv,
        workloads(kv)?,
        get(kv, "instrs", 20_000)?,
        get(kv, "seed", 1)?,
    )?
    .build();
    println!("design: {arch}");
    let e = evaluator
        .evaluate_with(&arch, Analysis::NewDeg)
        .map_err(|failure| format!("evaluation failed: {failure}"))?;
    println!(
        "IPC {:.4}  power {:.4} W  area {:.4} mm²  Perf²/(P×A) {:.4}\n",
        e.ppa.ipc,
        e.ppa.power_w,
        e.ppa.area_mm2,
        e.ppa.tradeoff()
    );
    let report = e.report.ok_or("analysis produced no bottleneck report")?;
    println!("{}", report.render());
    Ok(())
}

/// The evaluator `analyze`, `explore` and `campaign` run on: `suite` at
/// an `instrs` window with trace seed `seed`, plus the `threads=`,
/// `cycle_budget=` and `retries=` settings.
fn evaluator_template(
    kv: &HashMap<String, String>,
    suite: Vec<Workload>,
    instrs: usize,
    seed: u64,
) -> Result<EvaluatorBuilder, String> {
    let cycle_budget = kv
        .get("cycle_budget")
        .map(|_| get(kv, "cycle_budget", 0))
        .transpose()?;
    // Every campaign job holds one thread of the budget, so `jobs=N`
    // alone raises the default budget to N.
    let threads = get(
        kv,
        "threads",
        get(kv, "jobs", 1usize)?.max(archexplorer::dse::default_threads()),
    )?;
    Ok(Evaluator::builder(suite)
        .window(instrs)
        .seed(seed)
        .threads(threads)
        .limits(SimLimits {
            cycle_budget,
            ..SimLimits::default()
        })
        .max_retries(get(kv, "retries", 1u32)?))
}

/// `progress=1` streams one line per evaluated design to stderr; under
/// `campaign --jobs N` each line carries its run's label.
struct StderrProgress;
impl telemetry::ProgressSink for StderrProgress {
    fn on_progress(&self, p: &telemetry::Progress) {
        eprintln!(
            "  [{}] sims {}/{}  hv {:.4}  best {:.4}",
            p.source, p.sims_done, p.sim_budget, p.hypervolume, p.best_tradeoff
        );
    }
}

fn cmd_explore(kv: &HashMap<String, String>) -> Result<(), String> {
    let method = parse_method(
        kv.get("method")
            .map(String::as_str)
            .unwrap_or("archexplorer"),
    )?;
    let suite = workloads(kv)?;
    let sim_budget = get(kv, "budget", 240u64)?;
    let seed = get(kv, "seed", 1u64)?;
    let instrs = get(kv, "instrs", 20_000usize)?;
    eprintln!(
        "exploring with {method} for {sim_budget} simulations ({} workloads x {instrs} instrs)...",
        suite.len(),
    );
    let evaluator = evaluator_template(kv, suite, instrs, seed)?.build();
    if get(kv, "progress", 0u8)? == 1 {
        evaluator.set_progress_sink(std::sync::Arc::new(StderrProgress));
    }
    // The fingerprint pins everything the journal's replayed results
    // depend on; mismatched resumes are rejected field-by-field.
    let fp = evaluator.fingerprint(vec![
        ("method".to_string(), method.to_string()),
        ("search_seed".to_string(), seed.to_string()),
    ]);
    if kv.contains_key("journal") && kv.contains_key("resume") {
        return Err(
            "use journal=PATH for a fresh campaign or resume=PATH to continue one, not both".into(),
        );
    }
    if let Some(path) = kv.get("resume") {
        let (journal, records) = Journal::resume(path, &fp).map_err(|e| e.to_string())?;
        let replayed = records.len();
        let sims = evaluator.warm_start(records);
        evaluator.set_journal(journal);
        eprintln!(
            "resumed {path}: {replayed} journaled evaluation(s) replayed, \
             {sims}/{sim_budget} simulations already spent"
        );
    } else if let Some(path) = kv.get("journal") {
        let journal = Journal::create(path, &fp).map_err(|e| e.to_string())?;
        evaluator.set_journal(journal);
        eprintln!("journaling evaluations to {path}");
    }
    let log = run_method_on(method, &DesignSpace::table4(), &evaluator, sim_budget, seed);
    if let Some(e) = evaluator.journal_error() {
        eprintln!("warning: journal writes failed ({e}); campaign continued unjournaled");
    }
    let quarantine = evaluator.quarantine();
    if !quarantine.is_empty() {
        eprintln!("quarantined {} design(s):", quarantine.len());
        for q in &quarantine {
            let wl = if q.workload.is_empty() {
                String::new()
            } else {
                format!(" [{}]", q.workload)
            };
            eprintln!("  {}{wl}: {} ({} attempts)", q.arch, q.error, q.attempts);
        }
    }
    eprintln!(
        "simulations spent: {} ({} retried)",
        evaluator.sim_count(),
        evaluator.retry_count()
    );
    let best = log.best_tradeoff().ok_or("no designs explored")?;
    println!("explored {} designs", log.records.len());
    println!("best by Perf²/(P×A): {}", best.arch);
    println!(
        "  IPC {:.4}  power {:.4} W  area {:.4} mm²  trade-off {:.4}",
        best.ppa.ipc,
        best.ppa.power_w,
        best.ppa.area_mm2,
        best.ppa.tradeoff()
    );
    println!("Pareto frontier ({} designs):", log.frontier().len());
    for (arch, ppa) in log.frontier() {
        println!(
            "  ipc={:.4} power={:.4} area={:.4}  {}",
            ppa.ipc, ppa.power_w, ppa.area_mm2, arch
        );
    }
    let hv = hypervolume(
        &log.records.iter().map(|r| r.ppa).collect::<Vec<_>>(),
        &RefPoint::default(),
    );
    println!("Pareto hypervolume: {hv:.4}");
    Ok(())
}

fn cmd_campaign(kv: &HashMap<String, String>) -> Result<(), String> {
    let methods = parse_methods(kv.get("methods").map(String::as_str).unwrap_or("all"))?;
    let seeds: Vec<u64> = match kv.get("seeds") {
        Some(list) => parse_seeds(list)?,
        None => vec![get(kv, "seed", 1u64)?],
    };
    let suite = workloads(kv)?;
    let jobs = get(kv, "jobs", 1usize)?;
    let sim_budget = get(kv, "budget", 240u64)?;
    // Every run shares one trace seed: `trace_seed=` when given, else the
    // first search seed.
    let trace_seed = get(kv, "trace_seed", seeds[0])?;
    let template = evaluator_template(kv, suite, get(kv, "instrs", 20_000)?, trace_seed)?;
    let specs: Vec<RunSpec> = methods
        .iter()
        .flat_map(|&method| seeds.iter().map(move |&seed| RunSpec { method, seed }))
        .collect();
    let threads = template.thread_budget();
    eprintln!(
        "campaign: {} method(s) x {} seed(s) = {} run(s); {} job(s) sharing \
         {threads} thread(s); budget {sim_budget} sims/run",
        methods.len(),
        seeds.len(),
        specs.len(),
        jobs.clamp(1, threads),
    );

    if kv.contains_key("journal") && kv.contains_key("resume") {
        return Err(
            "use journal=DIR for a fresh campaign or resume=DIR to continue one, not both".into(),
        );
    }
    let journal_dir = kv
        .get("journal")
        .or_else(|| kv.get("resume"))
        .map(std::path::PathBuf::from);
    let resuming = kv.contains_key("resume");
    if let Some(dir) = &journal_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // Each run journals to (or resumes from) its own file inside the
    // campaign directory, so concurrent runs never contend on a journal.
    let setup = move |spec: &RunSpec, evaluator: &Evaluator| -> Result<(), String> {
        let Some(dir) = &journal_dir else {
            return Ok(());
        };
        let path = run_journal_path(dir, spec);
        let fp = evaluator.fingerprint(vec![
            ("method".to_string(), spec.method.to_string()),
            ("search_seed".to_string(), spec.seed.to_string()),
        ]);
        if resuming && path.exists() {
            let (journal, records) = Journal::resume(&path, &fp).map_err(|e| e.to_string())?;
            let replayed = records.len();
            let sims = evaluator.warm_start(records);
            evaluator.set_journal(journal);
            eprintln!(
                "  [{}] resumed {}: {replayed} evaluation(s) replayed, {sims} \
                 simulation(s) already spent",
                spec.label(),
                path.display()
            );
        } else {
            let journal = Journal::create(&path, &fp).map_err(|e| e.to_string())?;
            evaluator.set_journal(journal);
        }
        Ok(())
    };

    let mut runner = CampaignRunner::new().jobs(jobs).setup(&setup);
    if get(kv, "progress", 0u8)? == 1 {
        runner = runner.progress_sink(std::sync::Arc::new(StderrProgress));
    }
    let logs = runner
        .run_specs(&specs, &DesignSpace::table4(), &template, sim_budget)
        .map_err(|e| e.to_string())?;

    let r = RefPoint::default();
    let hv_of = |log: &RunLog| {
        hypervolume(
            &log.records.iter().map(|rec| rec.ppa).collect::<Vec<_>>(),
            &r,
        )
    };
    println!(
        "{:<24} {:>8} {:>10} {:>12} {:>12}",
        "run", "designs", "sims", "best P2/PA", "hypervolume"
    );
    for (spec, log) in specs.iter().zip(&logs) {
        let best = log
            .best_tradeoff()
            .map(|rec| rec.ppa.tradeoff())
            .unwrap_or(0.0);
        let sims = log
            .records
            .iter()
            .map(|rec| rec.sims_after)
            .max()
            .unwrap_or(0);
        println!(
            "{:<24} {:>8} {:>10} {:>12.4} {:>12.4}",
            spec.label(),
            log.records.len(),
            sims,
            best,
            hv_of(log)
        );
    }
    if seeds.len() > 1 {
        println!("\nmean final hypervolume over {} seeds:", seeds.len());
        for (mi, method) in methods.iter().enumerate() {
            let hvs: Vec<f64> = logs[mi * seeds.len()..(mi + 1) * seeds.len()]
                .iter()
                .map(hv_of)
                .collect();
            let mean = hvs.iter().sum::<f64>() / hvs.len() as f64;
            let var = hvs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / hvs.len() as f64;
            println!(
                "  {:<16} {:>12.4} ± {:.4}",
                method.to_string(),
                mean,
                var.sqrt()
            );
        }
    }
    Ok(())
}

fn cmd_export(kv: &HashMap<String, String>) -> Result<(), String> {
    let arch = arch_with_overrides(kv)?;
    let suite = workloads(kv)?;
    let name = kv
        .get("workload")
        .cloned()
        .unwrap_or_else(|| suite[0].id.0.to_string());
    let workload = suite
        .iter()
        .find(|w| w.id.0.contains(name.as_str()))
        .ok_or_else(|| format!("no workload matching `{name}`"))?;
    let trace = workload.generate(get(kv, "instrs", 20_000)?, get(kv, "seed", 1)?);
    let result = OooCore::new(arch)
        .run(&trace)
        .map_err(|e| format!("simulation failed: {e}"))?;
    print!("{}", extern_trace::export(&trace, &result));
    Ok(())
}

fn cmd_import(kv: &HashMap<String, String>) -> Result<(), String> {
    let path = kv.get("file").ok_or("import needs file=PATH")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (_, result) = extern_trace::import(&text).map_err(|e| e.to_string())?;
    println!(
        "imported {} instructions, {} cycles (IPC {:.4})",
        result.stats.committed,
        result.trace.cycles,
        result.stats.ipc()
    );
    let mut deg = induce(build_deg(&result));
    let path_ = archexplorer::deg::critical::critical_path(&mut deg);
    println!(
        "induced DEG: {} vertices, {} edges; critical path length {} (cost {})\n",
        deg.node_count(),
        deg.edge_count(),
        path_.total_delay,
        path_.cost
    );
    println!(
        "{}",
        archexplorer::deg::bottleneck::analyze(&deg, &path_).render()
    );
    Ok(())
}

fn cmd_verify(kv: &HashMap<String, String>) -> Result<(), String> {
    use archexplorer::dse::verify::{run_verify, VerifyConfig};
    use archexplorer::sim::InjectedFault;
    let mut workloads = workloads(kv)?;
    if let Some(name) = kv.get("workload") {
        workloads.retain(|w| w.id.0.contains(name.as_str()));
        if workloads.is_empty() {
            return Err(format!("no workload matching `{name}`"));
        }
    }
    let mut cfg = VerifyConfig {
        designs: get(kv, "designs", 16usize)?.max(1),
        seed: get(kv, "seed", 1u64)?,
        window: get(kv, "window", 2_000usize)?,
        workloads,
        fault: kv
            .get("inject")
            .map(|s| InjectedFault::parse(s))
            .transpose()?,
        metamorphic: get(kv, "metamorphic", 1u8)? == 1,
        only_design: None,
    };
    // Table 4 overrides (`Rob=32 Iq=80 ...`) pin a single design — the
    // repro mode the shrunk `command` lines in the JSON report use.
    if kv
        .keys()
        .any(|k| ParamId::ALL.iter().any(|p| format!("{p}") == *k))
    {
        cfg.only_design = Some(arch_with_overrides(kv)?);
    }
    eprintln!(
        "verifying {} design(s) (seed {}, window {}) across {} workload(s)...",
        cfg.only_design.map_or(cfg.designs, |_| 1),
        cfg.seed,
        cfg.window,
        cfg.workloads.len()
    );
    let report = run_verify(&cfg);
    if let Some(path) = kv.get("report") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("violation report written to {path}");
    }
    println!(
        "swept {} design(s), {} check(s) passed, {} violation(s)",
        report.designs,
        report.checks,
        report.violations.len()
    );
    if report.ok() {
        return Ok(());
    }
    for v in &report.violations {
        println!(
            "violation [{}] on {} (window {}): {}",
            v.check, v.workload, v.window, v.detail
        );
        if let Some(r) = &v.shrunk {
            println!("  shrunk repro: {}", r.command);
        }
    }
    Err(format!(
        "{} invariant violation(s)",
        report.violations.len()
    ))
}

fn cmd_space() -> Result<(), String> {
    let space = DesignSpace::table4();
    println!("Table 4 design space: {} designs", space.size());
    for &p in &ParamId::ALL {
        let c = space.candidates(p);
        println!(
            "  {p:<16} {} candidates: {:?}{}",
            c.len(),
            &c[..c.len().min(8)],
            if c.len() > 8 { " ..." } else { "" }
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, mode) = match extract_telemetry(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match normalize_flags(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if mode == TelemetryMode::Off {
        telemetry::global().set_enabled(false);
    }
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: archx <analyze|explore|campaign|export|import|verify|space> \
             [key=value ...] [--telemetry json|pretty|off]"
        );
        return ExitCode::FAILURE;
    };
    let kv = parse_kv(&args[1..]);
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(&kv),
        "explore" => cmd_explore(&kv),
        "campaign" => cmd_campaign(&kv),
        "export" => cmd_export(&kv),
        "import" => cmd_import(&kv),
        "verify" => cmd_verify(&kv),
        "space" => cmd_space(),
        other => Err(format!("unknown command `{other}`")),
    };
    match mode {
        TelemetryMode::Off => {}
        TelemetryMode::Json => eprintln!("{}", telemetry::global().report().to_json()),
        TelemetryMode::Pretty => eprint!("{}", telemetry::global().report().to_pretty()),
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
