//! The evaluation pipeline recomputed stage by stage through the public
//! stage functions — the oracle that sampled evaluations must equal — and
//! the per-layer metrics read from telemetry snapshots.

use crate::measure::Rounds;
use crate::{median, Metric};
use archexplorer::deg::{bottleneck, build_deg, critical_path, induce, merge_reports};
use archexplorer::dse::eval::{Analysis, DesignEval};
use archexplorer::power::{PowerModel, PpaResult};
use archexplorer::sim::isa::Instruction;
use archexplorer::sim::{MicroArch, OooCore};
use archexplorer::telemetry::{self, Report};
use archexplorer::workloads::Workload;
use std::sync::Arc;

/// Recomputes one design's evaluation: simulate each trace, model its
/// power, and for [`Analysis::NewDeg`] build, induce and walk the DEG and
/// attribute the critical path, checking that its length equals the
/// simulated cycles. Per-workload results are merged as the evaluator
/// merges them.
pub fn recompute(
    arch: &MicroArch,
    suite: &[Workload],
    traces: &[Arc<[Instruction]>],
    analysis: Analysis,
) -> Result<DesignEval, String> {
    let power = PowerModel::default();
    let mut per_workload = Vec::with_capacity(traces.len());
    let mut reports = Vec::new();
    for (w, trace) in suite.iter().zip(traces) {
        let result = OooCore::new(*arch)
            .run(trace)
            .map_err(|e| format!("{}: {e}", w.id))?;
        per_workload.push(power.evaluate(arch, &result.stats));
        match analysis {
            Analysis::None => {}
            Analysis::NewDeg => {
                let mut deg = induce(build_deg(&result));
                let path = critical_path(&mut deg);
                if path.total_delay != result.trace.cycles {
                    return Err(format!(
                        "{}: critical path {} != simulated cycles {}",
                        w.id, path.total_delay, result.trace.cycles
                    ));
                }
                reports.push(bottleneck::analyze(&deg, &path));
            }
            Analysis::Calipers => return Err("no oracle for Calipers".into()),
        }
    }
    let n = per_workload.len() as f64;
    let ppa = PpaResult {
        ipc: per_workload.iter().map(|p| p.ipc).sum::<f64>() / n,
        power_w: per_workload.iter().map(|p| p.power_w).sum::<f64>() / n,
        area_mm2: per_workload[0].area_mm2,
    };
    let report = (analysis != Analysis::None).then(|| {
        let weights: Vec<f64> = suite.iter().map(|w| w.weight).collect();
        merge_reports(&reports, &weights)
    });
    Ok(DesignEval {
        ppa,
        per_workload,
        report,
        analysis,
    })
}

/// Turns telemetry collection on or off process-wide.
pub fn set_telemetry(on: bool) {
    telemetry::global().set_enabled(on);
}

/// Snapshot of every counter and span timer.
pub fn snapshot() -> Report {
    telemetry::global().report()
}

/// Calls and nanoseconds a span recorded between two snapshots.
fn span(before: &Report, after: &Report, name: &str) -> (u64, u64) {
    let get = |r: &Report| r.timer(name).map_or((0, 0), |t| (t.count, t.total_ns));
    let (c0, t0) = get(before);
    let (c1, t1) = get(after);
    (c1 - c0, t1 - t0)
}

fn counter(before: &Report, after: &Report, name: &str) -> u64 {
    after.counter(name) - before.counter(name)
}

/// Mean microseconds per call, 0 when the span never ran.
fn per_call_us((calls, ns): (u64, u64)) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ns as f64 / 1e3 / calls as f64
    }
}

/// The per-layer metrics of a traced run whose set-up synthesises
/// `traces` traces. `start`, `after_loop` and `end` are snapshots taken
/// before the measured rounds, after them, and after the checks; the DEG
/// stages are read over the whole run so that a workload that analyses
/// only in its checks still reports them. Times are unscaled host time;
/// `host_speed` gives the host's median speed relative to the reference.
pub fn metrics(
    start: &Report,
    after_loop: &Report,
    end: &Report,
    rounds: &Rounds,
    traces: usize,
) -> Vec<Metric> {
    let sim = span(start, after_loop, "eval/simulate");
    let loop_deg_ns: u64 = ["eval/deg/build", "eval/deg/induce", "eval/deg/critical"]
        .iter()
        .map(|s| span(start, after_loop, s).1)
        .sum();
    let committed = counter(start, after_loop, "sim/committed");
    let cycles = counter(start, after_loop, "sim/cycles");
    let hits = counter(start, after_loop, "eval/cache/hit");
    let misses = counter(start, after_loop, "eval/cache/miss");
    let other_ns = rounds.on_busy_ms * 1e6 - (sim.1 + loop_deg_ns) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "synth_us",
            median(&rounds.setup_raw_s) * 1e6 / traces as f64,
            "us",
        ),
        m("simulate_us", per_call_us(sim), "us"),
        m(
            "sim_minstr_per_s",
            committed as f64 * 1e3 / (sim.1 as f64).max(1.0),
            "Minstr/s",
        ),
        m(
            "deg_build_us",
            per_call_us(span(start, end, "eval/deg/build")),
            "us",
        ),
        m(
            "deg_induce_us",
            per_call_us(span(start, end, "eval/deg/induce")),
            "us",
        ),
        m(
            "deg_critical_us",
            per_call_us(span(start, end, "eval/deg/critical")),
            "us",
        ),
        m(
            "other_us",
            other_ns / 1e3 / (rounds.on_evals.max(1) as f64),
            "us",
        ),
        m(
            "telemetry_overhead_pct",
            rounds.telemetry_overhead_pct(),
            "%",
        ),
        m(
            "cycles_per_kinstr",
            cycles as f64 * 1e3 / (committed.max(1) as f64),
            "cycles/kinstr",
        ),
        m(
            "cache_hit_pct",
            hits as f64 * 100.0 / ((hits + misses).max(1) as f64),
            "%",
        ),
        m(
            "journal_appends",
            counter(start, after_loop, "journal/appended") as f64,
            "count",
        ),
        m("evals", rounds.on_evals as f64, "count"),
        m("host_speed", median(&rounds.scales), "x"),
    ]
}
