//! DEG validation: structural invariants and cross-implementation oracles.
//!
//! The paper's method rests on two exact identities — the DEG is acyclic
//! with every edge weight equal to a measured stage interval (Table 2),
//! and Algorithm 1's critical-path length equals the simulated runtime.
//! This module machine-checks both, plus the agreement of the fused
//! analysis with the explicit chain it replaces on the evaluator's path,
//! forming the oracle hierarchy every later optimisation must pass:
//!
//! 1. [`validate_deg`] — structure: acyclicity (every edge forward in the
//!    topological key order), time-axis monotonicity along each
//!    instruction's pipeline chain, and Table 2 endpoint consistency per
//!    edge kind;
//! 2. [`validate_times`] — the graph's vertex times are exactly the
//!    simulator's event record (with implicit weights, this *is* the
//!    weight/interval consistency of Table 2);
//! 3. [`validate_exactness`] — the end-to-end oracle: structure holds
//!    before and after inducing, the path length equals `SimResult`
//!    cycles, and [`fused::analyze`] on warm scratch returns the explicit
//!    chain's critical path and, bit for bit, its bottleneck report.
//!
//! Every failure increments a `verify/violation/<check>` telemetry
//! counter and carries a stable machine-readable tag.

use crate::bottleneck::{self, BottleneckReport};
use crate::build::{build_deg_window, stage_times};
use crate::critical::{critical_path, CriticalPath};
use crate::fused;
use crate::graph::{Deg, EdgeKind, Stage};
use crate::induced::induce;
use archx_sim::trace::SimResult;

/// A failed DEG validation check.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationError {
    /// Stable machine-readable tag (e.g. `deg/endpoints`), mirrored by the
    /// `verify/violation/<check>` telemetry counter.
    pub check: &'static str,
    /// Rendered diagnostic.
    pub detail: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DEG validation failed [{}]: {}", self.check, self.detail)
    }
}

impl std::error::Error for ValidationError {}

#[cold]
fn fail(check: &'static str, detail: String) -> ValidationError {
    archx_telemetry::counter_add(&format!("verify/violation/{check}"), 1);
    ValidationError { check, detail }
}

/// Expected endpoint stages for each Table 2 edge kind; `None` leaves the
/// endpoints unconstrained (virtual edges).
fn expected_endpoints(kind: EdgeKind) -> Option<(Stage, Stage)> {
    match kind {
        EdgeKind::Pipeline => None, // consecutive ranks, checked separately
        EdgeKind::Mispredict => Some((Stage::P, Stage::F1)),
        EdgeKind::Resource(_) => Some((Stage::R, Stage::R)),
        EdgeKind::Fu(_) => Some((Stage::I, Stage::I)),
        EdgeKind::Data => Some((Stage::I, Stage::I)),
        EdgeKind::FetchSlot => Some((Stage::F, Stage::F1)),
        EdgeKind::FetchBw => Some((Stage::F, Stage::F)),
        EdgeKind::MemDep => Some((Stage::M, Stage::C)),
        EdgeKind::Virtual => None,
    }
}

/// Validates the structural invariants of a built (or induced) DEG:
/// acyclicity, per-instruction time monotonicity along the pipeline
/// chain, and Table 2 endpoint consistency.
///
/// # Errors
///
/// Returns the first failing check, tagged `deg/acyclic`,
/// `deg/stage_time` or `deg/endpoints`.
pub fn validate_deg(deg: &Deg) -> Result<(), ValidationError> {
    // Acyclicity: every edge strictly increases the topological key, so
    // no cycle can close and no weight can be negative.
    for e in deg.edges() {
        if !deg.is_forward(e.from, e.to) {
            return Err(fail(
                "deg/acyclic",
                format!(
                    "edge {:?} -> {:?} ({:?}) does not go forward",
                    deg.locate(e.from),
                    deg.locate(e.to),
                    e.kind
                ),
            ));
        }
    }
    // Time-axis monotonicity along each instruction's pipeline chain.
    for j in 0..deg.instr_count() {
        for w in Stage::ALL.windows(2) {
            let a = deg.time(deg.node(j, w[0]));
            let b = deg.time(deg.node(j, w[1]));
            if b < a {
                return Err(fail(
                    "deg/stage_time",
                    format!("instruction {j}: {} at {a} after {} at {b}", w[0], w[1]),
                ));
            }
        }
    }
    // Table 2 endpoint consistency.
    for e in deg.edges() {
        let (fi, fs) = deg.locate(e.from);
        let (ti, ts) = deg.locate(e.to);
        match e.kind {
            EdgeKind::Pipeline => {
                if fi != ti || ts.rank() != fs.rank() + 1 {
                    return Err(fail(
                        "deg/endpoints",
                        format!("pipeline edge {fi}:{fs} -> {ti}:{ts} is not a chain step"),
                    ));
                }
            }
            EdgeKind::Virtual => {}
            kind => {
                let (efs, ets) = expected_endpoints(kind).expect("skewed kinds constrained");
                let instr_ok = match kind {
                    // Producers and releasers are strictly older.
                    EdgeKind::Data | EdgeKind::MemDep => fi < ti,
                    _ => fi != ti,
                };
                if fs != efs || ts != ets || !instr_ok {
                    return Err(fail(
                        "deg/endpoints",
                        format!(
                            "{kind:?} edge {fi}:{fs} -> {ti}:{ts}, expected {efs} -> {ets} \
                             across instructions"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Validates that the graph's vertex times are exactly the simulator's
/// event record over the window `[start, start + instr_count)` — with the
/// DEG's implicit weights this is the Table 2 weight/interval consistency.
///
/// # Errors
///
/// Returns a `deg/times` failure naming the first mismatched vertex.
pub fn validate_times(deg: &Deg, result: &SimResult, start: usize) -> Result<(), ValidationError> {
    for j in 0..deg.instr_count() {
        let expect = stage_times(&result.trace.events[start + j as usize]);
        for (stage, &t) in Stage::ALL.iter().zip(&expect) {
            let got = deg.time(deg.node(j, *stage));
            if got != t {
                return Err(fail(
                    "deg/times",
                    format!(
                        "instruction {}: vertex {stage} holds {got}, trace says {t}",
                        start + j as usize
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// The end-to-end oracle over a full simulation result: builds and
/// induces the DEG, validating structure and times before and after
/// inducing, requires Algorithm 1's path length to equal the simulated
/// runtime exactly, and checks [`fused::analyze`] against the explicit
/// chain. The fused pass runs right after a run on another result (the
/// first half of this one), so its scratch holds another graph. Returns
/// the critical path for reuse.
///
/// # Errors
///
/// Returns the first failing check: any [`validate_deg`] /
/// [`validate_times`] tag, `deg/exactness` (path length != runtime) or
/// `deg/fused` (the fused pass's path or report differs from the explicit
/// chain's).
///
/// # Panics
///
/// Panics on an empty trace (no instructions were simulated).
pub fn validate_exactness(result: &SimResult) -> Result<CriticalPath, ValidationError> {
    validate_exactness_window(result, 0, result.trace.events.len())
}

/// Windowed variant of [`validate_exactness`] over `[start, end)`. The
/// exactness identity `path.total_delay == result.trace.cycles` only
/// holds for the full window, so it is asserted exactly there; windowed
/// paths are instead required not to exceed the runtime. The fused pass
/// analyses whole results only, so `deg/fused` is checked on the full
/// window alone.
///
/// # Errors
///
/// See [`validate_exactness`].
///
/// # Panics
///
/// Panics when the window is empty or out of range.
pub fn validate_exactness_window(
    result: &SimResult,
    start: usize,
    end: usize,
) -> Result<CriticalPath, ValidationError> {
    let len = result.trace.events.len();
    let full = start == 0 && end == len;
    let built = build_deg_window(result, start, end);
    validate_deg(&built)?;
    validate_times(&built, result, start)?;

    let mut induced = induce(built);
    validate_deg(&induced)?;
    validate_times(&induced, result, start)?;

    let path = critical_path(&mut induced);
    if full && path.total_delay != result.trace.cycles {
        return Err(fail(
            "deg/exactness",
            format!(
                "critical path spans {} cycles, simulation ran {}",
                path.total_delay, result.trace.cycles
            ),
        ));
    }
    if !full && path.total_delay > result.trace.cycles {
        return Err(fail(
            "deg/exactness",
            format!(
                "windowed critical path spans {} cycles, exceeding the {}-cycle run",
                path.total_delay, result.trace.cycles
            ),
        ));
    }
    if full {
        let report = bottleneck::analyze(&induced, &path);
        let mut half = SimResult {
            trace: result.trace.clone(),
            ..SimResult::default()
        };
        half.trace.truncate(len.div_ceil(2));
        half.trace.cycles = 0;
        // Leave another graph in this thread's fused scratch first.
        fused::analyze(&half);
        let (fused_path, fused_report) = fused::analyze(result);
        let same_path = fused_path == path;
        let same_report = bit_identical(&fused_report, &report);
        if !(same_path && same_report) {
            return Err(fail(
                "deg/fused",
                format!(
                    "fused pass vs explicit chain: critical paths equal: {same_path} \
                     (cost {} vs {}, delay {} vs {}, {} vs {} edges); reports equal bit \
                     for bit: {same_report}",
                    fused_path.cost,
                    path.cost,
                    fused_path.total_delay,
                    path.total_delay,
                    fused_path.len(),
                    path.len(),
                ),
            ));
        }
    }
    Ok(path)
}

/// Whether two reports agree in length and in every contribution's bits.
pub(crate) fn bit_identical(a: &BottleneckReport, b: &BottleneckReport) -> bool {
    a.length == b.length
        && a.contributions
            .iter()
            .zip(&b.contributions)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_deg;
    use crate::graph::NodeId;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn run(n: usize, seed: u64) -> SimResult {
        OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(n, seed))
            .expect("simulates")
    }

    #[test]
    fn healthy_results_pass_the_full_oracle() {
        let r = run(2_000, 3);
        let path = validate_exactness(&r).expect("oracle holds");
        assert_eq!(path.total_delay, r.trace.cycles);
    }

    #[test]
    fn windowed_oracle_holds() {
        let r = run(2_000, 5);
        validate_exactness_window(&r, 500, 1_500).expect("windowed oracle holds");
    }

    #[test]
    fn branchy_and_memory_bound_results_pass() {
        for r in [
            OooCore::new(MicroArch::baseline())
                .run(&trace_gen::random_branches(2_000, 7))
                .expect("simulates"),
            OooCore::new(MicroArch::tiny())
                .run(&trace_gen::pointer_chase(2_000, 8 << 20, 9))
                .expect("simulates"),
        ] {
            validate_exactness(&r).expect("oracle holds under pressure");
        }
    }

    #[test]
    fn corrupted_endpoint_is_reported() {
        let r = run(300, 1);
        let mut deg = build_deg(&r);
        // A Data edge must run I -> I; aim one at a commit vertex instead.
        let from = deg.node(0, Stage::I);
        let to = deg.node(200, Stage::C);
        deg.add_edge(from, to, EdgeKind::Data);
        let err = validate_deg(&deg).expect_err("bad endpoint must be caught");
        assert_eq!(err.check, "deg/endpoints");
        assert!(err.to_string().contains("Data"));
    }

    #[test]
    fn corrupted_time_is_reported() {
        let r = run(300, 2);
        let deg = build_deg(&r);
        // Rebuild with one vertex time nudged off the trace.
        let mut times: Vec<_> = (0..deg.node_count() as NodeId)
            .map(|v| deg.time(v))
            .collect();
        let victim = deg.node(100, Stage::I) as usize;
        times[victim] += 1;
        let forged = Deg::new(deg.instr_count(), times);
        let err = validate_times(&forged, &r, 0).expect_err("forged time must be caught");
        assert_eq!(err.check, "deg/times");
    }

    #[test]
    fn violations_count_in_telemetry() {
        archx_telemetry::global().set_enabled(true);
        let r = run(200, 4);
        let mut deg = build_deg(&r);
        let from = deg.node(0, Stage::I);
        let to = deg.node(150, Stage::C);
        deg.add_edge(from, to, EdgeKind::Data);
        let before = archx_telemetry::global()
            .report()
            .counter("verify/violation/deg/endpoints");
        let _ = validate_deg(&deg);
        let after = archx_telemetry::global()
            .report()
            .counter("verify/violation/deg/endpoints");
        assert_eq!(after, before + 1);
    }
}
