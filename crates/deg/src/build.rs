//! Construction of the paper's new DEG formulation from a simulated
//! microexecution (Section 4.1, Table 2).
//!
//! Everything is dynamic: edge weights are the measured intervals between
//! event times, misprediction edges span the *actual* squash latency, and
//! resource-usage edges (`R(i)→R(j)`, `I(i)→I(j)`) come straight from the
//! simulator's scoreboard — which instruction's release of which entry
//! unblocked each stall.

use crate::graph::{node_id, Deg, EdgeKind, NodeId, Stage};
use archx_sim::trace::{Cycle, InstrEvents, InstrIdx, PipelineTrace, SimResult, NO_INSTR};

/// Builds the new-formulation DEG for a full simulation result.
pub fn build_deg(result: &SimResult) -> Deg {
    build_deg_window(result, 0, result.trace.events.len())
}

/// Builds the DEG over the half-open instruction window `[start, end)`.
///
/// Skewed edges whose source lies before the window are dropped (their
/// producer is not represented), matching the paper's use of bounded
/// instruction windows for critical-path analysis.
///
/// # Panics
///
/// Panics if the window is out of bounds or empty.
pub fn build_deg_window(result: &SimResult, start: usize, end: usize) -> Deg {
    assert!(
        start < end && end <= result.trace.events.len(),
        "bad window"
    );
    let _timed = archx_telemetry::span("deg/build");
    let events = &result.trace.events[start..end];
    let mut deg = Deg::new(
        events.len() as u32,
        events.iter().flat_map(stage_times).collect(),
    );
    let local = window_local(start, end);
    for j in 0..events.len() as InstrIdx {
        // Pipeline chain F1→F2→F→DC→R→DP→I→M→P→C.
        for w in Stage::ALL.windows(2) {
            deg.add_edge(deg.node(j, w[0]), deg.node(j, w[1]), EdgeKind::Pipeline);
        }
        skewed_edges(
            &result.trace,
            start + j as usize,
            j,
            &local,
            |from, to, kind| deg.add_edge(from, to, kind),
        );
    }
    deg
}

/// The event times of one instruction's ten vertices, in stage order.
pub(crate) fn stage_times(ev: &InstrEvents) -> [Cycle; 10] {
    [
        ev.f1, ev.f2, ev.f, ev.dc, ev.r, ev.dp, ev.i, ev.m, ev.p, ev.c,
    ]
}

/// Maps a trace index to its index within the window `[start, end)`, or
/// `None` when it lies outside (or is [`NO_INSTR`]).
pub(crate) fn window_local(start: usize, end: usize) -> impl Fn(InstrIdx) -> Option<InstrIdx> {
    move |idx| {
        if idx == NO_INSTR {
            return None;
        }
        let i = idx as usize;
        (i >= start && i < end).then(|| (i - start) as InstrIdx)
    }
}

/// Calls `edge(from, to, kind)` for every skewed edge of Table 2 that ends
/// at trace instruction `idx`, window-local instruction `j`, in the order
/// the DEG inserts them. `local` maps the trace indices its records name
/// into the window; edges from outside it are skipped.
pub(crate) fn skewed_edges(
    trace: &PipelineTrace,
    idx: usize,
    j: InstrIdx,
    local: impl Fn(InstrIdx) -> Option<InstrIdx>,
    mut edge: impl FnMut(NodeId, NodeId, EdgeKind),
) {
    let ev = &trace.events[idx];
    // Fetch-buffer slot dependence: F(releaser) → F1(j).
    if let Some(from) = ev.fetch_slot_from.and_then(&local) {
        edge(
            node_id(from, Stage::F),
            node_id(j, Stage::F1),
            EdgeKind::FetchSlot,
        );
    }
    // Fetch bandwidth / fetch-queue dependence: F(releaser) → F(j).
    if let Some(from) = ev.fetch_bw_from.and_then(&local) {
        edge(
            node_id(from, Stage::F),
            node_id(j, Stage::F),
            EdgeKind::FetchBw,
        );
    }
    // Misprediction squash: P(branch) → F1(first refilled).
    if let Some(from) = ev.refill_from.and_then(&local) {
        edge(
            node_id(from, Stage::P),
            node_id(j, Stage::F1),
            EdgeKind::Mispredict,
        );
    }
    // Hardware-resource usage dependencies: R(releaser) → R(j).
    for stall in trace.rename_stalls(idx) {
        if let Some(rel) = local(stall.releaser) {
            edge(
                node_id(rel, Stage::R),
                node_id(j, Stage::R),
                EdgeKind::Resource(stall.resource),
            );
        }
    }
    // Functional-unit usage dependence: I(releaser) → I(j).
    if let Some(wait) = ev.fu_wait {
        if let Some(rel) = local(wait.releaser) {
            edge(
                node_id(rel, Stage::I),
                node_id(j, Stage::I),
                EdgeKind::Fu(wait.fu),
            );
        }
    }
    // True data dependencies: I(producer) → I(j).
    for &d in trace.data_deps(idx) {
        if let Some(prod) = local(d) {
            edge(
                node_id(prod, Stage::I),
                node_id(j, Stage::I),
                EdgeKind::Data,
            );
        }
    }
    // Memory-address-dependence misprediction: M(store) → C(load).
    if let Some(store) = ev.mem_dep_violation.and_then(&local) {
        edge(
            node_id(store, Stage::M),
            node_id(j, Stage::C),
            EdgeKind::MemDep,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_deg;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn run(n: usize) -> SimResult {
        OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(n, 7))
            .expect("simulates")
    }

    #[test]
    fn graph_shape_matches_trace() {
        let r = run(500);
        let g = build_deg(&r);
        assert_eq!(g.instr_count(), 500);
        assert_eq!(g.node_count(), 5000);
        // At least the 9 pipeline edges per instruction.
        assert!(g.edge_count() >= 9 * 500);
        validate_deg(&g).expect("well-formed DEG");
    }

    #[test]
    fn pipeline_edge_weights_are_measured_intervals() {
        let r = run(200);
        let g = build_deg(&r);
        for e in g.edges() {
            let w = g.interval(e);
            // All weights are non-negative by construction; pipeline F1→F2
            // equals the I-cache access time.
            if e.kind == EdgeKind::Pipeline {
                let (i, s) = g.locate(e.from);
                if s == Stage::F1 {
                    let ev = &r.trace.events[i as usize];
                    assert_eq!(w, ev.f2 - ev.f1);
                }
            }
        }
    }

    #[test]
    fn mispredict_edges_have_dynamic_weights() {
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::random_branches(5_000, 3))
            .expect("simulates");
        let g = build_deg(&r);
        let mut weights: Vec<u64> = g
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Mispredict)
            .map(|e| g.interval(e))
            .collect();
        assert!(
            !weights.is_empty(),
            "random branches must produce squash edges"
        );
        // Squash+redirect takes at least the redirect penalty; the refill
        // may start later still when the front end is busy.
        assert!(
            weights.iter().all(|&w| w >= 3),
            "squash latency below redirect: {weights:?}"
        );
        weights.sort_unstable();
        weights.dedup();
    }

    #[test]
    fn window_drops_out_of_range_producers() {
        let r = run(1_000);
        let g = build_deg_window(&r, 500, 1_000);
        assert_eq!(g.instr_count(), 500);
        validate_deg(&g).expect("windowed DEG well-formed");
    }

    #[test]
    fn resource_edges_appear_under_pressure() {
        let mut arch = MicroArch::tiny();
        arch.rob_entries = 32;
        let r = OooCore::new(arch)
            .run(&trace_gen::pointer_chase(3_000, 16 << 20, 5))
            .expect("simulates");
        let g = build_deg(&r);
        let has_resource = g
            .edges()
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::Resource(_)));
        assert!(
            has_resource,
            "a tiny machine on a memory-bound trace must stall on resources"
        );
    }

    #[test]
    #[should_panic(expected = "bad window")]
    fn empty_window_panics() {
        let r = run(10);
        let _ = build_deg_window(&r, 5, 5);
    }
}
