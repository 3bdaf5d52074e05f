//! Construction of the paper's new DEG formulation from a simulated
//! microexecution (Section 4.1, Table 2).
//!
//! Everything is dynamic: edge weights are the measured intervals between
//! event times, misprediction edges span the *actual* squash latency, and
//! resource-usage edges (`R(i)→R(j)`, `I(i)→I(j)`) come straight from the
//! simulator's scoreboard — which instruction's release of which entry
//! unblocked each stall.

use crate::graph::{Deg, EdgeKind, Stage};
use archx_sim::trace::{InstrIdx, SimResult, NO_INSTR};

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
    let mut deg = Deg::default();
    build_deg_into(result, start, end, &mut deg);
    deg
}

/// Like [`build_deg_window`], but overwrites `deg` in place: whatever graph
/// it held is discarded, and its vertex, edge and CSR storage is reused.
/// The result equals what [`build_deg_window`] returns.
///
/// ```
/// use archx_deg::{build::build_deg_into, build_deg, critical_path, induce, Deg};
/// use archx_sim::{trace_gen, MicroArch, OooCore};
/// let core = OooCore::new(MicroArch::baseline());
/// let mut deg = Deg::default();
/// for n in [800, 300] {
///     let result = core.run(&trace_gen::mixed_workload(n, 1)).expect("simulates");
///     build_deg_into(&result, 0, n, &mut deg);
///     assert_eq!(deg, build_deg(&result));
///     let mut induced = induce(std::mem::take(&mut deg));
///     assert_eq!(critical_path(&mut induced).total_delay, result.trace.cycles);
///     deg = induced; // hand the storage back for the next round
/// }
/// ```
///
/// # Panics
///
/// Panics if the window is out of bounds or empty.
pub fn build_deg_into(result: &SimResult, start: usize, end: usize, deg: &mut Deg) {
    assert!(
        start < end && end <= result.trace.events.len(),
        "bad window"
    );
    let _timed = archx_telemetry::span("deg/build");
    let events = &result.trace.events[start..end];
    deg.reset(
        events.len() as u32,
        events.iter().flat_map(|ev| {
            [
                ev.f1, ev.f2, ev.f, ev.dc, ev.r, ev.dp, ev.i, ev.m, ev.p, ev.c,
            ]
        }),
    );

    let in_window = |idx: InstrIdx| -> Option<InstrIdx> {
        if idx == NO_INSTR {
            return None;
        }
        let i = idx as usize;
        (i >= start && i < end).then(|| (i - start) as InstrIdx)
    };

    for (local, ev) in events.iter().enumerate() {
        let j = local as InstrIdx;
        // Pipeline chain F1→F2→F→DC→R→DP→I→M→P→C.
        for w in Stage::ALL.windows(2) {
            deg.add_edge(deg.node(j, w[0]), deg.node(j, w[1]), EdgeKind::Pipeline);
        }
        // Fetch-buffer slot dependence: F(releaser) → F1(j).
        if let Some(from) = ev.fetch_slot_from.and_then(in_window) {
            deg.add_edge(
                deg.node(from, Stage::F),
                deg.node(j, Stage::F1),
                EdgeKind::FetchSlot,
            );
        }
        // Fetch bandwidth / fetch-queue dependence: F(releaser) → F(j).
        if let Some(from) = ev.fetch_bw_from.and_then(in_window) {
            deg.add_edge(
                deg.node(from, Stage::F),
                deg.node(j, Stage::F),
                EdgeKind::FetchBw,
            );
        }
        // Misprediction squash: P(branch) → F1(first refilled).
        if let Some(from) = ev.refill_from.and_then(in_window) {
            deg.add_edge(
                deg.node(from, Stage::P),
                deg.node(j, Stage::F1),
                EdgeKind::Mispredict,
            );
        }
        // Hardware-resource usage dependencies: R(releaser) → R(j).
        for stall in &ev.rename_stalls {
            if let Some(rel) = in_window(stall.releaser) {
                deg.add_edge(
                    deg.node(rel, Stage::R),
                    deg.node(j, Stage::R),
                    EdgeKind::Resource(stall.resource),
                );
            }
        }
        // Functional-unit usage dependence: I(releaser) → I(j).
        if let Some(wait) = ev.fu_wait {
            if let Some(rel) = in_window(wait.releaser) {
                deg.add_edge(
                    deg.node(rel, Stage::I),
                    deg.node(j, Stage::I),
                    EdgeKind::Fu(wait.fu),
                );
            }
        }
        // True data dependencies: I(producer) → I(j).
        for &d in &ev.data_deps {
            if let Some(prod) = in_window(d) {
                deg.add_edge(
                    deg.node(prod, Stage::I),
                    deg.node(j, Stage::I),
                    EdgeKind::Data,
                );
            }
        }
        // Memory-address-dependence misprediction: M(store) → C(load).
        if let Some(store) = ev.mem_dep_violation.and_then(in_window) {
            deg.add_edge(
                deg.node(store, Stage::M),
                deg.node(j, Stage::C),
                EdgeKind::MemDep,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        g.validate().expect("well-formed DEG");
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
        g.validate().expect("windowed DEG well-formed");
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
    fn in_place_build_over_a_larger_graph_matches_the_fresh_path() {
        use crate::critical::critical_path;
        use crate::induced::induce;
        let mut reused = Deg::default();
        for (n, seed) in [(1_500usize, 3u64), (400, 5), (900, 7)] {
            let result = OooCore::new(MicroArch::baseline())
                .run(&trace_gen::mixed_workload(n, seed))
                .expect("simulates");
            // The reference runs on a new thread, so its critical-path
            // scratch starts empty too.
            let (fresh, fresh_path) = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut deg = induce(build_deg(&result));
                    let path = critical_path(&mut deg);
                    (deg, path)
                })
                .join()
                .expect("reference thread")
            });
            build_deg_into(&result, 0, n, &mut reused);
            let mut warm = induce(reused);
            let warm_path = critical_path(&mut warm);
            assert_eq!(fresh, warm, "in-place DEG must equal the fresh one");
            assert_eq!(fresh_path, warm_path);
            reused = warm;
        }
    }

    #[test]
    #[should_panic(expected = "bad window")]
    fn empty_window_panics() {
        let r = run(10);
        let _ = build_deg_window(&r, 5, 5);
    }
}
