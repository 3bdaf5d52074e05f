//! Fused, edge-implicit DEG analysis: [`build_deg`](crate::build_deg),
//! [`induce`](crate::induce), [`critical_path`](crate::critical_path) and
//! [`bottleneck::analyze`] in one pass over a simulation's event record,
//! with the same results.
//!
//! The explicit chain stores every edge of the induced DEG — nine pipeline
//! edges per instruction, the skewed edges, and the Rule 1/2 virtual edges
//! checked against a dedup set of all of them — and indexes the lot by
//! source before Algorithm 1 reads it once. This pass stores only the
//! vertex times, the skewed edges grouped by target instruction, a flag
//! byte per vertex, and the tables Rule 1 and Rule 2 choose their targets
//! from. Every other edge is generated when Algorithm 1 needs it, and
//! Algorithm 1 visits only the *flagged* vertices: the endpoints of skewed
//! edges, the first fetch and the last commit.
//!
//! **Contraction.** An unflagged vertex's only in-edge is its pipeline
//! edge, and so is its only out-edge (the first fetch aside, which is
//! flagged). Pipeline edges cost nothing, so a flagged vertex reaches the
//! next flagged vertex `v` of its instruction with its own value plus the
//! interval between them, over the pipeline edge into `v` from `v − 1`.
//! An instruction's first flagged vertex starts from its fetch, at
//! `(0, w, w)` with `w = t(v) − t(F1)`. A vertex takes an in-edge only
//! when it raises the vertex's value, so an unflagged vertex has its
//! pipeline predecessor only while its value is above zero; the walk back
//! re-expands each run under that rule.
//!
//! **Tie-break.** Algorithm 1 updates a vertex only on a strictly greater
//! `(cost, delay, attributed delay)` and relaxes edges in the topological
//! key order `(time, id)` of their sources. Among equal-value in-edges the
//! one with the smaller source key therefore wins; from one source, the
//! pipeline edge beats the skewed edges, which win in build order, and
//! those beat the virtual edges. This pass applies that rule on every
//! value tie, which frees it to relax edges out of order: skewed edges are
//! pulled when their target is visited, and all sources of one Rule 1
//! window relax it once, through the best of them. Virtual edges that
//! [`induce`](crate::induce) drops as duplicates are relaxed too, and
//! change nothing: each duplicates an edge of the same source to the same
//! target that reaches it with at least its value and wins the tie (a
//! virtual edge costs nothing and attributes nothing, and all edges
//! between two vertices span the same delay).

use crate::bottleneck::{attribute_cycles, report_from_cycles, BottleneckReport, NUM_SOURCES};
use crate::build::{skewed_edges, stage_times, window_local};
use crate::critical::{extend, sort_by_time, CriticalPath, Value};
use crate::graph::{locate_node, node_id, Edge, EdgeKind, NodeId, Stage, STAGES_PER_INSTR};
use crate::induced::RULE_FANOUT;
use archx_sim::trace::{Cycle, SimResult};
use std::cell::RefCell;
use std::cmp::Reverse;

/// Vertex flag: the source of a skewed edge (a "start").
const START: u8 = 1;
/// Vertex flag: the target of a skewed edge.
const END: u8 = 2;
/// Vertex flag: the first fetch or the last commit, which Algorithm 1
/// visits whether or not a skewed edge touches them.
const ANCHOR: u8 = 4;

/// Algorithm 1's state of a vertex: its value and the source and kind of
/// the in-edge that set it, with [`NO_PRED`] as the source while none has.
#[derive(Clone, Copy)]
struct Best {
    value: Value,
    from: NodeId,
    kind: EdgeKind,
}

const NO_PRED: NodeId = NodeId::MAX;

impl Best {
    const NONE: Best = Best {
        value: (0, 0, 0),
        from: NO_PRED,
        kind: EdgeKind::Virtual,
    };
}

/// The pass's tables. Each is refilled on every call, so each thread
/// keeps one set and reuses its allocations.
#[derive(Default)]
struct Scratch {
    /// Event time per vertex.
    times: Vec<Cycle>,
    /// Skewed edges in build order, which groups them by target
    /// instruction: those into instruction `i` are
    /// `skewed[skew_off[i]..skew_off[i + 1]]`.
    skewed: Vec<Edge>,
    skew_off: Vec<u32>,
    /// [`START`], [`END`] and [`ANCHOR`] bits per vertex.
    flags: Vec<u8>,
    /// Flagged vertices in id order.
    flagged: Vec<NodeId>,
    /// Flagged vertices in topological key order: Algorithm 1's visits.
    /// Its starts, in that order, are the ones Rule 1 picks from.
    order: Vec<NodeId>,
    /// Starts grouped by instruction, each group in key order (Rule 2):
    /// instruction `i`'s are `starts_by_instr[instr_off[i]..instr_off[i + 1]]`.
    instr_off: Vec<u32>,
    starts_by_instr: Vec<NodeId>,
    /// Per instruction `i`, the first instruction `>= i` with a start, or
    /// the instruction count when there is none.
    next_with_start: Vec<u32>,
    /// Counting-sort buckets.
    counts: Vec<u32>,
    /// Algorithm 1's state, indexed by vertex and kept for flagged
    /// vertices only.
    best: Vec<Best>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs the paper's analysis over a whole simulation result: the critical
/// path of the induced DEG by Algorithm 1, and the bottleneck report of
/// that path. Both equal what the explicit chain returns, the report bit
/// for bit.
///
/// ```
/// use archx_deg::{bottleneck, build_deg, critical_path, fused, induce};
/// use archx_sim::{trace_gen, MicroArch, OooCore};
///
/// let result = OooCore::new(MicroArch::baseline())
///     .run(&trace_gen::mixed_workload(500, 1))
///     .expect("simulates");
/// let (path, report) = fused::analyze(&result);
/// let mut induced = induce(build_deg(&result));
/// assert_eq!(path, critical_path(&mut induced));
/// assert_eq!(report, bottleneck::analyze(&induced, &path));
/// assert_eq!(path.total_delay, result.trace.cycles);
/// ```
///
/// # Panics
///
/// Panics on an empty trace.
pub fn analyze(result: &SimResult) -> (CriticalPath, BottleneckReport) {
    assert!(!result.trace.events.is_empty(), "empty trace");
    SCRATCH.with_borrow_mut(|scratch| {
        {
            let _timed = archx_telemetry::span("deg/build");
            scratch.build(result);
        }
        {
            let _timed = archx_telemetry::span("deg/induce");
            scratch.start_tables();
        }
        let path = {
            let _timed = archx_telemetry::span("deg/critical");
            scratch.critical_path()
        };
        let times = &scratch.times;
        let mut cycles = [0u64; NUM_SOURCES];
        for e in &path.edges {
            let w = times[e.to as usize].saturating_sub(times[e.from as usize]);
            attribute_cycles(locate_node(e.from).1, e.kind, w, &mut cycles);
        }
        let report = report_from_cycles(&cycles, path.total_delay);
        (path, report)
    })
}

/// Where Algorithm 1 over the explicit graph relaxes the edge `from → ·`
/// of `kind` relative to the other in-edges of its target: sources in key
/// order, and from one source the pipeline edge, the skewed edges, then
/// the virtual edges.
fn relax_rank(times: &[Cycle], from: NodeId, kind: EdgeKind) -> (Cycle, NodeId, u8) {
    let kind_rank = match kind {
        EdgeKind::Pipeline => 0,
        EdgeKind::Virtual => 2,
        _ => 1,
    };
    (times[from as usize], from, kind_rank)
}

/// Offers `to` the in-edge `from → to` of `kind`, which reaches it with
/// `value`. It wins on a greater value, and on an equal one when the
/// explicit graph would have relaxed it first.
fn offer(
    best: &mut [Best],
    times: &[Cycle],
    to: NodeId,
    value: Value,
    from: NodeId,
    kind: EdgeKind,
) {
    let slot = &mut best[to as usize];
    let wins = value > slot.value
        || (value == slot.value
            && slot.from != NO_PRED
            && relax_rank(times, from, kind) < relax_rank(times, slot.from, slot.kind));
    if wins {
        *slot = Best { value, from, kind };
    }
}

impl Scratch {
    /// Number of instructions.
    fn instrs(&self) -> u32 {
        self.times.len() as u32 / STAGES_PER_INSTR
    }

    /// Fills the vertex times, the skewed edges with their per-instruction
    /// offsets, and the vertex flags.
    fn build(&mut self, result: &SimResult) {
        let trace = &result.trace;
        let Scratch {
            times,
            skewed,
            skew_off,
            flags,
            ..
        } = self;
        times.clear();
        skewed.clear();
        skew_off.clear();
        let local = window_local(0, trace.len());
        for (j, ev) in trace.events.iter().enumerate() {
            times.extend_from_slice(&stage_times(ev));
            skew_off.push(skewed.len() as u32);
            skewed_edges(trace, j, j as u32, &local, |from, to, kind| {
                skewed.push(Edge { from, to, kind })
            });
        }
        skew_off.push(skewed.len() as u32);
        flags.clear();
        flags.resize(times.len(), 0);
        for e in skewed.iter() {
            flags[e.from as usize] |= START;
            flags[e.to as usize] |= END;
        }
        let n = times.len() as u32 / STAGES_PER_INSTR;
        flags[node_id(0, Stage::F1) as usize] |= ANCHOR;
        flags[node_id(n - 1, Stage::C) as usize] |= ANCHOR;
    }

    /// Builds the tables Rule 2 picks its targets from (the starts per
    /// instruction, with the next instruction that has any), contracts the
    /// unflagged pipeline runs, and sorts the flagged vertices into
    /// Algorithm 1's visiting order.
    fn start_tables(&mut self) {
        let n = self.instrs() as usize;
        let Scratch {
            times,
            flags,
            flagged,
            order,
            instr_off,
            starts_by_instr,
            next_with_start,
            counts,
            best,
            ..
        } = self;
        if best.len() < times.len() {
            best.resize(times.len(), Best::NONE);
        }
        flagged.clear();
        instr_off.clear();
        starts_by_instr.clear();
        for i in 0..n as u32 {
            instr_off.push(starts_by_instr.len() as u32);
            let fetch = node_id(i, Stage::F1);
            let stages = fetch..fetch + STAGES_PER_INSTR;
            // Stage times rise within an instruction, so its vertices in id
            // order are in key order and each pipeline run spans the time
            // between its ends.
            debug_assert!(times[fetch as usize..stages.end as usize]
                .windows(2)
                .all(|w| w[0] <= w[1]));
            let before = flagged.len();
            flagged.extend(stages.filter(|&u| flags[u as usize] != 0));
            let Some(&first) = flagged.get(before) else {
                continue;
            };
            // The first flagged vertex starts from the fetch over the
            // pipeline edges; the rest start empty.
            let w = times[first as usize] - times[fetch as usize];
            best[first as usize] = if w > 0 {
                Best {
                    value: (0, w, w),
                    from: first - 1,
                    kind: EdgeKind::Pipeline,
                }
            } else {
                Best::NONE
            };
            for &u in &flagged[before..] {
                if u != first {
                    best[u as usize] = Best::NONE;
                }
                if flags[u as usize] & START != 0 {
                    starts_by_instr.push(u);
                }
            }
        }
        instr_off.push(starts_by_instr.len() as u32);
        sort_by_time(times, flagged.iter().copied(), counts, order);
        next_with_start.clear();
        next_with_start.resize(n + 1, n as u32);
        for i in (0..n).rev() {
            next_with_start[i] = if instr_off[i + 1] > instr_off[i] {
                i as u32
            } else {
                next_with_start[i + 1]
            };
        }
    }

    /// Algorithm 1 over the flagged vertices of the implicit induced DEG,
    /// then the walk back from the last instruction's commit.
    fn critical_path(&mut self) -> CriticalPath {
        let n = self.instrs();
        let Scratch {
            times,
            skewed,
            skew_off,
            flags,
            order,
            instr_off,
            starts_by_instr,
            next_with_start,
            best,
            ..
        } = self;
        let t = |u: NodeId| times[u as usize];
        let source = node_id(0, Stage::F1);
        let sink = node_id(n - 1, Stage::C);
        let forward = |a: NodeId, b: NodeId| (t(a), a) < (t(b), b);
        // Starts at or before the current vertex in key order, of all
        // `starts_by_instr.len()`.
        let mut passed = 0;
        // The first vertex since the previous start that maximises
        // `(cost, −origin, attributed delay)`, with `origin` its time less
        // its delay: it offers Rule 1's next targets the most.
        let mut window: Option<(NodeId, (u64, Cycle, u64))> = None;
        for (k, &u) in order.iter().enumerate() {
            let flag = flags[u as usize];
            if flag & START != 0 {
                // `u` opens the window the vertices since the previous
                // start relax: the starts sharing its time.
                if let Some((from, (cost, origin, attr))) = window.take() {
                    let value = (cost, t(u) - origin, attr);
                    for &s in order[k..]
                        .iter()
                        .take_while(|&&s| t(s) == t(u))
                        .filter(|&&s| flags[s as usize] & START != 0)
                        .take(RULE_FANOUT)
                    {
                        offer(best, times, s, value, from, EdgeKind::Virtual);
                    }
                }
                passed += 1;
            }
            if flag & END != 0 {
                let i = (u / STAGES_PER_INSTR) as usize;
                for e in &skewed[skew_off[i] as usize..skew_off[i + 1] as usize] {
                    if e.to == u {
                        let value = extend(best[e.from as usize].value, e.kind, t(u) - t(e.from));
                        offer(best, times, u, value, e.from, e.kind);
                    }
                }
            }
            let here = best[u as usize].value;
            let commit = u - u % STAGES_PER_INSTR + Stage::C.rank() as u32;
            if let Some(v) = (u + 1..=commit).find(|&v| flags[v as usize] != 0) {
                let value = extend(here, EdgeKind::Pipeline, t(v) - t(u));
                offer(best, times, v, value, v - 1, EdgeKind::Pipeline);
            }

            if skewed.is_empty() {
                // A fully parallel window: the one virtual edge links the
                // first fetch to the last commit.
                if u == source && forward(source, sink) {
                    let value = extend(here, EdgeKind::Virtual, t(sink) - t(source));
                    offer(best, times, sink, value, source, EdgeKind::Virtual);
                }
                continue;
            }
            if flag & (START | END) == 0 && u != source {
                continue;
            }
            // Rule 1: the starts sharing the time of the first start after
            // `u` in key order — all forward.
            let mut onward = false;
            if passed < starts_by_instr.len() {
                let offered = (here.0, t(u) - here.1, here.2);
                let rank = |(cost, origin, attr): (u64, Cycle, u64)| (cost, Reverse(origin), attr);
                if window.is_none_or(|(_, held)| rank(offered) > rank(held)) {
                    window = Some((u, offered));
                }
                onward = true;
            }
            // Rule 2: the starts of the closest later instruction that has
            // any, where forward.
            let next = next_with_start[(u / STAGES_PER_INSTR + 1) as usize] as usize;
            if next < n as usize {
                let group =
                    &starts_by_instr[instr_off[next] as usize..instr_off[next + 1] as usize];
                for &s in group.iter().take(RULE_FANOUT) {
                    if forward(u, s) {
                        let value = extend(here, EdgeKind::Virtual, t(s) - t(u));
                        offer(best, times, s, value, u, EdgeKind::Virtual);
                        onward = true;
                    }
                }
            }
            // Exit anchor: a skewed end with no onward connection links to
            // the last commit.
            if flag & END != 0 && !onward && u != sink && forward(u, sink) {
                let value = extend(here, EdgeKind::Virtual, t(sink) - t(u));
                offer(best, times, sink, value, u, EdgeKind::Virtual);
            }
        }

        let mut edges = Vec::new();
        let mut cur = sink;
        while best[cur as usize].from != NO_PRED {
            let Best { from, kind, .. } = best[cur as usize];
            edges.push(Edge {
                from,
                to: cur,
                kind,
            });
            cur = from;
            if flags[cur as usize] == 0 {
                // Inside a contracted run: its base is the previous flagged
                // vertex of the instruction, or else the fetch with value
                // zero. Each vertex after the base has its pipeline
                // predecessor while its value, the base's plus the interval
                // since, is above zero.
                let fetch = cur - cur % STAGES_PER_INSTR;
                let base = (fetch..cur)
                    .rev()
                    .find(|&x| flags[x as usize] != 0)
                    .unwrap_or(fetch);
                let base_value = if flags[base as usize] != 0 {
                    best[base as usize].value
                } else {
                    (0, 0, 0)
                };
                while cur != base && (base_value != (0, 0, 0) || t(cur) > t(base)) {
                    edges.push(Edge {
                        from: cur - 1,
                        to: cur,
                        kind: EdgeKind::Pipeline,
                    });
                    cur -= 1;
                }
                if flags[cur as usize] == 0 {
                    break;
                }
            }
            assert!(
                edges.len() < times.len(),
                "cycle in DEG predecessor chain — a non-forward edge slipped in"
            );
        }
        edges.reverse();
        let (cost, total_delay, _) = best[sink as usize].value;
        CriticalPath {
            edges,
            cost,
            total_delay,
            start: cur,
            end: sink,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottleneck;
    use crate::build::build_deg;
    use crate::critical::critical_path;
    use crate::induced::induce;
    use crate::validate::bit_identical;
    use archx_sim::{trace_gen, Instruction, MicroArch, OooCore};

    fn simulate(arch: MicroArch, trace: &[Instruction]) -> SimResult {
        OooCore::new(arch).run(trace).expect("simulates")
    }

    /// Runs both paths on `result` and requires identical answers; returns
    /// the explicit DEG for further checks.
    fn assert_matches_explicit(result: &SimResult) -> crate::Deg {
        let mut induced = induce(build_deg(result));
        let path = critical_path(&mut induced);
        let report = bottleneck::analyze(&induced, &path);
        let (fused_path, fused_report) = analyze(result);
        assert_eq!(fused_path, path);
        assert!(
            bit_identical(&fused_report, &report),
            "{fused_report:?} vs {report:?}"
        );
        assert_eq!(path.total_delay, result.trace.cycles);
        induced
    }

    fn skewed_count(deg: &crate::Deg) -> usize {
        deg.edges().iter().filter(|e| e.kind.is_skewed()).count()
    }

    #[test]
    fn empty_skew_and_single_instruction() {
        for n in [1, 2, 3] {
            let r = simulate(MicroArch::baseline(), &trace_gen::independent_int_ops(n));
            let deg = assert_matches_explicit(&r);
            assert_eq!(skewed_count(&deg), 0, "{n} independent ops");
        }
    }

    #[test]
    fn mispredictions() {
        let r = simulate(MicroArch::baseline(), &trace_gen::random_branches(3_000, 5));
        let deg = assert_matches_explicit(&r);
        assert!(deg.edges().iter().any(|e| e.kind == EdgeKind::Mispredict));
    }

    #[test]
    fn resource_stalls() {
        let r = simulate(
            MicroArch::tiny(),
            &trace_gen::pointer_chase(2_000, 8 << 20, 9),
        );
        let deg = assert_matches_explicit(&r);
        assert!(deg
            .edges()
            .iter()
            .any(|e| matches!(e.kind, EdgeKind::Resource(_))));
    }

    #[test]
    fn serial_chain() {
        let r = simulate(MicroArch::baseline(), &trace_gen::linear_int_chain(2_000));
        let deg = assert_matches_explicit(&r);
        assert!(skewed_count(&deg) > 1_000);
    }

    /// Algorithm 1's final value of every vertex of an induced DEG.
    fn explicit_values(deg: &mut crate::Deg) -> Vec<Value> {
        deg.freeze();
        let mut values = vec![(0, 0, 0); deg.node_count()];
        for u in deg.topo_order() {
            for e in deg.out_edges(u) {
                let value = extend(values[u as usize], e.kind, deg.interval(e));
                let slot = &mut values[e.to as usize];
                *slot = (*slot).max(value);
            }
        }
        values
    }

    /// The events of an instruction whose ten stages happen at `t`.
    fn events_at(t: [Cycle; 10]) -> archx_sim::trace::InstrEvents {
        let [f1, f2, f, dc, r, dp, i, m, p, c] = t;
        archx_sim::trace::InstrEvents {
            f1,
            f2,
            f,
            dc,
            r,
            dp,
            i,
            m,
            p,
            c,
            ..Default::default()
        }
    }

    #[test]
    fn zero_interval_chain_starts_the_path_after_fetch() {
        // Instruction 1 is fetched with the first and reaches the fetch
        // queue in the same cycle, so its F1 → F2 → F chain stays at value
        // zero and the path starts at its F; its issue waits on
        // instruction 0's result.
        let mut result = SimResult::default();
        let trace = &mut result.trace;
        trace.push(events_at([0, 1, 2, 3, 4, 5, 6, 6, 7, 8]), &[], &[]);
        trace.push(events_at([0, 0, 0, 3, 4, 5, 8, 8, 9, 10]), &[], &[0]);
        trace.cycles = 10;
        let deg = assert_matches_explicit(&result);
        assert_eq!(skewed_count(&deg), 1);
        let (path, _) = analyze(&result);
        assert_eq!(path.start, node_id(1, Stage::F));
    }

    #[test]
    fn rule1_window_wider_than_fanout() {
        // Instructions 1–6, fetched at 10, all issue at 20 and feed
        // instruction 7: five by data, and instruction 5 by a functional
        // unit it held, a costly edge that puts I(5) on the path. The
        // six equal-time starts overflow a Rule 1 window, so I(5) is
        // reached from I(1)'s window and not from the first fetch's.
        let mut result = SimResult::default();
        let trace = &mut result.trace;
        trace.push(events_at([0, 1, 2, 3, 4, 5, 6, 6, 7, 8]), &[], &[]);
        for k in 1..=6 {
            let c = 22 + k;
            trace.push(events_at([10, 11, 12, 13, 14, 15, 20, 20, 21, c]), &[], &[]);
        }
        let mut last = events_at([12, 13, 14, 15, 16, 17, 30, 30, 31, 40]);
        last.fu_wait = Some(archx_sim::trace::FuWait {
            fu: archx_sim::trace::FuKind::IntMultDiv,
            releaser: 5,
        });
        trace.push(last, &[], &[1, 2, 3, 4, 6]);
        trace.cycles = 40;
        let deg = assert_matches_explicit(&result);
        let mut starts: Vec<NodeId> = deg
            .edges()
            .iter()
            .filter(|e| e.kind.is_skewed())
            .map(|e| e.from)
            .collect();
        starts.sort_unstable();
        starts.dedup();
        let at_20 = starts.iter().filter(|&&s| deg.time(s) == 20).count();
        assert!(at_20 > RULE_FANOUT, "{at_20} equal-time starts");
        let (path, _) = analyze(&result);
        let into_i5 = path.edges.iter().find(|e| e.to == node_id(5, Stage::I));
        assert_eq!(into_i5.map(|e| e.from), Some(node_id(1, Stage::I)));
    }

    #[test]
    fn skewed_edge_beats_virtual_edge_from_same_source() {
        // I(0) → I(1) is a data edge of zero interval, and I(1) is also
        // I(0)'s Rule 2 target: the virtual edge brings the same value
        // and is relaxed first here, yet the data edge must win.
        let mut result = SimResult::default();
        let trace = &mut result.trace;
        trace.push(events_at([0, 1, 2, 3, 4, 5, 6, 6, 7, 8]), &[], &[]);
        trace.push(events_at([5, 5, 5, 5, 5, 5, 6, 6, 7, 9]), &[], &[0]);
        trace.push(events_at([6, 6, 6, 6, 6, 6, 8, 8, 9, 10]), &[], &[1]);
        trace.cycles = 10;
        assert_matches_explicit(&result);
        let (path, _) = analyze(&result);
        let into_i1 = path.edges.iter().find(|e| e.to == node_id(1, Stage::I));
        assert_eq!(
            into_i1.map(|e| (e.from, e.kind)),
            Some((node_id(0, Stage::I), EdgeKind::Data))
        );
    }

    #[test]
    fn equal_value_in_edges_from_two_sources() {
        let r = simulate(MicroArch::baseline(), &trace_gen::store_load_pairs(2_000));
        let mut deg = assert_matches_explicit(&r);
        let values = explicit_values(&mut deg);
        // Per vertex, the sources of in-edges that bring its final value.
        let mut winners: Vec<Vec<NodeId>> = vec![Vec::new(); deg.node_count()];
        for u in deg.topo_order() {
            for e in deg.out_edges(u) {
                let value = extend(values[u as usize], e.kind, deg.interval(e));
                if value == values[e.to as usize] && value != (0, 0, 0) {
                    winners[e.to as usize].push(u);
                }
            }
        }
        let tied = winners
            .iter()
            .filter(|w| w.iter().any(|&s| s != w[0]))
            .count();
        assert!(tied > 0, "no vertex with tied in-edges");
    }

    #[test]
    fn warm_scratch_from_larger_and_smaller_results() {
        // One thread, so each run starts on the tables of the one before.
        for (n, seed) in [(3_000, 1), (400, 2), (1_500, 3), (1, 4)] {
            let r = simulate(MicroArch::baseline(), &trace_gen::mixed_workload(n, seed));
            assert_matches_explicit(&r);
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = analyze(&SimResult::default());
    }
}
