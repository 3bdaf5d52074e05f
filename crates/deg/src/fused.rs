//! Fused, edge-implicit DEG analysis: [`build_deg`](crate::build_deg),
//! [`induce`](crate::induce), [`critical_path`](crate::critical_path) and
//! [`bottleneck::analyze`] in one pass over a simulation's event record,
//! with the same results.
//!
//! The explicit chain stores every edge of the induced DEG — nine pipeline
//! edges per instruction, the skewed edges, and the Rule 1/2 virtual edges
//! checked against a dedup set of all of them — and indexes the lot by
//! source before Algorithm 1 reads it once. This pass stores only the
//! vertex times, the skewed edges indexed by source, and the tables Rule 1
//! and Rule 2 choose their targets from. Every other edge is generated
//! when Algorithm 1 visits its source.
//!
//! Algorithm 1 updates a vertex only on a strictly greater
//! `(cost, delay, attributed delay)`, so among edges into one vertex the
//! first maximal one in relaxation order becomes its predecessor. This
//! pass relaxes each vertex's out-edges in the order the explicit graph
//! lists them: the pipeline edge, the skewed edges in build order, the
//! Rule 1 targets, the Rule 2 targets, and the exit anchor. Virtual edges
//! that [`induce`](crate::induce) drops as duplicates are relaxed too, and
//! change nothing: each comes after an edge to the same target whose value
//! is at least its own (a virtual edge costs nothing and attributes
//! nothing, and all edges between two vertices span the same delay).

use crate::bottleneck::{attribute_cycles, report_from_cycles, BottleneckReport, NUM_SOURCES};
use crate::build::{skewed_edges, stage_times, window_local};
use crate::critical::{extend, sort_by_time, CriticalPath, Value};
use crate::graph::{locate_node, node_id, Edge, EdgeKind, NodeId, Stage, STAGES_PER_INSTR};
use crate::induced::RULE_FANOUT;
use archx_sim::trace::{Cycle, SimResult};
use std::cell::RefCell;

/// Vertex flag: the source of a skewed edge (a "start").
const START: u8 = 1;
/// Vertex flag: the target of a skewed edge.
const END: u8 = 2;

/// Algorithm 1's state of a vertex: its value and the source and kind of
/// the in-edge that set it, with [`NO_PRED`] as the source while none has.
#[derive(Clone, Copy)]
struct Best {
    value: Value,
    from: NodeId,
    kind: EdgeKind,
}

const NO_PRED: NodeId = NodeId::MAX;

/// The pass's tables. Each is as large as the graph and refilled on every
/// call, so each thread keeps one set and reuses its allocations.
#[derive(Default)]
struct Scratch {
    /// Event time per vertex.
    times: Vec<Cycle>,
    /// Skewed edges in build order.
    skewed: Vec<Edge>,
    /// The out-edges of vertex `u` among the skewed edges are
    /// `by_source[skew_off[u]..skew_off[u + 1]]`, in build order.
    skew_off: Vec<u32>,
    by_source: Vec<(NodeId, EdgeKind)>,
    /// [`START`] and [`END`] bits per vertex.
    flags: Vec<u8>,
    /// Starts in topological key order (Rule 1).
    starts_by_key: Vec<NodeId>,
    /// Starts grouped by instruction, each group in key order (Rule 2):
    /// instruction `i`'s are `starts_by_instr[instr_off[i]..instr_off[i + 1]]`.
    instr_off: Vec<u32>,
    starts_by_instr: Vec<NodeId>,
    /// Per instruction `i`, the first instruction `>= i` with a start, or
    /// the instruction count when there is none.
    next_with_start: Vec<u32>,
    /// Counting-sort buckets.
    counts: Vec<u32>,
    /// All vertices in topological key order.
    order: Vec<NodeId>,
    /// Algorithm 1's state per vertex.
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
            scratch.index_skewed(result);
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

impl Scratch {
    /// Number of instructions.
    fn instrs(&self) -> u32 {
        self.times.len() as u32 / STAGES_PER_INSTR
    }

    /// Fills the vertex times and indexes the skewed edges by source with
    /// a stable counting sort, so each vertex's skewed out-edges stay in
    /// build order.
    fn index_skewed(&mut self, result: &SimResult) {
        let trace = &result.trace;
        let Scratch { times, skewed, .. } = self;
        times.clear();
        skewed.clear();
        let local = window_local(0, trace.len());
        for (j, ev) in trace.events.iter().enumerate() {
            times.extend_from_slice(&stage_times(ev));
            skewed_edges(trace, j, j as u32, &local, |from, to, kind| {
                skewed.push(Edge { from, to, kind })
            });
        }
        // skew_off[u + 2] first counts the out-edges of `u`; the prefix sum
        // turns skew_off[u + 1] into where they begin, and the scatter
        // advances it to where they end, which is where those of `u + 1`
        // begin.
        let v = self.times.len();
        self.skew_off.clear();
        self.skew_off.resize(v + 2, 0);
        for e in &self.skewed {
            self.skew_off[e.from as usize + 2] += 1;
        }
        for u in 0..v {
            self.skew_off[u + 2] += self.skew_off[u + 1];
        }
        self.by_source.clear();
        self.by_source
            .resize(self.skewed.len(), (0, EdgeKind::Virtual));
        for e in &self.skewed {
            let slot = &mut self.skew_off[e.from as usize + 1];
            self.by_source[*slot as usize] = (e.to, e.kind);
            *slot += 1;
        }
    }

    /// Builds the tables Rule 1 and Rule 2 pick their targets from: the
    /// starts per instruction in key order, with the next instruction that
    /// has any, and all starts in key order.
    fn start_tables(&mut self) {
        let n = self.instrs() as usize;
        let Scratch {
            times,
            skewed,
            flags,
            starts_by_key,
            instr_off,
            starts_by_instr,
            next_with_start,
            counts,
            ..
        } = self;
        flags.clear();
        flags.resize(times.len(), 0);
        for e in skewed.iter() {
            flags[e.from as usize] |= START;
            flags[e.to as usize] |= END;
        }
        instr_off.clear();
        starts_by_instr.clear();
        for i in 0..n as u32 {
            let lo = starts_by_instr.len();
            instr_off.push(lo as u32);
            starts_by_instr.extend(
                Stage::ALL
                    .iter()
                    .map(|&s| node_id(i, s))
                    .filter(|&u| flags[u as usize] & START != 0),
            );
            starts_by_instr[lo..].sort_unstable_by_key(|&u| (times[u as usize], u));
        }
        instr_off.push(starts_by_instr.len() as u32);
        // Equal-time starts of one instruction are in id order within its
        // group, so the stable sort leaves every time bucket in id order.
        sort_by_time(
            times,
            starts_by_instr.iter().copied(),
            counts,
            starts_by_key,
        );
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

    /// Algorithm 1 over the implicit induced DEG, then the walk back from
    /// the last instruction's commit.
    fn critical_path(&mut self) -> CriticalPath {
        let n = self.instrs();
        let Scratch {
            times,
            skewed,
            skew_off,
            by_source,
            flags,
            starts_by_key,
            instr_off,
            starts_by_instr,
            next_with_start,
            counts,
            order,
            best,
        } = self;
        let v = times.len();
        sort_by_time(times, 0..v as NodeId, counts, order);
        best.clear();
        best.resize(
            v,
            Best {
                value: (0, 0, 0),
                from: NO_PRED,
                kind: EdgeKind::Virtual,
            },
        );

        let source = node_id(0, Stage::F1);
        let sink = node_id(n - 1, Stage::C);
        let forward = |a: NodeId, b: NodeId| (times[a as usize], a) < (times[b as usize], b);
        // Starts at or before the current vertex in key order: Rule 1's
        // targets begin at starts_by_key[passed].
        let mut passed = 0;
        for &u in order.iter() {
            let here = best[u as usize].value;
            let mut relax = |to: NodeId, kind: EdgeKind| {
                let w = times[to as usize].saturating_sub(times[u as usize]);
                let value = extend(here, kind, w);
                let slot = &mut best[to as usize];
                if value > slot.value {
                    *slot = Best {
                        value,
                        from: u,
                        kind,
                    };
                }
            };
            if u % STAGES_PER_INSTR != Stage::C.rank() as u32 {
                relax(u + 1, EdgeKind::Pipeline);
            }
            let (lo, hi) = (skew_off[u as usize], skew_off[u as usize + 1]);
            for &(to, kind) in &by_source[lo as usize..hi as usize] {
                relax(to, kind);
            }

            let flag = flags[u as usize];
            if flag & START != 0 {
                passed += 1;
            }
            if skewed.is_empty() {
                // A fully parallel window: the one virtual edge links the
                // first fetch to the last commit.
                if u == source && forward(source, sink) {
                    relax(sink, EdgeKind::Virtual);
                }
                continue;
            }
            if flag == 0 && u != source {
                continue;
            }
            // Rule 1: the starts sharing the time of the first start after
            // `u` in key order — all forward.
            let mut onward = false;
            if let Some(&first) = starts_by_key.get(passed) {
                let t0 = times[first as usize];
                for &s in starts_by_key[passed..]
                    .iter()
                    .take(RULE_FANOUT)
                    .take_while(|&&s| times[s as usize] == t0)
                {
                    relax(s, EdgeKind::Virtual);
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
                        relax(s, EdgeKind::Virtual);
                        onward = true;
                    }
                }
            }
            // Exit anchor: a skewed end with no onward connection links to
            // the last commit.
            if flag & END != 0 && !onward && u != sink && forward(u, sink) {
                relax(sink, EdgeKind::Virtual);
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
            assert!(
                edges.len() < v,
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
