//! Fused, edge-implicit DEG analysis: [`build_deg`](crate::build_deg),
//! [`induce`](crate::induce), [`critical_path`](crate::critical_path) and
//! [`bottleneck::analyze`](crate::bottleneck::analyze) in one pass over a
//! simulation's event record, with the same results.
//!
//! The explicit chain stores every edge of the induced DEG — nine pipeline
//! edges per instruction, the skewed edges, and the Rule 1/2 virtual edges
//! checked against a dedup set of all of them — and indexes the lot by
//! source before Algorithm 1 reads it once. This pass stores only the
//! stage times and the skewed edges, bit masks of the stages those start
//! and end at per instruction, and per *flagged* vertex — the endpoints
//! of skewed edges, the first fetch and the last commit — a record of its
//! time, flags, skewed in-edges and Algorithm 1 state. Flagged vertices
//! are numbered in id order ("slots"), and Algorithm 1 visits only them.
//! Every other edge is generated when the visit of its target needs it.
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
//! **Pull form.** Each vertex takes all its in-edges when it is visited,
//! in constant work per rule; only the exit anchors into the last commit
//! are pushed. Its pipeline edge comes from the previous slot and its
//! skewed edges from their sources' slots. A virtual edge offers its
//! target `(cost, t − origin, attributed delay)`, with `origin` the
//! source's time less its delay, so of many sources the first visited
//! that maximises `(cost, −origin, attributed delay)` offers every target
//! the most, and wins the tie-break below. Rule 1 keeps that source among
//! the vertices visited since the last start (its *window*); each start
//! stores the window it closes in a ring of the last `RULE_FANOUT`
//! windows closed at its time, and takes the best of the ring: the windows
//! whose Rule 1 targets include it. Rule 2 keeps one such source per
//! instruction with starts (its *accumulator*), which each vertex offers
//! to when visited; the first `RULE_FANOUT` starts of that instruction
//! take it when visited, from exactly the sources before them in key
//! order, the forward ones.
//!
//! **Tie-break.** Algorithm 1 updates a vertex only on a strictly greater
//! `(cost, delay, attributed delay)` and relaxes edges in the topological
//! key order `(time, id)` of their sources. Among equal-value in-edges the
//! one with the smaller source key therefore wins; from one source, the
//! pipeline edge beats the skewed edges, which win in build order, and
//! those beat the virtual edges. This pass applies that rule on every
//! value tie, which frees it to take edges in any order. Virtual edges
//! that [`induce`](crate::induce) drops as duplicates are taken too, and
//! change nothing: each duplicates an edge of the same source to the same
//! target that reaches it with at least its value and wins the tie (a
//! virtual edge costs nothing and attributes nothing, and all edges
//! between two vertices span the same delay).
//!
//! **Bound.** Values are kept in 32 bits, which holds any path of a trace
//! shorter than 2³² cycles: a path's delay is at most the last commit
//! time, and its cost and attributed delay at most its delay.

use crate::bottleneck::{attribute_cycles, report_from_cycles, BottleneckReport, NUM_SOURCES};
use crate::build::{skewed_edges, stage_times, window_local};
use crate::critical::{extend, CriticalPath, Value};
use crate::graph::{locate_node, Edge, EdgeKind, NodeId, Stage, STAGES_PER_INSTR};
use crate::induced::RULE_FANOUT;
use archx_sim::trace::{Cycle, SimResult};
use std::cell::RefCell;
use std::cmp::Reverse;

/// Slot flag: the source of a skewed edge (a "start").
const START: u8 = 1;
/// Slot flag: the target of a skewed edge (an "end").
const END: u8 = 2;
/// Slot flag: one of the first [`RULE_FANOUT`] starts of its instruction,
/// the ones Rule 2 connects to.
const TARGET: u8 = 4;
/// Slot flag: the first flagged vertex of its instruction.
const FIRST: u8 = 8;

/// Algorithm 1's state of a vertex: its value and the source and kind of
/// the in-edge that set it, with [`NO_PRED`] as the source while none has.
#[derive(Clone, Copy)]
struct Best {
    value: Value<u32>,
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

/// A flagged vertex.
#[derive(Clone, Copy)]
struct Slot {
    node: NodeId,
    time: u32,
    /// The time of the vertex before it, the source of its pipeline edge.
    pred_time: u32,
    /// Its skewed in-edges are `in_edges[in_start..][..in_len]`.
    in_start: u32,
    in_len: u16,
    flags: u8,
    best: Best,
}

/// A vertex's state while it is visited: its [`Best`], and the time of
/// that in-edge's source, which settles ties.
#[derive(Clone, Copy)]
struct Pull {
    best: Best,
    from_time: u32,
}

impl Pull {
    const NONE: Pull = Pull {
        best: Best::NONE,
        from_time: 0,
    };

    /// Offers the in-edge `from → ·` of `kind`, whose source is at
    /// `from_time`, which reaches the vertex with `value`. It wins on a
    /// greater value, and on an equal one when the explicit graph would
    /// have relaxed it first: sources in key order, and from one source the
    /// pipeline edge, the skewed edges, then the virtual edges.
    fn offer(&mut self, value: Value<u32>, from: NodeId, from_time: u32, kind: EdgeKind) {
        let kind_rank = |kind| match kind {
            EdgeKind::Pipeline => 0,
            EdgeKind::Virtual => 2,
            _ => 1,
        };
        let held = &self.best;
        if value > held.value
            || (value == held.value
                && held.from != NO_PRED
                && (from_time, from, kind_rank(kind))
                    < (self.from_time, held.from, kind_rank(held.kind)))
        {
            *self = Pull {
                best: Best { value, from, kind },
                from_time,
            };
        }
    }
}

/// A source of virtual edges, kept by Rule 1 windows and Rule 2
/// accumulators: its vertex and time, cost, origin (time less delay) and
/// attributed delay, or [`NO_PRED`] as the vertex while there is none.
#[derive(Clone, Copy)]
struct Source {
    from: NodeId,
    time: u32,
    cost: u32,
    origin: u32,
    attr: u32,
}

impl Source {
    /// No source, ranked below all: a source of that rank offers only
    /// zero values, which win nothing.
    const NONE: Source = Source {
        from: NO_PRED,
        time: 0,
        cost: 0,
        origin: u32::MAX,
        attr: 0,
    };

    /// The order in which sources offer any target more.
    fn rank(self) -> (u32, Reverse<u32>, u32) {
        (self.cost, Reverse(self.origin), self.attr)
    }

    /// Takes `other` if it offers more; on a tie the one held stays.
    fn keep(&mut self, other: Source) {
        if other.rank() > self.rank() {
            *self = other;
        }
    }

    /// Offers the virtual edge from this source to a vertex at time `t`.
    fn offer_to(self, pull: &mut Pull, t: u32) {
        if self.from != NO_PRED {
            let value = (self.cost, t - self.origin, self.attr);
            pull.offer(value, self.from, self.time, EdgeKind::Virtual);
        }
    }
}

/// The pass's tables. Each is refilled on every call, so each thread
/// keeps one set and reuses its allocations.
#[derive(Default)]
struct Scratch {
    /// Skewed edges grouped by target vertex, in build order within each
    /// group.
    skewed: Vec<Edge>,
    /// Per instruction, bit masks of its stages that start and that end
    /// skewed edges, and of all its flagged stages.
    starts: Vec<u16>,
    ends: Vec<u16>,
    masks: Vec<u16>,
    /// Per instruction, its stage times.
    times: Vec<[u32; STAGES_PER_INSTR as usize]>,
    /// The latest commit time, which is the latest event time since stage
    /// times rise within an instruction.
    last_commit: Cycle,
    /// Per instruction, its first slot: instruction `i`'s flagged vertices
    /// are `slots[slot_off[i]..slot_off[i + 1]]`.
    slot_off: Vec<u32>,
    slots: Vec<Slot>,
    /// `skewed` as (source slot, kind).
    in_edges: Vec<(u32, EdgeKind)>,
    /// Number of starts.
    start_count: usize,
    /// Slots in topological key order: Algorithm 1's visits.
    order: Vec<u32>,
    /// Counting-sort buckets.
    counts: Vec<u32>,
    /// Per instruction `i`, the first instruction `>= i` with a start, or
    /// the instruction count when there is none.
    next_with_start: Vec<u32>,
    /// Per instruction, its Rule 2 accumulator.
    acc: Vec<Source>,
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
/// Panics on an empty trace, and on a trace of 2³² cycles or more or
/// whose last commit is that late.
pub fn analyze(result: &SimResult) -> (CriticalPath, BottleneckReport) {
    let trace = &result.trace;
    assert!(!trace.events.is_empty(), "empty trace");
    assert!(trace.cycles <= u32::MAX as Cycle, "2^32 cycles or more");
    SCRATCH.with_borrow_mut(|scratch| {
        {
            let _timed = archx_telemetry::span("deg/build");
            scratch.build(result);
        }
        {
            let _timed = archx_telemetry::span("deg/induce");
            scratch.tables();
        }
        let path = {
            let _timed = archx_telemetry::span("deg/critical");
            scratch.critical_path()
        };
        let mut cycles = [0u64; NUM_SOURCES];
        for e in &path.edges {
            let w = time_of(&scratch.times, e.to).saturating_sub(time_of(&scratch.times, e.from));
            attribute_cycles(locate_node(e.from).1, e.kind, w.into(), &mut cycles);
        }
        let report = report_from_cycles(&cycles, path.total_delay);
        (path, report)
    })
}

/// The time of any vertex.
fn time_of(times: &[[u32; STAGES_PER_INSTR as usize]], v: NodeId) -> u32 {
    let (i, stage) = locate_node(v);
    times[i as usize][stage.rank() as usize]
}

/// The slot of flagged vertex `v`: its instruction's first slot plus the
/// flagged stages before it.
fn slot_of(slot_off: &[u32], masks: &[u16], v: NodeId) -> usize {
    let (i, stage) = locate_node(v);
    let below = masks[i as usize] & ((1 << stage.rank()) - 1);
    (slot_off[i as usize] + below.count_ones()) as usize
}

impl Scratch {
    /// Fills the stage times, the skewed edges grouped by target vertex,
    /// and the masks of the stages those start and end at.
    fn build(&mut self, result: &SimResult) {
        let trace = &result.trace;
        let n = trace.len();
        let Scratch {
            skewed,
            starts,
            ends,
            last_commit,
            times,
            ..
        } = self;
        times.clear();
        skewed.clear();
        starts.clear();
        starts.resize(n, 0);
        ends.clear();
        ends.resize(n, 0);
        *last_commit = 0;
        let local = window_local(0, n);
        for (j, ev) in trace.events.iter().enumerate() {
            *last_commit = (*last_commit).max(ev.c);
            times.push(stage_times(ev).map(|t| t as u32));
            let first = skewed.len();
            skewed_edges(trace, j, j as u32, &local, |from, to, kind| {
                skewed.push(Edge { from, to, kind })
            });
            for k in first..skewed.len() {
                let Edge { from, to, .. } = skewed[k];
                starts[(from / STAGES_PER_INSTR) as usize] |= 1 << (from % STAGES_PER_INSTR);
                ends[j] |= 1 << (to % STAGES_PER_INSTR);
                // Build order is target order but for the squash edge into
                // the fetch, which may follow the edge into F: one swap
                // groups them by target, in build order within each group.
                if k > first && skewed[k - 1].to > to {
                    skewed.swap(k - 1, k);
                }
            }
            debug_assert!(skewed[first..].is_sorted_by_key(|e| e.to));
        }
        assert!(*last_commit <= u32::MAX as Cycle, "2^32 cycles or more");
    }

    /// Numbers the flagged vertices into slots with their times, flags,
    /// starting states and skewed in-edges, sorts them into Algorithm 1's
    /// visiting order, and resets the Rule 2 accumulators with the table
    /// that finds them.
    fn tables(&mut self) {
        let n = self.times.len();
        let Scratch {
            skewed,
            starts,
            ends,
            masks,
            last_commit,
            slot_off,
            slots,
            in_edges,
            start_count,
            order,
            counts,
            next_with_start,
            acc,
            times,
        } = self;
        masks.clear();
        slot_off.clear();
        slots.clear();
        counts.clear();
        counts.resize(*last_commit as usize + 1, 0);
        *start_count = 0;
        // The next skewed edge, in target order.
        let mut edge = 0;
        for (i, times) in times.iter().enumerate() {
            let mut mask = starts[i] | ends[i];
            if i == 0 {
                mask |= 1 << Stage::F1.rank();
            }
            if i == n - 1 {
                mask |= 1 << Stage::C.rank();
            }
            masks.push(mask);
            slot_off.push(slots.len() as u32);
            // Stage times rise within an instruction, so its vertices in id
            // order are in key order and each pipeline run spans the time
            // between its ends.
            debug_assert!(times.windows(2).all(|w| w[0] <= w[1]));
            let fetch = i as u32 * STAGES_PER_INSTR;
            let mut flags = FIRST;
            let mut targets = 0;
            let mut rest = mask;
            while rest != 0 {
                let stage = rest.trailing_zeros();
                rest &= rest - 1;
                let (node, time) = (fetch + stage, times[stage as usize]);
                let pred_time = times[stage.saturating_sub(1) as usize];
                let start = (starts[i] >> stage & 1) as u8;
                let end = (ends[i] >> stage & 1) as u8;
                let target = start & (targets < RULE_FANOUT) as u8;
                targets += target as usize;
                *start_count += start as usize;
                flags |= (start * START) | (end * END) | (target * TARGET);
                let in_start = edge;
                while edge < skewed.len() && skewed[edge].to == node {
                    edge += 1;
                }
                // The first flagged vertex starts from the fetch over the
                // pipeline edges; the rest start empty.
                let w = time - times[0];
                let best = if flags & FIRST != 0 && w > 0 {
                    Best {
                        value: (0, w, w),
                        from: node - 1,
                        kind: EdgeKind::Pipeline,
                    }
                } else {
                    Best::NONE
                };
                counts[time as usize] += 1;
                slots.push(Slot {
                    node,
                    time,
                    pred_time,
                    in_start: in_start as u32,
                    in_len: u16::try_from(edge - in_start).expect("skewed in-edges per vertex"),
                    flags,
                    best,
                });
                flags = 0;
            }
        }
        debug_assert_eq!(edge, skewed.len());
        slot_off.push(slots.len() as u32);
        in_edges.clear();
        in_edges.extend(
            skewed
                .iter()
                .map(|e| (slot_of(slot_off, masks, e.from) as u32, e.kind)),
        );

        // A stable counting sort by time: slots come in id order, so equal
        // times stay in id order.
        let mut before = 0;
        for c in counts.iter_mut() {
            (*c, before) = (before, before + *c);
        }
        order.clear();
        order.resize(slots.len(), 0);
        for (k, slot) in slots.iter().enumerate() {
            let at = &mut counts[slot.time as usize];
            order[*at as usize] = k as u32;
            *at += 1;
        }

        next_with_start.clear();
        next_with_start.resize(n + 1, n as u32);
        for i in (0..n).rev() {
            next_with_start[i] = if starts[i] != 0 {
                i as u32
            } else {
                next_with_start[i + 1]
            };
        }
        acc.clear();
        acc.resize(n, Source::NONE);
    }

    /// Algorithm 1 over the flagged vertices of the implicit induced DEG,
    /// then the walk back from the last instruction's commit.
    fn critical_path(&mut self) -> CriticalPath {
        let Scratch {
            skewed,
            starts,
            masks,
            slot_off,
            slots,
            in_edges,
            start_count,
            order,
            next_with_start,
            acc,
            times,
            ..
        } = self;
        let n = masks.len() as u32;
        let sink = slots.len() - 1;
        let sink_time = slots[sink].time;
        // Starts visited so far.
        let mut passed = 0;
        // The open Rule 1 window, and the windows closed by the last
        // `RULE_FANOUT` of the `ring_len` starts at `ring_time`.
        let mut window = Source::NONE;
        let mut ring = [Source::NONE; RULE_FANOUT];
        let (mut ring_len, mut ring_time) = (0, 0);
        // The exit anchors' offers to the last commit.
        let mut exit = Pull::NONE;
        for &k in order.iter() {
            let k = k as usize;
            let slot = slots[k];
            let (v, t, flags) = (slot.node, slot.time, slot.flags);
            let i = v / STAGES_PER_INSTR;
            let mut here = Pull {
                best: slot.best,
                from_time: slot.pred_time,
            };
            if flags & FIRST == 0 {
                let pred = &slots[k - 1];
                let value = extend(pred.best.value, EdgeKind::Pipeline, t - pred.time);
                here.offer(value, v - 1, slot.pred_time, EdgeKind::Pipeline);
            }
            if flags & START != 0 {
                // Rule 1: the window this start closes reaches it and the
                // next starts at its time, up to `RULE_FANOUT` of them.
                if t != ring_time {
                    ring_len = 0;
                    ring_time = t;
                }
                ring[ring_len % RULE_FANOUT] = std::mem::replace(&mut window, Source::NONE);
                ring_len += 1;
                // Oldest first, so that the first visited wins ties.
                let live = ring_len.min(RULE_FANOUT);
                let mut held = Source::NONE;
                for j in ring_len - live..ring_len {
                    held.keep(ring[j % RULE_FANOUT]);
                }
                held.offer_to(&mut here, t);
                passed += 1;
                // Rule 2: the first starts of an instruction take its
                // accumulator.
                if flags & TARGET != 0 {
                    acc[i as usize].offer_to(&mut here, t);
                }
            }
            let in_edges = &in_edges[slot.in_start as usize..][..slot.in_len as usize];
            for &(from, kind) in in_edges {
                let source = &slots[from as usize];
                let value = extend(source.best.value, kind, t - source.time);
                here.offer(value, source.node, source.time, kind);
            }
            if k == sink {
                here.offer(
                    exit.best.value,
                    exit.best.from,
                    exit.from_time,
                    exit.best.kind,
                );
            }
            slots[k].best = here.best;

            if skewed.is_empty() {
                // A fully parallel window: the one virtual edge links the
                // first fetch to the last commit.
                if k == 0 && (t, k) < (sink_time, sink) {
                    let value = extend(here.best.value, EdgeKind::Virtual, sink_time - t);
                    exit.offer(value, v, t, EdgeKind::Virtual);
                }
                continue;
            }
            if flags & (START | END) == 0 && k != 0 {
                continue;
            }
            let (cost, delay, attr) = here.best.value;
            let offered = Source {
                from: v,
                time: t,
                cost,
                origin: t - delay,
                attr,
            };
            // Rule 1: the starts sharing the time of the first start after
            // `v` in key order — all forward.
            let mut onward = false;
            if passed < *start_count {
                window.keep(offered);
                onward = true;
            }
            // Rule 2: the first starts of the closest later instruction
            // that has any; those after `v` take it.
            let next = next_with_start[i as usize + 1];
            if next < n {
                acc[next as usize].keep(offered);
                if !onward && flags & END != 0 {
                    let mut targets = starts[next as usize];
                    for _ in 1..RULE_FANOUT.min(targets.count_ones() as usize) {
                        targets &= targets - 1;
                    }
                    let last = next * STAGES_PER_INSTR + targets.trailing_zeros();
                    let last = slot_of(slot_off, masks, last);
                    onward = (t, k) < (slots[last].time, last);
                }
            }
            // Exit anchor: a skewed end with no onward connection links to
            // the last commit.
            if flags & END != 0 && !onward && (t, k) < (sink_time, sink) {
                let value = extend(here.best.value, EdgeKind::Virtual, sink_time - t);
                exit.offer(value, v, t, EdgeKind::Virtual);
            }
        }

        let flagged =
            |v: NodeId| masks[(v / STAGES_PER_INSTR) as usize] >> (v % STAGES_PER_INSTR) & 1 != 0;
        let mut edges = Vec::new();
        let mut cur = slots[sink].node;
        loop {
            let Best { from, kind, .. } = slots[slot_of(slot_off, masks, cur)].best;
            if from == NO_PRED {
                break;
            }
            edges.push(Edge {
                from,
                to: cur,
                kind,
            });
            cur = from;
            if !flagged(cur) {
                // Inside a contracted run: its base is the previous flagged
                // vertex of the instruction, or else the fetch with value
                // zero. Each vertex after the base has its pipeline
                // predecessor while its value, the base's plus the interval
                // since, is above zero.
                let fetch = cur - cur % STAGES_PER_INSTR;
                let below = masks[(cur / STAGES_PER_INSTR) as usize] & ((1 << (cur - fetch)) - 1);
                let (base, base_value) = if below == 0 {
                    (fetch, (0, 0, 0))
                } else {
                    let base = fetch + below.ilog2();
                    (base, slots[slot_of(slot_off, masks, base)].best.value)
                };
                while cur != base
                    && (base_value != (0, 0, 0) || time_of(times, cur) > time_of(times, base))
                {
                    edges.push(Edge {
                        from: cur - 1,
                        to: cur,
                        kind: EdgeKind::Pipeline,
                    });
                    cur -= 1;
                }
                if !flagged(cur) {
                    break;
                }
            }
            assert!(
                edges.len() < (n * STAGES_PER_INSTR) as usize,
                "cycle in DEG predecessor chain — a non-forward edge slipped in"
            );
        }
        edges.reverse();
        let (cost, total_delay, _) = slots[sink].best.value;
        CriticalPath {
            edges,
            cost: cost.into(),
            total_delay: total_delay.into(),
            start: cur,
            end: slots[sink].node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottleneck;
    use crate::build::build_deg;
    use crate::critical::critical_path;
    use crate::graph::node_id;
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

    fn has_edge(deg: &crate::Deg, from: NodeId, to: NodeId) -> bool {
        deg.edges().iter().any(|e| e.from == from && e.to == to)
    }

    #[test]
    fn rule2_targets_pull_only_sources_before_them() {
        // Instruction 2 starts five skewed edges into instruction 3, from
        // F, R, I, M and P, so its first four starts are Rule 2 targets of
        // the instructions before it and P(2) is not. I(1), an end, is
        // visited between R(2) and I(2): I(2) and M(2) take it, F(2) and
        // R(2) do not, and P(2) gets nothing from Rule 2.
        use archx_sim::trace::{RenameStall, ResourceKind};
        let mut result = SimResult::default();
        let trace = &mut result.trace;
        trace.push(events_at([0, 1, 2, 3, 4, 5, 6, 6, 7, 8]), &[], &[]);
        trace.push(events_at([1, 2, 3, 4, 5, 6, 9, 9, 10, 11]), &[], &[0]);
        trace.push(events_at([2, 3, 4, 5, 6, 7, 12, 13, 15, 16]), &[], &[]);
        let mut last = events_at([16, 17, 18, 19, 20, 21, 22, 23, 24, 25]);
        last.fetch_bw_from = Some(2);
        last.refill_from = Some(2);
        last.mem_dep_violation = Some(2);
        let stall = RenameStall {
            resource: ResourceKind::Rob,
            releaser: 2,
        };
        trace.push(last, &[stall], &[2]);
        trace.cycles = 25;
        let deg = assert_matches_explicit(&result);
        let i1 = node_id(1, Stage::I);
        for stage in [Stage::F, Stage::R, Stage::I, Stage::M, Stage::P] {
            assert!(
                deg.edges()
                    .iter()
                    .any(|e| e.kind.is_skewed() && e.from == node_id(2, stage)),
                "{stage} of instruction 2 starts no skewed edge"
            );
        }
        assert!(has_edge(&deg, i1, node_id(2, Stage::M)));
        assert!(!has_edge(&deg, i1, node_id(2, Stage::R)));
        assert!(!has_edge(&deg, i1, node_id(2, Stage::P)));
    }

    #[test]
    fn rule2_skips_the_fifth_start() {
        // Instruction 2 starts five skewed edges at time 10, from F, R, I, M
        // and P; I(1), also at 10, carries a costly unit wait. Rule 1 and
        // Rule 2 both connect I(1) to the first four of those starts only.
        // P(2), the fifth, takes the equal value of F(2)'s window, and its
        // squash edge into the last instruction puts it on the path.
        use archx_sim::trace::{FuKind, FuWait, RenameStall, ResourceKind};
        let mut result = SimResult::default();
        let trace = &mut result.trace;
        trace.push(events_at([0, 1, 2, 3, 4, 5, 6, 6, 7, 8]), &[], &[]);
        let mut waits = events_at([1, 2, 3, 4, 5, 6, 10, 10, 11, 12]);
        waits.fu_wait = Some(FuWait {
            fu: FuKind::IntMultDiv,
            releaser: 0,
        });
        trace.push(waits, &[], &[]);
        trace.push(events_at([2, 3, 10, 10, 10, 10, 10, 10, 10, 13]), &[], &[]);
        let mut consumer = events_at([11, 12, 13, 14, 15, 16, 17, 18, 19, 20]);
        consumer.fetch_bw_from = Some(2);
        consumer.mem_dep_violation = Some(2);
        let stall = RenameStall {
            resource: ResourceKind::Rob,
            releaser: 2,
        };
        trace.push(consumer, &[stall], &[1, 2]);
        let mut refilled = events_at([30, 31, 32, 33, 34, 35, 36, 37, 38, 40]);
        refilled.refill_from = Some(2);
        trace.push(refilled, &[], &[]);
        trace.cycles = 40;
        let deg = assert_matches_explicit(&result);
        let i1 = node_id(1, Stage::I);
        for stage in [Stage::F, Stage::R, Stage::I, Stage::M] {
            assert!(has_edge(&deg, i1, node_id(2, stage)), "I(1) → {stage}(2)");
        }
        assert!(!has_edge(&deg, i1, node_id(2, Stage::P)));
        let (path, _) = analyze(&result);
        let into_p2 = path.edges.iter().find(|e| e.to == node_id(2, Stage::P));
        assert_eq!(
            into_p2.map(|e| (e.from, e.kind)),
            Some((node_id(2, Stage::F), EdgeKind::Virtual))
        );
    }

    #[test]
    fn rule1_window_reaches_exactly_three_more_starts() {
        // Instructions 1–6 all issue at 20, so their six I vertices are
        // starts of one time: 1–5 feed instruction 7 and 6 feeds
        // instruction 8, the last. I(1) waited on a unit I(0) held, a
        // costly edge. The window I(1) is in closes at I(2) and reaches
        // I(2) and the next three starts, I(3)–I(5), but not I(6), which
        // takes the equal value of I(2)'s window: the path enters I(6)
        // from I(2).
        let mut result = SimResult::default();
        let trace = &mut result.trace;
        trace.push(events_at([0, 1, 2, 3, 4, 5, 6, 6, 9, 10]), &[], &[]);
        for k in 1..=6 {
            let mut ev = events_at([1, 2, 3, 4, 5, 6, 20, 20, 21, 22 + k]);
            if k == 1 {
                ev.fu_wait = Some(archx_sim::trace::FuWait {
                    fu: archx_sim::trace::FuKind::IntMultDiv,
                    releaser: 0,
                });
            }
            trace.push(ev, &[], &[]);
        }
        let consumer = events_at([2, 3, 4, 5, 6, 7, 30, 30, 31, 40]);
        trace.push(consumer, &[], &[1, 2, 3, 4, 5]);
        let last = events_at([3, 4, 5, 6, 7, 8, 32, 32, 33, 41]);
        trace.push(last, &[], &[6]);
        trace.cycles = 41;
        let deg = assert_matches_explicit(&result);
        let i1 = node_id(1, Stage::I);
        for k in 2..=5 {
            assert!(has_edge(&deg, i1, node_id(k, Stage::I)), "I(1) → I({k})");
        }
        assert!(!has_edge(&deg, i1, node_id(6, Stage::I)));
        let (path, _) = analyze(&result);
        let into_i6 = path.edges.iter().find(|e| e.to == node_id(6, Stage::I));
        assert_eq!(
            into_i6.map(|e| (e.from, e.kind)),
            Some((node_id(2, Stage::I), EdgeKind::Virtual))
        );
    }

    #[test]
    fn fu_edge_from_younger_instruction() {
        // Instruction 2 issues first, on the divider that instruction 1
        // then waits for: a skewed edge from a higher id to a lower one,
        // whose cost puts it on the path.
        let mut result = SimResult::default();
        let trace = &mut result.trace;
        trace.push(events_at([0, 1, 2, 3, 4, 5, 6, 6, 7, 8]), &[], &[]);
        let mut older = events_at([1, 2, 3, 4, 5, 6, 20, 20, 25, 26]);
        older.fu_wait = Some(archx_sim::trace::FuWait {
            fu: archx_sim::trace::FuKind::IntMultDiv,
            releaser: 2,
        });
        trace.push(older, &[], &[]);
        trace.push(events_at([1, 2, 3, 4, 5, 6, 10, 10, 19, 27]), &[], &[]);
        trace.cycles = 27;
        assert_matches_explicit(&result);
        let (path, _) = analyze(&result);
        let fu = Edge {
            from: node_id(2, Stage::I),
            to: node_id(1, Stage::I),
            kind: EdgeKind::Fu(archx_sim::trace::FuKind::IntMultDiv),
        };
        assert!(path.edges.contains(&fu), "{:?}", path.edges);
        assert_eq!(path.cost, 10);
    }

    #[test]
    #[should_panic(expected = "2^32 cycles or more")]
    fn trace_of_2_pow_32_cycles_panics() {
        let mut result = SimResult::default();
        let end = 1 << 32;
        result
            .trace
            .push(events_at([0, 1, 2, 3, 4, 5, 6, 6, 7, end]), &[], &[]);
        result.trace.cycles = end;
        let _ = analyze(&result);
    }
}
