//! The induced DEG (paper Section 4.2): virtual edges that connect the
//! "skewed" (inter-instruction) dependence edges so the critical path can
//! chain consecutive resource-usage dependencies.
//!
//! Unlike the prior formulation, the new DEG has **no** serial
//! fetch-to-fetch or commit-to-commit chains — those edges express program
//! order, not resource usage, and would hide resource dependencies from
//! the critical path. Their removal can disconnect the graph, so virtual
//! (zero-cost, non-dependence) edges are added:
//!
//! * **Rule 1 (connect via time):** each skewed-edge endpoint is connected
//!   to the skewed-edge start whose time is closest after it.
//! * **Rule 2 (connect via instruction sequence):** each skewed-edge
//!   endpoint is connected to the skewed-edge start whose instruction
//!   index is closest after its own.
//!
//! Two anchors keep the path spanning the whole window, mirroring the
//! virtual `R(I10)→C(I11)` edge of the paper's Figure 9(b): the first
//! instruction's `F1` connects into the first skewed starts, and skewed
//! ends with no onward connection link to the last instruction's commit.

use crate::graph::{Deg, EdgeKind, NodeId, Stage};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// A cheap multiply-xor hasher for `(NodeId, NodeId)` pairs — the edge
/// dedup set is the hottest structure of the induction pass.
#[derive(Default)]
struct PairHasher(u64);

impl std::hash::Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

type EdgeSet = HashSet<(NodeId, NodeId), BuildHasherDefault<PairHasher>>;

/// Rule 1 and Rule 2 each connect a vertex to at most this many starts.
pub(crate) const RULE_FANOUT: usize = 4;

/// Adds virtual edges to `deg`, producing the induced DEG.
///
/// Statistics of the transformation are available by comparing
/// [`Deg::edge_count`] before and after.
pub fn induce(mut deg: Deg) -> Deg {
    let _timed = archx_telemetry::span("deg/induce");
    let n = deg.instr_count();
    if n == 0 {
        return deg;
    }
    let source = deg.node(0, Stage::F1);
    let sink = deg.node(n - 1, Stage::C);

    // Collect skewed edges (their endpoints).
    let skewed: Vec<(NodeId, NodeId)> = deg
        .edges()
        .iter()
        .filter(|e| e.kind.is_skewed())
        .map(|e| (e.from, e.to))
        .collect();

    if skewed.is_empty() {
        // Fully parallel window: a single virtual edge keeps the graph
        // connected from first fetch to last commit.
        if deg.is_forward(source, sink) {
            deg.add_edge(source, sink, EdgeKind::Virtual);
        }
        return deg;
    }

    // Unique skewed starts, sorted two ways for the two rules.
    let mut starts: Vec<NodeId> = skewed.iter().map(|&(s, _)| s).collect();
    starts.sort_unstable();
    starts.dedup();
    let mut by_key: Vec<NodeId> = starts.clone();
    by_key.sort_by_key(|&s| deg.topo_key(s));
    let keys: Vec<_> = by_key.iter().map(|&s| deg.topo_key(s)).collect();
    let mut by_instr: Vec<NodeId> = starts.clone();
    by_instr.sort_by_key(|&s| (deg.locate(s).0, deg.topo_key(s)));
    let instrs_sorted: Vec<u32> = by_instr.iter().map(|&s| deg.locate(s).0).collect();

    let mut seen: EdgeSet = deg.edges().iter().map(|e| (e.from, e.to)).collect();
    let mut new_edges: Vec<(NodeId, NodeId)> = Vec::new();
    // Returns whether a forward connection exists (freshly added or
    // already present) — the caller uses this to decide sink anchoring.
    let push = |deg: &Deg,
                seen: &mut EdgeSet,
                from: NodeId,
                to: NodeId,
                out: &mut Vec<(NodeId, NodeId)>|
     -> bool {
        if from == to || !deg.is_forward(from, to) {
            return false;
        }
        if seen.insert((from, to)) {
            out.push((from, to));
        }
        true
    };

    // Rule 1: the first start strictly after `node` in topological key
    // order (all starts sharing that minimal time are connected, capped).
    let rule1 = |deg: &Deg, node: NodeId, out: &mut [Option<NodeId>; RULE_FANOUT]| {
        *out = [None; RULE_FANOUT];
        let key = deg.topo_key(node);
        let idx = keys.partition_point(|&k| k <= key);
        if idx >= by_key.len() {
            return;
        }
        let t0 = deg.time(by_key[idx]);
        for (slot, &s) in out.iter_mut().zip(&by_key[idx..]) {
            if deg.time(s) != t0 {
                break;
            }
            *slot = Some(s);
        }
    };
    // Rule 2: the starts on the closest strictly-later instruction.
    let rule2 = |deg: &Deg, node: NodeId, out: &mut [Option<NodeId>; RULE_FANOUT]| {
        *out = [None; RULE_FANOUT];
        let instr = deg.locate(node).0;
        let idx = instrs_sorted.partition_point(|&i| i <= instr);
        if idx >= by_instr.len() {
            return;
        }
        let i0 = instrs_sorted[idx];
        for (slot, (&s, &i)) in out
            .iter_mut()
            .zip(by_instr[idx..].iter().zip(&instrs_sorted[idx..]))
        {
            if i != i0 {
                break;
            }
            *slot = Some(s);
        }
    };

    // Entry anchor: F1 of the first instruction into the earliest starts.
    let mut buf = [None; RULE_FANOUT];
    rule1(&deg, source, &mut buf);
    for t in buf.into_iter().flatten() {
        push(&deg, &mut seen, source, t, &mut new_edges);
    }
    rule2(&deg, source, &mut buf);
    for t in buf.into_iter().flatten() {
        push(&deg, &mut seen, source, t, &mut new_edges);
    }

    for &(s, e) in &skewed {
        let mut connected_onward = false;
        for endpoint in [s, e] {
            rule1(&deg, endpoint, &mut buf);
            for t in buf.into_iter().flatten() {
                let ok = push(&deg, &mut seen, endpoint, t, &mut new_edges);
                connected_onward |= ok && endpoint == e;
            }
            rule2(&deg, endpoint, &mut buf);
            for t in buf.into_iter().flatten() {
                let ok = push(&deg, &mut seen, endpoint, t, &mut new_edges);
                connected_onward |= ok && endpoint == e;
            }
        }
        // Exit anchor: terminal skewed ends connect to the last commit.
        if !connected_onward && e != sink {
            push(&deg, &mut seen, e, sink, &mut new_edges);
        }
    }

    for (from, to) in new_edges {
        deg.add_edge(from, to, EdgeKind::Virtual);
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_deg, validate_deg};
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn induced_of(n: usize) -> Deg {
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(n, 11))
            .expect("simulates");
        induce(build_deg(&r))
    }

    #[test]
    fn induction_only_adds_virtual_edges() {
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(400, 11))
            .expect("simulates");
        let base = build_deg(&r);
        let base_edges = base.edge_count();
        let ind = induce(base.clone());
        assert!(ind.edge_count() >= base_edges);
        let added = &ind.edges()[base_edges..];
        assert!(added.iter().all(|e| e.kind == EdgeKind::Virtual));
        validate_deg(&ind).expect("induced DEG well-formed");
    }

    #[test]
    fn no_duplicate_edges() {
        let g = induced_of(600);
        // Virtual duplicates specifically are forbidden.
        let mut virt = std::collections::HashSet::new();
        for e in g.edges().iter().filter(|e| e.kind == EdgeKind::Virtual) {
            assert!(virt.insert((e.from, e.to)), "duplicate virtual edge");
        }
    }

    #[test]
    fn sink_is_reachable_from_source() {
        let mut g = induced_of(300);
        g.freeze();
        let n = g.instr_count();
        let source = g.node(0, Stage::F1);
        let sink = g.node(n - 1, Stage::C);
        // BFS forward over the DAG.
        let mut reach = vec![false; g.node_count()];
        reach[source as usize] = true;
        for node in g.topo_order() {
            if !reach[node as usize] {
                continue;
            }
            for e in g.out_edges(node) {
                reach[e.to as usize] = true;
            }
        }
        assert!(
            reach[sink as usize],
            "induced DEG must connect F1(I0) to C(In)"
        );
    }

    #[test]
    fn empty_skew_gets_direct_virtual_edge() {
        // A tiny independent trace may produce no skewed edges at all.
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::independent_int_ops(4))
            .expect("simulates");
        let base = build_deg(&r);
        let had_skew = base.edges().iter().any(|e| e.kind.is_skewed());
        let ind = induce(base);
        if !had_skew {
            assert!(ind.edges().iter().any(|e| e.kind == EdgeKind::Virtual));
        }
    }
}
