//! Typed DAG storage for event-dependence graphs.
//!
//! Vertices are `(instruction, stage)` pairs carrying their measured event
//! time (the paper's two-dimensional coordinate system of Figure 7: X =
//! time, Y = instruction sequence). Edge weights are *implicit*: the weight
//! of an edge is the time interval between its endpoints, read off the
//! vertex times — exactly the paper's "dynamic time intervals between two
//! vertices".

use archx_sim::trace::{Cycle, FuKind, InstrIdx, ResourceKind};
use std::fmt;

/// Vertex identifier.
pub type NodeId = u32;

/// Pipeline stages of the new DEG formulation (Figure 7).
///
/// `M` exists for every instruction to keep the vertex layout uniform; for
/// non-memory instructions its time equals the issue time, making the
/// `I→M` edge a zero-interval pipeline edge (the paper's `I(i)→P(i)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// I-cache request.
    F1,
    /// I-cache response.
    F2,
    /// Enter fetch queue.
    F,
    /// Decode.
    Dc,
    /// Rename (resources granted).
    R,
    /// Dispatch into the issue queue.
    Dp,
    /// Issue.
    I,
    /// Memory access begins (= issue for non-memory ops).
    M,
    /// Complete / writeback.
    P,
    /// Commit.
    C,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::F1,
        Stage::F2,
        Stage::F,
        Stage::Dc,
        Stage::R,
        Stage::Dp,
        Stage::I,
        Stage::M,
        Stage::P,
        Stage::C,
    ];

    /// Rank within an instruction's pipeline chain.
    pub fn rank(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::F1 => "F1",
            Stage::F2 => "F2",
            Stage::F => "F",
            Stage::Dc => "DC",
            Stage::R => "R",
            Stage::Dp => "DP",
            Stage::I => "I",
            Stage::M => "M",
            Stage::P => "P",
            Stage::C => "C",
        };
        f.write_str(s)
    }
}

/// Number of vertices per instruction (fixed layout).
pub const STAGES_PER_INSTR: u32 = 10;

/// The vertex of `(instr, stage)` in the fixed layout: ids are
/// instruction-major, stage-minor, so they order `(instruction, stage)`
/// lexicographically.
pub(crate) fn node_id(instr: InstrIdx, stage: Stage) -> NodeId {
    instr * STAGES_PER_INSTR + stage.rank() as u32
}

/// Inverse of [`node_id`].
pub(crate) fn locate_node(node: NodeId) -> (InstrIdx, Stage) {
    let instr = node / STAGES_PER_INSTR;
    let stage = Stage::ALL[(node % STAGES_PER_INSTR) as usize];
    (instr, stage)
}

/// Edge types of the new DEG formulation (Table 2) plus the induced DEG's
/// virtual edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Horizontal pipeline dependence within one instruction.
    Pipeline,
    /// Branch / memory-dependence misprediction squash (`P(i)→F1(j)`).
    Mispredict,
    /// Hardware resource usage dependence (`R(i)→R(j)`).
    Resource(ResourceKind),
    /// Functional-unit usage dependence (`I(i)→I(j)`).
    Fu(FuKind),
    /// True data dependence (`I(i)→I(j)`).
    Data,
    /// Fetch-buffer slot dependence (`F(i)→F1(j)`): the new fetch block's
    /// I-cache access waited for instruction `i` to vacate the buffer.
    FetchSlot,
    /// Fetch bandwidth / fetch-queue dependence (`F(i)→F(j)`): `j` sat
    /// ready in the fetch buffer while the front end drained `i`.
    FetchBw,
    /// Memory-address-dependence misprediction (`M(i)→C(j)`): store `i`'s
    /// resolved address invalidated speculative load `j`, whose commit
    /// waited for the replay.
    MemDep,
    /// Virtual edge of the induced DEG (not a true dependence).
    Virtual,
}

impl EdgeKind {
    /// "Skewed" edges denote interactions between instructions (everything
    /// except pipeline and virtual edges).
    pub fn is_skewed(self) -> bool {
        matches!(
            self,
            EdgeKind::Mispredict
                | EdgeKind::Resource(_)
                | EdgeKind::Fu(_)
                | EdgeKind::Data
                | EdgeKind::FetchSlot
                | EdgeKind::FetchBw
                | EdgeKind::MemDep
        )
    }

    /// Edge cost for Algorithm 1: horizontal, virtual and true-data edges
    /// cost zero; other skewed edges cost their time interval.
    pub fn has_cost(self) -> bool {
        matches!(
            self,
            EdgeKind::Mispredict | EdgeKind::Resource(_) | EdgeKind::Fu(_) | EdgeKind::MemDep
        )
    }
}

/// A directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source vertex.
    pub from: NodeId,
    /// Destination vertex.
    pub to: NodeId,
    /// Dependence type.
    pub kind: EdgeKind,
}

/// An event-dependence graph over a fixed instruction window.
///
/// Construction: [`Deg::new`] fixes the vertex set (10 stages per
/// instruction with their event times); [`Deg::add_edge`] appends edges
/// (which must go forward in the topological key order); analysis passes
/// then use [`Deg::topo_order`] and [`Deg::out_edges`].
#[derive(Debug, Clone, PartialEq)]
pub struct Deg {
    /// Event time per vertex, indexed by `NodeId`.
    times: Vec<Cycle>,
    /// Edge list.
    edges: Vec<Edge>,
    /// Number of instructions in the window.
    instrs: u32,
    /// CSR over outgoing edges, built lazily by `freeze`.
    csr_starts: Vec<u32>,
    /// Edge indices sorted by source, aligned with `csr_starts`.
    csr_edges: Vec<u32>,
}

impl Deg {
    /// Creates a graph over `instrs` instructions with all vertex times.
    ///
    /// `times` must contain exactly `instrs × 10` entries in instruction-
    /// major, stage-minor order.
    ///
    /// # Panics
    ///
    /// Panics when the time vector has the wrong length.
    pub fn new(instrs: u32, times: Vec<Cycle>) -> Self {
        assert_eq!(
            times.len(),
            (instrs * STAGES_PER_INSTR) as usize,
            "expected {} vertex times",
            instrs * STAGES_PER_INSTR
        );
        Deg {
            times,
            edges: Vec::new(),
            instrs,
            csr_starts: Vec::new(),
            csr_edges: Vec::new(),
        }
    }

    /// Number of instructions covered.
    pub fn instr_count(&self) -> u32 {
        self.instrs
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.times.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The vertex for `(instr, stage)`.
    pub fn node(&self, instr: InstrIdx, stage: Stage) -> NodeId {
        debug_assert!(instr < self.instrs);
        node_id(instr, stage)
    }

    /// Inverse of [`Deg::node`].
    pub fn locate(&self, node: NodeId) -> (InstrIdx, Stage) {
        locate_node(node)
    }

    /// Event time of a vertex.
    pub fn time(&self, node: NodeId) -> Cycle {
        self.times[node as usize]
    }

    /// Event times of all vertices, indexed by `NodeId`.
    pub(crate) fn times(&self) -> &[Cycle] {
        &self.times
    }

    /// Measured interval (edge weight) of an edge.
    pub fn interval(&self, edge: &Edge) -> Cycle {
        self.time(edge.to).saturating_sub(self.time(edge.from))
    }

    /// Topological sort key: `(time, instruction, stage)` — every edge of a
    /// well-formed DEG strictly increases this key.
    pub fn topo_key(&self, node: NodeId) -> (Cycle, InstrIdx, u8) {
        let (instr, stage) = self.locate(node);
        (self.time(node), instr, stage.rank())
    }

    /// Whether an edge respects the topological key order.
    pub fn is_forward(&self, from: NodeId, to: NodeId) -> bool {
        self.topo_key(from) < self.topo_key(to)
    }

    /// Adds an edge.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the edge does not go forward in topological
    /// key order — such an edge would create a cycle or a negative weight.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        debug_assert!(
            self.is_forward(from, to),
            "edge {:?}->{:?} ({kind:?}) is not forward",
            self.locate(from),
            self.locate(to),
        );
        self.csr_starts.clear();
        self.csr_edges.clear();
        self.edges.push(Edge { from, to, kind });
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Vertices sorted topologically (by `(time, instruction, stage)`).
    ///
    /// Node ids already encode `(instruction, stage)` lexicographically,
    /// so sorting by `(time, id)` yields the full key order.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.node_count() as NodeId).collect();
        order.sort_unstable_by_key(|&id| (self.time(id), id));
        order
    }

    /// Builds (if needed) and returns CSR access to outgoing edges.
    pub fn freeze(&mut self) {
        if !self.csr_starts.is_empty() {
            return;
        }
        let n = self.node_count();
        let mut starts = vec![0u32; n + 1];
        for e in &self.edges {
            starts[e.from as usize + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut slots = starts.clone();
        let mut csr = vec![0u32; self.edges.len()];
        for (idx, e) in self.edges.iter().enumerate() {
            csr[slots[e.from as usize] as usize] = idx as u32;
            slots[e.from as usize] += 1;
        }
        self.csr_starts = starts;
        self.csr_edges = csr;
    }

    /// Outgoing edge indices of `node` (requires a prior [`Deg::freeze`]).
    ///
    /// # Panics
    ///
    /// Panics if the CSR has not been built.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        assert!(
            !self.csr_starts.is_empty(),
            "call freeze() before out_edges()"
        );
        let lo = self.csr_starts[node as usize] as usize;
        let hi = self.csr_starts[node as usize + 1] as usize;
        self.csr_edges[lo..hi]
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> Deg {
        // Two instructions; strictly increasing times per stage.
        let times: Vec<Cycle> = (0..20).map(|i| (i / 2) as Cycle).collect();
        Deg::new(2, times)
    }

    #[test]
    fn node_locate_roundtrip() {
        let g = tiny_graph();
        for instr in 0..2 {
            for stage in Stage::ALL {
                let n = g.node(instr, stage);
                assert_eq!(g.locate(n), (instr, stage));
            }
        }
    }

    #[test]
    fn interval_is_time_difference() {
        let mut g = tiny_graph();
        let a = g.node(0, Stage::F1);
        let b = g.node(0, Stage::C);
        g.add_edge(a, b, EdgeKind::Pipeline);
        let e = g.edges()[0];
        assert_eq!(g.interval(&e), g.time(b) - g.time(a));
    }

    #[test]
    fn csr_matches_edge_list() {
        let mut g = tiny_graph();
        let f1 = g.node(0, Stage::F1);
        let f2 = g.node(0, Stage::F2);
        let c = g.node(1, Stage::C);
        g.add_edge(f1, f2, EdgeKind::Pipeline);
        g.add_edge(f1, c, EdgeKind::Virtual);
        g.freeze();
        let outs: Vec<_> = g.out_edges(f1).map(|e| e.to).collect();
        assert_eq!(outs.len(), 2);
        assert!(outs.contains(&f2) && outs.contains(&c));
        assert_eq!(g.out_edges(f2).count(), 0);
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut g = tiny_graph();
        g.add_edge(
            g.node(0, Stage::F1),
            g.node(0, Stage::F2),
            EdgeKind::Pipeline,
        );
        g.add_edge(g.node(0, Stage::I), g.node(1, Stage::I), EdgeKind::Data);
        let order = g.topo_order();
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for e in g.edges() {
            assert!(pos[&e.from] < pos[&e.to]);
        }
        assert!(crate::validate_deg(&g).is_ok());
    }

    #[test]
    fn skewed_and_cost_classification() {
        assert!(EdgeKind::Data.is_skewed());
        assert!(EdgeKind::Mispredict.is_skewed());
        assert!(!EdgeKind::Pipeline.is_skewed());
        assert!(!EdgeKind::Virtual.is_skewed());
        assert!(
            !EdgeKind::Data.has_cost(),
            "true data deps cost zero (paper §4.2)"
        );
        assert!(EdgeKind::Resource(ResourceKind::Rob).has_cost());
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn wrong_time_vector_panics() {
        let _ = Deg::new(2, vec![0; 5]);
    }
}
