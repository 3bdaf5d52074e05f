//! Critical-path construction (paper Algorithm 1).
//!
//! A dynamic program over the topological order maximises accumulated edge
//! *cost*, where costs are chosen so the path is densely composed of
//! resource-usage dependencies: horizontal (pipeline), virtual, and
//! true-data edges cost zero; misprediction, hardware-resource and
//! functional-unit edges cost their measured interval.
//!
//! Among equal-cost paths the program prefers the larger accumulated
//! *delay* (time span). Because every path's delay telescopes to
//! `t(end) − t(start)`, this tie-break pulls the path's origin back to
//! `F1(I0)` (time 0) whenever the induced DEG connects it, making the
//! critical-path length exactly the simulated runtime.

use crate::graph::{Deg, Edge, EdgeKind, NodeId, Stage};
use archx_sim::trace::Cycle;

/// A constructed critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Edges in execution order (source to sink).
    pub edges: Vec<Edge>,
    /// Total accumulated cost (resource-dependence cycles).
    pub cost: Cycle,
    /// Total time span covered, `t(end) − t(start)`.
    pub total_delay: Cycle,
    /// First vertex of the path.
    pub start: NodeId,
    /// Last vertex of the path (the last instruction's commit).
    pub end: NodeId,
}

impl CriticalPath {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Algorithm 1's value of a vertex: (cost, delay, attributed delay). Cost
/// implements Algorithm 1; delay pulls the path origin back to time zero;
/// the attributed-delay tie-break prefers spans covered by real dependence
/// and pipeline edges over virtual hops, so attribution loses as little of
/// the runtime as possible. A vertex takes an in-edge only when it
/// strictly raises this value.
pub(crate) type Value<T = u64> = (T, T, T);

/// The value reached by following an edge of `kind` spanning `w` cycles
/// from a vertex of value `from`.
/// Generic over the integer type so that the fused pass can run it in 32
/// bits.
pub(crate) fn extend<T>(from: Value<T>, kind: EdgeKind, w: T) -> Value<T>
where
    T: Copy + Default + std::ops::Add<Output = T>,
{
    let cost = if kind.has_cost() { w } else { T::default() };
    let attr = if kind == EdgeKind::Virtual {
        T::default()
    } else {
        w
    };
    (from.0 + cost, from.1 + w, from.2 + attr)
}

/// Writes `nodes` into `order` sorted by `(time, id)` — the topological
/// key order — provided any two of them with equal times come in
/// increasing id order, as they do when all come in id order. A stable
/// counting sort over event times, in O(V + T); with every vertex as
/// `nodes` it yields [`Deg::topo_order`]. `counts` is scratch.
pub(crate) fn sort_by_time(
    times: &[Cycle],
    nodes: impl Iterator<Item = NodeId> + Clone,
    counts: &mut Vec<u32>,
    order: &mut Vec<NodeId>,
) {
    let time = |v: NodeId| times[v as usize] as usize;
    let max_t = nodes.clone().map(time).max().unwrap_or(0);
    counts.clear();
    counts.resize(max_t + 2, 0);
    for v in nodes.clone() {
        counts[time(v) + 1] += 1;
    }
    for i in 0..=max_t {
        counts[i + 1] += counts[i];
    }
    order.clear();
    order.resize(counts[max_t + 1] as usize, 0);
    for v in nodes {
        let slot = &mut counts[time(v)];
        order[*slot as usize] = v;
        *slot += 1;
    }
}

/// Runs Algorithm 1 on an induced DEG and returns the critical path ending
/// at the last instruction's commit.
///
/// The graph is only mutated by building (and caching) its CSR edge
/// index.
///
/// ```
/// use archx_sim::{MicroArch, OooCore, trace_gen};
/// use archx_deg::{build_deg, critical_path, induce};
///
/// let result = OooCore::new(MicroArch::baseline())
///     .run(&trace_gen::mixed_workload(500, 1))
///     .expect("simulates");
/// let mut induced = induce(build_deg(&result));
/// let path = critical_path(&mut induced);
/// assert_eq!(path.total_delay, result.trace.cycles);
/// ```
///
/// # Panics
///
/// Panics on an empty graph.
pub fn critical_path(deg: &mut Deg) -> CriticalPath {
    assert!(deg.instr_count() > 0, "empty DEG");
    let _timed = archx_telemetry::span("deg/critical");
    deg.freeze();
    let n = deg.node_count();
    let mut cost = vec![0u64; n];
    let mut delay = vec![0u64; n];
    let mut attr = vec![0u64; n];
    let mut pred: Vec<Option<Edge>> = vec![None; n];
    let mut order = Vec::new();
    sort_by_time(deg.times(), 0..n as NodeId, &mut Vec::new(), &mut order);

    for &node in &order {
        let c0 = cost[node as usize];
        let d0 = delay[node as usize];
        let a0 = attr[node as usize];
        for e in deg.out_edges(node) {
            let (nc, nd, na) = extend((c0, d0, a0), e.kind, deg.interval(e));
            let t = e.to as usize;
            if (nc, nd, na) > (cost[t], delay[t], attr[t]) {
                cost[t] = nc;
                delay[t] = nd;
                attr[t] = na;
                pred[t] = Some(*e);
            }
        }
    }

    let sink = deg.node(deg.instr_count() - 1, Stage::C);
    let mut edges = Vec::new();
    let mut cur = sink;
    while let Some(e) = pred[cur as usize] {
        edges.push(e);
        cur = e.from;
        assert!(
            edges.len() <= deg.edge_count(),
            "cycle in DEG predecessor chain — a non-forward edge slipped in"
        );
    }
    edges.reverse();
    CriticalPath {
        cost: cost[sink as usize],
        total_delay: delay[sink as usize],
        start: cur,
        end: sink,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_deg;
    use crate::induced::induce;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn path_for(trace: &[archx_sim::Instruction], arch: MicroArch) -> (CriticalPath, u64) {
        let r = OooCore::new(arch).run(trace).expect("simulates");
        let mut deg = induce(build_deg(&r));
        (critical_path(&mut deg), r.trace.cycles)
    }

    #[test]
    fn counting_sort_matches_topo_order() {
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(600, 2))
            .expect("simulates");
        let deg = induce(build_deg(&r));
        // Stale, longer buffers must not leak into the result.
        let mut counts = vec![7; 50_000];
        let mut order = vec![3; 50_000];
        sort_by_time(
            deg.times(),
            0..deg.node_count() as NodeId,
            &mut counts,
            &mut order,
        );
        assert_eq!(order, deg.topo_order());
    }

    #[test]
    fn length_equals_simulated_cycles_mixed() {
        let (p, cycles) = path_for(&trace_gen::mixed_workload(2_000, 3), MicroArch::baseline());
        assert_eq!(
            p.total_delay, cycles,
            "new DEG critical path must match runtime exactly"
        );
    }

    #[test]
    fn length_equals_simulated_cycles_under_pressure() {
        let mut arch = MicroArch::tiny();
        arch.rob_entries = 32;
        let (p, cycles) = path_for(&trace_gen::pointer_chase(2_000, 8 << 20, 9), arch);
        assert_eq!(p.total_delay, cycles);
    }

    #[test]
    fn length_equals_simulated_cycles_branchy() {
        let (p, cycles) = path_for(&trace_gen::random_branches(3_000, 5), MicroArch::baseline());
        assert_eq!(p.total_delay, cycles);
    }

    #[test]
    fn path_edges_are_contiguous() {
        let (p, _) = path_for(&trace_gen::mixed_workload(1_000, 4), MicroArch::baseline());
        for w in p.edges.windows(2) {
            assert_eq!(w[0].to, w[1].from, "path must be vertex-contiguous");
        }
        assert!(!p.is_empty());
        assert_eq!(p.edges.first().unwrap().from, p.start);
        assert_eq!(p.edges.last().unwrap().to, p.end);
    }

    #[test]
    fn path_cost_counts_only_costly_edges() {
        let (p, _) = path_for(&trace_gen::mixed_workload(1_000, 6), MicroArch::baseline());
        let mut deg_cost = 0;
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace_gen::mixed_workload(1_000, 6))
            .expect("simulates");
        let deg = induce(build_deg(&r));
        for e in &p.edges {
            if e.kind.has_cost() {
                deg_cost += deg.interval(e);
            }
        }
        assert_eq!(deg_cost, p.cost);
        assert!(p.cost <= p.total_delay);
    }

    #[test]
    fn serial_chain_path_carries_dependence_edges() {
        // A serial dependence chain: the path routes through skewed
        // dependence edges (data deps and the queue backpressure they
        // induce), not through pipeline/virtual filler alone.

        let (p, _) = path_for(&trace_gen::linear_int_chain(2_000), MicroArch::baseline());
        let skewed = p.edges.iter().filter(|e| e.kind.is_skewed()).count();
        assert!(
            skewed > p.edges.len() / 4,
            "expected a dependence-dominated path, got {skewed}/{}",
            p.edges.len()
        );
    }
}
