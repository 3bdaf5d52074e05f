//! The *previous* DEG formulation (Fields et al. / Calipers style),
//! reimplemented as the paper's comparison baseline.
//!
//! Three vertices per instruction (`F` fetch, `E` execute, `C` commit) and
//! **statically assigned** edges and weights:
//!
//! * fetch/commit bandwidth chains `F(i)→F(i+1)`, `C(i)→C(i+1)`;
//! * a fixed front-end depth on `F(i)→E(i)`;
//! * producer–consumer resource edges (`C(i)→F(i+ROB)` for the ROB, and
//!   likewise for IQ/LQ/SQ) with zero weight — the "false dependence"
//!   error of paper Figure 5(a);
//! * a fixed misprediction penalty on `E(i)→F(i+1)` — the "static
//!   penalty" error;
//! * serialisation edges between consecutive memory (and divide)
//!   operations for port/unit contention — the "indistinguishable
//!   concurrent events" double-counting error of Figure 5(b);
//! * static operation latencies on data-dependence edges (loads use the
//!   static hit/L2 latency even when the actual access went to DRAM).
//!
//! The resulting critical-path length deviates from the measured runtime
//! (typically an underestimate), and its contribution report misattributes
//! overlapped events — exactly the deficiencies the new formulation fixes.

use crate::bottleneck::{BottleneckReport, BottleneckSource, NUM_SOURCES};
use archx_sim::config::{L1_HIT_CYCLES, L2_HIT_CYCLES};
use archx_sim::isa::{Instruction, OpClass, RegClass};
use archx_sim::trace::SimResult;
use archx_sim::MicroArch;

const F: usize = 0;
const E: usize = 1;
const C: usize = 2;

/// Static-weight DEG model in the style of the prior work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalipersModel {
    /// Pipeline width for the bandwidth chains.
    pub width: u32,
    /// ROB producer–consumer distance.
    pub rob: u32,
    /// IQ producer–consumer distance.
    pub iq: u32,
    /// LQ distance (in loads).
    pub lq: u32,
    /// SQ distance (in stores).
    pub sq: u32,
    /// Static branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// Static load-use latency for L1 hits.
    pub load_hit: u64,
    /// Static load-use latency assumed for misses: one blended constant
    /// for every miss, whether it hit L2 or went to DRAM — a deliberate
    /// static-assignment deficiency.
    pub load_miss: u64,
    /// Memory ports for the serialisation rule.
    pub mem_ports: u32,
    /// Integer divide latency.
    pub div_latency: u64,
}

impl CalipersModel {
    /// Derives the static model from a microarchitecture.
    pub fn from_arch(arch: &MicroArch) -> Self {
        CalipersModel {
            width: arch.width,
            rob: arch.rob_entries,
            iq: arch.iq_entries,
            lq: arch.lq_entries,
            sq: arch.sq_entries,
            mispredict_penalty: 8,
            load_hit: L1_HIT_CYCLES + 1,
            load_miss: L1_HIT_CYCLES + L2_HIT_CYCLES + 30,
            mem_ports: arch.rd_wr_ports,
            div_latency: 12,
        }
    }

    fn static_latency(&self, op: OpClass, missed: bool) -> u64 {
        match op {
            OpClass::Load => {
                if missed {
                    self.load_miss
                } else {
                    self.load_hit
                }
            }
            OpClass::Store => 2,
            op => op.exec_latency(),
        }
    }

    /// Builds the static graph over `instrs`, the trace `result` was
    /// simulated from, runs the longest-path analysis and returns the
    /// estimated runtime plus a bottleneck report in the same format as
    /// the new formulation's.
    pub fn analyze(&self, instrs: &[Instruction], result: &SimResult) -> (u64, BottleneckReport) {
        let (est, report, _, _) = self.analyze_with_stats(instrs, result);
        (est, report)
    }

    /// Like [`CalipersModel::analyze`], also returning the graph's vertex
    /// and edge counts (for the paper's footnote-5 comparison).
    ///
    /// # Panics
    ///
    /// Panics on an empty trace, or when `instrs` and `result` differ in
    /// length.
    pub fn analyze_with_stats(
        &self,
        instrs: &[Instruction],
        result: &SimResult,
    ) -> (u64, BottleneckReport, usize, usize) {
        let n = instrs.len();
        assert!(n > 0, "empty trace");
        assert_eq!(n, result.trace.len(), "trace and result lengths differ");
        let nodes = 3 * n;
        // Edge list: (from, to, weight, source attribution).
        let mut edges: Vec<(u32, u32, u64, BottleneckSource)> = Vec::with_capacity(8 * n);
        let id = |i: usize, s: usize| (3 * i + s) as u32;

        // Rename: last architectural writer.
        let mut last_int = [usize::MAX; 32];
        let mut last_fp = [usize::MAX; 32];
        // Occupancy chains for producer-consumer resource edges.
        let mut loads_seen: Vec<usize> = Vec::new();
        let mut stores_seen: Vec<usize> = Vec::new();
        let mut last_mem: Option<usize> = None;
        let mut mem_since = 0u32;
        let mut last_div: Option<usize> = None;

        for i in 0..n {
            let instr = &instrs[i];
            let ev = &result.trace.events[i];
            // Pipeline skeleton.
            edges.push((id(i, F), id(i, E), 5, BottleneckSource::Base));
            edges.push((id(i, E), id(i, C), 1, BottleneckSource::Base));
            if i + 1 < n {
                let bw = u64::from((i as u32 + 1).is_multiple_of(self.width));
                edges.push((id(i, F), id(i + 1, F), bw, BottleneckSource::Width));
                edges.push((id(i, C), id(i + 1, C), bw, BottleneckSource::Width));
                // Static misprediction penalty.
                if ev.mispredicted {
                    edges.push((
                        id(i, E),
                        id(i + 1, F),
                        self.mispredict_penalty,
                        BottleneckSource::BPred,
                    ));
                }
            }
            // Producer-consumer resource edges with zero weight (the false
            // dependence of Figure 5(a)).
            if i >= self.rob as usize {
                edges.push((
                    id(i - self.rob as usize, C),
                    id(i, F),
                    0,
                    BottleneckSource::Rob,
                ));
            }
            if i >= self.iq as usize {
                edges.push((
                    id(i - self.iq as usize, E),
                    id(i, F),
                    0,
                    BottleneckSource::Iq,
                ));
            }
            // Data dependencies with static latencies.
            for src in instr.srcs.iter().flatten() {
                let producer = match src.class {
                    RegClass::Int => last_int[src.idx as usize],
                    RegClass::Fp => last_fp[src.idx as usize],
                };
                if producer != usize::MAX {
                    let missed = result.trace.events[producer].dcache_miss;
                    let lat = self.static_latency(instrs[producer].op, missed);
                    let attr = if instrs[producer].op == OpClass::Load && missed {
                        BottleneckSource::DCache
                    } else {
                        BottleneckSource::TrueDep
                    };
                    edges.push((id(producer, E), id(i, E), lat, attr));
                }
            }
            if let Some(dst) = instr.dst {
                match dst.class {
                    RegClass::Int => last_int[dst.idx as usize] = i,
                    RegClass::Fp => last_fp[dst.idx as usize] = i,
                }
            }
            // Memory port serialisation: every port-th consecutive memory
            // op is chained (weight 1) — double counts overlapped accesses.
            if instr.op.is_mem() {
                if let Some(prev) = last_mem {
                    mem_since += 1;
                    if mem_since >= self.mem_ports {
                        edges.push((id(prev, E), id(i, E), 1, BottleneckSource::RdWrPort));
                        mem_since = 0;
                    }
                }
                last_mem = Some(i);
                // LQ/SQ producer-consumer.
                if instr.op == OpClass::Load {
                    loads_seen.push(i);
                    if loads_seen.len() > self.lq as usize {
                        let old = loads_seen[loads_seen.len() - 1 - self.lq as usize];
                        edges.push((id(old, C), id(i, F), 0, BottleneckSource::Lq));
                    }
                } else {
                    stores_seen.push(i);
                    if stores_seen.len() > self.sq as usize {
                        let old = stores_seen[stores_seen.len() - 1 - self.sq as usize];
                        edges.push((id(old, C), id(i, F), 0, BottleneckSource::Sq));
                    }
                }
            }
            // Divider serialisation.
            if matches!(instr.op, OpClass::IntDiv) {
                if let Some(prev) = last_div {
                    edges.push((
                        id(prev, E),
                        id(i, E),
                        self.div_latency,
                        BottleneckSource::IntMultDiv,
                    ));
                }
                last_div = Some(i);
            }
        }

        // Longest path over node-id order (which is topological here).
        let mut starts = vec![0u32; nodes + 1];
        for &(from, _, _, _) in &edges {
            starts[from as usize + 1] += 1;
        }
        for i in 0..nodes {
            starts[i + 1] += starts[i];
        }
        let mut slots = starts.clone();
        let mut csr = vec![0u32; edges.len()];
        for (idx, &(from, _, _, _)) in edges.iter().enumerate() {
            csr[slots[from as usize] as usize] = idx as u32;
            slots[from as usize] += 1;
        }
        let mut dist = vec![0u64; nodes];
        let mut pred: Vec<u32> = vec![u32::MAX; nodes];
        for node in 0..nodes {
            let d0 = dist[node];
            for &ei in &csr[starts[node] as usize..starts[node + 1] as usize] {
                let (_, to, w, _) = edges[ei as usize];
                if d0 + w > dist[to as usize] {
                    dist[to as usize] = d0 + w;
                    pred[to as usize] = ei;
                }
            }
        }
        let sink = id(n - 1, C) as usize;
        let estimate = dist[sink];

        // Attribute the critical path.
        let mut cycles = [0u64; NUM_SOURCES];
        let mut cur = sink;
        while pred[cur] != u32::MAX {
            let (from, _, w, attr) = edges[pred[cur] as usize];
            cycles[attr.index()] += w;
            cur = from as usize;
        }
        let mut contributions = [0.0f64; NUM_SOURCES];
        for (i, c) in cycles.iter().enumerate() {
            contributions[i] = *c as f64 / estimate.max(1) as f64;
        }
        (
            estimate,
            BottleneckReport {
                contributions,
                length: estimate,
            },
            nodes,
            edges.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn run(trace: &[archx_sim::Instruction]) -> SimResult {
        OooCore::new(MicroArch::baseline())
            .run(trace)
            .expect("simulates")
    }

    #[test]
    fn estimate_deviates_from_actual_on_memory_code() {
        // DRAM misses are invisible to the static model: it must
        // underestimate a cache-hostile trace.
        let trace = trace_gen::pointer_chase(3_000, 32 << 20, 3);
        let r = run(&trace);
        let model = CalipersModel::from_arch(&MicroArch::baseline());
        let (est, _) = model.analyze(&trace, &r);
        assert!(
            (est as f64) < 0.9 * r.trace.cycles as f64,
            "static model should underestimate: {est} vs {}",
            r.trace.cycles
        );
    }

    #[test]
    fn estimate_reasonable_on_simple_code() {
        let trace = trace_gen::linear_int_chain(2_000);
        let r = run(&trace);
        let model = CalipersModel::from_arch(&MicroArch::baseline());
        let (est, _) = model.analyze(&trace, &r);
        let ratio = est as f64 / r.trace.cycles as f64;
        assert!(
            (0.4..=1.6).contains(&ratio),
            "chain estimate ratio {ratio} out of range"
        );
    }

    #[test]
    fn overestimates_port_contention_vs_new_formulation() {
        // Many independent memory ops through one port: the static model
        // serialises all of them; the new DEG distinguishes overlap.
        let trace = trace_gen::store_load_pairs(2_000);
        let r = run(&trace);
        let model = CalipersModel::from_arch(&MicroArch::baseline());
        let (_, rep) = model.analyze(&trace, &r);
        let new_deg = crate::induce(crate::build_deg(&r));
        let mut g = new_deg;
        let path = crate::critical::critical_path(&mut g);
        let new_rep = crate::bottleneck::analyze(&g, &path);
        let old_port = rep.contribution(BottleneckSource::RdWrPort) * rep.length as f64;
        let new_port = new_rep.contribution(BottleneckSource::RdWrPort) * new_rep.length as f64;
        assert!(
            old_port > new_port,
            "static port contribution {old_port:.0} must exceed the new formulation's {new_port:.0}"
        );
    }

    #[test]
    fn graph_stats_reported() {
        let trace = trace_gen::mixed_workload(500, 2);
        let r = run(&trace);
        let model = CalipersModel::from_arch(&MicroArch::baseline());
        let (_, _, nodes, edges) = model.analyze_with_stats(&trace, &r);
        assert_eq!(nodes, 1500);
        assert!(edges > 1500);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ =
            CalipersModel::from_arch(&MicroArch::baseline()).analyze(&[], &SimResult::default());
    }
}
