//! Naive per-instruction stall accounting — the "performance counters /
//! interval analysis" strawman of the paper's Section 2.3.
//!
//! Classic stall accounting sums, per instruction, the time it spent
//! blocked at each pipeline boundary and blames the associated structure:
//! rename-stall cycles on the exhausted queue, issue waits on operands or
//! units, fetch gaps on the front end. Because instructions overlap, the
//! same wall-clock cycle is blamed many times — the *double counting of
//! overlapped events* that motivates the critical-path formulation. The
//! report is normalised by total blamed cycles (not runtime), so it looks
//! like a sensible distribution while systematically over-weighting
//! whatever happens to overlap the most.

use crate::bottleneck::{
    fu_source, resource_source, BottleneckReport, BottleneckSource, NUM_SOURCES,
};
use archx_sim::config::L1_HIT_CYCLES;
use archx_sim::isa::Instruction;
use archx_sim::trace::SimResult;

/// Sums per-instruction stall intervals into a report, and also returns
/// the total blamed cycles (which exceed the runtime whenever instructions
/// overlap — the tell-tale of double counting). `instructions` is the
/// trace `result` was simulated from.
///
/// # Panics
///
/// Panics when `instructions` and `result` differ in length.
pub fn naive_stall_report(
    instructions: &[Instruction],
    result: &SimResult,
) -> (BottleneckReport, u64) {
    let trace = &result.trace;
    assert_eq!(
        instructions.len(),
        trace.len(),
        "trace and result lengths differ"
    );
    let mut cycles = [0u64; NUM_SOURCES];
    for (j, (ev, instr)) in trace.events.iter().zip(instructions).enumerate() {
        // Front-end gaps.
        let icache = ev.f2 - ev.f1;
        cycles[BottleneckSource::Base.index()] += icache.min(L1_HIT_CYCLES);
        cycles[BottleneckSource::ICache.index()] += icache.saturating_sub(L1_HIT_CYCLES);
        cycles[BottleneckSource::FetchQueue.index()] += ev.f - ev.f2;
        // Rename stalls: blame every resource that was short, for the whole
        // wait (naive accounting does not know which one was binding).
        let rename_wait = (ev.r - ev.dc).saturating_sub(1);
        for stall in trace.rename_stalls(j) {
            cycles[resource_source(stall.resource).index()] += rename_wait;
        }
        // Issue wait: operands and/or units.
        let issue_wait = ev.i - ev.dp;
        if let Some(w) = ev.fu_wait {
            cycles[fu_source(w.fu).index()] += issue_wait;
        }
        if !trace.data_deps(j).is_empty() {
            cycles[BottleneckSource::TrueDep.index()] += issue_wait;
        }
        // Memory time beyond the hit latency.
        if instr.op.is_mem() {
            let mem = ev.p - ev.m;
            cycles[BottleneckSource::Base.index()] += mem.min(L1_HIT_CYCLES);
            cycles[BottleneckSource::DCache.index()] += mem.saturating_sub(L1_HIT_CYCLES);
        }
        // Squash penalties.
        if ev.mispredicted {
            cycles[BottleneckSource::BPred.index()] += 8; // a fixed guess, as counters do
        }
        // Commit-order wait.
        cycles[BottleneckSource::Width.index()] += (ev.c - ev.p).saturating_sub(1);
    }
    let blamed: u64 = cycles.iter().sum();
    let mut contributions = [0.0f64; NUM_SOURCES];
    for (i, c) in cycles.iter().enumerate() {
        contributions[i] = *c as f64 / blamed.max(1) as f64;
    }
    (
        BottleneckReport {
            contributions,
            length: result.trace.cycles,
        },
        blamed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    #[test]
    fn blamed_cycles_exceed_runtime_under_overlap() {
        // A parallel workload overlaps heavily: naive accounting blames far
        // more cycles than actually elapsed.
        let trace = trace_gen::mixed_workload(5_000, 3);
        let r = OooCore::new(MicroArch::baseline())
            .run(&trace)
            .expect("simulates");
        let (_, blamed) = naive_stall_report(&trace, &r);
        assert!(
            blamed > 2 * r.trace.cycles,
            "naive accounting should double-count: blamed {blamed} vs runtime {}",
            r.trace.cycles
        );
    }

    #[test]
    fn distribution_is_normalised() {
        let trace = trace_gen::pointer_chase(3_000, 8 << 20, 5);
        let r = OooCore::new(MicroArch::tiny())
            .run(&trace)
            .expect("simulates");
        let (rep, _) = naive_stall_report(&trace, &r);
        let total = rep.total();
        assert!((total - 1.0).abs() < 1e-9, "contributions sum to {total}");
        // On a dependent pointer chase the miss time lands partly on the
        // loads themselves (DCache) and partly on their consumers' waits
        // (TrueDep) — together they dominate.
        let mem_related = rep.contribution(BottleneckSource::DCache)
            + rep.contribution(BottleneckSource::TrueDep);
        assert!(mem_related > 0.3, "{}", rep.render());
    }

    #[test]
    fn overweights_overlapped_memory_relative_to_deg() {
        // Independent memory misses overlap; naive accounting charges each
        // in full while the critical path charges the serialised span.
        use crate::{build_deg, critical, induce};
        let mut arch = MicroArch::baseline();
        arch.rd_wr_ports = 2;
        let trace: Vec<_> = (0..4_000usize)
            .map(|k| {
                archx_sim::isa::Instruction::load(
                    0x1000 + 4 * (k as u64 % 256),
                    (k as u64).wrapping_mul(0x9E37_79B9) % (32 << 20),
                    archx_sim::isa::Reg::int(1),
                    archx_sim::isa::Reg::int((k % 24) as u8 + 2),
                )
            })
            .collect();
        let r = OooCore::new(arch).run(&trace).expect("simulates");
        let (naive, blamed) = naive_stall_report(&trace, &r);
        let mut deg = induce(build_deg(&r));
        let path = critical::critical_path(&mut deg);
        let deg_rep = crate::bottleneck::analyze(&deg, &path);
        // Naive blames DCache for more absolute cycles than the DEG's
        // serialised attribution.
        let naive_dcache = naive.contribution(BottleneckSource::DCache) * blamed as f64;
        let deg_dcache = deg_rep.contribution(BottleneckSource::DCache) * path.total_delay as f64;
        assert!(
            naive_dcache > deg_dcache,
            "naive {naive_dcache:.0} must over-blame vs DEG {deg_dcache:.0}"
        );
    }
}
