//! Shared helpers for the workspace integration tests; the tests themselves
//! live in `tests/tests/`.

/// Workload length used by most integration tests — small enough to keep
/// the suite fast, long enough to exercise steady-state pipeline behaviour.
pub const TEST_TRACE_LEN: usize = 5_000;

/// The fixed designs and traces the simulator's cross-commit digest
/// (`tests/sim_digest.rs`) hashes, shared with the tests that compare two
/// ways of running the simulator over the same inputs.
pub mod sim_inputs {
    use archexplorer::dse::{DesignSpace, ParamId};
    use archexplorer::sim::config::{MemDepPolicy, ReplPolicy};
    use archexplorer::sim::trace_gen::{self, XorShift};
    use archexplorer::sim::{Instruction, MicroArch};
    use archexplorer::workloads::spec06_suite;

    /// Instructions per SPEC06-like trace.
    const WINDOW: usize = 5_000;

    /// Latin-hypercube points drawn from the Table 4 lattice.
    const LHS_POINTS: usize = 8;

    /// `LHS_POINTS` designs, one per stratum of every Table 4 parameter (a
    /// seeded shuffle pairs the strata), alternating the memory-dependence
    /// policy and cycling the L1 replacement policy.
    pub fn latin_hypercube() -> Vec<MicroArch> {
        let space = DesignSpace::table4();
        let mut rng = XorShift::new(0x5eed_d16e);
        let mut designs = vec![MicroArch::baseline(); LHS_POINTS];
        for &p in &ParamId::ALL {
            let mut strata: Vec<usize> = (0..LHS_POINTS).collect();
            for k in (1..LHS_POINTS).rev() {
                strata.swap(k, rng.below(k as u64 + 1) as usize);
            }
            let cands = space.candidates(p);
            for (design, &s) in designs.iter_mut().zip(&strata) {
                p.set(design, cands[(2 * s + 1) * cands.len() / (2 * LHS_POINTS)]);
            }
        }
        let policies = [ReplPolicy::Lru, ReplPolicy::Fifo, ReplPolicy::Random];
        for (k, design) in designs.iter_mut().enumerate() {
            design.mem_dep = if k % 2 == 0 {
                MemDepPolicy::StoreSets
            } else {
                MemDepPolicy::Conservative
            };
            design.replacement = policies[k % 3];
        }
        designs
    }

    /// The baseline and tiny designs, each also with store-set speculation
    /// (FIFO and random replacement), then [`latin_hypercube`].
    pub fn designs() -> Vec<MicroArch> {
        let mut baseline_ss = MicroArch::baseline();
        baseline_ss.mem_dep = MemDepPolicy::StoreSets;
        baseline_ss.replacement = ReplPolicy::Fifo;
        let mut tiny_ss = MicroArch::tiny();
        tiny_ss.mem_dep = MemDepPolicy::StoreSets;
        tiny_ss.replacement = ReplPolicy::Random;
        let mut all = vec![
            MicroArch::baseline(),
            MicroArch::tiny(),
            baseline_ss,
            tiny_ss,
        ];
        all.extend(latin_hypercube());
        all
    }

    /// The SPEC06-like suite at `WINDOW` instructions (trace seed 1), then
    /// four synthetic stress traces.
    pub fn traces() -> Vec<Vec<Instruction>> {
        let mut all: Vec<Vec<Instruction>> = spec06_suite()
            .iter()
            .map(|w| w.generate(WINDOW, 1).to_vec())
            .collect();
        all.push(trace_gen::random_branches(3_000, 0xb4a9));
        all.push(trace_gen::divide_heavy(1_500));
        all.push(trace_gen::store_load_pairs(2_000));
        all.push(trace_gen::pointer_chase(3_000, 1 << 22, 0x1234));
        all
    }
}
