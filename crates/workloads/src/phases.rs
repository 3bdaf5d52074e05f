//! Phased workloads: programs whose behaviour changes over time.
//!
//! Real SPEC workloads move through phases (initialisation, compute
//! kernels, I/O-ish bookkeeping); Simpoint methodology exists precisely
//! because of this. A [`PhasedWorkload`] concatenates differently-tuned
//! generator specifications into one long trace, cycling through them, so
//! the [`simpoints`](crate::simpoints) machinery has real structure to
//! find.

use crate::generator::WorkloadSpec;
use archx_sim::isa::Instruction;

/// One phase: a specification and its length in instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Generator specification of this phase.
    pub spec: WorkloadSpec,
    /// Dynamic instructions per occurrence of the phase.
    pub instrs: usize,
}

/// A workload built from repeating phases.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedWorkload {
    phases: Vec<Phase>,
}

impl PhasedWorkload {
    /// Creates a phased workload.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase is empty/invalid.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        for (i, p) in phases.iter().enumerate() {
            assert!(p.instrs > 0, "phase {i} is empty");
            p.spec
                .validate()
                .unwrap_or_else(|e| panic!("phase {i} invalid: {e}"));
        }
        PhasedWorkload { phases }
    }

    /// The phase list.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Generates `n` instructions, cycling through the phases. Each phase
    /// occurrence continues its own generator state (seeded per phase), and
    /// phases occupy disjoint code regions so their fetch behaviour stays
    /// distinct.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Instruction> {
        let mut out = Vec::with_capacity(n);
        // Pre-generate per-phase instruction pools lazily grown as needed.
        let mut pools: Vec<Vec<Instruction>> = vec![Vec::new(); self.phases.len()];
        let mut cursor: Vec<usize> = vec![0; self.phases.len()];
        let mut k = 0usize;
        while out.len() < n {
            let idx = k % self.phases.len();
            let phase = &self.phases[idx];
            let want = phase.instrs.min(n - out.len());
            // Grow the pool when exhausted (regenerate double).
            if cursor[idx] + want > pools[idx].len() {
                let new_len = (pools[idx].len() + want).max(4 * phase.instrs);
                pools[idx] = phase.spec.generate(new_len, seed ^ (idx as u64) << 32);
                // Give each phase a disjoint PC region.
                let offset = (idx as u64) << 24;
                for instr in &mut pools[idx] {
                    instr.pc += offset;
                    if instr.op.is_branch() {
                        instr.target += offset;
                    }
                }
            }
            out.extend_from_slice(&pools[idx][cursor[idx]..cursor[idx] + want]);
            cursor[idx] += want;
            k += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{MemoryProfile, OpMix, WorkloadSpec};

    fn fp_phase() -> WorkloadSpec {
        WorkloadSpec {
            mix: OpMix::fp_default(),
            ..WorkloadSpec::balanced()
        }
    }

    fn mem_phase() -> WorkloadSpec {
        WorkloadSpec {
            memory: MemoryProfile::hostile(),
            ..WorkloadSpec::balanced()
        }
    }

    #[test]
    fn cycles_through_phases_with_disjoint_pcs() {
        let w = PhasedWorkload::new(vec![
            Phase {
                spec: fp_phase(),
                instrs: 500,
            },
            Phase {
                spec: mem_phase(),
                instrs: 500,
            },
        ]);
        let t = w.generate(2_000, 1);
        assert_eq!(t.len(), 2_000);
        // First 500 from phase 0, next 500 from phase 1 (distinct pc regions).
        let r0: Vec<u64> = t[..500].iter().map(|i| i.pc >> 24).collect();
        let r1: Vec<u64> = t[500..1000].iter().map(|i| i.pc >> 24).collect();
        assert!(r0.iter().all(|&r| r == r0[0]));
        assert!(r1.iter().all(|&r| r == r1[0]));
        assert_ne!(r0[0], r1[0]);
    }

    #[test]
    fn phase_occurrences_continue_not_restart() {
        let w = PhasedWorkload::new(vec![
            Phase {
                spec: fp_phase(),
                instrs: 300,
            },
            Phase {
                spec: mem_phase(),
                instrs: 300,
            },
        ]);
        let t = w.generate(1_800, 2);
        // Phase 0's second occurrence (instrs 600..900 of its own stream)
        // must differ from its first occurrence.
        assert_ne!(&t[0..300], &t[600..900]);
    }

    #[test]
    fn deterministic() {
        let w = PhasedWorkload::new(vec![Phase {
            spec: fp_phase(),
            instrs: 100,
        }]);
        assert_eq!(w.generate(500, 9), w.generate(500, 9));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_panic() {
        let _ = PhasedWorkload::new(vec![]);
    }
}
