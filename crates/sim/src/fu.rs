//! Functional-unit pools with occupancy and release tracking.
//!
//! Each unit remembers when it becomes free and which instruction last
//! released it, so the issue stage can both find the earliest-available
//! unit and record the issue→issue dependence edge of the paper's DEG.

use crate::isa::OpClass;
use crate::trace::{FuKind, InstrIdx, NO_INSTR};

/// One pool of identical functional units of a given [`FuKind`].
#[derive(Debug, Clone)]
pub struct FuPool {
    kind: FuKind,
    /// Cycle at which each unit becomes free.
    free_at: Vec<u64>,
    /// Instruction that last occupied each unit.
    last_user: Vec<InstrIdx>,
    issued: u64,
}

impl FuPool {
    /// A pool of `count` units of the given kind.
    pub fn new(kind: FuKind, count: u32) -> Self {
        assert!(count > 0, "functional unit pools must be non-empty");
        FuPool {
            kind,
            free_at: vec![0; count as usize],
            last_user: vec![NO_INSTR; count as usize],
            issued: 0,
        }
    }

    /// The pool's unit kind.
    pub fn kind(&self) -> FuKind {
        self.kind
    }

    /// Acquires a unit free at `cycle` for `instr`, occupying it for
    /// `occupancy` cycles, and returns the unit's previous user
    /// ([`NO_INSTR`] if it was never used) — the releaser of the
    /// issue→issue contention edge when the requester had to wait. Returns
    /// `None` when every unit is busy at `cycle`.
    pub fn try_acquire(&mut self, cycle: u64, occupancy: u64, instr: InstrIdx) -> Option<InstrIdx> {
        let (idx, &free_at) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("non-empty pool");
        if free_at > cycle {
            return None;
        }
        let last_user = self.last_user[idx];
        self.free_at[idx] = cycle + occupancy;
        self.last_user[idx] = instr;
        self.issued += 1;
        Some(last_user)
    }

    /// Operations issued through this pool so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

/// The full set of functional-unit pools of a core.
#[derive(Debug, Clone)]
pub struct FuSet {
    pools: [FuPool; 5],
}

impl FuSet {
    /// Builds the pools from a configuration.
    pub fn new(arch: &crate::MicroArch) -> Self {
        FuSet {
            pools: [
                FuPool::new(FuKind::IntAlu, arch.int_alu),
                FuPool::new(FuKind::IntMultDiv, arch.int_mult_div),
                FuPool::new(FuKind::FpAlu, arch.fp_alu),
                FuPool::new(FuKind::FpMultDiv, arch.fp_mult_div),
                FuPool::new(FuKind::RdWrPort, arch.rd_wr_ports),
            ],
        }
    }

    /// Which unit kind executes the given op class.
    pub fn kind_for(op: OpClass) -> FuKind {
        match op {
            OpClass::IntAlu
            | OpClass::BranchCond
            | OpClass::BranchUncond
            | OpClass::Call
            | OpClass::Ret => FuKind::IntAlu,
            OpClass::IntMult | OpClass::IntDiv => FuKind::IntMultDiv,
            OpClass::FpAlu => FuKind::FpAlu,
            OpClass::FpMult | OpClass::FpDiv => FuKind::FpMultDiv,
            OpClass::Load | OpClass::Store => FuKind::RdWrPort,
        }
    }

    /// Occupancy of the unit for one op: 1 cycle when pipelined, the full
    /// latency when not.
    pub fn occupancy(op: OpClass) -> u64 {
        if op.unpipelined() {
            op.exec_latency()
        } else {
            1
        }
    }

    /// The pool for a unit kind.
    pub fn pool(&self, kind: FuKind) -> &FuPool {
        &self.pools[kind as usize]
    }

    /// Mutable access to the pool for a unit kind.
    pub fn pool_mut(&mut self, kind: FuKind) -> &mut FuPool {
        &mut self.pools[kind as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_when_idle_has_no_contention() {
        let mut p = FuPool::new(FuKind::IntAlu, 2);
        assert_eq!(p.try_acquire(5, 1, 0), Some(NO_INSTR));
    }

    #[test]
    fn acquire_when_busy_waits_and_names_releaser() {
        let mut p = FuPool::new(FuKind::IntMultDiv, 1);
        assert!(p.try_acquire(0, 12, 7).is_some()); // unpipelined divide by instr 7
        assert_eq!(p.try_acquire(11, 12, 8), None);
        assert_eq!(p.try_acquire(12, 12, 8), Some(7));
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn two_units_serve_two_ops_in_parallel() {
        let mut p = FuPool::new(FuKind::FpAlu, 2);
        assert_eq!(p.try_acquire(0, 1, 0), Some(NO_INSTR));
        assert_eq!(p.try_acquire(0, 1, 1), Some(NO_INSTR));
        assert_eq!(p.try_acquire(0, 1, 2), None);
        assert_eq!(p.try_acquire(1, 1, 2), Some(0));
    }

    #[test]
    fn kind_mapping_covers_all_ops() {
        assert_eq!(FuSet::kind_for(OpClass::Load), FuKind::RdWrPort);
        assert_eq!(FuSet::kind_for(OpClass::Ret), FuKind::IntAlu);
        assert_eq!(FuSet::kind_for(OpClass::FpDiv), FuKind::FpMultDiv);
        assert_eq!(FuSet::occupancy(OpClass::IntDiv), 12);
        assert_eq!(FuSet::occupancy(OpClass::IntMult), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_units_panics() {
        let _ = FuPool::new(FuKind::IntAlu, 0);
    }
}
