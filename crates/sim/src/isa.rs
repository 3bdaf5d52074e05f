//! A compact synthetic micro-op ISA.
//!
//! The simulator is trace-driven: a workload is a sequence of
//! [`Instruction`]s carrying their *actual* behaviour (branch direction and
//! target, effective memory address), so no functional emulation is needed —
//! only timing. This mirrors how the paper extracts microexecutions from
//! gem5 rather than re-executing binaries.

use std::fmt;

/// Operation classes, matching the functional-unit classes of Table 1/4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer ALU operation (1 cycle).
    IntAlu,
    /// Integer multiply (pipelined, 3 cycles).
    IntMult,
    /// Integer divide (unpipelined, 12 cycles).
    IntDiv,
    /// Floating-point add/compare (pipelined, 2 cycles).
    FpAlu,
    /// Floating-point multiply (pipelined, 4 cycles).
    FpMult,
    /// Floating-point divide (unpipelined, 12 cycles).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    BranchCond,
    /// Unconditional direct jump.
    BranchUncond,
    /// Function call (pushes the return address stack).
    Call,
    /// Function return (pops the return address stack).
    Ret,
}

impl OpClass {
    /// All op classes, in declaration order.
    pub const ALL: [OpClass; 12] = [
        OpClass::IntAlu,
        OpClass::IntMult,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpMult,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::BranchCond,
        OpClass::BranchUncond,
        OpClass::Call,
        OpClass::Ret,
    ];

    /// Whether this op reads or writes memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether this op is any kind of control transfer.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            OpClass::BranchCond | OpClass::BranchUncond | OpClass::Call | OpClass::Ret
        )
    }

    /// Execution latency on its functional unit, excluding memory time.
    pub fn exec_latency(self) -> u64 {
        match self {
            OpClass::IntAlu
            | OpClass::BranchCond
            | OpClass::BranchUncond
            | OpClass::Call
            | OpClass::Ret => 1,
            OpClass::IntMult => 3,
            OpClass::IntDiv => 12,
            OpClass::FpAlu => 2,
            OpClass::FpMult => 4,
            OpClass::FpDiv => 12,
            OpClass::Load | OpClass::Store => 1, // address generation; cache adds the rest
        }
    }

    /// Whether the functional unit is occupied for the whole latency
    /// (unpipelined) rather than accepting a new op every cycle.
    pub fn unpipelined(self) -> bool {
        matches!(self, OpClass::IntDiv | OpClass::FpDiv)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int_alu",
            OpClass::IntMult => "int_mult",
            OpClass::IntDiv => "int_div",
            OpClass::FpAlu => "fp_alu",
            OpClass::FpMult => "fp_mult",
            OpClass::FpDiv => "fp_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::BranchCond => "br_cond",
            OpClass::BranchUncond => "br_uncond",
            OpClass::Call => "call",
            OpClass::Ret => "ret",
        };
        f.write_str(s)
    }
}

/// Architectural register class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Integer register file.
    Int,
    /// Floating-point register file.
    Fp,
}

/// An architectural register reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg {
    /// Register class.
    pub class: RegClass,
    /// Index within the class (0..[`crate::config::ARCH_REGS`]).
    pub idx: u8,
}

impl Reg {
    /// An integer register.
    pub fn int(idx: u8) -> Self {
        Reg {
            class: RegClass::Int,
            idx,
        }
    }

    /// A floating-point register.
    pub fn fp(idx: u8) -> Self {
        Reg {
            class: RegClass::Fp,
            idx,
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "x{}", self.idx),
            RegClass::Fp => write!(f, "f{}", self.idx),
        }
    }
}

/// One dynamic instruction of a trace, with its actual runtime behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Program counter.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Effective address for loads/stores (ignored otherwise).
    pub mem_addr: u64,
    /// Actual branch outcome (ignored for non-branches; unconditional
    /// transfers are always taken).
    pub taken: bool,
    /// Actual branch target (ignored for non-branches).
    pub target: u64,
}

impl Instruction {
    /// A non-memory, non-branch op with the given registers.
    pub fn op(pc: u64, op: OpClass, srcs: [Option<Reg>; 2], dst: Option<Reg>) -> Self {
        Instruction {
            pc,
            op,
            srcs,
            dst,
            mem_addr: 0,
            taken: false,
            target: 0,
        }
    }

    /// A load from `addr` into `dst`.
    pub fn load(pc: u64, addr: u64, base: Reg, dst: Reg) -> Self {
        Instruction {
            pc,
            op: OpClass::Load,
            srcs: [Some(base), None],
            dst: Some(dst),
            mem_addr: addr,
            taken: false,
            target: 0,
        }
    }

    /// A store of `data` to `addr`.
    pub fn store(pc: u64, addr: u64, base: Reg, data: Reg) -> Self {
        Instruction {
            pc,
            op: OpClass::Store,
            srcs: [Some(base), Some(data)],
            dst: None,
            mem_addr: addr,
            taken: false,
            target: 0,
        }
    }

    /// A conditional branch with its actual outcome and target.
    pub fn branch(pc: u64, src: Reg, taken: bool, target: u64) -> Self {
        Instruction {
            pc,
            op: OpClass::BranchCond,
            srcs: [Some(src), None],
            dst: None,
            mem_addr: 0,
            taken,
            target,
        }
    }

    /// Whether the instruction actually transfers control.
    pub fn control_taken(&self) -> bool {
        match self.op {
            OpClass::BranchCond => self.taken,
            OpClass::BranchUncond | OpClass::Call | OpClass::Ret => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(OpClass::BranchCond.is_branch());
        assert!(OpClass::Call.is_branch());
        assert!(!OpClass::FpMult.is_branch());
    }

    #[test]
    fn latencies_are_positive_and_divs_unpipelined() {
        for op in [
            OpClass::IntAlu,
            OpClass::IntMult,
            OpClass::IntDiv,
            OpClass::FpAlu,
            OpClass::FpMult,
            OpClass::FpDiv,
            OpClass::Load,
            OpClass::Store,
            OpClass::BranchCond,
        ] {
            assert!(op.exec_latency() >= 1);
        }
        assert!(OpClass::IntDiv.unpipelined());
        assert!(OpClass::FpDiv.unpipelined());
        assert!(!OpClass::IntMult.unpipelined());
    }

    #[test]
    fn constructors_fill_fields() {
        let ld = Instruction::load(0x40, 0x1000, Reg::int(1), Reg::int(2));
        assert_eq!(ld.op, OpClass::Load);
        assert_eq!(ld.mem_addr, 0x1000);
        let br = Instruction::branch(0x44, Reg::int(2), true, 0x80);
        assert!(br.control_taken());
        let nb = Instruction::branch(0x48, Reg::int(2), false, 0x80);
        assert!(!nb.control_taken());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Reg::int(3).to_string(), "x3");
        assert_eq!(Reg::fp(7).to_string(), "f7");
        assert_eq!(OpClass::Load.to_string(), "load");
    }
}
