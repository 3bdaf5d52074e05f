//! Per-instruction event records: the microexecution ground truth the
//! dynamic event-dependence graph is built from.

use crate::isa::Instruction;
use crate::stats::SimStats;
use std::fmt;

/// A cycle count.
pub type Cycle = u64;
/// Index of a dynamic instruction within a trace.
pub type InstrIdx = u32;

/// Sentinel meaning "no instruction" in releaser fields.
pub const NO_INSTR: InstrIdx = InstrIdx::MAX;

/// Rename-checked hardware resources (paper Table 2, rename→rename edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Reorder buffer entries.
    Rob,
    /// Instruction (issue) queue entries.
    Iq,
    /// Load queue entries.
    Lq,
    /// Store queue entries.
    Sq,
    /// Physical integer registers.
    IntRf,
    /// Physical floating-point registers.
    FpRf,
}

impl ResourceKind {
    /// All variants, in a stable order.
    pub const ALL: [ResourceKind; 6] = [
        ResourceKind::Rob,
        ResourceKind::Iq,
        ResourceKind::Lq,
        ResourceKind::Sq,
        ResourceKind::IntRf,
        ResourceKind::FpRf,
    ];
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Rob => "ROB",
            ResourceKind::Iq => "IQ",
            ResourceKind::Lq => "LQ",
            ResourceKind::Sq => "SQ",
            ResourceKind::IntRf => "IntRF",
            ResourceKind::FpRf => "FpRF",
        };
        f.write_str(s)
    }
}

/// Functional-unit classes (paper Table 2, issue→issue edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuKind {
    /// Integer ALUs.
    IntAlu,
    /// Integer multiplier/dividers.
    IntMultDiv,
    /// Floating-point ALUs.
    FpAlu,
    /// Floating-point multiplier/dividers.
    FpMultDiv,
    /// Cache read/write ports.
    RdWrPort,
}

impl FuKind {
    /// All variants, in a stable order.
    pub const ALL: [FuKind; 5] = [
        FuKind::IntAlu,
        FuKind::IntMultDiv,
        FuKind::FpAlu,
        FuKind::FpMultDiv,
        FuKind::RdWrPort,
    ];
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::IntAlu => "IntALU",
            FuKind::IntMultDiv => "IntMultDiv",
            FuKind::FpAlu => "FpALU",
            FuKind::FpMultDiv => "FpMultDiv",
            FuKind::RdWrPort => "RdWrPort",
        };
        f.write_str(s)
    }
}

/// A rename-stage stall resolved by another instruction releasing an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenameStall {
    /// Which resource was exhausted.
    pub resource: ResourceKind,
    /// The instruction whose release of an entry unblocked this one
    /// ([`NO_INSTR`] if the entry had never been held).
    pub releaser: InstrIdx,
}

/// A wait for a busy functional unit at issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuWait {
    /// Which functional-unit class was busy.
    pub fu: FuKind,
    /// The instruction whose release of the unit let this one issue.
    pub releaser: InstrIdx,
}

/// Event times and dependence records for one committed instruction.
///
/// All cycle fields are absolute simulation cycles. Stage names follow the
/// paper's Figure 7: `F1` (I-cache request) → `F2` (I-cache response) → `F`
/// (enter fetch queue) → `DC` (decode) → `R` (rename complete / resources
/// granted) → `DP` (dispatch into the issue queue) → `I` (issue) → `M`
/// (memory access begins, memory ops only) → `P` (execution complete /
/// writeback) → `C` (commit).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstrEvents {
    /// I-cache request sent.
    pub f1: Cycle,
    /// I-cache response received (fetch buffer filled).
    pub f2: Cycle,
    /// Moved into the fetch queue (prediction performed).
    pub f: Cycle,
    /// Decoded.
    pub dc: Cycle,
    /// Renamed: all required back-end resources granted.
    pub r: Cycle,
    /// Dispatched into the issue queue.
    pub dp: Cycle,
    /// Issued to a functional unit.
    pub i: Cycle,
    /// Memory access begins (memory ops only; equals `i` otherwise).
    pub m: Cycle,
    /// Execution complete / result broadcast.
    pub p: Cycle,
    /// Committed.
    pub c: Cycle,
    /// Rename stalls and their resolving releasers, in resolution order.
    pub rename_stalls: Vec<RenameStall>,
    /// Functional-unit wait, if the instruction had to wait for a unit.
    pub fu_wait: Option<FuWait>,
    /// Producers of this instruction's sources that were still in flight
    /// when it entered the issue window (true data dependencies).
    pub data_deps: Vec<InstrIdx>,
    /// True when this instruction is a mispredicted branch (it redirected
    /// the front end when it resolved).
    pub mispredicted: bool,
    /// When this instruction is the first fetched after a squash, the
    /// mispredicted branch that caused the refill.
    pub refill_from: Option<InstrIdx>,
    /// For the first instruction of a fetch block: the instruction whose
    /// departure from the fetch buffer freed the slot this block occupies
    /// (a fetch-buffer resource-usage dependence).
    pub fetch_slot_from: Option<InstrIdx>,
    /// When this instruction's move into the fetch queue was delayed by
    /// front-end bandwidth or fetch-queue occupancy: the instruction whose
    /// move preceded (and gated) it.
    pub fetch_bw_from: Option<InstrIdx>,
    /// For a load that issued speculatively and was later found to
    /// conflict with an older store: that store's index (a memory-order
    /// misprediction; the load's commit was gated by a replay).
    pub mem_dep_violation: Option<InstrIdx>,
    /// Whether the instruction's fetch missed in the L1 I-cache.
    pub icache_miss: bool,
    /// Whether a load/store missed in the L1 D-cache.
    pub dcache_miss: bool,
}

impl InstrEvents {
    /// Total lifetime in cycles, fetch request to commit.
    pub fn lifetime(&self) -> Cycle {
        self.c.saturating_sub(self.f1)
    }

    /// A fresh pre-run record: every stage cycle unset (`Cycle::MAX`), no
    /// dependence records.
    pub fn blank() -> Self {
        let mut ev = InstrEvents::default();
        ev.reset();
        ev
    }

    /// Resets to the pre-run blank state while keeping the capacity of the
    /// per-instruction `rename_stalls` / `data_deps` vectors, so
    /// [`OooCore::run_into`](crate::OooCore::run_into) can reuse them.
    pub fn reset(&mut self) {
        self.f1 = Cycle::MAX;
        self.f2 = Cycle::MAX;
        self.f = Cycle::MAX;
        self.dc = Cycle::MAX;
        self.r = Cycle::MAX;
        self.dp = Cycle::MAX;
        self.i = Cycle::MAX;
        self.m = Cycle::MAX;
        self.p = Cycle::MAX;
        self.c = Cycle::MAX;
        self.rename_stalls.clear();
        self.fu_wait = None;
        self.data_deps.clear();
        self.mispredicted = false;
        self.refill_from = None;
        self.fetch_slot_from = None;
        self.fetch_bw_from = None;
        self.mem_dep_violation = None;
        self.icache_miss = false;
        self.dcache_miss = false;
    }
}

/// The full microexecution record of a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineTrace {
    /// Per committed instruction, in program order.
    pub events: Vec<InstrEvents>,
    /// Total simulated cycles (commit cycle of the last instruction).
    pub cycles: Cycle,
}

impl PipelineTrace {
    /// Number of committed instructions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Result of a simulation: the trace plus aggregate statistics. The
/// default value is an empty result, ready to be filled by
/// [`OooCore::run_into`](crate::OooCore::run_into).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Per-instruction microexecution record.
    pub trace: PipelineTrace,
    /// Aggregate statistics (IPC, cache/branch activity, occupancies).
    pub stats: SimStats,
    /// The instructions that were simulated, aligned with `trace.events`.
    pub instructions: Vec<Instruction>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_saturates() {
        let ev = InstrEvents::default();
        assert_eq!(ev.lifetime(), 0);
        let ev = InstrEvents {
            f1: 3,
            c: 13,
            ..Default::default()
        };
        assert_eq!(ev.lifetime(), 10);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ResourceKind::IntRf.to_string(), "IntRF");
        assert_eq!(FuKind::RdWrPort.to_string(), "RdWrPort");
        assert_eq!(ResourceKind::ALL.len(), 6);
        assert_eq!(FuKind::ALL.len(), 5);
    }

    #[test]
    fn trace_len() {
        let t = PipelineTrace {
            events: vec![InstrEvents::default()],
            cycles: 1,
        };
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
