//! Per-instruction event records: the microexecution ground truth the
//! dynamic event-dependence graph is built from.

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
    /// All variants, in declaration order: `kind as usize` is the kind's
    /// index here (and in the per-resource statistics arrays).
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
    /// All variants, in declaration order: `kind as usize` is the kind's
    /// index here (and in the per-unit statistics arrays).
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

/// Event times and single-valued dependence records for one committed
/// instruction. The list-valued records, rename stalls and true data
/// dependences, live in the enclosing [`PipelineTrace`] (see
/// [`PipelineTrace::rename_stalls`] and [`PipelineTrace::data_deps`]), so
/// this record is plain data.
///
/// All cycle fields are absolute simulation cycles. Stage names follow the
/// paper's Figure 7: `F1` (I-cache request) → `F2` (I-cache response) → `F`
/// (enter fetch queue) → `DC` (decode) → `R` (rename complete / resources
/// granted) → `DP` (dispatch into the issue queue) → `I` (issue) → `M`
/// (memory access begins, memory ops only) → `P` (execution complete /
/// writeback) → `C` (commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// Functional-unit wait, if the instruction had to wait for a unit.
    pub fu_wait: Option<FuWait>,
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

    /// The pre-run record: every stage cycle unset (`Cycle::MAX`), no
    /// dependence records.
    pub const BLANK: InstrEvents = InstrEvents {
        f1: Cycle::MAX,
        f2: Cycle::MAX,
        f: Cycle::MAX,
        dc: Cycle::MAX,
        r: Cycle::MAX,
        dp: Cycle::MAX,
        i: Cycle::MAX,
        m: Cycle::MAX,
        p: Cycle::MAX,
        c: Cycle::MAX,
        fu_wait: None,
        mispredicted: false,
        refill_from: None,
        fetch_slot_from: None,
        fetch_bw_from: None,
        mem_dep_violation: None,
        icache_miss: false,
        dcache_miss: false,
    };
}

/// The full microexecution record of a simulation.
///
/// Each instruction's rename stalls and true data dependences are stored
/// flat, in program order, in two trace-level buffers with one end offset
/// per instruction, so a record holds no heap data of its own. Build a
/// trace with [`PipelineTrace::push`], which keeps the buffers aligned
/// with `events`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineTrace {
    /// Per committed instruction, in program order.
    pub events: Vec<InstrEvents>,
    /// Total simulated cycles (commit cycle of the last instruction).
    pub cycles: Cycle,
    pub(crate) stall_ends: Vec<u32>,
    pub(crate) stalls: Vec<RenameStall>,
    dep_ends: Vec<u32>,
    deps: Vec<InstrIdx>,
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

    /// Instruction `j`'s rename stalls and their resolving releasers, in
    /// resolution order.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not the index of a record added by
    /// [`PipelineTrace::push`] or the simulator.
    pub fn rename_stalls(&self, j: usize) -> &[RenameStall] {
        &self.stalls[span(&self.stall_ends, j)]
    }

    /// Producers of instruction `j`'s operands that were still in flight
    /// when it entered the issue window (true data dependencies), in
    /// discovery order: register producers first, then older stores whose
    /// address generation gated a load.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not the index of a record added by
    /// [`PipelineTrace::push`] or the simulator.
    pub fn data_deps(&self, j: usize) -> &[InstrIdx] {
        &self.deps[span(&self.dep_ends, j)]
    }

    /// Appends the next instruction's record with its rename stalls and
    /// data dependences.
    pub fn push(&mut self, ev: InstrEvents, stalls: &[RenameStall], deps: &[InstrIdx]) {
        self.events.push(ev);
        self.stalls.extend_from_slice(stalls);
        self.stall_ends.push(self.stalls.len() as u32);
        self.deps.extend_from_slice(deps);
        self.dep_ends.push(self.deps.len() as u32);
    }

    /// Keeps only the first `len` instructions' records.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.events.truncate(len);
        self.stall_ends.truncate(len);
        self.stalls
            .truncate(self.stall_ends.last().map_or(0, |&e| e as usize));
        self.dep_ends.truncate(len);
        self.deps
            .truncate(self.dep_ends.last().map_or(0, |&e| e as usize));
    }

    /// Empties the trace, keeping every allocation, and reserves room for
    /// `n` instructions.
    pub(crate) fn reset(&mut self, n: usize) {
        self.events.clear();
        self.events.reserve(n);
        self.cycles = 0;
        self.stall_ends.clear();
        self.stalls.clear();
        self.dep_ends.clear();
        self.deps.clear();
    }

    /// Installs every instruction's data dependences at once: instruction
    /// `j`'s are `deps[ranges[j].0..ranges[j].1]`, in any layout (the
    /// simulator discovers them in issue order).
    pub(crate) fn set_deps(&mut self, deps: &[InstrIdx], ranges: &[(u32, u32)]) {
        self.deps.clear();
        self.dep_ends.clear();
        for &(start, end) in ranges {
            self.deps
                .extend_from_slice(&deps[start as usize..end as usize]);
            self.dep_ends.push(self.deps.len() as u32);
        }
    }
}

/// The index range of entry `j` in a buffer whose entries end at `ends`.
fn span(ends: &[u32], j: usize) -> std::ops::Range<usize> {
    let start = if j == 0 { 0 } else { ends[j - 1] as usize };
    start..ends[j] as usize
}

/// Result of a simulation: the trace plus aggregate statistics. The
/// default value is an empty result, ready to be filled by
/// [`OooCore::run_into`](crate::OooCore::run_into). The simulated
/// instructions are not copied in: `trace.events[j]` describes the `j`th
/// instruction of the slice the core ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Per-instruction microexecution record.
    pub trace: PipelineTrace,
    /// Aggregate statistics (IPC, cache/branch activity, occupancies).
    pub stats: SimStats,
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
    fn discriminants_index_all() {
        for (i, &k) in ResourceKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i);
        }
        for (i, &k) in FuKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i);
        }
    }

    #[test]
    fn trace_len() {
        let mut t = PipelineTrace::default();
        t.push(InstrEvents::default(), &[], &[]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn lists_are_addressed_per_instruction() {
        let stall = |releaser| RenameStall {
            resource: ResourceKind::Iq,
            releaser,
        };
        let mut t = PipelineTrace::default();
        t.push(InstrEvents::BLANK, &[stall(7)], &[]);
        t.push(InstrEvents::BLANK, &[], &[0]);
        t.push(InstrEvents::BLANK, &[stall(1), stall(0)], &[1, 0]);
        assert_eq!(t.rename_stalls(0), &[stall(7)]);
        assert!(t.rename_stalls(1).is_empty());
        assert_eq!(t.rename_stalls(2), &[stall(1), stall(0)]);
        assert!(t.data_deps(0).is_empty());
        assert_eq!(t.data_deps(1), &[0]);
        assert_eq!(t.data_deps(2), &[1, 0]);

        let mut prefix = t.clone();
        prefix.truncate(2);
        let mut expect = PipelineTrace::default();
        expect.push(InstrEvents::BLANK, &[stall(7)], &[]);
        expect.push(InstrEvents::BLANK, &[], &[0]);
        assert_eq!(prefix, expect);

        // Issue-order dependence lists are laid out in program order.
        let mut sim = PipelineTrace::default();
        sim.reset(3);
        sim.events.resize(3, InstrEvents::BLANK);
        sim.stalls.extend([stall(7), stall(1), stall(0)]);
        sim.stall_ends.extend([1, 1, 3]);
        sim.set_deps(&[1, 0, 0], &[(0, 0), (2, 3), (0, 2)]);
        assert_eq!(sim, t);
    }
}
