//! The out-of-order core: a cycle-level pipeline model.
//!
//! Stages (paper Figure 7): `F1`/`F2` I-cache access into the fetch buffer →
//! `F` fetch queue → `DC` decode → `R` rename (all back-end resources
//! granted; the scoreboard records who unblocked each stall) → `DP`
//! dispatch into the issue queue → `I` issue (oldest-ready-first, bounded
//! by issue width and functional units) → `M` memory access → `P`
//! writeback/complete → `C` in-order commit.
//!
//! Issue is wakeup-driven: an instruction enters a program-order ready
//! list when its last producer's result is due, through per-producer
//! wakeup lists and a timed wake wheel (see `Wakeup`), so each cycle scans
//! only the operand-ready entries, not the whole issue queue.
//!
//! Misprediction is modelled trace-driven: when a fetched control transfer
//! is mispredicted (wrong direction, BTB miss on a taken branch, or RAS
//! mismatch), fetch stalls at the branch and resumes the cycle after it
//! resolves, so the measured squash latency depends on how long the branch
//! actually took to execute — the dynamic behaviour the paper's DEG needs.

use crate::bpred::BranchPredictor;
use crate::cache::Hierarchy;
use crate::check::{CheckConfig, InjectedFault, InvariantChecker};
use crate::config::{MemDepPolicy, MicroArch};
use crate::error::SimError;
use crate::fu::FuSet;
use crate::isa::{Instruction, OpClass, RegClass};
use crate::resources::Pool;
use crate::stats::SimStats;
use crate::trace::{
    Cycle, FuWait, InstrEvents, InstrIdx, PipelineTrace, RenameStall, ResourceKind, SimResult,
    NO_INSTR,
};
use std::collections::{HashMap, VecDeque};

const UNSET: Cycle = Cycle::MAX;

/// Cycles to squash the pipeline and redirect fetch after a resolved
/// misprediction (on top of the dynamic resolution time).
pub const REDIRECT_PENALTY: Cycle = 3;

/// Replay penalty charged to a load's commit after a memory-order
/// violation (store-set speculation only).
pub const MEMDEP_REPLAY: Cycle = 3;

/// Default no-commit interval after which the deadlock watchdog fires.
pub const DEADLOCK_WATCHDOG: Cycle = 1_000_000;

/// Per-instruction bookkeeping that is not part of the public trace.
/// Fields are crate-visible so the invariant checker
/// ([`crate::check`]) can audit them.
#[derive(Debug, Clone)]
pub(crate) struct Aux {
    pub(crate) rob: u32,
    pub(crate) iq: u32,
    pub(crate) lq: u32,
    pub(crate) sq: u32,
    pub(crate) reg: u32,
    pub(crate) reg_class: Option<RegClass>,
    pub(crate) src_producers: [InstrIdx; 2],
    pub(crate) fu_blocked: bool,
    /// Earliest commit cycle gate (memory-order violation replays).
    pub(crate) commit_gate: Cycle,
}

impl Default for Aux {
    fn default() -> Self {
        Aux {
            rob: u32::MAX,
            iq: u32::MAX,
            lq: u32::MAX,
            sq: u32::MAX,
            reg: u32::MAX,
            reg_class: None,
            src_producers: [NO_INSTR; 2],
            fu_blocked: false,
            commit_gate: 0,
        }
    }
}

/// A block of consecutive instructions brought in by one I-cache access.
#[derive(Debug, Clone)]
struct FetchBlock {
    /// Next instruction (index into the trace) to move to the fetch queue.
    next: InstrIdx,
    /// One past the last instruction of the block.
    end: InstrIdx,
    /// Cycle at which the block is available (F2).
    ready_at: Cycle,
}

/// The simulated out-of-order core.
///
/// ```
/// use archx_sim::{MicroArch, OooCore, trace_gen};
/// let result = OooCore::new(MicroArch::baseline())
///     .run(&trace_gen::linear_int_chain(100))
///     .expect("simulates");
/// assert_eq!(result.stats.committed, 100);
/// ```
#[derive(Debug)]
pub struct OooCore {
    arch: MicroArch,
    cycle_budget: Option<Cycle>,
    watchdog: Cycle,
    checks: Option<CheckConfig>,
}

impl OooCore {
    /// Creates a core for the given (validated) configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`OooCore::try_new`]
    /// when the configuration comes from untrusted input (e.g. a DSE
    /// search move) and a typed error is needed instead.
    pub fn new(arch: MicroArch) -> Self {
        Self::try_new(arch).expect("invalid microarchitecture")
    }

    /// Creates a core, returning [`SimError::InvalidArch`] when the
    /// configuration fails [`MicroArch::validate`].
    pub fn try_new(arch: MicroArch) -> Result<Self, SimError> {
        arch.validate()?;
        Ok(OooCore {
            arch,
            cycle_budget: None,
            watchdog: DEADLOCK_WATCHDOG,
            checks: None,
        })
    }

    /// Creates a core in the **`CheckedCore` mode**: identical simulation
    /// semantics plus per-cycle invariant checking at the default
    /// [`CheckConfig`] (see [`crate::check`]). Equivalent to
    /// `OooCore::new(arch).with_invariant_checks(CheckConfig::default())`.
    pub fn checked(arch: MicroArch) -> Self {
        Self::new(arch).with_invariant_checks(CheckConfig::default())
    }

    /// Enables the `CheckedCore` mode: every simulated cycle re-verifies
    /// the pipeline's structural invariants — in-order commit, stage-time
    /// ordering, pool occupancy bounds, free-list conservation,
    /// memory-order replay gates, and clock monotonicity — and the first
    /// violation ends the run with [`SimError::InvariantViolation`].
    ///
    /// Checks are flag-gated at runtime: a core without this call pays a
    /// single predictable branch per cycle, nothing else.
    pub fn with_invariant_checks(mut self, cfg: CheckConfig) -> Self {
        self.checks = Some(cfg);
        self
    }

    /// Caps a single simulation at `budget` cycles; exceeding it returns
    /// [`SimError::CycleBudgetExceeded`] instead of running indefinitely.
    /// Campaigns use this to bound the cost of a pathological design point.
    pub fn with_cycle_budget(mut self, budget: Cycle) -> Self {
        self.cycle_budget = Some(budget.max(1));
        self
    }

    /// Overrides the deadlock watchdog: a run with no commit for `cycles`
    /// consecutive cycles returns [`SimError::Deadlock`] (default
    /// [`DEADLOCK_WATCHDOG`]). Fault-injection tests lower this to force
    /// the failure path.
    pub fn with_deadlock_watchdog(mut self, cycles: Cycle) -> Self {
        self.watchdog = cycles.max(1);
        self
    }

    /// The configuration this core simulates.
    pub fn arch(&self) -> &MicroArch {
        &self.arch
    }

    /// Simulates the instruction stream to completion and returns the full
    /// microexecution record.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when the pipeline makes no forward
    /// progress for the watchdog interval, and
    /// [`SimError::CycleBudgetExceeded`] when a configured
    /// [cycle budget](OooCore::with_cycle_budget) runs out first.
    pub fn run(&self, instructions: &[Instruction]) -> Result<SimResult, SimError> {
        let mut out = SimResult::default();
        self.run_into(instructions, &mut out)?;
        Ok(out)
    }

    /// Like [`OooCore::run`], but overwrites `out` in place: whatever an
    /// earlier run left there is discarded, and the event table and the
    /// trace's stall and dependence buffers keep their allocations. On
    /// success `out` equals what [`run`] returns; on error its contents are
    /// unspecified, and it can still be reused.
    ///
    /// [`run`]: OooCore::run
    ///
    /// ```
    /// use archx_sim::{MicroArch, OooCore, SimResult, trace_gen};
    /// let core = OooCore::new(MicroArch::baseline());
    /// let mut out = SimResult::default();
    /// for n in [300, 100] {
    ///     let trace = trace_gen::linear_int_chain(n);
    ///     core.run_into(&trace, &mut out).expect("simulates");
    ///     assert_eq!(out, core.run(&trace).expect("simulates"));
    /// }
    /// ```
    pub fn run_into(
        &self,
        instructions: &[Instruction],
        out: &mut SimResult,
    ) -> Result<(), SimError> {
        let n = instructions.len() as InstrIdx;
        let arch = &self.arch;
        let store_sets = arch.mem_dep == MemDepPolicy::StoreSets;
        out.trace.reset(instructions.len());
        let PipelineTrace {
            events,
            stall_ends,
            stalls,
            ..
        } = &mut out.trace;
        let mut stats = SimStats::default();
        // Filled at rename, in program order.
        let mut aux: Vec<Aux> = Vec::with_capacity(instructions.len());
        // Hot timing, read by wakeup, memory ordering and commit: the
        // completion (`P`) and memory-access (`M`) cycle of every
        // instruction, `UNSET` until it issues.
        let mut p = vec![UNSET; instructions.len()];
        let mut m = vec![UNSET; instructions.len()];
        // True data dependences, appended at issue (out of program order);
        // instruction j's are `dep_buf[deps_at[j].0..deps_at[j].1]`.
        let mut dep_buf: Vec<InstrIdx> = Vec::with_capacity(instructions.len());
        let mut deps_at = vec![(0u32, 0u32); instructions.len()];
        let mut wakeup = Wakeup::new(instructions.len());
        let mut lose_wakeup = matches!(
            self.checks,
            Some(CheckConfig {
                fault: Some(InjectedFault::LostWakeup)
            })
        );

        let mut bpred = BranchPredictor::new(arch);
        let mut mem = Hierarchy::new(arch);
        let mut fus = FuSet::new(arch);

        let mut rob = Pool::new(arch.rob_entries);
        let mut iq_pool = Pool::new(arch.iq_entries);
        let mut lq_pool = Pool::new(arch.lq_entries);
        let mut sq_pool = Pool::new(arch.sq_entries);
        // Physical register files permanently hold the committed
        // architectural state; only the remainder is available for
        // renaming (as in real OoO cores — a 50-entry file over 32
        // architectural registers leaves just 18 in-flight renames).
        let mut int_rf = Pool::new(arch.int_rf - crate::config::ARCH_REGS);
        let mut fp_rf = Pool::new(arch.fp_rf - crate::config::ARCH_REGS);

        // Rename map: architectural register -> last renaming instruction.
        let mut rename_map_int = [NO_INSTR; 32];
        let mut rename_map_fp = [NO_INSTR; 32];

        // Front end.
        let mut fetch_idx: InstrIdx = 0;
        // Up to two in-flight fetch blocks: the I-cache access for the next
        // block is pipelined with draining the current one.
        let mut blocks: VecDeque<FetchBlock> = VecDeque::new();
        let mut fetch_blocked_by: Option<InstrIdx> = None;
        let mut refill_pending: Option<InstrIdx> = None;
        // Last instruction whose fetch-buffer block was fully drained (its
        // departure freed a buffer slot for the next I-cache access).
        let mut slot_releaser: Option<InstrIdx> = None;
        // Last instruction moved into the fetch queue in an earlier cycle
        // (the releaser for fetch-bandwidth waits).
        let mut last_moved: Option<InstrIdx> = None;
        let mut ftq: VecDeque<InstrIdx> = VecDeque::new();
        let mut decq: VecDeque<InstrIdx> = VecDeque::new();
        let decq_cap = (2 * arch.width) as usize;

        // Back end.
        // Resources the in-order rename head has stalled on, in the order
        // the stalls began.
        let mut blocked_kinds = KindList::default();
        // In-flight (renamed, uncommitted) stores for memory ordering, in
        // program order.
        let mut sq_live: VecDeque<InstrIdx> = VecDeque::new();
        // In-flight issued, uncommitted loads (for violation detection
        // under store-set speculation; empty otherwise).
        let mut lq_live: VecDeque<InstrIdx> = VecDeque::new();
        // Per-load-PC saturating conflict counters (store-set predictor).
        let mut conflict: HashMap<u64, u8> = HashMap::new();

        let mut checker = self.checks.map(InvariantChecker::new);
        let mut commit_head: InstrIdx = 0;
        let mut cycle: Cycle = 0;
        let mut last_commit_cycle: Cycle = 0;
        let mut occupancy_acc = [0u64; 6];
        // Completion times of issued instructions — the next possible
        // wakeup/commit events, used to fast-forward idle cycles.
        let mut completions = Completions::default();

        while commit_head < n {
            // ---- Commit (in-order, up to width per cycle) ----
            let commit_start = commit_head;
            let mut committed_now = 0;
            while committed_now < arch.width
                && commit_head < n
                && p[commit_head as usize] < cycle
                && aux[commit_head as usize].commit_gate < cycle
            {
                let j = commit_head;
                let ja = &mut aux[j as usize];
                events[j as usize].c = cycle;
                rob.release(ja.rob, j);
                if ja.lq != u32::MAX {
                    lq_pool.release(ja.lq, j);
                    if store_sets {
                        if let Some(pos) = lq_live.iter().position(|&s| s == j) {
                            lq_live.remove(pos);
                        }
                    }
                }
                if ja.sq != u32::MAX {
                    sq_pool.release(ja.sq, j);
                    // Stores commit in program order: the oldest live one.
                    let oldest = sq_live.pop_front();
                    debug_assert_eq!(oldest, Some(j));
                }
                if ja.reg != u32::MAX {
                    match ja.reg_class {
                        Some(RegClass::Int) => int_rf.release(ja.reg, j),
                        Some(RegClass::Fp) => fp_rf.release(ja.reg, j),
                        None => unreachable!("register grant without class"),
                    }
                }
                stats.committed += 1;
                commit_head += 1;
                committed_now += 1;
                last_commit_cycle = cycle;
            }

            // ---- Issue (oldest-ready-first) ----
            // Only entries whose operands are ready are examined, in
            // program order. Memory ordering and the functional unit are
            // checked at scan time because both can change while an entry
            // waits (an older store resolves, a conflict counter rises, a
            // unit frees).
            wakeup.collect_due(cycle);
            let mut issued_now = 0;
            let mut kept = 0;
            let mut k = 0;
            while k < wakeup.ready.len() && issued_now < arch.width {
                let j = wakeup.ready[k];
                k += 1;
                let instr = &instructions[j as usize];
                // Memory ordering: conservatively, loads wait until all
                // older live stores know their address; under store-set
                // speculation only previously-conflicting load PCs wait.
                if instr.op == OpClass::Load {
                    let must_wait = match arch.mem_dep {
                        MemDepPolicy::Conservative => true,
                        MemDepPolicy::StoreSets => {
                            conflict.get(&instr.pc).copied().unwrap_or(0) >= 2
                        }
                    };
                    if must_wait
                        && sq_live
                            .iter()
                            .take_while(|&&s| s < j)
                            .any(|&s| m[s as usize] > cycle)
                    {
                        wakeup.ready[kept] = j;
                        kept += 1;
                        continue;
                    }
                }
                // Functional unit.
                let fu_kind = FuSet::kind_for(instr.op);
                let Some(last_user) =
                    fus.pool_mut(fu_kind)
                        .try_acquire(cycle, FuSet::occupancy(instr.op), j)
                else {
                    aux[j as usize].fu_blocked = true;
                    wakeup.ready[kept] = j;
                    kept += 1;
                    continue;
                };
                stats.fu_issued[fu_kind as usize] += 1;

                // Record timing.
                let issue_at = cycle;
                let (m_at, p_at, dcache_miss) = match instr.op {
                    OpClass::Load => {
                        let m_at = issue_at + 1;
                        // Store-to-load forwarding from the youngest older
                        // matching store.
                        let fwd = sq_live
                            .iter()
                            .rev()
                            .any(|&s| s < j && instructions[s as usize].mem_addr == instr.mem_addr);
                        if fwd {
                            stats.store_forwards += 1;
                            (m_at, m_at + 1, false)
                        } else {
                            let acc = mem.data(instr.mem_addr);
                            stats.dcache_accesses += 1;
                            if acc.l1_miss {
                                stats.dcache_misses += 1;
                                stats.l2_accesses += 1;
                            }
                            if acc.l2_miss {
                                stats.l2_misses += 1;
                            }
                            (m_at, m_at + acc.latency, acc.l1_miss)
                        }
                    }
                    OpClass::Store => {
                        let m_at = issue_at + 1;
                        let acc = mem.data(instr.mem_addr);
                        stats.dcache_accesses += 1;
                        if acc.l1_miss {
                            stats.dcache_misses += 1;
                            stats.l2_accesses += 1;
                        }
                        if acc.l2_miss {
                            stats.l2_misses += 1;
                        }
                        // Store latency is hidden by the store buffer.
                        (m_at, m_at + 1, acc.l1_miss)
                    }
                    op => {
                        let lat = op.exec_latency();
                        (issue_at, issue_at + lat, false)
                    }
                };

                completions.insert(cycle, p_at);
                p[j as usize] = p_at;
                m[j as usize] = m_at;
                let je = &mut events[j as usize];
                je.i = issue_at;
                je.m = m_at;
                je.p = p_at;
                je.dcache_miss = dcache_miss;
                if aux[j as usize].fu_blocked && last_user != NO_INSTR {
                    je.fu_wait = Some(FuWait {
                        fu: fu_kind,
                        releaser: last_user,
                    });
                }
                // True data dependencies: producers still in flight at
                // dispatch time.
                let dp_at = je.dp;
                let first = dep_buf.len();
                for prod in aux[j as usize].src_producers {
                    if prod != NO_INSTR
                        && p[prod as usize] > dp_at
                        && !dep_buf[first..].contains(&prod)
                    {
                        dep_buf.push(prod);
                    }
                }
                if instr.op == OpClass::Load {
                    // A store whose address generation gated this load —
                    // only a dependence when the load actually waited for
                    // it (speculative loads that issued before the store's
                    // address resolved have no such edge).
                    for &s in sq_live.iter().take_while(|&&s| s < j) {
                        let ms = m[s as usize];
                        if ms <= issue_at && ms > dp_at && !dep_buf[first..].contains(&s) {
                            dep_buf.push(s);
                        }
                    }
                }
                deps_at[j as usize] = (first as u32, dep_buf.len() as u32);

                // Track issued loads; detect memory-order violations when
                // a store's address resolves after a younger load issued.
                if store_sets && instr.op == OpClass::Load {
                    lq_live.push_back(j);
                } else if store_sets && instr.op == OpClass::Store {
                    let store_addr = instr.mem_addr;
                    for &ld in lq_live.iter() {
                        if ld > j
                            && instructions[ld as usize].mem_addr == store_addr
                            && events[ld as usize].i < m_at
                            && events[ld as usize].mem_dep_violation.is_none()
                        {
                            events[ld as usize].mem_dep_violation = Some(j);
                            let gate = m_at + MEMDEP_REPLAY;
                            let la = &mut aux[ld as usize];
                            la.commit_gate = la.commit_gate.max(gate);
                            let c = conflict.entry(instructions[ld as usize].pc).or_insert(0);
                            *c = (*c + 2).min(3);
                            stats.mem_dep_violations += 1;
                        }
                    }
                }

                // Wake the consumers waiting on this result.
                wakeup.complete(j, p_at, &mut lose_wakeup);
                // Free the IQ entry at issue.
                iq_pool.release(aux[j as usize].iq, j);
                issued_now += 1;
            }
            // Entries past the width cutoff stay, unexamined.
            let len = wakeup.ready.len();
            wakeup.ready.copy_within(k..len, kept);
            wakeup.ready.truncate(kept + (len - k));

            // ---- Rename (in-order, up to width per cycle) ----
            let mut renamed_now = 0;
            while renamed_now < arch.width {
                let Some(&j) = decq.front() else { break };
                if events[j as usize].dc >= cycle {
                    break;
                }
                let instr = &instructions[j as usize];
                // Determine requirements.
                let need_lq = instr.op == OpClass::Load;
                let need_sq = instr.op == OpClass::Store;
                let dst_class = instr.dst.map(|d| d.class);

                let mut missing = KindList::default();
                if !rob.has(1) {
                    missing.push(ResourceKind::Rob);
                }
                if !iq_pool.has(1) {
                    missing.push(ResourceKind::Iq);
                }
                if need_lq && !lq_pool.has(1) {
                    missing.push(ResourceKind::Lq);
                }
                if need_sq && !sq_pool.has(1) {
                    missing.push(ResourceKind::Sq);
                }
                match dst_class {
                    Some(RegClass::Int) if !int_rf.has(1) => missing.push(ResourceKind::IntRf),
                    Some(RegClass::Fp) if !fp_rf.has(1) => missing.push(ResourceKind::FpRf),
                    _ => {}
                }
                if !missing.is_empty() {
                    for &kind in missing.as_slice() {
                        blocked_kinds.push(kind);
                        stats.rename_stall_cycles[kind as usize] += 1;
                    }
                    break; // in-order rename stalls the whole stage
                }

                // All resources available: allocate and record provenance.
                debug_assert_eq!(aux.len(), j as usize, "rename is in order");
                let mut ja = Aux::default();
                let rob_grant = rob.alloc(j).expect("checked above");
                ja.rob = rob_grant.entry;
                let iq_grant = iq_pool.alloc(j).expect("checked above");
                ja.iq = iq_grant.entry;
                let lq_grant = need_lq.then(|| lq_pool.alloc(j).expect("checked above"));
                if let Some(g) = lq_grant {
                    ja.lq = g.entry;
                }
                let sq_grant = need_sq.then(|| sq_pool.alloc(j).expect("checked above"));
                if let Some(g) = sq_grant {
                    ja.sq = g.entry;
                }
                let reg_grant = match dst_class {
                    Some(RegClass::Int) => {
                        let g = int_rf.alloc(j).expect("checked above");
                        ja.reg = g.entry;
                        ja.reg_class = Some(RegClass::Int);
                        Some(g)
                    }
                    Some(RegClass::Fp) => {
                        let g = fp_rf.alloc(j).expect("checked above");
                        ja.reg = g.entry;
                        ja.reg_class = Some(RegClass::Fp);
                        Some(g)
                    }
                    None => None,
                };

                // Source producers from the rename map; the instruction
                // waits on those that have not issued yet.
                for s in 0..2 {
                    if let Some(reg) = instr.srcs[s] {
                        let map = match reg.class {
                            RegClass::Int => &rename_map_int,
                            RegClass::Fp => &rename_map_fp,
                        };
                        ja.src_producers[s] = map[reg.idx as usize];
                    }
                }
                wakeup.dispatch(j, cycle + 1, ja.src_producers, &p);
                aux.push(ja);
                if let Some(dst) = instr.dst {
                    match dst.class {
                        RegClass::Int => rename_map_int[dst.idx as usize] = j,
                        RegClass::Fp => rename_map_fp[dst.idx as usize] = j,
                    }
                }

                // Record which stalls this instruction experienced, with the
                // scoreboard's releaser for the entry that unblocked it.
                for &kind in blocked_kinds.as_slice() {
                    let releaser = match kind {
                        ResourceKind::Rob => rob_grant.last_releaser,
                        ResourceKind::Iq => iq_grant.last_releaser,
                        ResourceKind::Lq => lq_grant.map_or(NO_INSTR, |g| g.last_releaser),
                        ResourceKind::Sq => sq_grant.map_or(NO_INSTR, |g| g.last_releaser),
                        ResourceKind::IntRf | ResourceKind::FpRf => {
                            reg_grant.map_or(NO_INSTR, |g| g.last_releaser)
                        }
                    };
                    stalls.push(RenameStall {
                        resource: kind,
                        releaser,
                    });
                }
                stall_ends.push(stalls.len() as u32);
                blocked_kinds = KindList::default();
                let je = &mut events[j as usize];
                je.r = cycle;
                je.dp = cycle + 1;

                if need_sq {
                    sq_live.push_back(j);
                }
                decq.pop_front();
                renamed_now += 1;
            }

            // ---- Decode ----
            let mut decoded_now = 0;
            while decoded_now < arch.width && decq.len() < decq_cap {
                let Some(&j) = ftq.front() else { break };
                if events[j as usize].f >= cycle {
                    break;
                }
                events[j as usize].dc = cycle;
                ftq.pop_front();
                decq.push_back(j);
                decoded_now += 1;
            }

            // ---- Fetch: move from the fetch buffer into the fetch queue ----
            let mut fetched_now = 0;
            let bw_releaser = last_moved;
            let mut moved_this_cycle: Option<InstrIdx> = None;
            while fetched_now < arch.width {
                let Some(b) = blocks.front_mut() else { break };
                if b.next == b.end {
                    slot_releaser = Some(b.end - 1);
                    blocks.pop_front();
                    continue;
                }
                if b.ready_at > cycle || (ftq.len() as u32) >= arch.fetch_queue_uops {
                    break;
                }
                let j = b.next;
                events[j as usize].f = cycle;
                if events[j as usize].f2 < cycle {
                    // The instruction sat ready in the fetch buffer: a
                    // front-end bandwidth / fetch-queue wait.
                    events[j as usize].fetch_bw_from = bw_releaser;
                }
                ftq.push_back(j);
                moved_this_cycle = Some(j);
                b.next += 1;
                fetched_now += 1;
            }
            if moved_this_cycle.is_some() {
                last_moved = moved_this_cycle;
            }
            if let Some(b) = blocks.front() {
                if b.next == b.end {
                    slot_releaser = Some(b.end - 1);
                    blocks.pop_front();
                }
            }

            // ---- Fetch: unblock after a resolved misprediction ----
            // Squash and front-end redirect cost a few cycles on top of
            // the (dynamic) branch resolution time.
            if let Some(b) = fetch_blocked_by {
                let pb = p[b as usize];
                if pb != UNSET && cycle >= pb + REDIRECT_PENALTY {
                    fetch_blocked_by = None;
                }
            }

            // ---- Fetch: start a new I-cache access (pipelined, two deep) ----
            if blocks.len() < 2 && fetch_blocked_by.is_none() && fetch_idx < n {
                let start = fetch_idx;
                let pc = instructions[start as usize].pc;
                let acc = mem.fetch(pc);
                stats.icache_accesses += 1;
                if acc.l1_miss {
                    stats.icache_misses += 1;
                    stats.l2_accesses += 1;
                }
                if acc.l2_miss {
                    stats.l2_misses += 1;
                }
                let f1 = cycle;
                let f2 = cycle + acc.latency;
                let max_instrs = self.arch.fetch_buffer_instrs();
                let mut end = start;
                let mut blocked: Option<InstrIdx> = None;
                while end < n && end - start < max_instrs {
                    let j = end;
                    let instr = &instructions[j as usize];
                    let mut stop_after = false;
                    if instr.op.is_branch() {
                        let pred = bpred.predict_and_update(instr);
                        stats.bp_lookups += 1;
                        let correct = BranchPredictor::correct(pred, instr);
                        if !correct {
                            stats.mispredicts += 1;
                            blocked = Some(j);
                            stop_after = true;
                        } else if instr.control_taken() {
                            stop_after = true; // correctly predicted taken: redirect
                        }
                    }
                    end += 1;
                    if stop_after {
                        break;
                    }
                }
                // Fetch is in program order: the block's records start here.
                debug_assert_eq!(events.len(), start as usize);
                for j in start..end {
                    let mut ev = InstrEvents {
                        f1,
                        f2,
                        mispredicted: blocked == Some(j),
                        ..InstrEvents::BLANK
                    };
                    if j == start {
                        ev.icache_miss = acc.l1_miss;
                        if let Some(from) = refill_pending.take() {
                            // After a squash, the misprediction (not the
                            // buffer slot) is the binding dependence.
                            ev.refill_from = Some(from);
                        } else {
                            ev.fetch_slot_from = slot_releaser;
                        }
                    }
                    events.push(ev);
                }
                blocks.push_back(FetchBlock {
                    next: start,
                    end,
                    ready_at: f2,
                });
                fetch_idx = end;
                if let Some(b) = blocked {
                    fetch_blocked_by = Some(b);
                    refill_pending = Some(b);
                }
            }

            // ---- Invariant checks (CheckedCore mode only) ----
            if let Some(chk) = checker.as_mut() {
                chk.end_of_cycle(
                    cycle,
                    commit_start..commit_head,
                    events,
                    &aux,
                    [
                        (&rob, ResourceKind::Rob),
                        (&iq_pool, ResourceKind::Iq),
                        (&lq_pool, ResourceKind::Lq),
                        (&sq_pool, ResourceKind::Sq),
                        (&int_rf, ResourceKind::IntRf),
                        (&fp_rf, ResourceKind::FpRf),
                    ],
                    &wakeup,
                )?;
            }

            // ---- Idle fast-forward ----
            // When a cycle passed with no activity at any stage, nothing can
            // happen until the next timed event: a fetch block arriving, a
            // squash resolving, or an in-flight instruction completing
            // (which drives wakeup, FU release, resource release and
            // commit). Jump straight there; all recorded event times are
            // unaffected because no event could fall in the gap.
            let idle = committed_now == 0
                && issued_now == 0
                && renamed_now == 0
                && decoded_now == 0
                && fetched_now == 0;
            let mut advance: Cycle = 1;
            if idle {
                // A pending fetch-block creation next cycle forbids jumping.
                let creation_pending =
                    blocks.len() < 2 && fetch_blocked_by.is_none() && fetch_idx < n;
                if !creation_pending {
                    let mut target = Cycle::MAX;
                    if let Some(b) = blocks.front() {
                        target = target.min(b.ready_at);
                    }
                    if let Some(b) = fetch_blocked_by {
                        let pb = p[b as usize];
                        if pb != UNSET {
                            target = target.min(pb + REDIRECT_PENALTY);
                        }
                    }
                    if let Some(pc) = completions.next_after(cycle) {
                        target = target.min(pc);
                    }
                    if target != Cycle::MAX && target > cycle + 1 {
                        advance = target - cycle;
                    }
                }
            }

            // ---- Occupancy sampling (idle gaps keep their occupancy) ----
            occupancy_acc[0] += rob.in_use() as u64 * advance;
            occupancy_acc[1] += iq_pool.in_use() as u64 * advance;
            occupancy_acc[2] += lq_pool.in_use() as u64 * advance;
            occupancy_acc[3] += sq_pool.in_use() as u64 * advance;
            occupancy_acc[4] += int_rf.in_use() as u64 * advance;
            occupancy_acc[5] += fp_rf.in_use() as u64 * advance;
            // Rename stalls persist through the skipped cycles.
            if advance > 1 {
                for &kind in blocked_kinds.as_slice() {
                    stats.rename_stall_cycles[kind as usize] += advance - 1;
                }
            }

            cycle += advance;
            completions.forget_through(cycle);
            if cycle - last_commit_cycle >= self.watchdog {
                return Err(SimError::Deadlock {
                    cycle,
                    commit_head,
                    watchdog: self.watchdog,
                });
            }
            if let Some(budget) = self.cycle_budget {
                if cycle > budget {
                    return Err(SimError::CycleBudgetExceeded {
                        budget,
                        committed: stats.committed,
                        total: instructions.len() as u64,
                    });
                }
            }
        }

        let total_cycles = events
            .last()
            .map(|e| e.c)
            .filter(|&c| c != UNSET)
            .unwrap_or(cycle);
        stats.cycles = total_cycles;
        stats.btb_misses = bpred.btb_misses();
        for (i, acc) in occupancy_acc.iter().enumerate() {
            stats.avg_occupancy[i] = if cycle > 0 {
                *acc as f64 / cycle as f64
            } else {
                0.0
            };
        }

        out.trace.set_deps(&dep_buf, &deps_at);
        out.trace.cycles = total_cycles;
        out.stats = stats;
        Ok(())
    }
}

/// Up to one entry per resource kind, in the order they were added.
#[derive(Debug, Clone, Copy)]
struct KindList {
    kinds: [ResourceKind; 6],
    len: usize,
}

impl Default for KindList {
    fn default() -> Self {
        KindList {
            kinds: [ResourceKind::Rob; 6],
            len: 0,
        }
    }
}

impl KindList {
    /// Adds `kind` unless it is already listed.
    fn push(&mut self, kind: ResourceKind) {
        if !self.as_slice().contains(&kind) {
            self.kinds[self.len] = kind;
            self.len += 1;
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn as_slice(&self) -> &[ResourceKind] {
        &self.kinds[..self.len]
    }
}

const NO_SLOT: u32 = u32::MAX;

/// Cycles per turn of the timing wheels: a power of two above the longest
/// issue-to-completion latency (a load that misses to DRAM, 1 + L1 + L2 +
/// DRAM cycles), so an entry scheduled by issue or dispatch is less than a
/// turn ahead.
const WHEEL: usize = 256;
const _: () = assert!(
    WHEEL as Cycle
        > 1 + crate::config::L1_HIT_CYCLES
            + crate::config::L2_HIT_CYCLES
            + crate::config::DRAM_CYCLES
);

/// Wakeup-driven issue bookkeeping.
///
/// At dispatch, each instruction registers source slot `2j + s` on the
/// list of every producer that has not issued yet; the lists are
/// intrusive (`head` per producer, `next` per slot), so nothing is
/// allocated per instruction. When a producer issues, it walks its list:
/// each consumer's operand-ready time becomes the latest of its dispatch
/// cycle and its producers' completion cycles, and a consumer with no
/// unissued producer left is scheduled on the timed wake wheel. Each
/// cycle, the entries due move to `ready`, which the issue stage scans in
/// program order. Fields are crate-visible so the invariant checker
/// ([`crate::check`]) can audit them.
#[derive(Debug)]
pub(crate) struct Wakeup {
    /// First consumer slot waiting on each producer.
    head: Vec<u32>,
    /// Next slot on the same producer's list.
    next: Vec<u32>,
    /// Producers each instruction still waits on to issue.
    waiting: Vec<u8>,
    /// Operand-ready cycle: dispatch and every known producer completion.
    pub(crate) ready_at: Vec<Cycle>,
    /// Timed wake wheel: instructions with no unissued producer, listed
    /// (through `link`) in bucket `ready_at % WHEEL`.
    bucket: [u32; WHEEL],
    link: Vec<u32>,
    /// First cycle whose bucket has not been drained yet.
    undrained: Cycle,
    /// Operand-ready, unissued instructions in program order.
    pub(crate) ready: Vec<InstrIdx>,
}

impl Wakeup {
    fn new(n: usize) -> Self {
        Wakeup {
            head: vec![NO_SLOT; n],
            next: vec![NO_SLOT; 2 * n],
            waiting: vec![0; n],
            ready_at: vec![0; n],
            bucket: [NO_SLOT; WHEEL],
            link: vec![NO_SLOT; n],
            undrained: 0,
            ready: Vec::new(),
        }
    }

    /// Puts `j` on the wheel, in the bucket of its operand-ready cycle.
    fn schedule(&mut self, j: usize) {
        let b = self.ready_at[j] as usize % WHEEL;
        self.link[j] = self.bucket[b];
        self.bucket[b] = j as u32;
    }

    /// Enters instruction `j`, dispatched at `dp`, with source producers
    /// `producers` whose completion cycles (`UNSET` until issue) are `p`.
    fn dispatch(&mut self, j: InstrIdx, dp: Cycle, producers: [InstrIdx; 2], p: &[Cycle]) {
        let ju = j as usize;
        let mut ready_at = dp;
        for (s, prod) in producers.into_iter().enumerate() {
            if prod == NO_INSTR {
                continue;
            }
            let pp = p[prod as usize];
            if pp == UNSET {
                let slot = 2 * j + s as u32;
                self.next[slot as usize] = self.head[prod as usize];
                self.head[prod as usize] = slot;
                self.waiting[ju] += 1;
            } else {
                ready_at = ready_at.max(pp);
            }
        }
        self.ready_at[ju] = ready_at;
        if self.waiting[ju] == 0 {
            self.schedule(ju);
        }
    }

    /// Producer `j` issued and completes at `p`: update its consumers.
    /// When `lose` is set, the first consumer made ready is dropped (the
    /// [`InjectedFault::LostWakeup`] fault) and `lose` is cleared.
    fn complete(&mut self, j: InstrIdx, p: Cycle, lose: &mut bool) {
        let mut slot = self.head[j as usize];
        while slot != NO_SLOT {
            let c = (slot / 2) as usize;
            self.ready_at[c] = self.ready_at[c].max(p);
            self.waiting[c] -= 1;
            if self.waiting[c] == 0 {
                if *lose {
                    *lose = false;
                } else {
                    self.schedule(c);
                }
            }
            slot = self.next[slot as usize];
        }
    }

    /// Moves every entry due by `cycle` into the ready list, keeping it in
    /// program order. Drains the buckets of the cycles since the last call
    /// (all of them after a jump of a whole turn); an entry a full turn or
    /// more ahead stays in its bucket.
    fn collect_due(&mut self, cycle: Cycle) {
        let before = self.ready.len();
        let span = (cycle + 1 - self.undrained).min(WHEEL as Cycle);
        for t in cycle + 1 - span..=cycle {
            let b = t as usize % WHEEL;
            let mut j = std::mem::replace(&mut self.bucket[b], NO_SLOT);
            while j != NO_SLOT {
                let next = self.link[j as usize];
                if self.ready_at[j as usize] <= cycle {
                    self.ready.push(j);
                } else {
                    self.link[j as usize] = self.bucket[b];
                    self.bucket[b] = j;
                }
                j = next;
            }
        }
        self.undrained = cycle + 1;
        if self.ready.len() != before {
            self.ready.sort_unstable();
        }
    }

    /// Whether `j` is scheduled in the wake wheel.
    pub(crate) fn scheduled(&self, j: InstrIdx) -> bool {
        let mut k = self.bucket[self.ready_at[j as usize] as usize % WHEEL];
        while k != NO_SLOT {
            if k == j {
                return true;
            }
            k = self.link[k as usize];
        }
        false
    }
}

/// The cycles at which issued, uncommitted instructions complete — the
/// events the idle fast-forward may jump to. One bit per cycle of the
/// next turn, indexed modulo `WHEEL`; bits of past cycles are cleared as
/// time advances, so a set bit names one future cycle.
#[derive(Debug, Default)]
struct Completions {
    bits: [u64; WHEEL / 64],
    /// Every bit for a cycle up to this one is clear.
    forgotten: Cycle,
}

impl Completions {
    /// Records a completion at `p`, issued at `cycle`.
    fn insert(&mut self, cycle: Cycle, p: Cycle) {
        assert!(
            p > cycle && p - cycle < WHEEL as Cycle,
            "completion {p} out of the wheel at cycle {cycle}"
        );
        let b = p as usize % WHEEL;
        self.bits[b / 64] |= 1 << (b % 64);
    }

    /// Clears the bits of every cycle up to `cycle`.
    fn forget_through(&mut self, cycle: Cycle) {
        if cycle - self.forgotten >= WHEEL as Cycle {
            self.bits = [0; WHEEL / 64];
        } else {
            for t in self.forgotten + 1..=cycle {
                let b = t as usize % WHEEL;
                self.bits[b / 64] &= !(1 << (b % 64));
            }
        }
        self.forgotten = cycle;
    }

    /// The earliest recorded completion after `cycle` (whose bits up to
    /// `cycle` must already be forgotten).
    fn next_after(&self, cycle: Cycle) -> Option<Cycle> {
        debug_assert_eq!(self.forgotten, cycle);
        let mut scanned = 0;
        while scanned < WHEEL {
            let pos = (cycle as usize + 1 + scanned) % WHEEL;
            let word = self.bits[pos / 64] >> (pos % 64);
            if word != 0 {
                let at = scanned + word.trailing_zeros() as usize;
                return (at < WHEEL).then(|| cycle + 1 + at as Cycle);
            }
            scanned += 64 - pos % 64;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FuKind;
    use crate::trace_gen;

    #[test]
    fn empty_trace() {
        let r = OooCore::new(MicroArch::baseline())
            .run(&[])
            .expect("simulates");
        assert_eq!(r.stats.committed, 0);
        assert_eq!(r.trace.cycles, 0);
    }

    #[test]
    fn all_instructions_commit_in_order() {
        let instrs = trace_gen::linear_int_chain(500);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        assert_eq!(r.stats.committed, 500);
        let mut prev = 0;
        for ev in &r.trace.events {
            assert!(ev.c >= prev, "commit must be monotone");
            prev = ev.c;
            // Stage ordering invariants.
            assert!(ev.f1 <= ev.f2);
            assert!(ev.f2 <= ev.f);
            assert!(ev.f < ev.dc);
            assert!(ev.dc < ev.r);
            assert!(ev.r < ev.dp);
            assert!(ev.dp <= ev.i);
            assert!(ev.i <= ev.m);
            assert!(ev.m < ev.p);
            assert!(ev.p < ev.c);
        }
    }

    #[test]
    fn dependent_chain_is_serial() {
        // A chain of dependent ALU ops cannot exceed IPC 1.
        let instrs = trace_gen::linear_int_chain(2000);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        assert!(
            r.stats.ipc() <= 1.05,
            "chain IPC {} must be ~1",
            r.stats.ipc()
        );
    }

    #[test]
    fn independent_ops_superscalar() {
        let instrs = trace_gen::independent_int_ops(20_000);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        assert!(
            r.stats.ipc() > 1.5,
            "independent ops should exceed IPC 1.5, got {}",
            r.stats.ipc()
        );
    }

    #[test]
    fn wider_machine_is_not_slower() {
        let instrs = trace_gen::independent_int_ops(4000);
        let narrow = {
            let mut a = MicroArch::baseline();
            a.width = 1;
            OooCore::new(a)
                .run(&instrs)
                .expect("simulates")
                .stats
                .cycles
        };
        let wide = {
            let mut a = MicroArch::baseline();
            a.width = 8;
            a.int_alu = 6;
            OooCore::new(a)
                .run(&instrs)
                .expect("simulates")
                .stats
                .cycles
        };
        assert!(wide < narrow, "8-wide {wide} must beat 1-wide {narrow}");
    }

    #[test]
    fn small_int_rf_generates_rename_stalls() {
        let instrs = trace_gen::independent_int_ops(20_000);
        let mut a = MicroArch::baseline();
        a.int_rf = 40;
        a.rob_entries = 256;
        a.iq_entries = 80;
        let r = OooCore::new(a).run(&instrs).expect("simulates");
        assert!(
            r.stats.stall_cycles(ResourceKind::IntRf) > 0,
            "a 40-entry IntRF must stall: {:?}",
            r.stats.rename_stall_cycles
        );
        // Stalled instructions name their releaser.
        let with_stall = (0..r.trace.len())
            .filter(|&j| {
                r.trace
                    .rename_stalls(j)
                    .iter()
                    .any(|s| s.resource == ResourceKind::IntRf)
            })
            .count();
        assert!(with_stall > 0);
    }

    #[test]
    fn mispredicted_branches_block_fetch() {
        let instrs = trace_gen::random_branches(2000, 0xDEADBEEF);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        assert!(r.stats.mispredicts > 0, "random branches must mispredict");
        // Every refill points back at a mispredicted instruction, and
        // fetch of the refill begins strictly after resolution.
        let mut seen = 0;
        for (j, ev) in r.trace.events.iter().enumerate() {
            if let Some(from) = ev.refill_from {
                assert!((from as usize) < j);
                assert!(r.trace.events[from as usize].mispredicted);
                assert!(ev.f1 >= r.trace.events[from as usize].p);
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn loads_hit_and_miss() {
        let instrs = trace_gen::pointer_chase(3000, 1 << 22, 0x1234);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        assert!(
            r.stats.dcache_misses > 0,
            "a 4 MiB footprint must miss a 32 KiB L1"
        );
        assert!(r.stats.dcache_accesses >= r.stats.dcache_misses);
    }

    #[test]
    fn store_forwarding_counts() {
        let instrs = trace_gen::store_load_pairs(1000);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        assert!(
            r.stats.store_forwards > 0,
            "same-address pairs must forward"
        );
    }

    #[test]
    fn deterministic() {
        let instrs = trace_gen::mixed_workload(3000, 42);
        let a = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        let b = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn fu_contention_records_waits() {
        // Many divides through a single divider.
        let instrs = trace_gen::divide_heavy(500);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        let waits = r
            .trace
            .events
            .iter()
            .filter(|e| matches!(e.fu_wait, Some(w) if w.fu == FuKind::IntMultDiv))
            .count();
        assert!(waits > 0, "serialised divides must record FU waits");
    }

    #[test]
    fn wakeup_schedules_consumers_when_their_last_producer_issues() {
        let mut w = Wakeup::new(4);
        let p = [UNSET; 4];
        let mut lose = false;
        w.dispatch(0, 1, [NO_INSTR; 2], &p);
        w.dispatch(1, 2, [0, NO_INSTR], &p);
        w.dispatch(2, 2, [0, 1], &p);
        w.collect_due(1);
        assert_eq!(w.ready, [0]);
        w.ready.clear();
        w.complete(0, 5, &mut lose);
        // Instruction 2 still waits on 1; instruction 1 is due at 5.
        w.collect_due(4);
        assert!(w.ready.is_empty());
        w.collect_due(5);
        assert_eq!(w.ready, [1]);
        w.ready.clear();
        w.complete(1, 9, &mut lose);
        w.collect_due(8);
        assert!(w.ready.is_empty() && w.scheduled(2));
        // A jump past the due cycle still collects it.
        w.collect_due(40);
        assert_eq!(w.ready, [2]);
        assert!(!w.scheduled(2));
    }

    #[test]
    fn wake_wheel_keeps_entries_a_turn_ahead() {
        let turn = WHEEL as Cycle;
        let mut w = Wakeup::new(3);
        let p = [UNSET; 3];
        w.dispatch(2, 1 + turn, [NO_INSTR; 2], &p);
        w.dispatch(0, 1, [NO_INSTR; 2], &p);
        w.collect_due(1);
        assert_eq!(w.ready, [0], "the entry a turn ahead shares the bucket");
        w.collect_due(turn);
        assert_eq!(w.ready, [0]);
        w.collect_due(3 * turn);
        assert_eq!(w.ready, [0, 2]);
    }

    #[test]
    fn completions_name_the_next_event_within_a_turn() {
        let mut c = Completions::default();
        assert_eq!(c.next_after(0), None);
        c.insert(0, 5);
        c.insert(0, 115);
        assert_eq!(c.next_after(0), Some(5));
        c.forget_through(5);
        assert_eq!(c.next_after(5), Some(115));
        c.insert(5, 6);
        assert_eq!(c.next_after(5), Some(6));
        c.forget_through(200);
        assert_eq!(c.next_after(200), None);
        c.insert(200, 200 + WHEEL as Cycle - 1);
        assert_eq!(c.next_after(200), Some(200 + WHEEL as Cycle - 1));
        c.forget_through(10_000);
        assert_eq!(c.next_after(10_000), None);
    }

    #[test]
    fn run_into_matches_run_across_reuse() {
        let core = OooCore::new(MicroArch::baseline());
        let mut out = SimResult::default();
        for seed in [1u64, 2, 3] {
            let trace = trace_gen::mixed_workload(2_000, seed);
            core.run_into(&trace, &mut out).expect("simulates");
            assert_eq!(out, core.run(&trace).expect("simulates"));
        }
    }

    #[test]
    fn run_into_overwrites_a_result_of_another_length_and_arch() {
        let mut out = SimResult::default();
        let mut arch = MicroArch::baseline();
        for (n, width) in [(3_000usize, 4u32), (500, 2), (1_500, 8)] {
            arch.width = width;
            arch.int_alu = width.max(3);
            let core = OooCore::new(arch);
            let trace = trace_gen::mixed_workload(n, 7);
            core.run_into(&trace, &mut out).expect("simulates");
            assert_eq!(out, core.run(&trace).expect("simulates"));
        }
    }

    #[test]
    fn run_into_overwrites_a_result_left_by_a_failed_run() {
        let trace = trace_gen::mixed_workload(5_000, 1);
        let mut out = SimResult::default();
        let starved = OooCore::new(MicroArch::baseline()).with_cycle_budget(10);
        assert!(starved.run_into(&trace, &mut out).is_err());
        let core = OooCore::new(MicroArch::baseline());
        core.run_into(&trace[..4_000], &mut out).expect("simulates");
        assert_eq!(out, core.run(&trace[..4_000]).expect("simulates"));
    }
}
