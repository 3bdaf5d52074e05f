//! The out-of-order core: a cycle-level pipeline model.
//!
//! Stages (paper Figure 7): `F1`/`F2` I-cache access into the fetch buffer →
//! `F` fetch queue → `DC` decode → `R` rename (all back-end resources
//! granted; the scoreboard records who unblocked each stall) → `DP`
//! dispatch into the issue queue → `I` issue (oldest-ready-first, bounded
//! by issue width and functional units) → `M` memory access → `P`
//! writeback/complete → `C` in-order commit.
//!
//! Misprediction is modelled trace-driven: when a fetched control transfer
//! is mispredicted (wrong direction, BTB miss on a taken branch, or RAS
//! mismatch), fetch stalls at the branch and resumes the cycle after it
//! resolves, so the measured squash latency depends on how long the branch
//! actually took to execute — the dynamic behaviour the paper's DEG needs.

use crate::bpred::BranchPredictor;
use crate::cache::Hierarchy;
use crate::check::{CheckConfig, InvariantChecker};
use crate::config::{MemDepPolicy, MicroArch};
use crate::error::SimError;
use crate::fu::FuSet;
use crate::isa::{Instruction, OpClass, RegClass};
use crate::resources::Pool;
use crate::stats::SimStats;
use crate::trace::{
    Cycle, FuKind, FuWait, InstrEvents, InstrIdx, RenameStall, ResourceKind, SimResult, NO_INSTR,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

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
    /// earlier run left there is discarded, and the event table keeps its
    /// allocations (including each entry's `rename_stalls` / `data_deps`
    /// vectors). On success `out` equals what [`run`] returns; on error its
    /// contents are unspecified, and it can still be reused.
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
        let events = &mut out.trace.events;
        events.truncate(instructions.len());
        for ev in events.iter_mut() {
            ev.reset();
        }
        events.resize_with(instructions.len(), InstrEvents::blank);
        out.instructions.clear();
        out.instructions.extend_from_slice(instructions);
        let mut stats = SimStats::default();
        let mut aux = vec![Aux::default(); instructions.len()];

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
        let mut iq: VecDeque<InstrIdx> = VecDeque::new();
        // Rename stall bookkeeping for the in-order head.
        let mut blocked_kinds: Vec<ResourceKind> = Vec::new();
        // In-flight (renamed, uncommitted) stores for memory ordering.
        let mut sq_live: VecDeque<InstrIdx> = VecDeque::new();
        // In-flight issued, uncommitted loads (for violation detection
        // under store-set speculation).
        let mut lq_live: VecDeque<InstrIdx> = VecDeque::new();
        // Per-load-PC saturating conflict counters (store-set predictor).
        let mut conflict: HashMap<u64, u8> = HashMap::new();

        let mut checker = self.checks.map(InvariantChecker::new);
        let mut commit_head: InstrIdx = 0;
        let mut cycle: Cycle = 0;
        let mut last_commit_cycle: Cycle = 0;
        let mut occupancy_acc = [0u64; 6];
        // Completion times of issued, uncommitted instructions — the next
        // possible wakeup/commit events, used to fast-forward idle cycles.
        let mut pending_p: BinaryHeap<Reverse<Cycle>> = BinaryHeap::new();

        while commit_head < n {
            // ---- Commit (in-order, up to width per cycle) ----
            let commit_start = commit_head;
            let mut committed_now = 0;
            while committed_now < arch.width
                && commit_head < n
                && events[commit_head as usize].p != UNSET
                && events[commit_head as usize].p < cycle
                && aux[commit_head as usize].commit_gate < cycle
            {
                let j = commit_head;
                let ja = &mut aux[j as usize];
                events[j as usize].c = cycle;
                rob.release(ja.rob, j);
                if ja.lq != u32::MAX {
                    lq_pool.release(ja.lq, j);
                    if let Some(pos) = lq_live.iter().position(|&s| s == j) {
                        lq_live.remove(pos);
                    }
                }
                if ja.sq != u32::MAX {
                    sq_pool.release(ja.sq, j);
                    // Remove from the live-store window.
                    if let Some(pos) = sq_live.iter().position(|&s| s == j) {
                        sq_live.remove(pos);
                    }
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
            let mut issued_now = 0;
            let mut k = 0;
            while k < iq.len() && issued_now < arch.width {
                let j = iq[k];
                let je = &events[j as usize];
                if je.dp > cycle {
                    break; // younger entries dispatched even later
                }
                // Operand readiness.
                let mut ready = true;
                for s in 0..2 {
                    let prod = aux[j as usize].src_producers[s];
                    if prod != NO_INSTR {
                        let pp = events[prod as usize].p;
                        if pp == UNSET || pp > cycle {
                            ready = false;
                            break;
                        }
                    }
                }
                let instr = &instructions[j as usize];
                // Memory ordering: conservatively, loads wait until all
                // older live stores know their address; under store-set
                // speculation only previously-conflicting load PCs wait.
                if ready && instr.op == OpClass::Load {
                    let must_wait = match arch.mem_dep {
                        MemDepPolicy::Conservative => true,
                        MemDepPolicy::StoreSets => {
                            conflict.get(&instr.pc).copied().unwrap_or(0) >= 2
                        }
                    };
                    if must_wait {
                        for &s in sq_live.iter() {
                            if s < j {
                                let ms = events[s as usize].m;
                                if ms == UNSET || ms > cycle {
                                    ready = false;
                                    break;
                                }
                            }
                        }
                    }
                }
                if !ready {
                    k += 1;
                    continue;
                }
                // Functional unit.
                let fu_kind = FuSet::kind_for(instr.op);
                let pool = fus.pool_mut(fu_kind);
                if !pool.available_at(cycle) {
                    aux[j as usize].fu_blocked = true;
                    k += 1;
                    continue;
                }
                let grant = pool.acquire(cycle, FuSet::occupancy(instr.op), j);
                debug_assert_eq!(grant.ready_at, cycle);
                let fu_idx = FuKind::ALL
                    .iter()
                    .position(|&f| f == fu_kind)
                    .expect("known kind");
                stats.fu_issued[fu_idx] += 1;

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
                            .find(|&&s| {
                                s < j && instructions[s as usize].mem_addr == instr.mem_addr
                            })
                            .is_some();
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

                pending_p.push(Reverse(p_at));
                let je = &mut events[j as usize];
                je.i = issue_at;
                je.m = m_at;
                je.p = p_at;
                je.dcache_miss = dcache_miss;
                if aux[j as usize].fu_blocked && grant.last_user != NO_INSTR {
                    je.fu_wait = Some(FuWait {
                        fu: fu_kind,
                        releaser: grant.last_user,
                    });
                }
                // True data dependencies: producers still in flight at
                // dispatch time. The entry's own (cleared) vector is taken
                // and reinstalled so its capacity survives reuse of `out`.
                let dp_at = je.dp;
                let mut deps = std::mem::take(&mut je.data_deps);
                for s in 0..2 {
                    let prod = aux[j as usize].src_producers[s];
                    if prod != NO_INSTR && events[prod as usize].p > dp_at && !deps.contains(&prod)
                    {
                        deps.push(prod);
                    }
                }
                if instr.op == OpClass::Load {
                    // A store whose address generation gated this load —
                    // only a dependence when the load actually waited for
                    // it (speculative loads that issued before the store's
                    // address resolved have no such edge).
                    for &s in sq_live.iter() {
                        let ms = events[s as usize].m;
                        if s < j
                            && ms != UNSET
                            && ms <= issue_at
                            && ms > dp_at
                            && !deps.contains(&s)
                        {
                            deps.push(s);
                        }
                    }
                }
                events[j as usize].data_deps = deps;

                // Track issued loads; detect memory-order violations when
                // a store's address resolves after a younger load issued.
                if instr.op == OpClass::Load {
                    lq_live.push_back(j);
                } else if instr.op == OpClass::Store && arch.mem_dep == MemDepPolicy::StoreSets {
                    let store_m = events[j as usize].m;
                    let store_addr = instr.mem_addr;
                    for &ld in lq_live.iter() {
                        if ld > j
                            && instructions[ld as usize].mem_addr == store_addr
                            && events[ld as usize].i < store_m
                            && events[ld as usize].mem_dep_violation.is_none()
                        {
                            events[ld as usize].mem_dep_violation = Some(j);
                            let gate = store_m + MEMDEP_REPLAY;
                            let la = &mut aux[ld as usize];
                            la.commit_gate = la.commit_gate.max(gate);
                            let c = conflict.entry(instructions[ld as usize].pc).or_insert(0);
                            *c = (*c + 2).min(3);
                            stats.mem_dep_violations += 1;
                        }
                    }
                }

                // Free the IQ entry at issue.
                iq_pool.release(aux[j as usize].iq, j);
                iq.remove(k);
                issued_now += 1;
                // Do not advance k: the next entry shifted into slot k.
            }

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

                let mut missing: Vec<ResourceKind> = Vec::new();
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
                    for &kind in &missing {
                        if !blocked_kinds.contains(&kind) {
                            blocked_kinds.push(kind);
                        }
                        let ki = ResourceKind::ALL
                            .iter()
                            .position(|&x| x == kind)
                            .expect("known kind");
                        stats.rename_stall_cycles[ki] += 1;
                    }
                    break; // in-order rename stalls the whole stage
                }

                // All resources available: allocate and record provenance.
                let ja = &mut aux[j as usize];
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

                // Source producers from the rename map.
                for s in 0..2 {
                    if let Some(reg) = instr.srcs[s] {
                        let map = match reg.class {
                            RegClass::Int => &rename_map_int,
                            RegClass::Fp => &rename_map_fp,
                        };
                        ja.src_producers[s] = map[reg.idx as usize];
                    }
                }
                if let Some(dst) = instr.dst {
                    match dst.class {
                        RegClass::Int => rename_map_int[dst.idx as usize] = j,
                        RegClass::Fp => rename_map_fp[dst.idx as usize] = j,
                    }
                }

                // Record which stalls this instruction experienced, with the
                // scoreboard's releaser for the entry that unblocked it.
                let je = &mut events[j as usize];
                for kind in blocked_kinds.drain(..) {
                    let releaser = match kind {
                        ResourceKind::Rob => rob_grant.last_releaser,
                        ResourceKind::Iq => iq_grant.last_releaser,
                        ResourceKind::Lq => lq_grant.map_or(NO_INSTR, |g| g.last_releaser),
                        ResourceKind::Sq => sq_grant.map_or(NO_INSTR, |g| g.last_releaser),
                        ResourceKind::IntRf | ResourceKind::FpRf => {
                            reg_grant.map_or(NO_INSTR, |g| g.last_releaser)
                        }
                    };
                    je.rename_stalls.push(RenameStall {
                        resource: kind,
                        releaser,
                    });
                }
                je.r = cycle;
                je.dp = cycle + 1;

                if need_sq {
                    sq_live.push_back(j);
                }
                decq.pop_front();
                iq.push_back(j);
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
                let pb = events[b as usize].p;
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
                            events[j as usize].mispredicted = true;
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
                stats.btb_misses = bpred.btb_misses();
                for j in start..end {
                    let je = &mut events[j as usize];
                    je.f1 = f1;
                    je.f2 = f2;
                    if j == start {
                        je.icache_miss = acc.l1_miss;
                        if let Some(from) = refill_pending.take() {
                            // After a squash, the misprediction (not the
                            // buffer slot) is the binding dependence.
                            je.refill_from = Some(from);
                        } else {
                            je.fetch_slot_from = slot_releaser;
                        }
                    }
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
                        let pb = events[b as usize].p;
                        if pb != UNSET {
                            target = target.min(pb + REDIRECT_PENALTY);
                        }
                    }
                    while let Some(&Reverse(p)) = pending_p.peek() {
                        if p <= cycle {
                            pending_p.pop();
                        } else {
                            target = target.min(p);
                            break;
                        }
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
                for &kind in blocked_kinds.iter() {
                    let ki = ResourceKind::ALL
                        .iter()
                        .position(|&x| x == kind)
                        .expect("known kind");
                    stats.rename_stall_cycles[ki] += advance - 1;
                }
            }

            cycle += advance;
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
        for (i, acc) in occupancy_acc.iter().enumerate() {
            stats.avg_occupancy[i] = if cycle > 0 {
                *acc as f64 / cycle as f64
            } else {
                0.0
            };
        }

        out.trace.cycles = total_cycles;
        out.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let with_stall = r
            .trace
            .events
            .iter()
            .filter(|e| {
                e.rename_stalls
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
