//! Cross-commit simulator digest: one FNV-1a hash over every field of
//! every `SimResult` from a fixed set of designs and traces.
//!
//! The layerbench golden digest hashes only PPA and c(b), and never
//! exercises store-set speculation, so it cannot see a change to the
//! event record that leaves those summaries intact. This digest covers
//! the record itself: every event time and flag, each instruction's
//! rename stalls and data dependences in order, and the exact bits of
//! every statistic. It hashes field by field (little-endian integers,
//! display names for enums), so it is independent of struct layout and
//! of how the record stores its dependence lists.
//!
//! A second digest, `EXPECTED_WITH_LIMITS`, runs the same inputs under
//! lowered deadlock watchdogs and cycle budgets and hashes each error by
//! its payload, so the cycle at which a watchdog fires and the progress a
//! budget cuts off are pinned too.
//!
//! A change to the simulator that is meant to be result-preserving must
//! leave both constants unchanged. A change that is meant to alter timing
//! updates them and says so.

use archexplorer::dse::DesignSpace;
use archexplorer::sim::config::{MemDepPolicy, ReplPolicy};
use archexplorer::sim::{InstrEvents, OooCore, PipelineTrace, SimError, SimResult, SimStats};
use archx_integration::sim_inputs::{designs, latin_hypercube, traces};

/// The digest of the `sim_inputs` designs and traces.
const EXPECTED: u64 = 0xad4f_8284_ba38_4f33;

/// The digest of the same inputs under every pair of `WATCHDOGS` and
/// `BUDGETS`.
const EXPECTED_WITH_LIMITS: u64 = 0xd1de_bc4d_c776_aaf1;

/// Lowered deadlock watchdogs (cycles without a commit): below, near and
/// above a DRAM miss.
const WATCHDOGS: [u64; 3] = [40, 150, 400];

/// Cycle budgets: one that cuts every trace short, one that only the slow
/// designs exceed.
const BUDGETS: [u64; 2] = [3_000, 20_000];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn flag(&mut self, b: bool) {
        self.u64(u64::from(b));
    }

    fn name(&mut self, s: impl ToString) {
        let s = s.to_string();
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn idx(&mut self, v: Option<u32>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.u64(u64::from(x));
            }
        }
    }
}

fn hash_event(h: &mut Fnv, trace: &PipelineTrace, j: usize) {
    let InstrEvents {
        f1,
        f2,
        f,
        dc,
        r,
        dp,
        i,
        m,
        p,
        c,
        fu_wait,
        mispredicted,
        refill_from,
        fetch_slot_from,
        fetch_bw_from,
        mem_dep_violation,
        icache_miss,
        dcache_miss,
    } = &trace.events[j];
    for t in [f1, f2, f, dc, r, dp, i, m, p, c] {
        h.u64(*t);
    }
    match fu_wait {
        None => h.u64(0),
        Some(w) => {
            h.u64(1);
            h.name(w.fu);
            h.u64(u64::from(w.releaser));
        }
    }
    for b in [mispredicted, icache_miss, dcache_miss] {
        h.flag(*b);
    }
    for v in [
        refill_from,
        fetch_slot_from,
        fetch_bw_from,
        mem_dep_violation,
    ] {
        h.idx(*v);
    }
    let rename_stalls = trace.rename_stalls(j);
    h.u64(rename_stalls.len() as u64);
    for s in rename_stalls {
        h.name(s.resource);
        h.u64(u64::from(s.releaser));
    }
    let data_deps = trace.data_deps(j);
    h.u64(data_deps.len() as u64);
    for &d in data_deps {
        h.u64(u64::from(d));
    }
}

fn hash_stats(h: &mut Fnv, stats: &SimStats) {
    let SimStats {
        committed,
        cycles,
        bp_lookups,
        mispredicts,
        btb_misses,
        icache_accesses,
        icache_misses,
        dcache_accesses,
        dcache_misses,
        l2_accesses,
        l2_misses,
        fu_issued,
        rename_stall_cycles,
        store_forwards,
        mem_dep_violations,
        avg_occupancy,
    } = stats;
    for v in [
        committed,
        cycles,
        bp_lookups,
        mispredicts,
        btb_misses,
        icache_accesses,
        icache_misses,
        dcache_accesses,
        dcache_misses,
        l2_accesses,
        l2_misses,
        store_forwards,
        mem_dep_violations,
    ] {
        h.u64(*v);
    }
    for v in fu_issued.iter().chain(rename_stall_cycles) {
        h.u64(*v);
    }
    for v in avg_occupancy {
        h.u64(v.to_bits());
    }
}

fn hash_result(h: &mut Fnv, r: &SimResult) {
    h.u64(r.trace.events.len() as u64);
    h.u64(r.trace.cycles);
    for j in 0..r.trace.len() {
        hash_event(h, &r.trace, j);
    }
    hash_stats(h, &r.stats);
}

/// The digest, and the memory-order violations the runs recorded (so the
/// store-set path is known to be exercised).
fn digest() -> (u64, u64) {
    let traces = traces();
    let mut h = Fnv::new();
    let mut violations = 0;
    for arch in designs() {
        arch.validate().expect("digest designs are valid");
        let core = OooCore::new(arch);
        for trace in &traces {
            let r = core.run(trace).expect("simulates");
            violations += r.stats.mem_dep_violations;
            hash_result(&mut h, &r);
        }
    }
    (h.0, violations)
}

/// The digest under limits, with the number of runs that ended in a
/// deadlock and in an exceeded budget (so both error paths are known to be
/// exercised). An `Ok` result is hashed as in [`digest`], an error by its
/// payload.
fn digest_with_limits() -> (u64, usize, usize) {
    let traces = traces();
    let mut h = Fnv::new();
    let (mut deadlocks, mut budgets) = (0, 0);
    for arch in designs() {
        for watchdog in WATCHDOGS {
            for budget in BUDGETS {
                let core = OooCore::new(arch)
                    .with_deadlock_watchdog(watchdog)
                    .with_cycle_budget(budget);
                for trace in &traces {
                    match core.run(trace) {
                        Ok(r) => {
                            h.u64(0);
                            hash_result(&mut h, &r);
                        }
                        Err(SimError::Deadlock {
                            cycle,
                            commit_head,
                            watchdog,
                        }) => {
                            deadlocks += 1;
                            h.u64(1);
                            h.u64(cycle);
                            h.u64(u64::from(commit_head));
                            h.u64(watchdog);
                        }
                        Err(SimError::CycleBudgetExceeded {
                            budget,
                            committed,
                            total,
                        }) => {
                            budgets += 1;
                            h.u64(2);
                            h.u64(budget);
                            h.u64(committed);
                            h.u64(total);
                        }
                        Err(e) => panic!("unexpected simulation error: {e}"),
                    }
                }
            }
        }
    }
    (h.0, deadlocks, budgets)
}

#[test]
fn simulator_digest_under_limits_is_unchanged() {
    let (got, deadlocks, budgets) = digest_with_limits();
    assert!(deadlocks > 0, "no run hit the deadlock watchdog");
    assert!(budgets > 0, "no run exceeded its cycle budget");
    assert_eq!(
        got, EXPECTED_WITH_LIMITS,
        "simulator digest under limits changed: got {got:#018x}, \
         expected {EXPECTED_WITH_LIMITS:#018x}"
    );
}

#[test]
fn simulator_digest_is_unchanged() {
    let (got, violations) = digest();
    assert!(violations > 0, "no run exercised a memory-order violation");
    assert_eq!(
        got, EXPECTED,
        "simulator digest changed: got {got:#018x}, expected {EXPECTED:#018x}"
    );
}

#[test]
fn designs_cover_every_policy() {
    let designs = designs();
    assert!(designs.len() >= 12);
    for policy in [MemDepPolicy::Conservative, MemDepPolicy::StoreSets] {
        assert!(designs.iter().any(|d| d.mem_dep == policy));
    }
    for policy in [ReplPolicy::Lru, ReplPolicy::Fifo, ReplPolicy::Random] {
        assert!(designs.iter().any(|d| d.replacement == policy));
    }
    let space = DesignSpace::table4();
    for d in latin_hypercube() {
        assert!(space.contains(&d), "LHS point off the Table 4 lattice");
    }
}
