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
//! A change to the simulator that is meant to be result-preserving must
//! leave `EXPECTED` unchanged. A change that is meant to alter timing
//! updates it and says so.

use archexplorer::dse::{DesignSpace, ParamId};
use archexplorer::sim::config::{MemDepPolicy, ReplPolicy};
use archexplorer::sim::trace_gen::{self, XorShift};
use archexplorer::sim::{
    InstrEvents, Instruction, MicroArch, OooCore, PipelineTrace, SimResult, SimStats,
};
use archexplorer::workloads::spec06_suite;

/// The digest of the inputs below.
const EXPECTED: u64 = 0xad4f_8284_ba38_4f33;

/// Instructions per SPEC06-like trace.
const WINDOW: usize = 5_000;

/// Latin-hypercube points drawn from the Table 4 lattice.
const LHS_POINTS: usize = 8;

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

/// `LHS_POINTS` designs, one per stratum of every Table 4 parameter (a
/// seeded shuffle pairs the strata), alternating the memory-dependence
/// policy and cycling the L1 replacement policy.
fn latin_hypercube() -> Vec<MicroArch> {
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

fn designs() -> Vec<MicroArch> {
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

fn traces() -> Vec<Vec<Instruction>> {
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
