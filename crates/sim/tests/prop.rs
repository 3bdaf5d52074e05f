//! Property-based tests of the simulator's building blocks against
//! straightforward reference models.

use archx_sim::cache::Cache;
use archx_sim::resources::Pool;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference LRU cache: a plain recency list per set.
struct RefLru {
    sets: u64,
    assoc: usize,
    lines: Vec<VecDeque<u64>>,
}

impl RefLru {
    fn new(kb: u32, assoc: u32) -> Self {
        let lines = kb as u64 * 1024 / 64;
        let sets = lines / assoc as u64;
        RefLru {
            sets,
            assoc: assoc as usize,
            lines: (0..sets).map(|_| VecDeque::new()).collect(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / 64;
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let q = &mut self.lines[set];
        if let Some(pos) = q.iter().position(|&t| t == tag) {
            q.remove(pos);
            q.push_back(tag);
            true
        } else {
            if q.len() == self.assoc {
                q.pop_front();
            }
            q.push_back(tag);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_matches_reference_lru(
        addrs in proptest::collection::vec(0u64..(1 << 16), 1..400),
        assoc in prop_oneof![Just(2u32), Just(4u32)],
    ) {
        let mut dut = Cache::new(16, assoc);
        let mut reference = RefLru::new(16, assoc);
        for &a in &addrs {
            prop_assert_eq!(dut.access(a), reference.access(a), "divergence at {:#x}", a);
        }
    }

    #[test]
    fn pool_never_overallocates_and_releases_roundtrip(
        ops in proptest::collection::vec(any::<bool>(), 1..200),
        capacity in 1u32..16,
    ) {
        let mut pool = Pool::new(capacity);
        let mut held: Vec<u32> = Vec::new();
        for (i, &alloc) in ops.iter().enumerate() {
            if alloc {
                match pool.alloc(i as u32) {
                    Some(grant) => {
                        prop_assert!(!held.contains(&grant.entry), "entry double-granted");
                        held.push(grant.entry);
                    }
                    None => prop_assert_eq!(held.len() as u32, capacity, "refused while free entries exist"),
                }
            } else if let Some(entry) = held.pop() {
                pool.release(entry, i as u32);
            }
            prop_assert_eq!(pool.in_use() as usize, held.len());
            prop_assert_eq!(pool.available() + pool.in_use(), capacity);
        }
    }

    #[test]
    fn simulation_timing_invariants_hold_for_random_mixes(seed in any::<u64>()) {
        use archx_sim::{trace_gen, MicroArch, OooCore};
        let trace = trace_gen::mixed_workload(800, seed);
        let r = OooCore::new(MicroArch::tiny()).run(&trace).expect("simulates");
        prop_assert_eq!(r.stats.committed, 800);
        prop_assert_eq!(r.trace.cycles, r.trace.events.last().unwrap().c);
        // Issue happens only after dispatch; memory ops get distinct M.
        for (ev, instr) in r.trace.events.iter().zip(&trace) {
            prop_assert!(ev.i >= ev.dp);
            if instr.op.is_mem() {
                prop_assert_eq!(ev.m, ev.i + 1);
            } else {
                prop_assert_eq!(ev.m, ev.i);
            }
        }
    }
}
