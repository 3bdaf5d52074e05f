//! Cross-commit search digest: one FNV-1a hash over every record of every
//! method's search trajectory.
//!
//! The layerbench golden digest hashes only an ArchExplorer search, and
//! short campaign smoke runs end while the surrogate baselines are still
//! inside their initial samples. This digest runs every method of
//! `Method::ALL` at two seeds with a budget that reaches several
//! screening rounds of AdaBoost, ArchRanker and BOOM-Explorer, and hashes
//! each logged design (all 22 parameters), the exact bits of its PPA and
//! the simulation count after it.
//!
//! A change to a search that is meant to be result-preserving must leave
//! `EXPECTED` unchanged. A change that is meant to alter a trajectory
//! updates it and says so.

use archexplorer::dse::{run_method_on, DesignSpace, Evaluator, Method, ParamId};
use archexplorer::workloads::{spec06_suite, suite_prefix};

/// The digest of every method's trajectory at `SEEDS`.
const EXPECTED: u64 = 0x09de_1c11_1a18_ef50;

/// Simulations per run: 24 designs of two workloads each, at least three
/// screening rounds past every surrogate method's initial sample.
const BUDGET: u64 = 48;

/// Instructions simulated per workload.
const WINDOW: usize = 1_000;

/// Search seeds.
const SEEDS: [u64; 2] = [1, 2];

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn search_digest() -> u64 {
    let space = DesignSpace::table4();
    let suite = suite_prefix(spec06_suite(), 2);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for method in Method::ALL {
        for seed in SEEDS {
            let ev = Evaluator::builder(suite.clone())
                .window(WINDOW)
                .seed(1)
                .threads(1)
                .build();
            let log = run_method_on(method, &space, &ev, BUDGET, seed);
            for r in &log.records {
                for &p in &ParamId::ALL {
                    h.u64(u64::from(p.get(&r.arch)));
                }
                h.u64(r.ppa.ipc.to_bits());
                h.u64(r.ppa.power_w.to_bits());
                h.u64(r.ppa.area_mm2.to_bits());
                h.u64(r.sims_after);
            }
        }
    }
    h.0
}

#[test]
fn search_digest_is_unchanged() {
    let got = search_digest();
    assert_eq!(
        got, EXPECTED,
        "search digest moved: {got:#018x}, expected {EXPECTED:#018x}"
    );
}
