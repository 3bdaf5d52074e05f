//! The golden result digest: a hash of the evaluations of a fixed design
//! set and of one small ArchExplorer search, independent of `--seed`.
//! A change that alters any simulated cycle, PPA figure, bottleneck
//! contribution or search move changes it; such a change must update
//! `golden.txt` (`--print-golden` prints the new value) and say why.

use crate::workloads::{suite, Rng};
use archexplorer::dse::eval::{Analysis, DesignEval};
use archexplorer::dse::{run_method_on, DesignSpace, Evaluator, Method, ParamId};
use archexplorer::power::PpaResult;
use archexplorer::sim::MicroArch;
use archexplorer::workloads::TraceStore;
use std::sync::Arc;

const SEED: u64 = 0x00A2_C4E5;
const DESIGNS: usize = 6;
const WINDOW: usize = 3_000;
const SEARCH_BUDGET: u64 = 16;

/// The committed digest.
pub fn expected() -> &'static str {
    include_str!("../golden.txt").trim()
}

/// 64-bit FNV-1a over the exact bits of every figure.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn arch(&mut self, arch: &MicroArch) {
        for &p in &ParamId::ALL {
            self.u64(u64::from(p.get(arch)));
        }
    }

    fn ppa(&mut self, p: &PpaResult) {
        self.f64(p.ipc);
        self.f64(p.power_w);
        self.f64(p.area_mm2);
    }

    fn eval(&mut self, e: &DesignEval) {
        self.ppa(&e.ppa);
        for p in &e.per_workload {
            self.ppa(p);
        }
        if let Some(r) = &e.report {
            self.u64(r.length);
            for &c in &r.contributions {
                self.f64(c);
            }
        }
    }
}

/// Digest of the fixed design set's evaluations and search, as 16 hex
/// digits.
pub fn digest() -> String {
    let suite = suite(&["401.bzip2", "429.mcf"]);
    let store = Arc::new(TraceStore::new());
    let evaluator = || {
        Evaluator::builder(suite.clone())
            .window(WINDOW)
            .seed(SEED)
            .trace_store(Arc::clone(&store))
            .threads(1)
            .build()
    };
    let space = DesignSpace::table4();
    let mut rng = Rng::new(SEED);
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);

    let ev = evaluator();
    for arch in rng.designs(&space, DESIGNS) {
        h.arch(&arch);
        match ev.evaluate_with(&arch, Analysis::NewDeg) {
            Ok(e) => h.eval(&e),
            Err(e) => h.u64(e.attempts.into()),
        }
    }
    let log = run_method_on(
        Method::ArchExplorer,
        &space,
        &evaluator(),
        SEARCH_BUDGET,
        SEED,
    );
    for r in &log.records {
        h.arch(&r.arch);
        h.ppa(&r.ppa);
        h.u64(r.sims_after);
    }
    format!("{:016x}", h.0)
}
