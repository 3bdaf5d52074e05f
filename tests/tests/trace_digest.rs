//! Cross-commit trace digest: one FNV-1a hash over every field of every
//! instruction the synthesiser emits for a fixed set of workloads, windows
//! and seeds.
//!
//! The layerbench golden digest sees traces only through PPA at a 3k
//! window on the SPEC06-like suite, so a generator change that moves an
//! instruction the summaries do not feel would pass it. This digest covers
//! the traces themselves:
//! - every SPEC06-like and SPEC17-like workload, through
//!   `Workload::generate`, at two seeds of a 20k window and at the golden
//!   digest's 3k window and seed;
//! - `WorkloadSpec::generate` on integer and floating-point specs whose
//!   mean dependence distance sits at the edges of the distance draw (1,
//!   the `1e-12` clamp of the keep probability; 1e9 and infinity, where
//!   the keep probability rounds towards or to 1).
//!
//! A change to the generator that is meant to be trace-preserving must
//! leave `EXPECTED` unchanged. A change that is meant to alter traces
//! updates it and says so.

use archexplorer::sim::{Instruction, Reg};
use archexplorer::workloads::{spec06_suite, spec17_suite, OpMix, WorkloadSpec};

/// The digest of every trace below.
const EXPECTED: u64 = 0xe9f1_28da_3929_ac38;

/// `(instructions, seed)` pairs each named workload is synthesised at.
const WINDOWS: [(usize, u64); 3] = [(20_000, 1), (20_000, 7), (3_000, 0x00A2_C4E5)];

/// Mean dependence distances the edge specs are synthesised at.
const MEANS: [f64; 6] = [1.0, 1.5, 2.0, 40.0, 1e9, f64::INFINITY];

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

    fn name(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn reg(&mut self, r: Option<Reg>) {
        match r {
            None => self.u64(0),
            Some(r) => {
                self.u64(1);
                self.name(&format!("{:?}", r.class));
                self.u64(u64::from(r.idx));
            }
        }
    }

    fn trace(&mut self, trace: &[Instruction]) {
        self.u64(trace.len() as u64);
        for i in trace {
            let Instruction {
                pc,
                op,
                srcs,
                dst,
                mem_addr,
                taken,
                target,
            } = *i;
            self.u64(pc);
            self.name(&format!("{op:?}"));
            for r in srcs {
                self.reg(r);
            }
            self.reg(dst);
            self.u64(mem_addr);
            self.u64(u64::from(taken));
            self.u64(target);
        }
    }
}

/// The digest, and the number of instructions it covers.
fn digest() -> (u64, usize) {
    let mut h = Fnv::new();
    let mut instrs = 0;
    for w in spec06_suite().iter().chain(&spec17_suite()) {
        for (n, seed) in WINDOWS {
            h.name(w.id.0);
            let trace = w.generate(n, seed);
            instrs += trace.len();
            h.trace(&trace);
        }
    }
    let fp = WorkloadSpec {
        mix: OpMix::fp_default(),
        ..WorkloadSpec::balanced()
    };
    for base in [WorkloadSpec::balanced(), fp] {
        for mean in MEANS {
            let spec = WorkloadSpec {
                mean_dep_distance: mean,
                ..base
            };
            let trace = spec.generate(20_000, 1);
            instrs += trace.len();
            h.trace(&trace);
        }
    }
    (h.0, instrs)
}

#[test]
fn trace_digest_is_unchanged() {
    let (got, instrs) = digest();
    assert_eq!(instrs, 26 * (20_000 + 20_000 + 3_000) + 12 * 20_000);
    assert_eq!(
        got, EXPECTED,
        "trace digest moved: {got:#018x} (expected {EXPECTED:#018x})"
    );
}
