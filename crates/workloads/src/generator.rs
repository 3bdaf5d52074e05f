//! The parameterised trace synthesiser.

use archx_sim::isa::{Instruction, OpClass, Reg, RegClass};
use archx_sim::trace_gen::XorShift;

/// Instruction-class mix as fractions of the dynamic stream.
///
/// The fractions must sum to at most 1; the remainder becomes simple
/// integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Conditional branches.
    pub branch: f64,
    /// Call/return pairs (counted together).
    pub call_ret: f64,
    /// Floating-point adds.
    pub fp_alu: f64,
    /// Floating-point multiplies.
    pub fp_mult: f64,
    /// Floating-point divides.
    pub fp_div: f64,
    /// Integer multiplies.
    pub int_mult: f64,
    /// Integer divides.
    pub int_div: f64,
}

impl OpMix {
    /// A plain integer mix with light memory traffic.
    pub fn int_default() -> Self {
        OpMix {
            load: 0.20,
            store: 0.10,
            branch: 0.15,
            call_ret: 0.01,
            fp_alu: 0.0,
            fp_mult: 0.0,
            fp_div: 0.0,
            int_mult: 0.02,
            int_div: 0.005,
        }
    }

    /// A floating-point-heavy mix.
    pub fn fp_default() -> Self {
        OpMix {
            load: 0.25,
            store: 0.10,
            branch: 0.08,
            call_ret: 0.01,
            fp_alu: 0.20,
            fp_mult: 0.12,
            fp_div: 0.01,
            int_mult: 0.01,
            int_div: 0.0,
        }
    }

    fn total(&self) -> f64 {
        self.load
            + self.store
            + self.branch
            + self.call_ret
            + self.fp_alu
            + self.fp_mult
            + self.fp_div
            + self.int_mult
            + self.int_div
    }

    /// Whether the fractions are all non-negative and sum to at most 1.
    pub fn is_valid(&self) -> bool {
        let parts = [
            self.load,
            self.store,
            self.branch,
            self.call_ret,
            self.fp_alu,
            self.fp_mult,
            self.fp_div,
            self.int_mult,
            self.int_div,
        ];
        parts.iter().all(|&p| p >= 0.0) && self.total() <= 1.0 + 1e-9
    }
}

/// How predictable the workload's conditional branches are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchProfile {
    /// Fraction of static branches that are strongly biased.
    pub biased_fraction: f64,
    /// Taken probability of a biased branch.
    pub bias: f64,
    /// Fraction of static branches following a short repeating pattern.
    pub patterned_fraction: f64,
    /// Pattern period (e.g. 2 = alternate) for patterned branches.
    pub pattern_period: u32,
    // Remaining branches are random coin flips (hard to predict).
}

impl BranchProfile {
    /// Mostly well-predicted branches (a few percent mispredicted).
    pub fn predictable() -> Self {
        BranchProfile {
            biased_fraction: 0.90,
            bias: 0.97,
            patterned_fraction: 0.08,
            pattern_period: 4,
        }
    }

    /// Many data-dependent, hard-to-predict branches (~10% mispredicted).
    pub fn hostile() -> Self {
        BranchProfile {
            biased_fraction: 0.60,
            bias: 0.92,
            patterned_fraction: 0.25,
            pattern_period: 3,
        }
    }
}

/// Data-memory behaviour.
///
/// Non-streaming accesses follow a two-level working-set model: with
/// probability `hot_fraction` they fall uniformly in a hot region of
/// `hot_bytes` (temporal locality — real programs re-touch a small core of
/// their data constantly); otherwise they scatter over the full footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// Total data footprint in bytes.
    pub footprint_bytes: u64,
    /// Fraction of accesses that stream sequentially (cache friendly).
    pub streaming_fraction: f64,
    /// Stream stride in bytes.
    pub stride: u64,
    /// Probability a random access hits the hot working set.
    pub hot_fraction: f64,
    /// Hot working-set size in bytes.
    pub hot_bytes: u64,
}

impl MemoryProfile {
    /// Small, cache-resident working set.
    pub fn resident() -> Self {
        MemoryProfile {
            footprint_bytes: 16 << 10,
            streaming_fraction: 0.8,
            stride: 8,
            hot_fraction: 0.95,
            hot_bytes: 8 << 10,
        }
    }

    /// Large, cache-hostile working set.
    pub fn hostile() -> Self {
        MemoryProfile {
            footprint_bytes: 64 << 20,
            streaming_fraction: 0.1,
            stride: 64,
            hot_fraction: 0.3,
            hot_bytes: 256 << 10,
        }
    }
}

/// Full specification of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Instruction mix.
    pub mix: OpMix,
    /// Mean register dependency distance (geometric): small = serial code,
    /// large = high instruction-level parallelism.
    pub mean_dep_distance: f64,
    /// Branch behaviour.
    pub branches: BranchProfile,
    /// Memory behaviour.
    pub memory: MemoryProfile,
    /// Static code footprint in instructions (drives I-cache pressure).
    pub code_instrs: u32,
}

impl WorkloadSpec {
    /// A balanced default specification.
    pub fn balanced() -> Self {
        WorkloadSpec {
            mix: OpMix::int_default(),
            mean_dep_distance: 6.0,
            branches: BranchProfile::predictable(),
            memory: MemoryProfile::resident(),
            code_instrs: 2048,
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.mix.is_valid() {
            return Err("op mix fractions must be non-negative and sum to <= 1".into());
        }
        if self.mean_dep_distance < 1.0 {
            return Err("mean dependency distance must be >= 1".into());
        }
        if self.code_instrs == 0 {
            return Err("code footprint must be positive".into());
        }
        if self.memory.footprint_bytes < 64 {
            return Err("memory footprint must be at least one cache line".into());
        }
        if !(0.0..=1.0).contains(&self.memory.streaming_fraction) {
            return Err("streaming fraction must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.memory.hot_fraction) {
            return Err("hot fraction must be in [0, 1]".into());
        }
        if self.memory.hot_bytes == 0 || self.memory.hot_bytes > self.memory.footprint_bytes {
            return Err("hot set must be non-empty and within the footprint".into());
        }
        Ok(())
    }

    /// Synthesises a dynamic trace of `n` instructions.
    ///
    /// Deterministic in `(self, n, seed)`.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Instruction> {
        Synth::new(self, seed).generate(n)
    }
}

/// Static per-slot behaviour chosen once per code location.
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    Op(OpClass),
    Branch(BranchKind),
    Call,
    Ret,
}

#[derive(Debug, Clone, Copy)]
enum BranchKind {
    Biased(bool, f64),
    Patterned(u32),
    Random,
}

struct Synth<'a> {
    spec: &'a WorkloadSpec,
    rng: XorShift,
    slots: Vec<SlotKind>,
    /// Per-slot visit counters (for patterned branches).
    visits: Vec<u64>,
    /// Streaming pointer for sequential accesses.
    stream_ptr: u64,
    /// Call stack of return addresses for call/ret pairing.
    call_stack: Vec<u64>,
    /// Recently written registers per class, most recent last.
    recent_int: Vec<u8>,
    recent_fp: Vec<u8>,
}

impl<'a> Synth<'a> {
    fn new(spec: &'a WorkloadSpec, seed: u64) -> Self {
        let mut rng = XorShift::new(seed ^ 0xA5A5_5A5A_1234_5678);
        let mix = &spec.mix;
        let mut slots = Vec::with_capacity(spec.code_instrs as usize);
        for _ in 0..spec.code_instrs {
            let u = rng.unit();
            let mut acc = 0.0;
            // Walks the mix's cumulative distribution: each call adds one
            // class's probability mass and tests whether `u` fell in it.
            let mut hits = |p: f64| {
                acc += p;
                u < acc
            };
            let kind = if hits(mix.load) {
                SlotKind::Op(OpClass::Load)
            } else if hits(mix.store) {
                SlotKind::Op(OpClass::Store)
            } else if hits(mix.branch) {
                let b = rng.unit();
                let br = &spec.branches;
                if b < br.biased_fraction {
                    SlotKind::Branch(BranchKind::Biased(rng.unit() < 0.75, br.bias))
                } else if b < br.biased_fraction + br.patterned_fraction {
                    SlotKind::Branch(BranchKind::Patterned(br.pattern_period.max(2)))
                } else {
                    SlotKind::Branch(BranchKind::Random)
                }
            } else if hits(mix.call_ret / 2.0) {
                SlotKind::Call
            } else if hits(mix.call_ret / 2.0) {
                SlotKind::Ret
            } else if hits(mix.fp_alu) {
                SlotKind::Op(OpClass::FpAlu)
            } else if hits(mix.fp_mult) {
                SlotKind::Op(OpClass::FpMult)
            } else if hits(mix.fp_div) {
                SlotKind::Op(OpClass::FpDiv)
            } else if hits(mix.int_mult) {
                SlotKind::Op(OpClass::IntMult)
            } else if hits(mix.int_div) {
                SlotKind::Op(OpClass::IntDiv)
            } else {
                SlotKind::Op(OpClass::IntAlu)
            };
            slots.push(kind);
        }
        Synth {
            spec,
            rng,
            visits: vec![0; slots.len()],
            slots,
            stream_ptr: 0x1_0000,
            call_stack: Vec::new(),
            recent_int: (2..30).collect(),
            recent_fp: (2..30).collect(),
        }
    }

    fn pc_of(&self, slot: usize) -> u64 {
        0x10_0000 + 4 * slot as u64
    }

    /// Picks a source register whose last writer is roughly
    /// `mean_dep_distance` instructions back (geometric distribution).
    fn pick_src(&mut self, class: RegClass) -> Reg {
        let mean = self.spec.mean_dep_distance;
        // Geometric sample: distance >= 1.
        let p = 1.0 / mean;
        let u = self.rng.unit().max(1e-12);
        let dist = (u.ln() / (1.0 - p).max(1e-12).ln()).ceil().max(1.0) as usize;
        let recent = match class {
            RegClass::Int => &self.recent_int,
            RegClass::Fp => &self.recent_fp,
        };
        let idx = recent.len().saturating_sub(dist.min(recent.len()));
        let r = recent[idx.min(recent.len() - 1)];
        match class {
            RegClass::Int => Reg::int(r),
            RegClass::Fp => Reg::fp(r),
        }
    }

    fn pick_dst(&mut self, class: RegClass) -> Reg {
        let r = (self.rng.below(28) + 2) as u8;
        let recent = match class {
            RegClass::Int => &mut self.recent_int,
            RegClass::Fp => &mut self.recent_fp,
        };
        if let Some(pos) = recent.iter().position(|&x| x == r) {
            recent.remove(pos);
        }
        recent.push(r);
        if recent.len() > 28 {
            recent.remove(0);
        }
        match class {
            RegClass::Int => Reg::int(r),
            RegClass::Fp => Reg::fp(r),
        }
    }

    fn next_addr(&mut self) -> u64 {
        let mem = &self.spec.memory;
        if self.rng.unit() < mem.streaming_fraction {
            self.stream_ptr = self
                .stream_ptr
                .wrapping_add(mem.stride)
                .min(0x1_0000 + mem.footprint_bytes);
            if self.stream_ptr >= 0x1_0000 + mem.footprint_bytes {
                self.stream_ptr = 0x1_0000;
            }
            self.stream_ptr
        } else {
            let u = self.rng.unit();
            if u < mem.hot_fraction {
                0x1_0000 + (self.rng.below(mem.hot_bytes.max(64)) & !7)
            } else if u < mem.hot_fraction + (1.0 - mem.hot_fraction) * 0.6 {
                // Warm, L2-resident tier: real programs keep a medium
                // working set between the hot core and the cold bulk.
                let warm = mem.footprint_bytes.clamp(64, 1536 << 10);
                0x1_0000 + (self.rng.below(warm) & !7)
            } else {
                0x1_0000 + (self.rng.below(mem.footprint_bytes.max(64)) & !7)
            }
        }
    }

    /// Walks the static code like a control-flow graph: fall through by
    /// default, and *follow* taken branches, calls and returns — so the
    /// trace's instruction-fetch stream has the loops and temporal code
    /// locality of real programs, and the I-cache pressure is governed by
    /// the live code working set rather than a pathological linear sweep.
    fn generate(mut self, n: usize) -> Vec<Instruction> {
        let mut out = Vec::with_capacity(n);
        let span = self.slots.len();
        let mut slot = 0usize;
        while out.len() < n {
            let pc = self.pc_of(slot);
            let kind = self.slots[slot];
            self.visits[slot] += 1;
            let visit = self.visits[slot];
            let mut next_slot = (slot + 1) % span;
            let instr = match kind {
                SlotKind::Op(op) => self.emit_op(pc, op),
                SlotKind::Branch(bk) => {
                    let taken = match bk {
                        BranchKind::Biased(dir, bias) => {
                            if self.rng.unit() < bias {
                                dir
                            } else {
                                !dir
                            }
                        }
                        BranchKind::Patterned(period) => visit.is_multiple_of(period as u64),
                        BranchKind::Random => self.rng.unit() < 0.5,
                    };
                    // Static target per slot: short backward edges are
                    // loops, forward edges skip ahead. Derived from the
                    // slot index so a location always jumps the same way.
                    let h = (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let delta = 1 + (h % 24) as usize;
                    let target_slot = if h & 0x100 != 0 {
                        (slot + delta) % span
                    } else {
                        (slot + span - delta.min(slot.max(1))) % span
                    };
                    if taken {
                        next_slot = target_slot;
                    }
                    let src = self.pick_src(RegClass::Int);
                    Instruction::branch(pc, src, taken, self.pc_of(target_slot))
                }
                SlotKind::Call if self.call_stack.len() < 48 && visit % 97 != 96 => {
                    // Bounded call depth; a rare forced fall-through breaks
                    // degenerate call/return orbits that would otherwise
                    // repeat forever without touching a conditional branch.
                    self.call_stack.push(((slot + 1) % span) as u64);
                    // Static callee per site.
                    let h = (slot as u64).wrapping_mul(0xD134_2543_DE82_EF95);
                    let target_slot = (h % span as u64) as usize;
                    next_slot = target_slot;
                    Instruction {
                        pc,
                        op: OpClass::Call,
                        srcs: [None, None],
                        dst: Some(Reg::int(1)),
                        mem_addr: 0,
                        taken: true,
                        target: self.pc_of(target_slot),
                    }
                }
                SlotKind::Call => self.emit_op(pc, OpClass::IntAlu),
                SlotKind::Ret => {
                    if let Some(ret_slot) = self.call_stack.pop() {
                        let ret_slot = ret_slot as usize % span;
                        next_slot = ret_slot;
                        Instruction {
                            pc,
                            op: OpClass::Ret,
                            srcs: [Some(Reg::int(1)), None],
                            dst: None,
                            mem_addr: 0,
                            taken: true,
                            target: self.pc_of(ret_slot),
                        }
                    } else {
                        // No matching call in this window: plain op.
                        self.emit_op(pc, OpClass::IntAlu)
                    }
                }
            };
            out.push(instr);
            slot = next_slot;
        }
        out
    }

    fn emit_op(&mut self, pc: u64, op: OpClass) -> Instruction {
        match op {
            OpClass::Load => {
                let addr = self.next_addr();
                let base = self.pick_src(RegClass::Int);
                let dst = self.pick_dst(RegClass::Int);
                Instruction::load(pc, addr, base, dst)
            }
            OpClass::Store => {
                let addr = self.next_addr();
                let base = self.pick_src(RegClass::Int);
                let data = self.pick_src(RegClass::Int);
                Instruction::store(pc, addr, base, data)
            }
            OpClass::FpAlu | OpClass::FpMult | OpClass::FpDiv => {
                let a = self.pick_src(RegClass::Fp);
                let b = self.pick_src(RegClass::Fp);
                let d = self.pick_dst(RegClass::Fp);
                Instruction::op(pc, op, [Some(a), Some(b)], Some(d))
            }
            _ => {
                let a = self.pick_src(RegClass::Int);
                let b = self.pick_src(RegClass::Int);
                let d = self.pick_dst(RegClass::Int);
                Instruction::op(pc, op, [Some(a), Some(b)], Some(d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_spec_is_valid() {
        assert!(WorkloadSpec::balanced().validate().is_ok());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = WorkloadSpec::balanced();
        s.mix.load = 0.9;
        s.mix.store = 0.9;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::balanced();
        s.mean_dep_distance = 0.5;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::balanced();
        s.code_instrs = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::balanced();
        let a = spec.generate(2_000, 7);
        let b = spec.generate(2_000, 7);
        assert_eq!(a, b);
        let c = spec.generate(2_000, 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn mix_is_roughly_respected() {
        let spec = WorkloadSpec::balanced();
        let trace = spec.generate(50_000, 3);
        let loads = trace.iter().filter(|i| i.op == OpClass::Load).count() as f64;
        let frac = loads / trace.len() as f64;
        assert!(
            (frac - spec.mix.load).abs() < 0.05,
            "load fraction {frac} should be near {}",
            spec.mix.load
        );
    }

    #[test]
    fn code_footprint_bounds_pcs() {
        let mut spec = WorkloadSpec::balanced();
        spec.code_instrs = 128;
        let trace = spec.generate(5_000, 1);
        let max_pc = trace.iter().map(|i| i.pc).max().unwrap();
        assert!(max_pc < 0x10_0000 + 4 * 128);
    }

    #[test]
    fn memory_stays_in_footprint() {
        let mut spec = WorkloadSpec::balanced();
        spec.memory.footprint_bytes = 4096;
        spec.memory.hot_bytes = 2048;
        let trace = spec.generate(20_000, 2);
        for i in trace.iter().filter(|i| i.op.is_mem()) {
            assert!(i.mem_addr >= 0x1_0000);
            assert!(i.mem_addr <= 0x1_0000 + 4096 + spec.memory.stride);
        }
    }

    #[test]
    fn serial_spec_has_short_dependence() {
        // With mean distance 1.5, consecutive ops should frequently read the
        // most recently written register.
        let mut spec = WorkloadSpec::balanced();
        spec.mean_dep_distance = 1.5;
        spec.mix = OpMix {
            load: 0.0,
            store: 0.0,
            branch: 0.0,
            call_ret: 0.0,
            fp_alu: 0.0,
            fp_mult: 0.0,
            fp_div: 0.0,
            int_mult: 0.0,
            int_div: 0.0,
        };
        let trace = spec.generate(1_000, 5);
        let mut chained = 0;
        for w in trace.windows(2) {
            if let (Some(dst), srcs) = (w[0].dst, w[1].srcs) {
                if srcs.iter().flatten().any(|s| *s == dst) {
                    chained += 1;
                }
            }
        }
        assert!(
            chained > 200,
            "short-distance spec should chain often, got {chained}"
        );
    }
}
