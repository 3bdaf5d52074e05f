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
        self.synthesise(n, seed)
    }

    /// Synthesises `n` instructions straight into any collection: a
    /// `Vec` here, the shared `Arc<[Instruction]>` in
    /// [`crate::Workload::generate`]. The `0..n` range gives the iterator
    /// an exact length, so `collect` allocates once and copies nothing.
    pub(crate) fn synthesise<C: FromIterator<Instruction>>(&self, n: usize, seed: u64) -> C {
        let mut synth = Synth::new(self, seed);
        (0..n).map(|_| synth.next()).collect()
    }
}

/// Registers the synthesiser allocates per class (2..30). Each recency
/// list is always a permutation of them, so it holds exactly this many.
const ALLOC_REGS: usize = 28;

/// Buckets of the tabulated dependence-distance draw over `u` in `[0, 1)`.
const DIST_BUCKETS: usize = 1024;

/// Relative guard band around each distance threshold: a bucket that
/// comes this close to one is drawn exactly.
const DIST_GUARD: f64 = 1e-9;

/// The geometric dependence-distance draw
/// `ceil(ln u / ln(1 - 1/mean))`, clamped to `1..=ALLOC_REGS`, tabulated
/// over `DIST_BUCKETS` equal buckets of `u`.
///
/// The distance steps from `k` to `k + 1` at `u = exp(k·ln_keep)`,
/// `k = 1..ALLOC_REGS`. A bucket holding no such threshold (with its
/// guard band) draws one distance for every `u` in it: the rounding
/// error of `ln u / ln_keep` is a few ULPs, far too small to carry the
/// quotient across an integer that far from its threshold. So the table
/// stores the distance computed at the bucket's midpoint. A bucket that
/// does hold a threshold stores 0, and its rare draws take the exact
/// formula.
struct DistDraw {
    /// `ln(max(1 - 1/mean, 1e-12))`: the log of the per-step keep
    /// probability.
    ln_keep: f64,
    /// The distance of every `u` in each bucket; 0 for mixed buckets.
    table: [u8; DIST_BUCKETS],
}

impl DistDraw {
    fn new(mean: f64) -> Self {
        let mut draw = DistDraw {
            ln_keep: (1.0 - 1.0 / mean).max(1e-12).ln(),
            table: [0; DIST_BUCKETS],
        };
        let scale = DIST_BUCKETS as f64;
        for b in 0..DIST_BUCKETS {
            draw.table[b] = draw.exact((b as f64 + 0.5) / scale);
        }
        for k in 1..ALLOC_REGS {
            let t = (k as f64 * draw.ln_keep).exp();
            let lo = t * (1.0 - DIST_GUARD) * scale;
            if lo < scale {
                let hi = ((t * (1.0 + DIST_GUARD) * scale) as usize).min(DIST_BUCKETS - 1);
                draw.table[lo as usize..=hi].fill(0);
            }
        }
        draw
    }

    /// The distance drawn by `u` in `[0, 1)`.
    fn sample(&self, u: f64) -> usize {
        let u = u.max(1e-12);
        // Scaling by a power of two is exact: the bucket is `floor(u·1024)`.
        match self.table[(u * DIST_BUCKETS as f64) as usize] {
            0 => self.exact(u),
            d => d,
        }
        .into()
    }

    /// The formula itself, with an integer ceiling.
    fn exact(&self, u: f64) -> u8 {
        let x = u.ln() / self.ln_keep;
        if x > (ALLOC_REGS - 1) as f64 {
            return ALLOC_REGS as u8;
        }
        // Saturating cast: NaN and negative quotients give 0, then 1.
        let t = x as u8;
        (t + u8::from(f64::from(t) < x)).max(1)
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
    /// The slot the walk emits next.
    slot: usize,
    /// Per-slot visit counters (for patterned branches).
    visits: Vec<u64>,
    /// Streaming pointer for sequential accesses.
    stream_ptr: u64,
    /// Call stack of return slots for call/ret pairing.
    call_stack: Vec<usize>,
    /// Recently written registers per class, most recent last.
    recent_int: [u8; ALLOC_REGS],
    recent_fp: [u8; ALLOC_REGS],
    /// The dependence-distance draw for `spec.mean_dep_distance`.
    dist: DistDraw,
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
        let allocatable = std::array::from_fn(|i| i as u8 + 2);
        Synth {
            spec,
            rng,
            visits: vec![0; slots.len()],
            slots,
            slot: 0,
            stream_ptr: 0x1_0000,
            call_stack: Vec::new(),
            recent_int: allocatable,
            recent_fp: allocatable,
            dist: DistDraw::new(spec.mean_dep_distance),
        }
    }

    fn pc_of(&self, slot: usize) -> u64 {
        0x10_0000 + 4 * slot as u64
    }

    /// Picks a source register whose last writer is roughly
    /// `mean_dep_distance` instructions back (geometric distribution).
    fn pick_src(&mut self, class: RegClass) -> Reg {
        // Geometric sample: distance in 1..=ALLOC_REGS.
        let dist = self.dist.sample(self.rng.unit());
        match class {
            RegClass::Int => Reg::int(self.recent_int[ALLOC_REGS - dist]),
            RegClass::Fp => Reg::fp(self.recent_fp[ALLOC_REGS - dist]),
        }
    }

    fn pick_dst(&mut self, class: RegClass) -> Reg {
        let r = (self.rng.below(ALLOC_REGS as u64) + 2) as u8;
        let recent = match class {
            RegClass::Int => &mut self.recent_int,
            RegClass::Fp => &mut self.recent_fp,
        };
        // `r` is in the list (a permutation): move it to the back.
        if let Some(pos) = recent.iter().position(|&x| x == r) {
            recent[pos..].rotate_left(1);
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
    ///
    /// Each call emits the instruction at the current slot and moves the
    /// walk on to its successor.
    fn next(&mut self) -> Instruction {
        let span = self.slots.len();
        let slot = self.slot;
        let pc = self.pc_of(slot);
        let kind = self.slots[slot];
        self.visits[slot] += 1;
        let visit = self.visits[slot];
        let fall_through = if slot + 1 == span { 0 } else { slot + 1 };
        let mut next_slot = fall_through;
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
                self.call_stack.push(fall_through);
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
        self.slot = next_slot;
        instr
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

    /// Means the distance draw is checked at: the edges (1 meets the
    /// `1e-12` clamp, 1e9 and infinity round the keep probability towards
    /// or to 1, and 0.5 lies below the valid range, which `generate` does
    /// not check) and the suites' typical values.
    const DRAW_MEANS: [f64; 10] = [1.0, 1.5, 2.0, 2.2, 6.0, 18.0, 40.0, 1e9, f64::INFINITY, 0.5];

    /// The untabulated draw, as the generator first wrote it.
    fn reference_dist(u: f64, mean: f64) -> usize {
        let u = u.max(1e-12);
        let d = (u.ln() / (1.0 - 1.0 / mean).max(1e-12).ln())
            .ceil()
            .max(1.0) as usize;
        d.min(ALLOC_REGS)
    }

    /// Checks the tabulated draw against the reference at `u` in `[0, 1)`.
    fn check(draw: &DistDraw, mean: f64, u: f64) {
        if (0.0..1.0).contains(&u) {
            assert_eq!(
                draw.sample(u),
                reference_dist(u, mean),
                "mean {mean}, u {u:e}"
            );
        }
    }

    #[test]
    fn tabulated_distance_draw_equals_the_formula() {
        let mut rng = XorShift::new(0xd157);
        for mean in DRAW_MEANS {
            let draw = DistDraw::new(mean);
            let scale = DIST_BUCKETS as f64;
            for b in 0..DIST_BUCKETS {
                let edge = b as f64 / scale;
                for u in [
                    edge,
                    edge.next_down(),
                    edge.next_up(),
                    (b as f64 + 0.5) / scale,
                ] {
                    check(&draw, mean, u);
                }
            }
            for k in 1..=ALLOC_REGS {
                let t = (k as f64 * draw.ln_keep).exp();
                for eps in [0.0, 1e-15, 1e-12, 1e-9, 1e-6] {
                    for u in [t * (1.0 - eps), t * (1.0 + eps)] {
                        for u in [u, u.next_down(), u.next_up()] {
                            check(&draw, mean, u);
                        }
                    }
                }
            }
            for _ in 0..1_000_000 {
                check(&draw, mean, rng.unit());
            }
        }
    }

    #[test]
    fn few_buckets_take_the_exact_path() {
        // The exact path is the exception: at the suites' means only a few
        // buckets straddle a threshold.
        for mean in [2.0, 6.0, 18.0] {
            let mixed = DistDraw::new(mean)
                .table
                .iter()
                .filter(|&&d| d == 0)
                .count();
            assert!(mixed <= ALLOC_REGS, "mean {mean}: {mixed} mixed buckets");
        }
    }

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
