//! Microarchitecture configuration: the 21 parameters of the ArchExplorer
//! design space (paper Table 4) plus a handful of fixed structural constants.

use std::fmt;

/// Memory-dependence handling policy for loads versus older stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemDepPolicy {
    /// Loads wait until every older in-flight store has computed its
    /// address (no memory-order misprediction possible).
    #[default]
    Conservative,
    /// Loads issue speculatively; a per-PC conflict predictor (store-set
    /// style) forces waiting only for loads that have violated before.
    /// Violations gate the offending load's commit by a replay penalty and
    /// appear in the DEG as memory-dependence misprediction edges.
    StoreSets,
}

/// Branch-direction prediction algorithm.
///
/// The paper notes (§4.3) that once predictor *capacity* stops paying,
/// only a better *algorithm* helps — this knob enables that study (see
/// the `ext_bpred` harness). Storage parameters (Table 4) apply to all
/// variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BpKind {
    /// Alpha-21264-style tournament: local + global + choice.
    #[default]
    Tournament,
    /// Global-history-XOR-PC indexed 2-bit counters (uses the global
    /// predictor table; local/choice tables idle).
    GShare,
    /// Per-PC 2-bit counters only (uses the local predictor table).
    Bimodal,
}

/// Cache replacement policy (applies to the parameterised L1 caches; the
/// fixed L2 always uses LRU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplPolicy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// First-in-first-out (insertion order, ignores reuse).
    Fifo,
    /// Pseudo-random victim (deterministic xorshift).
    Random,
}

/// Fixed number of architectural registers per class.
pub const ARCH_REGS: u32 = 32;
/// Instruction size in bytes (RISC-style fixed width).
pub const INSTR_BYTES: u32 = 4;
/// L1 cache line size in bytes.
pub const LINE_BYTES: u32 = 64;
/// L1 hit latency in cycles (paper Table 1: 2 cycles).
pub const L1_HIT_CYCLES: u64 = 2;
/// L2 hit latency in cycles (on top of the L1 lookup).
pub const L2_HIT_CYCLES: u64 = 12;
/// DRAM access latency in cycles (on top of L2).
pub const DRAM_CYCLES: u64 = 100;
/// Fixed L2 capacity in KiB (paper Section 5.1: 2 MB, 8-way).
pub const L2_KB: u32 = 2048;
/// Fixed L2 associativity.
pub const L2_ASSOC: u32 = 8;

/// A complete microarchitecture parameterisation.
///
/// Field ranges mirror paper Table 4; [`MicroArch::baseline`] reproduces the
/// Table 1 baseline. Use [`MicroArch::validate`] before simulating a
/// hand-constructed value.
///
/// ```
/// use archx_sim::MicroArch;
/// let arch = MicroArch::baseline();
/// assert!(arch.validate().is_ok());
/// assert_eq!(arch.width, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroArch {
    /// Unified fetch/decode/rename/dispatch/issue/writeback/commit width.
    pub width: u32,
    /// Fetch buffer size in bytes.
    pub fetch_buffer_bytes: u32,
    /// Fetch (target) queue size in micro-ops.
    pub fetch_queue_uops: u32,
    /// Local predictor entries of the tournament branch predictor.
    pub local_predictor: u32,
    /// Global predictor entries of the tournament branch predictor.
    pub global_predictor: u32,
    /// Choice predictor entries of the tournament branch predictor.
    pub choice_predictor: u32,
    /// Return address stack entries.
    pub ras_entries: u32,
    /// Branch target buffer entries.
    pub btb_entries: u32,
    /// Reorder buffer entries.
    pub rob_entries: u32,
    /// Physical integer registers.
    pub int_rf: u32,
    /// Physical floating-point registers.
    pub fp_rf: u32,
    /// Instruction (issue) queue entries.
    pub iq_entries: u32,
    /// Load queue entries.
    pub lq_entries: u32,
    /// Store queue entries.
    pub sq_entries: u32,
    /// Integer ALUs.
    pub int_alu: u32,
    /// Integer multiplier/divider units.
    pub int_mult_div: u32,
    /// Floating-point ALUs.
    pub fp_alu: u32,
    /// Floating-point multiplier/divider units.
    pub fp_mult_div: u32,
    /// Cache read/write ports shared by loads and stores.
    pub rd_wr_ports: u32,
    /// L1 instruction cache size in KiB.
    pub icache_kb: u32,
    /// L1 instruction cache associativity.
    pub icache_assoc: u32,
    /// L1 data cache size in KiB.
    pub dcache_kb: u32,
    /// L1 data cache associativity.
    pub dcache_assoc: u32,
    /// Memory-dependence speculation policy (not part of the Table 4
    /// search space; an extension study — see `ext_memdep`).
    pub mem_dep: MemDepPolicy,
    /// Branch-direction prediction algorithm (extension study — see
    /// `ext_bpred`).
    pub bp_kind: BpKind,
    /// L1 cache replacement policy (extension study — see
    /// `ext_replacement`).
    pub replacement: ReplPolicy,
}

impl MicroArch {
    /// The baseline microarchitecture of paper Table 1.
    pub fn baseline() -> Self {
        Self {
            width: 4,
            fetch_buffer_bytes: 64,
            fetch_queue_uops: 32,
            local_predictor: 2048,
            global_predictor: 8192,
            choice_predictor: 8192,
            ras_entries: 16,
            btb_entries: 4096,
            rob_entries: 50,
            int_rf: 50,
            fp_rf: 50,
            iq_entries: 32,
            lq_entries: 24,
            sq_entries: 24,
            int_alu: 3,
            int_mult_div: 1,
            fp_alu: 2,
            fp_mult_div: 1,
            rd_wr_ports: 1,
            icache_kb: 32,
            icache_assoc: 2,
            dcache_kb: 32,
            dcache_assoc: 2,
            mem_dep: MemDepPolicy::Conservative,
            bp_kind: BpKind::Tournament,
            replacement: ReplPolicy::Lru,
        }
    }

    /// A deliberately small configuration, useful in tests that need to
    /// provoke resource stalls quickly.
    pub fn tiny() -> Self {
        Self {
            width: 2,
            fetch_buffer_bytes: 16,
            fetch_queue_uops: 8,
            local_predictor: 512,
            global_predictor: 2048,
            choice_predictor: 2048,
            ras_entries: 16,
            btb_entries: 1024,
            rob_entries: 32,
            int_rf: 40,
            fp_rf: 40,
            iq_entries: 16,
            lq_entries: 20,
            sq_entries: 20,
            int_alu: 3,
            int_mult_div: 1,
            fp_alu: 1,
            fp_mult_div: 1,
            rd_wr_ports: 1,
            icache_kb: 16,
            icache_assoc: 2,
            dcache_kb: 16,
            dcache_assoc: 2,
            mem_dep: MemDepPolicy::Conservative,
            bp_kind: BpKind::Tournament,
            replacement: ReplPolicy::Lru,
        }
    }

    /// Checks structural invariants the pipeline relies on.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a parameter is zero, a predictor/cache
    /// size is not a power of two, or the physical register files cannot
    /// even hold the architectural state.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pos(name: &'static str, v: u32) -> Result<(), ConfigError> {
            if v == 0 {
                Err(ConfigError::ZeroParameter(name))
            } else {
                Ok(())
            }
        }
        pos("width", self.width)?;
        pos("fetch_buffer_bytes", self.fetch_buffer_bytes)?;
        pos("fetch_queue_uops", self.fetch_queue_uops)?;
        pos("rob_entries", self.rob_entries)?;
        pos("iq_entries", self.iq_entries)?;
        pos("lq_entries", self.lq_entries)?;
        pos("sq_entries", self.sq_entries)?;
        pos("int_alu", self.int_alu)?;
        pos("int_mult_div", self.int_mult_div)?;
        pos("fp_alu", self.fp_alu)?;
        pos("fp_mult_div", self.fp_mult_div)?;
        pos("rd_wr_ports", self.rd_wr_ports)?;
        pos("ras_entries", self.ras_entries)?;
        for (name, v) in [
            ("local_predictor", self.local_predictor),
            ("global_predictor", self.global_predictor),
            ("choice_predictor", self.choice_predictor),
            ("btb_entries", self.btb_entries),
        ] {
            pos(name, v)?;
            if !v.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo(name, v));
            }
        }
        for (name, kb, assoc) in [
            ("icache", self.icache_kb, self.icache_assoc),
            ("dcache", self.dcache_kb, self.dcache_assoc),
        ] {
            pos(name, kb)?;
            pos(name, assoc)?;
            let lines = kb * 1024 / LINE_BYTES;
            if !lines.is_multiple_of(assoc) || !(lines / assoc).is_power_of_two() {
                return Err(ConfigError::BadCacheGeometry { name, kb, assoc });
            }
        }
        if self.int_rf < ARCH_REGS + 1 {
            return Err(ConfigError::RegFileTooSmall {
                class: "int",
                have: self.int_rf,
            });
        }
        if self.fp_rf < ARCH_REGS + 1 {
            return Err(ConfigError::RegFileTooSmall {
                class: "fp",
                have: self.fp_rf,
            });
        }
        if self.fetch_buffer_bytes < INSTR_BYTES {
            return Err(ConfigError::ZeroParameter("fetch_buffer_bytes"));
        }
        Ok(())
    }

    /// Number of instructions a full fetch buffer holds.
    pub fn fetch_buffer_instrs(&self) -> u32 {
        self.fetch_buffer_bytes / INSTR_BYTES
    }
}

impl Default for MicroArch {
    fn default() -> Self {
        Self::baseline()
    }
}

impl fmt::Display for MicroArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "w{} fb{} fq{} bp{}/{}/{} ras{} btb{} rob{} irf{} frf{} iq{} lq{} sq{} \
             alu{} imd{} fpu{} fmd{} i${}K/{} d${}K/{}",
            self.width,
            self.fetch_buffer_bytes,
            self.fetch_queue_uops,
            self.local_predictor,
            self.global_predictor,
            self.choice_predictor,
            self.ras_entries,
            self.btb_entries,
            self.rob_entries,
            self.int_rf,
            self.fp_rf,
            self.iq_entries,
            self.lq_entries,
            self.sq_entries,
            self.int_alu,
            self.int_mult_div,
            self.fp_alu,
            self.fp_mult_div,
            self.icache_kb,
            self.icache_assoc,
            self.dcache_kb,
            self.dcache_assoc,
        )
    }
}

/// Errors produced by [`MicroArch::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A parameter that must be positive was zero.
    ZeroParameter(&'static str),
    /// A table size that must be a power of two was not.
    NotPowerOfTwo(&'static str, u32),
    /// Cache size/associativity do not form a power-of-two set count.
    BadCacheGeometry {
        /// Which cache.
        name: &'static str,
        /// Requested capacity in KiB.
        kb: u32,
        /// Requested associativity.
        assoc: u32,
    },
    /// A physical register file smaller than the architectural state.
    RegFileTooSmall {
        /// Register class name.
        class: &'static str,
        /// Provided number of physical registers.
        have: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroParameter(name) => write!(f, "parameter `{name}` must be positive"),
            ConfigError::NotPowerOfTwo(name, v) => {
                write!(f, "parameter `{name}` must be a power of two, got {v}")
            }
            ConfigError::BadCacheGeometry { name, kb, assoc } => write!(
                f,
                "{name}: {kb} KiB with associativity {assoc} does not yield a power-of-two set count"
            ),
            ConfigError::RegFileTooSmall { class, have } => write!(
                f,
                "{class} register file has {have} physical registers, need more than the architectural state"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        assert!(MicroArch::baseline().validate().is_ok());
        assert!(MicroArch::tiny().validate().is_ok());
    }

    #[test]
    fn zero_width_rejected() {
        let mut arch = MicroArch::baseline();
        arch.width = 0;
        assert_eq!(arch.validate(), Err(ConfigError::ZeroParameter("width")));
    }

    #[test]
    fn non_pow2_predictor_rejected() {
        let mut arch = MicroArch::baseline();
        arch.btb_entries = 3000;
        assert!(matches!(
            arch.validate(),
            Err(ConfigError::NotPowerOfTwo("btb_entries", 3000))
        ));
    }

    #[test]
    fn small_regfile_rejected() {
        let mut arch = MicroArch::baseline();
        arch.int_rf = 8;
        assert!(matches!(
            arch.validate(),
            Err(ConfigError::RegFileTooSmall { class: "int", .. })
        ));
    }

    #[test]
    fn fetch_buffer_instrs() {
        assert_eq!(MicroArch::baseline().fetch_buffer_instrs(), 16);
    }

    #[test]
    fn display_is_nonempty_and_debug_roundtrips() {
        let arch = MicroArch::baseline();
        assert!(!format!("{arch}").is_empty());
        assert!(format!("{arch:?}").contains("MicroArch"));
    }

    #[test]
    fn bad_cache_geometry_rejected() {
        let mut arch = MicroArch::baseline();
        arch.icache_kb = 24; // 384 lines / 2-way = 192 sets, not a power of two
        assert!(matches!(
            arch.validate(),
            Err(ConfigError::BadCacheGeometry { name: "icache", .. })
        ));
    }
}
