//! The microarchitecture design space (paper Table 4).
//!
//! Twenty-two searchable parameters. Two notes on fidelity to the paper's
//! Table 4: (1) the table lists global/choice predictor on one row, but
//! the quoted design-space size only matches with both free, so they are
//! separate parameters here; (2) the table's `#` column claims 18
//! candidate values for the register files while its own range column
//! says `40:304:8` (34 values) — we honour the explicit ranges, giving a
//! slightly larger space of ~3.2 × 10¹⁵ designs.

use archx_sim::MicroArch;
use rand::Rng;
use std::fmt;

/// Identifier of one searchable parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParamId {
    /// Unified pipeline width.
    Width,
    /// Fetch buffer size in bytes.
    FetchBuffer,
    /// Fetch queue size in micro-ops.
    FetchQueue,
    /// Local predictor entries.
    LocalPredictor,
    /// Global predictor entries.
    GlobalPredictor,
    /// Choice predictor entries.
    ChoicePredictor,
    /// Return address stack entries.
    Ras,
    /// Branch target buffer entries.
    Btb,
    /// Reorder buffer entries.
    Rob,
    /// Physical integer registers.
    IntRf,
    /// Physical floating-point registers.
    FpRf,
    /// Issue queue entries.
    Iq,
    /// Load queue entries.
    Lq,
    /// Store queue entries.
    Sq,
    /// Integer ALUs.
    IntAlu,
    /// Integer multiplier/dividers.
    IntMultDiv,
    /// Floating-point ALUs.
    FpAlu,
    /// Floating-point multiplier/dividers.
    FpMultDiv,
    /// I-cache size in KiB.
    ICacheKb,
    /// I-cache associativity.
    ICacheAssoc,
    /// D-cache size in KiB.
    DCacheKb,
    /// D-cache associativity.
    DCacheAssoc,
}

impl ParamId {
    /// All parameters in Table 4 order.
    pub const ALL: [ParamId; 22] = [
        ParamId::Width,
        ParamId::FetchBuffer,
        ParamId::FetchQueue,
        ParamId::LocalPredictor,
        ParamId::GlobalPredictor,
        ParamId::ChoicePredictor,
        ParamId::Ras,
        ParamId::Btb,
        ParamId::Rob,
        ParamId::IntRf,
        ParamId::FpRf,
        ParamId::Iq,
        ParamId::Lq,
        ParamId::Sq,
        ParamId::IntAlu,
        ParamId::IntMultDiv,
        ParamId::FpAlu,
        ParamId::FpMultDiv,
        ParamId::ICacheKb,
        ParamId::ICacheAssoc,
        ParamId::DCacheKb,
        ParamId::DCacheAssoc,
    ];

    /// Index within [`ParamId::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&p| p == self)
            .expect("all variants listed")
    }

    /// Reads this parameter's current value from a configuration.
    pub fn get(self, arch: &MicroArch) -> u32 {
        match self {
            ParamId::Width => arch.width,
            ParamId::FetchBuffer => arch.fetch_buffer_bytes,
            ParamId::FetchQueue => arch.fetch_queue_uops,
            ParamId::LocalPredictor => arch.local_predictor,
            ParamId::GlobalPredictor => arch.global_predictor,
            ParamId::ChoicePredictor => arch.choice_predictor,
            ParamId::Ras => arch.ras_entries,
            ParamId::Btb => arch.btb_entries,
            ParamId::Rob => arch.rob_entries,
            ParamId::IntRf => arch.int_rf,
            ParamId::FpRf => arch.fp_rf,
            ParamId::Iq => arch.iq_entries,
            ParamId::Lq => arch.lq_entries,
            ParamId::Sq => arch.sq_entries,
            ParamId::IntAlu => arch.int_alu,
            ParamId::IntMultDiv => arch.int_mult_div,
            ParamId::FpAlu => arch.fp_alu,
            ParamId::FpMultDiv => arch.fp_mult_div,
            ParamId::ICacheKb => arch.icache_kb,
            ParamId::ICacheAssoc => arch.icache_assoc,
            ParamId::DCacheKb => arch.dcache_kb,
            ParamId::DCacheAssoc => arch.dcache_assoc,
        }
    }

    /// Writes this parameter into a configuration.
    pub fn set(self, arch: &mut MicroArch, value: u32) {
        match self {
            ParamId::Width => arch.width = value,
            ParamId::FetchBuffer => arch.fetch_buffer_bytes = value,
            ParamId::FetchQueue => arch.fetch_queue_uops = value,
            ParamId::LocalPredictor => arch.local_predictor = value,
            ParamId::GlobalPredictor => arch.global_predictor = value,
            ParamId::ChoicePredictor => arch.choice_predictor = value,
            ParamId::Ras => arch.ras_entries = value,
            ParamId::Btb => arch.btb_entries = value,
            ParamId::Rob => arch.rob_entries = value,
            ParamId::IntRf => arch.int_rf = value,
            ParamId::FpRf => arch.fp_rf = value,
            ParamId::Iq => arch.iq_entries = value,
            ParamId::Lq => arch.lq_entries = value,
            ParamId::Sq => arch.sq_entries = value,
            ParamId::IntAlu => arch.int_alu = value,
            ParamId::IntMultDiv => arch.int_mult_div = value,
            ParamId::FpAlu => arch.fp_alu = value,
            ParamId::FpMultDiv => arch.fp_mult_div = value,
            ParamId::ICacheKb => arch.icache_kb = value,
            ParamId::ICacheAssoc => arch.icache_assoc = value,
            ParamId::DCacheKb => arch.dcache_kb = value,
            ParamId::DCacheAssoc => arch.dcache_assoc = value,
        }
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

fn range(start: u32, end: u32, stride: u32) -> Vec<u32> {
    (start..=end).step_by(stride as usize).collect()
}

/// The Table 4 design space: candidate values per parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpace {
    candidates: Vec<Vec<u32>>,
}

impl DesignSpace {
    /// The paper's Table 4 space.
    pub fn table4() -> Self {
        let mut candidates = vec![Vec::new(); ParamId::ALL.len()];
        let mut set = |id: ParamId, v: Vec<u32>| candidates[id.index()] = v;
        set(ParamId::Width, range(1, 8, 1));
        set(ParamId::FetchBuffer, vec![16, 32, 64]);
        set(ParamId::FetchQueue, range(8, 48, 4));
        set(ParamId::LocalPredictor, vec![512, 1024, 2048]);
        set(ParamId::GlobalPredictor, vec![2048, 4096, 8192]);
        set(ParamId::ChoicePredictor, vec![2048, 4096, 8192]);
        set(ParamId::Ras, range(16, 40, 2));
        set(ParamId::Btb, vec![1024, 2048, 4096]);
        set(ParamId::Rob, range(32, 256, 16));
        set(ParamId::IntRf, range(40, 304, 8));
        set(ParamId::FpRf, range(40, 304, 8));
        set(ParamId::Iq, range(16, 80, 8));
        set(ParamId::Lq, range(20, 48, 4));
        set(ParamId::Sq, range(20, 48, 4));
        set(ParamId::IntAlu, range(3, 6, 1));
        set(ParamId::IntMultDiv, vec![1, 2]);
        set(ParamId::FpAlu, vec![1, 2]);
        set(ParamId::FpMultDiv, vec![1, 2]);
        set(ParamId::ICacheKb, vec![16, 32, 64]);
        set(ParamId::ICacheAssoc, vec![2, 4]);
        set(ParamId::DCacheKb, vec![16, 32, 64]);
        set(ParamId::DCacheAssoc, vec![2, 4]);
        DesignSpace { candidates }
    }

    /// Candidate values of one parameter, ascending.
    pub fn candidates(&self, id: ParamId) -> &[u32] {
        &self.candidates[id.index()]
    }

    /// Total number of designs.
    pub fn size(&self) -> u128 {
        self.candidates.iter().map(|c| c.len() as u128).product()
    }

    /// Whether `arch` lies exactly on the lattice.
    pub fn contains(&self, arch: &MicroArch) -> bool {
        ParamId::ALL
            .iter()
            .all(|&p| self.candidates(p).contains(&p.get(arch)))
    }

    /// Uniformly random design.
    pub fn random<R: Rng>(&self, rng: &mut R) -> MicroArch {
        let mut arch = MicroArch::baseline();
        for &p in &ParamId::ALL {
            let c = self.candidates(p);
            p.set(&mut arch, c[rng.gen_range(0..c.len())]);
        }
        debug_assert!(arch.validate().is_ok());
        arch
    }

    /// The next-larger candidate value, if any (the paper's "select the
    /// next larger candidate value from the specification").
    pub fn next_larger(&self, id: ParamId, value: u32) -> Option<u32> {
        self.candidates(id).iter().copied().find(|&v| v > value)
    }

    /// The next-smaller candidate value, if any.
    pub fn next_smaller(&self, id: ParamId, value: u32) -> Option<u32> {
        self.candidates(id)
            .iter()
            .rev()
            .copied()
            .find(|&v| v < value)
    }

    /// Snaps a configuration onto the lattice (each parameter to its
    /// nearest candidate).
    pub fn snap(&self, arch: &MicroArch) -> MicroArch {
        let mut out = *arch;
        for &p in &ParamId::ALL {
            let v = p.get(arch);
            let nearest = *self
                .candidates(p)
                .iter()
                .min_by_key(|&&c| v.abs_diff(c))
                .expect("non-empty candidates");
            p.set(&mut out, nearest);
        }
        out
    }

    /// Normalised feature vector in `[0, 1]^22` (for surrogate models).
    pub fn features(&self, arch: &MicroArch) -> Vec<f64> {
        ParamId::ALL
            .iter()
            .map(|&p| {
                let c = self.candidates(p);
                let lo = *c.first().expect("non-empty") as f64;
                let hi = *c.last().expect("non-empty") as f64;
                if hi > lo {
                    (p.get(arch) as f64 - lo) / (hi - lo)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Mixed-radix index of a lattice design (unique per design).
    ///
    /// # Panics
    ///
    /// Panics if the design is off-lattice.
    pub fn index_of(&self, arch: &MicroArch) -> u128 {
        let mut idx: u128 = 0;
        for &p in &ParamId::ALL {
            let c = self.candidates(p);
            let pos = c
                .iter()
                .position(|&v| v == p.get(arch))
                .expect("design must be on the lattice") as u128;
            idx = idx * c.len() as u128 + pos;
        }
        idx
    }

    /// Inverse of [`DesignSpace::index_of`].
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn design_at(&self, mut index: u128) -> MicroArch {
        assert!(index < self.size(), "index out of range");
        let mut arch = MicroArch::baseline();
        for &p in ParamId::ALL.iter().rev() {
            let c = self.candidates(p);
            let pos = (index % c.len() as u128) as usize;
            index /= c.len() as u128;
            p.set(&mut arch, c[pos]);
        }
        arch
    }
}

impl Default for DesignSpace {
    fn default() -> Self {
        Self::table4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn size_matches_table4_ranges() {
        let s = DesignSpace::table4();
        // The paper quotes 8.9649e14 using 18 register-file candidates; the
        // explicit range 40:304:8 yields 34, giving (34/18)^2 times more.
        assert_eq!(s.size(), 3_198_573_639_106_560);
        assert_eq!(s.candidates(ParamId::IntRf).len(), 34);
        assert_eq!(s.candidates(ParamId::Rob).len(), 15);
        assert_eq!(s.candidates(ParamId::Ras).len(), 13);
    }

    #[test]
    fn random_designs_are_valid_and_on_lattice() {
        let s = DesignSpace::table4();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let a = s.random(&mut rng);
            assert!(a.validate().is_ok());
            assert!(s.contains(&a));
        }
    }

    #[test]
    fn index_roundtrip() {
        let s = DesignSpace::table4();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let a = s.random(&mut rng);
            let idx = s.index_of(&a);
            assert_eq!(s.design_at(idx), a);
        }
    }

    #[test]
    fn next_larger_smaller() {
        let s = DesignSpace::table4();
        assert_eq!(s.next_larger(ParamId::Rob, 32), Some(48));
        assert_eq!(s.next_larger(ParamId::Rob, 256), None);
        assert_eq!(s.next_smaller(ParamId::Rob, 48), Some(32));
        assert_eq!(s.next_smaller(ParamId::Rob, 32), None);
        assert_eq!(s.next_larger(ParamId::FetchBuffer, 16), Some(32));
    }

    #[test]
    fn snap_moves_baseline_onto_lattice() {
        let s = DesignSpace::table4();
        let base = MicroArch::baseline(); // ROB 50 is off-lattice
        assert!(!s.contains(&base));
        let snapped = s.snap(&base);
        assert!(s.contains(&snapped));
        assert!(snapped.validate().is_ok());
        assert_eq!(snapped.rob_entries, 48);
    }

    #[test]
    fn features_are_unit_range() {
        let s = DesignSpace::table4();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = s.random(&mut rng);
            for f in s.features(&a) {
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn get_set_roundtrip_every_param() {
        let mut arch = MicroArch::baseline();
        for &p in &ParamId::ALL {
            let v = p.get(&arch);
            p.set(&mut arch, v); // identity write
            assert_eq!(p.get(&arch), v);
        }
    }
}
