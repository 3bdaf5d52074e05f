//! Aggregate simulation statistics, including the activity counters the
//! McPAT-lite power model consumes.

use crate::trace::ResourceKind;

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Committed instructions.
    pub committed: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Branch predictor lookups.
    pub bp_lookups: u64,
    /// Mispredicted control transfers (direction or target).
    pub mispredicts: u64,
    /// BTB misses on taken transfers.
    pub btb_misses: u64,
    /// L1 I-cache accesses / misses.
    pub icache_accesses: u64,
    /// L1 I-cache misses.
    pub icache_misses: u64,
    /// L1 D-cache accesses.
    pub dcache_accesses: u64,
    /// L1 D-cache misses.
    pub dcache_misses: u64,
    /// L2 accesses (sum of both L1s' misses).
    pub l2_accesses: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
    /// Ops issued per functional-unit kind, indexed as
    /// [`crate::trace::FuKind::ALL`].
    pub fu_issued: [u64; 5],
    /// Rename-stall cycles attributed to each resource, indexed as
    /// [`ResourceKind::ALL`].
    pub rename_stall_cycles: [u64; 6],
    /// Loads that forwarded from the store queue.
    pub store_forwards: u64,
    /// Memory-order violations under store-set speculation.
    pub mem_dep_violations: u64,
    /// Cycle-weighted average occupancy of ROB/IQ/LQ/SQ/IntRF/FpRF,
    /// indexed as [`ResourceKind::ALL`].
    pub avg_occupancy: [f64; 6],
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate over predictor lookups.
    pub fn mispredict_rate(&self) -> f64 {
        if self.bp_lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.bp_lookups as f64
        }
    }

    /// D-cache miss rate.
    pub fn dcache_miss_rate(&self) -> f64 {
        if self.dcache_accesses == 0 {
            0.0
        } else {
            self.dcache_misses as f64 / self.dcache_accesses as f64
        }
    }

    /// Rename stall cycles for one resource kind.
    pub fn stall_cycles(&self, kind: ResourceKind) -> u64 {
        self.rename_stall_cycles[kind as usize]
    }

    /// Exports the headline counters of this run into the global telemetry
    /// registry (`sim/committed`, `sim/cycles`, …), accumulating across
    /// runs. Called once per simulation by the evaluation layer.
    pub fn export_telemetry(&self) {
        use archx_telemetry as t;
        t::counter_add("sim/runs", 1);
        t::counter_add("sim/committed", self.committed);
        t::counter_add("sim/cycles", self.cycles);
        t::counter_add("sim/mispredicts", self.mispredicts);
        t::counter_add("sim/icache_misses", self.icache_misses);
        t::counter_add("sim/dcache_misses", self.dcache_misses);
        t::counter_add("sim/l2_misses", self.l2_misses);
        t::counter_add("sim/store_forwards", self.store_forwards);
        t::counter_add("sim/mem_dep_violations", self.mem_dep_violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.dcache_miss_rate(), 0.0);
    }

    #[test]
    fn ipc_computes() {
        let s = SimStats {
            committed: 900,
            cycles: 1000,
            ..Default::default()
        };
        assert!((s.ipc() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn stall_cycles_indexing() {
        let mut s = SimStats::default();
        s.rename_stall_cycles[4] = 42; // IntRf is the 5th in ALL
        assert_eq!(s.stall_cycles(ResourceKind::IntRf), 42);
    }
}
