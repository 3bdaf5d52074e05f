//! Per-cycle pipeline invariant checking — the **`CheckedCore` mode**.
//!
//! The simulator's correctness contract (stage ordering, in-order commit,
//! bounded occupancies, free-list conservation, memory-order replay gates)
//! is normally only exercised by tests. Enabling this mode via
//! [`OooCore::with_invariant_checks`](crate::OooCore::with_invariant_checks)
//! re-verifies the contract *while the pipeline runs*, once per simulated
//! cycle, and turns the first violation into a typed
//! [`SimError::InvariantViolation`] so harnesses can report it as data.
//!
//! The mode is flag-gated at runtime: a core built without it pays one
//! predictable `Option` branch per cycle and nothing else, keeping the
//! campaign hot path at full speed.
//!
//! [`CheckConfig::fault`] supports *intentional* invariant breaks (an
//! off-by-one in the checker's believed ROB capacity, or a wakeup the
//! issue stage drops) so the verification harness can prove the checker
//! actually fires — a checker that never trips is indistinguishable from
//! one that checks nothing.

use crate::error::SimError;
use crate::pipeline::{Aux, Wakeup, MEMDEP_REPLAY};
use crate::resources::Pool;
use crate::trace::{Cycle, InstrEvents, InstrIdx, ResourceKind, NO_INSTR};

/// An intentionally injected invariant break for fault-injection testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The checker believes the ROB holds one entry fewer than the core
    /// actually allocates, so the first cycle that fills the ROB trips the
    /// `occupancy/ROB` invariant.
    RobCapacityOffByOne,
    /// The issue stage drops the first wakeup that would make a waiting
    /// instruction ready, so it never issues; the `issue/wakeup` invariant
    /// trips once its producers have completed.
    LostWakeup,
}

impl InjectedFault {
    /// Stable machine-readable name (CLI `inject=` value).
    pub fn name(self) -> &'static str {
        match self {
            InjectedFault::RobCapacityOffByOne => "rob-off-by-one",
            InjectedFault::LostWakeup => "lost-wakeup",
        }
    }

    /// Parses a fault name as accepted by `archx verify inject=NAME`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "rob-off-by-one" => Ok(InjectedFault::RobCapacityOffByOne),
            "lost-wakeup" => Ok(InjectedFault::LostWakeup),
            other => Err(format!(
                "unknown injected fault `{other}` (expected rob-off-by-one or lost-wakeup)"
            )),
        }
    }
}

/// Configuration of the `CheckedCore` mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckConfig {
    /// Intentional invariant break, if any (see [`InjectedFault`]).
    pub fault: Option<InjectedFault>,
}

/// The per-run checker state. Owned by `OooCore::run_into` when checks are
/// enabled; one `end_of_cycle` call per main-loop iteration.
#[derive(Debug)]
pub(crate) struct InvariantChecker {
    fault: Option<InjectedFault>,
    /// Cycle observed by the previous `end_of_cycle` call (the main loop
    /// must advance time strictly between iterations, or the watchdog's
    /// no-progress arithmetic breaks).
    prev_cycle: Option<Cycle>,
    /// Commit cycle of the most recently committed instruction.
    last_commit_c: Cycle,
    /// Next instruction expected to commit (in-order commit).
    next_commit: InstrIdx,
}

impl InvariantChecker {
    pub(crate) fn new(cfg: CheckConfig) -> Self {
        InvariantChecker {
            fault: cfg.fault,
            prev_cycle: None,
            last_commit_c: 0,
            next_commit: 0,
        }
    }

    /// The capacity the checker holds the pool to — the real capacity
    /// unless a fault was injected for this resource.
    fn believed_capacity(&self, pool: &Pool, kind: ResourceKind) -> u32 {
        match self.fault {
            Some(InjectedFault::RobCapacityOffByOne) if kind == ResourceKind::Rob => {
                pool.capacity().saturating_sub(1)
            }
            _ => pool.capacity(),
        }
    }

    #[cold]
    fn violation(&self, check: &str, cycle: Cycle, message: String) -> SimError {
        archx_telemetry::counter_add(&format!("verify/violation/{check}"), 1);
        SimError::InvariantViolation {
            check: check.to_string(),
            cycle,
            message,
        }
    }

    /// Verifies every per-cycle invariant at the end of one main-loop
    /// iteration. `committed` is the range of instructions committed this
    /// cycle; `aux` holds one entry per renamed instruction; `pools` lists
    /// the six rename-checked resource pools; `wakeup` is the issue stage's
    /// wakeup state.
    pub(crate) fn end_of_cycle(
        &mut self,
        cycle: Cycle,
        committed: std::ops::Range<InstrIdx>,
        events: &[InstrEvents],
        aux: &[Aux],
        pools: [(&Pool, ResourceKind); 6],
        wakeup: &Wakeup,
    ) -> Result<(), SimError> {
        // Watchdog monotonicity: simulated time must advance strictly
        // between iterations (the deadlock watchdog measures no-commit
        // intervals in this clock).
        if let Some(prev) = self.prev_cycle {
            if cycle <= prev {
                return Err(self.violation(
                    "clock/monotone",
                    cycle,
                    format!("cycle {cycle} did not advance past {prev}"),
                ));
            }
        }
        self.prev_cycle = Some(cycle);

        // Occupancy bounds and free-list conservation.
        for (pool, kind) in pools {
            let cap = self.believed_capacity(pool, kind);
            if pool.in_use() > cap {
                return Err(self.violation(
                    &format!("occupancy/{kind}"),
                    cycle,
                    format!("{kind} holds {} entries, capacity {cap}", pool.in_use()),
                ));
            }
            if pool.available() + pool.in_use() != pool.capacity()
                || pool.held_count() != pool.in_use()
            {
                return Err(self.violation(
                    &format!("free_list/{kind}"),
                    cycle,
                    format!(
                        "{kind} free list lost entries: {} free + {} held != {} \
                         (scoreboard holds {})",
                        pool.available(),
                        pool.in_use(),
                        pool.capacity(),
                        pool.held_count()
                    ),
                ));
            }
        }

        // Wakeup: an instruction in the issue queue whose producers have
        // all completed must be in the ready list or due in the wake wheel
        // by next cycle — otherwise it would never issue.
        for j in committed.end..aux.len() as InstrIdx {
            if events[j as usize].i != Cycle::MAX {
                continue; // issued
            }
            let operands_done = aux[j as usize]
                .src_producers
                .iter()
                .all(|&prod| prod == NO_INSTR || events[prod as usize].p <= cycle);
            let due = wakeup.ready_at[j as usize] <= cycle + 1 && wakeup.scheduled(j);
            if operands_done && wakeup.ready.binary_search(&j).is_err() && !due {
                return Err(self.violation(
                    "issue/wakeup",
                    cycle,
                    format!(
                        "instruction {j} waits in the issue queue with every producer \
                         complete, but is neither ready nor due to wake"
                    ),
                ));
            }
        }

        // Commit-side invariants for everything committed this cycle.
        for j in committed {
            if j != self.next_commit {
                return Err(self.violation(
                    "commit/order",
                    cycle,
                    format!("instruction {j} committed before {}", self.next_commit),
                ));
            }
            self.next_commit = j + 1;
            let ev = &events[j as usize];
            if ev.c != cycle {
                return Err(self.violation(
                    "commit/cycle",
                    cycle,
                    format!("instruction {j} stamped commit {} in cycle {cycle}", ev.c),
                ));
            }
            if ev.c < self.last_commit_c {
                return Err(self.violation(
                    "commit/monotone",
                    cycle,
                    format!(
                        "instruction {j} committed at {} after cycle {}",
                        ev.c, self.last_commit_c
                    ),
                ));
            }
            self.last_commit_c = ev.c;
            // Stage ordering within the instruction (Figure 7 chain).
            let ordered = ev.f1 <= ev.f2
                && ev.f2 <= ev.f
                && ev.f < ev.dc
                && ev.dc < ev.r
                && ev.r < ev.dp
                && ev.dp <= ev.i
                && ev.i <= ev.m
                && ev.m < ev.p
                && ev.p < ev.c;
            if !ordered {
                return Err(self.violation(
                    "stage_order",
                    cycle,
                    format!("instruction {j} has out-of-order stage times {ev:?}"),
                ));
            }
            // Memory-order replay gate: a load caught by a resolving store
            // may not commit before the store's access plus the replay
            // penalty, and never before its recorded gate.
            let gate = aux[j as usize].commit_gate;
            if gate > 0 && ev.c <= gate {
                return Err(self.violation(
                    "memdep_replay",
                    cycle,
                    format!(
                        "instruction {j} committed at {} inside its replay gate {gate}",
                        ev.c
                    ),
                ));
            }
            if let Some(s) = ev.mem_dep_violation {
                let sm = events[s as usize].m;
                if sm == Cycle::MAX || ev.c <= sm + MEMDEP_REPLAY {
                    return Err(self.violation(
                        "memdep_order",
                        cycle,
                        format!(
                            "load {j} (commit {}) outran the replay of store {s} (M at {sm})",
                            ev.c
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MicroArch;
    use crate::pipeline::OooCore;
    use crate::trace_gen;

    #[test]
    fn checked_run_matches_unchecked_run() {
        let instrs = trace_gen::mixed_workload(3_000, 11);
        let plain = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        let checked = OooCore::checked(MicroArch::baseline())
            .run(&instrs)
            .expect("clean run has no violations");
        assert_eq!(plain.trace, checked.trace);
        assert_eq!(plain.stats, checked.stats);
    }

    #[test]
    fn clean_runs_pass_across_trace_shapes() {
        for instrs in [
            trace_gen::linear_int_chain(1_000),
            trace_gen::pointer_chase(1_500, 8 << 20, 3),
            trace_gen::random_branches(1_500, 9),
            trace_gen::store_load_pairs(800),
            trace_gen::divide_heavy(400),
        ] {
            OooCore::checked(MicroArch::baseline())
                .run(&instrs)
                .expect("invariants hold on a healthy pipeline");
        }
    }

    #[test]
    fn injected_rob_off_by_one_is_caught() {
        // A serial ALU chain with the ROB as the binding resource (IQ and
        // register file both larger) keeps the ROB full, so the believed
        // capacity of (rob_entries - 1) must be exceeded.
        let mut arch = MicroArch::baseline();
        arch.rob_entries = 32;
        arch.iq_entries = 48;
        arch.int_rf = 128;
        let instrs = trace_gen::linear_int_chain(2_000);
        let err = OooCore::new(arch)
            .with_invariant_checks(CheckConfig {
                fault: Some(InjectedFault::RobCapacityOffByOne),
            })
            .run(&instrs)
            .expect_err("injected fault must trip the checker");
        match &err {
            SimError::InvariantViolation { check, .. } => {
                assert_eq!(check, "occupancy/ROB");
            }
            other => panic!("expected an invariant violation, got {other}"),
        }
        assert_eq!(err.tag(), "invariant");
        assert!(!err.retryable(), "violations are deterministic properties");
    }

    #[test]
    fn injected_lost_wakeup_is_caught() {
        let instrs = trace_gen::linear_int_chain(200);
        let err = OooCore::new(MicroArch::baseline())
            .with_invariant_checks(CheckConfig {
                fault: Some(InjectedFault::LostWakeup),
            })
            .run(&instrs)
            .expect_err("a dropped wakeup must trip the checker");
        match &err {
            SimError::InvariantViolation { check, .. } => assert_eq!(check, "issue/wakeup"),
            other => panic!("expected an invariant violation, got {other}"),
        }
    }

    #[test]
    fn fault_names_round_trip() {
        for f in [
            InjectedFault::RobCapacityOffByOne,
            InjectedFault::LostWakeup,
        ] {
            assert_eq!(InjectedFault::parse(f.name()), Ok(f));
        }
        let err = InjectedFault::parse("bit-flip").expect_err("unknown fault");
        assert!(err.contains("rob-off-by-one") && err.contains("lost-wakeup"));
    }
}
