//! External microexecution-trace interchange.
//!
//! The ArchExplorer algorithm is simulator-agnostic: anything that can
//! produce per-instruction event times and resource-dependence records can
//! drive the DEG analysis. This module defines a line-oriented text format
//! for that record so externally generated traces — e.g. from a gem5
//! `O3PipeView`-style dump post-processed into this shape — can be fed to
//! the analysis without using the built-in simulator, and traces from the
//! built-in simulator can be exported for other tools.
//!
//! ## Format
//!
//! One record per committed instruction, fields separated by single
//! spaces, in program order:
//!
//! ```text
//! I <idx> <op> <pc> f1=<c> f2=<c> f=<c> dc=<c> r=<c> dp=<c> i=<c> m=<c> p=<c> c=<c> [flags...]
//! ```
//!
//! where `<op>` is an [`OpClass`] name (`int_alu`, `load`, `br_cond`, …)
//! and the optional flags are:
//!
//! * `rs=<RES>:<idx>` — rename stall on resource `RES` (`ROB`, `IQ`, `LQ`,
//!   `SQ`, `IntRF`, `FpRF`) resolved by instruction `<idx>`'s release; may
//!   repeat;
//! * `fu=<FU>:<idx>` — waited for functional unit `FU` (`IntALU`,
//!   `IntMultDiv`, `FpALU`, `FpMultDiv`, `RdWrPort`) released by `<idx>`;
//! * `dd=<idx>` — true data dependence on in-flight producer `<idx>`; may
//!   repeat;
//! * `mp` — this instruction was a mispredicted control transfer;
//! * `rf=<idx>` — first instruction fetched after the squash caused by
//!   `<idx>`;
//! * `fs=<idx>` — fetch-buffer slot released by `<idx>`;
//! * `fb=<idx>` — fetch-bandwidth wait behind `<idx>`;
//! * `mv=<idx>` — memory-order violation against older store `<idx>`;
//! * `im` / `dm` — I-cache / D-cache miss.
//!
//! Lines starting with `#` and blank lines are ignored. A header line
//! `ARCHX-TRACE v1 <n>` is written by the exporter and accepted (not
//! required) by the parser.

use crate::isa::{Instruction, OpClass};
use crate::stats::SimStats;
use crate::trace::{
    Cycle, FuKind, FuWait, InstrEvents, InstrIdx, PipelineTrace, RenameStall, ResourceKind,
    SimResult,
};
use std::fmt::Write as _;

/// Errors produced by the trace parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTraceError {
    /// A malformed line, with its 1-based line number and a description.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// Record indices were not consecutive from zero.
    BadSequence {
        /// 1-based line number.
        line: usize,
        /// Index found.
        found: u32,
        /// Index expected.
        expected: u32,
    },
    /// The trace contained no records.
    Empty {
        /// Lines scanned (comments, headers and blanks included).
        lines: usize,
    },
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTraceError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseTraceError::BadSequence {
                line,
                found,
                expected,
            } => write!(f, "line {line}: index {found}, expected {expected}"),
            ParseTraceError::Empty { lines } => {
                write!(f, "trace contains no records ({lines} lines scanned)")
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

/// The variant of `all` whose `Display` name is `name`: the parser reads
/// back the names the exporter writes.
fn named<T: Copy + std::fmt::Display>(all: &[T], name: &str) -> Option<T> {
    all.iter().copied().find(|v| v.to_string() == name)
}

/// Serialises a simulation result into the interchange format;
/// `instructions` is the trace the result was simulated from.
///
/// # Panics
///
/// Panics when `instructions` and `result` differ in length.
pub fn export(instructions: &[Instruction], result: &SimResult) -> String {
    assert_eq!(
        instructions.len(),
        result.trace.len(),
        "trace and result lengths differ"
    );
    let mut out = String::with_capacity(result.trace.events.len() * 96);
    let _ = writeln!(out, "ARCHX-TRACE v1 {}", result.trace.events.len());
    for (idx, (ev, instr)) in result.trace.events.iter().zip(instructions).enumerate() {
        let _ = write!(
            out,
            "I {idx} {} {:#x} f1={} f2={} f={} dc={} r={} dp={} i={} m={} p={} c={}",
            instr.op, instr.pc, ev.f1, ev.f2, ev.f, ev.dc, ev.r, ev.dp, ev.i, ev.m, ev.p, ev.c
        );
        for stall in result.trace.rename_stalls(idx) {
            let _ = write!(out, " rs={}:{}", stall.resource, stall.releaser);
        }
        if let Some(wait) = ev.fu_wait {
            let _ = write!(out, " fu={}:{}", wait.fu, wait.releaser);
        }
        for &d in result.trace.data_deps(idx) {
            let _ = write!(out, " dd={d}");
        }
        if ev.mispredicted {
            out.push_str(" mp");
        }
        if let Some(from) = ev.refill_from {
            let _ = write!(out, " rf={from}");
        }
        if let Some(from) = ev.fetch_slot_from {
            let _ = write!(out, " fs={from}");
        }
        if let Some(from) = ev.fetch_bw_from {
            let _ = write!(out, " fb={from}");
        }
        if let Some(from) = ev.mem_dep_violation {
            let _ = write!(out, " mv={from}");
        }
        if ev.icache_miss {
            out.push_str(" im");
        }
        if ev.dcache_miss {
            out.push_str(" dm");
        }
        out.push('\n');
    }
    out
}

/// Parses the interchange format back into the instructions and their
/// [`SimResult`].
///
/// Only timing-relevant information is reconstructed: register operands
/// and memory addresses are not part of the format (the DEG does not need
/// them — dependencies are explicit), so the instructions carry empty
/// operand lists. Aggregate statistics are recomputed from the records.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on malformed input.
pub fn import(text: &str) -> Result<(Vec<Instruction>, SimResult), ParseTraceError> {
    let mut trace = PipelineTrace::default();
    let mut instructions: Vec<Instruction> = Vec::new();
    let mut stalls: Vec<RenameStall> = Vec::new();
    let mut deps: Vec<InstrIdx> = Vec::new();
    let mut lines = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lno = lineno + 1;
        lines = lno;
        if line.is_empty() || line.starts_with('#') || line.starts_with("ARCHX-TRACE") {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        let malformed = |reason: &str| ParseTraceError::Malformed {
            line: lno,
            reason: reason.to_string(),
        };
        if fields.next() != Some("I") {
            return Err(malformed("record must start with `I`"));
        }
        let idx: u32 = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("missing record index"))?;
        if idx as usize != trace.len() {
            return Err(ParseTraceError::BadSequence {
                line: lno,
                found: idx,
                expected: trace.len() as u32,
            });
        }
        let op = fields
            .next()
            .and_then(|name| named(&OpClass::ALL, name))
            .ok_or_else(|| malformed("unknown op class"))?;
        let pc = fields
            .next()
            .and_then(|s| {
                let s = s.strip_prefix("0x").unwrap_or(s);
                u64::from_str_radix(s, 16).ok()
            })
            .ok_or_else(|| malformed("bad pc"))?;

        let mut ev = InstrEvents::default();
        stalls.clear();
        deps.clear();
        let mut cycle_fields = 0;
        for field in fields {
            if let Some((key, value)) = field.split_once('=') {
                let cyc = || -> Result<Cycle, ParseTraceError> {
                    value.parse().map_err(|_| ParseTraceError::Malformed {
                        line: lno,
                        reason: format!("bad cycle value in `{field}`"),
                    })
                };
                let idx_val = || -> Result<InstrIdx, ParseTraceError> {
                    value
                        .rsplit(':')
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ParseTraceError::Malformed {
                            line: lno,
                            reason: format!("bad index in `{field}`"),
                        })
                };
                match key {
                    "f1" => ev.f1 = cyc()?,
                    "f2" => ev.f2 = cyc()?,
                    "f" => ev.f = cyc()?,
                    "dc" => ev.dc = cyc()?,
                    "r" => ev.r = cyc()?,
                    "dp" => ev.dp = cyc()?,
                    "i" => ev.i = cyc()?,
                    "m" => ev.m = cyc()?,
                    "p" => ev.p = cyc()?,
                    "c" => ev.c = cyc()?,
                    "rs" => {
                        let (res, _) = value
                            .split_once(':')
                            .ok_or_else(|| malformed("rs needs RES:idx"))?;
                        stalls.push(RenameStall {
                            resource: named(&ResourceKind::ALL, res)
                                .ok_or_else(|| malformed("unknown resource"))?,
                            releaser: idx_val()?,
                        });
                    }
                    "fu" => {
                        let (fu, _) = value
                            .split_once(':')
                            .ok_or_else(|| malformed("fu needs FU:idx"))?;
                        ev.fu_wait = Some(FuWait {
                            fu: named(&FuKind::ALL, fu).ok_or_else(|| malformed("unknown FU"))?,
                            releaser: idx_val()?,
                        });
                    }
                    "dd" => deps.push(idx_val()?),
                    "rf" => ev.refill_from = Some(idx_val()?),
                    "fs" => ev.fetch_slot_from = Some(idx_val()?),
                    "fb" => ev.fetch_bw_from = Some(idx_val()?),
                    "mv" => ev.mem_dep_violation = Some(idx_val()?),
                    _ => return Err(malformed(&format!("unknown field `{key}`"))),
                }
                if matches!(
                    key,
                    "f1" | "f2" | "f" | "dc" | "r" | "dp" | "i" | "m" | "p" | "c"
                ) {
                    cycle_fields += 1;
                }
            } else {
                match field {
                    "mp" => ev.mispredicted = true,
                    "im" => ev.icache_miss = true,
                    "dm" => ev.dcache_miss = true,
                    other => {
                        return Err(malformed(&format!("unknown flag `{other}`")));
                    }
                }
            }
        }
        if cycle_fields != 10 {
            return Err(malformed("all ten cycle fields are required"));
        }
        trace.push(ev, &stalls, &deps);
        instructions.push(Instruction {
            pc,
            op,
            srcs: [None, None],
            dst: None,
            mem_addr: 0,
            taken: false,
            target: 0,
        });
    }
    if trace.is_empty() {
        return Err(ParseTraceError::Empty { lines });
    }

    // Recompute aggregate statistics from the records.
    trace.cycles = trace.events.last().map_or(0, |e| e.c);
    let mut stats = SimStats {
        committed: trace.len() as u64,
        cycles: trace.cycles,
        ..SimStats::default()
    };
    for (j, (ev, instr)) in trace.events.iter().zip(&instructions).enumerate() {
        if instr.op.is_branch() {
            stats.bp_lookups += 1;
        }
        if ev.mispredicted {
            stats.mispredicts += 1;
        }
        if ev.icache_miss {
            stats.icache_misses += 1;
        }
        if instr.op.is_mem() {
            stats.dcache_accesses += 1;
            if ev.dcache_miss {
                stats.dcache_misses += 1;
            }
        }
        for stall in trace.rename_stalls(j) {
            stats.rename_stall_cycles[stall.resource as usize] += 1;
        }
    }

    Ok((instructions, SimResult { trace, stats }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_gen, MicroArch, OooCore};

    #[test]
    fn export_import_roundtrip_preserves_events() {
        let instrs = trace_gen::mixed_workload(800, 3);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        let text = export(&instrs, &r);
        let (back_instrs, back) = import(&text).expect("roundtrip parses");
        assert_eq!(back.trace, r.trace);
        assert_eq!(back.stats.committed, r.stats.committed);
        // Ops and pcs survive.
        assert_eq!(back_instrs.len(), instrs.len());
        for (a, b) in back_instrs.iter().zip(&instrs) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.pc, b.pc);
        }
    }

    #[test]
    fn header_and_comments_are_ignored() {
        let text = "# comment\nARCHX-TRACE v1 1\n\nI 0 int_alu 0x40 f1=0 f2=2 f=2 dc=3 r=4 dp=5 i=5 m=5 p=6 c=7\n";
        let (_, r) = import(text).expect("parses");
        assert_eq!(r.trace.events.len(), 1);
        assert_eq!(r.trace.cycles, 7);
    }

    #[test]
    fn rejects_gapped_indices() {
        let text = "I 1 int_alu 0x40 f1=0 f2=2 f=2 dc=3 r=4 dp=5 i=5 m=5 p=6 c=7\n";
        assert!(matches!(
            import(text),
            Err(ParseTraceError::BadSequence { expected: 0, .. })
        ));
    }

    #[test]
    fn rejects_missing_cycles_and_unknown_fields() {
        let missing = "I 0 int_alu 0x40 f1=0 f2=2\n";
        assert!(matches!(
            import(missing),
            Err(ParseTraceError::Malformed { .. })
        ));
        let unknown = "I 0 int_alu 0x40 f1=0 f2=2 f=2 dc=3 r=4 dp=5 i=5 m=5 p=6 c=7 zz=1\n";
        assert!(matches!(
            import(unknown),
            Err(ParseTraceError::Malformed { .. })
        ));
        assert!(matches!(
            import(""),
            Err(ParseTraceError::Empty { lines: 0 })
        ));
        assert!(matches!(
            import("# only a comment\n"),
            Err(ParseTraceError::Empty { lines: 1 })
        ));
    }

    #[test]
    fn imported_trace_feeds_the_deg_identically() {
        // The DEG built from an imported trace must match the original's
        // critical-path length (the whole point of the interchange).
        let instrs = trace_gen::random_branches(1_500, 9);
        let r = OooCore::new(MicroArch::baseline())
            .run(&instrs)
            .expect("simulates");
        let (_, back) = import(&export(&instrs, &r)).expect("parses");
        assert_eq!(back.trace, r.trace);
    }

    #[test]
    fn every_name_parses_back_to_its_variant() {
        for op in OpClass::ALL {
            assert_eq!(named(&OpClass::ALL, &op.to_string()), Some(op));
        }
        for r in ResourceKind::ALL {
            assert_eq!(named(&ResourceKind::ALL, &r.to_string()), Some(r));
        }
        for fu in FuKind::ALL {
            assert_eq!(named(&FuKind::ALL, &fu.to_string()), Some(fu));
        }
        assert_eq!(named(&OpClass::ALL, "nop"), None);
    }

    #[test]
    fn errors_render() {
        let e = ParseTraceError::Malformed {
            line: 3,
            reason: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(ParseTraceError::Empty { lines: 4 }
            .to_string()
            .contains("no records"));
    }
}
