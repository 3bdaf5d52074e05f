//! gem5 `O3PipeView` trace ingestion.
//!
//! gem5's O3 CPU can dump per-instruction pipeline timing with
//! `--debug-flags=O3PipeView` (the format consumed by gem5's
//! `util/o3-pipeview.py`):
//!
//! ```text
//! O3PipeView:fetch:<tick>:<pc>:<upc>:<seqnum>:<disasm>
//! O3PipeView:decode:<tick>
//! O3PipeView:rename:<tick>
//! O3PipeView:dispatch:<tick>
//! O3PipeView:issue:<tick>
//! O3PipeView:complete:<tick>
//! O3PipeView:retire:<tick>:store:<tick>:<...>
//! ```
//!
//! This module parses that format into a [`SimResult`] so the DEG analysis
//! can run on real gem5 microexecutions. Two caveats, documented for
//! honest use:
//!
//! * O3PipeView carries **timing only** — gem5 does not dump the resource
//!   scoreboard, true-data-dependence, or squash-cause records the paper's
//!   instrumentation adds. The resulting DEG therefore contains pipeline
//!   edges (with fully dynamic measured weights) but no skewed edges; it
//!   supports timing studies and visualisation, not full bottleneck
//!   attribution. The paper modifies gem5 to emit the extra records — a
//!   gem5 patched that way should emit this crate's
//!   [`extern_trace`](crate::extern_trace) format instead, which carries
//!   everything.
//! * Ticks are converted to cycles with a configurable `ticks_per_cycle`
//!   (gem5 defaults to 1 GHz tick resolution = 1000 ticks/cycle at 1 GHz;
//!   500 at 2 GHz).

use crate::isa::{Instruction, OpClass};
use crate::stats::SimStats;
use crate::trace::{Cycle, InstrEvents, PipelineTrace, SimResult};

/// Errors produced by the O3PipeView parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum O3ParseError {
    /// A malformed line (1-based line number, description).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A stage record appeared before any `fetch` opened an instruction.
    OrphanStage {
        /// 1-based line number.
        line: usize,
        /// Stage name found.
        stage: String,
    },
    /// No complete instruction records found.
    Empty {
        /// Lines scanned (including non-O3PipeView lines).
        lines: usize,
        /// Instruction records opened by a `fetch` but dropped for lack
        /// of a `retire` (squashed in gem5 terms).
        squashed: usize,
    },
}

impl std::fmt::Display for O3ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            O3ParseError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            O3ParseError::OrphanStage { line, stage } => {
                write!(f, "line {line}: `{stage}` record before any fetch")
            }
            O3ParseError::Empty { lines, squashed } => write!(
                f,
                "no complete O3PipeView records in {lines} lines ({squashed} unretired records dropped)"
            ),
        }
    }
}

impl std::error::Error for O3ParseError {}

#[derive(Debug, Default, Clone)]
struct Pending {
    pc: u64,
    disasm: String,
    fetch: u64,
    decode: u64,
    rename: u64,
    dispatch: u64,
    issue: u64,
    complete: u64,
    retire: u64,
    is_store: bool,
}

/// Guesses an [`OpClass`] from a gem5 disassembly string (best effort —
/// timing analysis does not depend on it, but reports read better).
fn classify(disasm: &str, is_store: bool) -> OpClass {
    let d = disasm.to_ascii_lowercase();
    if is_store || d.starts_with("st") || d.contains(" sw ") || d.starts_with("sw") {
        return OpClass::Store;
    }
    if d.starts_with("ld") || d.starts_with("lw") || d.starts_with("lb") || d.starts_with("lh") {
        return OpClass::Load;
    }
    if d.starts_with("beq")
        || d.starts_with("bne")
        || d.starts_with("blt")
        || d.starts_with("bge")
        || d.starts_with('b') && d.starts_with("b.")
    {
        return OpClass::BranchCond;
    }
    if d.starts_with("jal") || d.starts_with("call") {
        return OpClass::Call;
    }
    if d.starts_with("ret") {
        return OpClass::Ret;
    }
    if d.starts_with("j") {
        return OpClass::BranchUncond;
    }
    if d.contains("div") {
        return OpClass::IntDiv;
    }
    if d.contains("mul") {
        return OpClass::IntMult;
    }
    if d.starts_with('f') {
        return OpClass::FpAlu;
    }
    OpClass::IntAlu
}

/// Parses O3PipeView text into the retired instructions and their
/// [`SimResult`] (pipeline timing only; see the module docs for what gem5
/// does and does not dump).
///
/// Instructions squashed before retirement (no `retire` record) are
/// dropped, as in gem5's own pipeline viewer.
///
/// # Errors
///
/// Returns [`O3ParseError`] on malformed input.
pub fn import_o3pipeview(
    text: &str,
    ticks_per_cycle: u64,
) -> Result<(Vec<Instruction>, SimResult), O3ParseError> {
    assert!(ticks_per_cycle > 0, "ticks_per_cycle must be positive");
    let mut pending: Option<Pending> = None;
    let mut done: Vec<Pending> = Vec::new();
    let mut squashed = 0usize;
    let mut lines = 0usize;

    let mut flush = |p: Option<Pending>, squashed: &mut usize| {
        if let Some(p) = p {
            if p.retire > 0 {
                done.push(p);
            } else {
                *squashed += 1;
            }
        }
    };

    for (lineno, raw) in text.lines().enumerate() {
        lines = lineno + 1;
        let line = raw.trim();
        let lno = lineno + 1;
        if line.is_empty() || !line.starts_with("O3PipeView:") {
            continue;
        }
        let mut parts = line.split(':');
        parts.next(); // "O3PipeView"
        let stage = parts.next().ok_or_else(|| O3ParseError::Malformed {
            line: lno,
            reason: "missing stage".into(),
        })?;
        let tick: u64 = parts
            .next()
            .and_then(|t| t.trim().parse().ok())
            .ok_or_else(|| O3ParseError::Malformed {
                line: lno,
                reason: format!("bad tick in `{stage}` record"),
            })?;
        match stage {
            "fetch" => {
                flush(pending.take(), &mut squashed);
                let pc = parts
                    .next()
                    .map(|s| {
                        let s = s.trim().trim_start_matches("0x");
                        u64::from_str_radix(s, 16).unwrap_or(0)
                    })
                    .unwrap_or(0);
                let _upc = parts.next();
                let _seq = parts.next();
                let disasm = parts.collect::<Vec<_>>().join(":").trim().to_string();
                pending = Some(Pending {
                    pc,
                    disasm,
                    fetch: tick,
                    ..Pending::default()
                });
            }
            other => {
                let p = pending.as_mut().ok_or_else(|| O3ParseError::OrphanStage {
                    line: lno,
                    stage: other.to_string(),
                })?;
                match other {
                    "decode" => p.decode = tick,
                    "rename" => p.rename = tick,
                    "dispatch" => p.dispatch = tick,
                    "issue" => p.issue = tick,
                    "complete" => p.complete = tick,
                    "retire" => {
                        p.retire = tick;
                        if parts.next() == Some("store") {
                            p.is_store = true;
                        }
                    }
                    unknown => {
                        return Err(O3ParseError::Malformed {
                            line: lno,
                            reason: format!("unknown stage `{unknown}`"),
                        })
                    }
                }
            }
        }
    }
    flush(pending.take(), &mut squashed);

    // Normalise to cycles from the first fetch. An empty or all-filtered
    // trace is a typed error (with how much input was scanned), never a
    // panic — campaigns ingest these files unattended.
    let Some(t0) = done.iter().map(|p| p.fetch).min() else {
        return Err(O3ParseError::Empty { lines, squashed });
    };
    let cyc = |tick: u64| -> Cycle {
        if tick == 0 {
            0
        } else {
            tick.saturating_sub(t0) / ticks_per_cycle
        }
    };

    let mut trace = PipelineTrace::default();
    let mut instructions = Vec::with_capacity(done.len());
    for p in &done {
        let f1 = cyc(p.fetch);
        // O3PipeView has one fetch timestamp: map it to F1=F2=F; the DEG's
        // I-cache split is unavailable without the paper's instrumentation.
        let dc = cyc(p.decode).max(f1 + 1);
        let r = cyc(p.rename).max(dc + 1);
        let dp = cyc(p.dispatch).max(r + 1);
        let i = cyc(p.issue).max(dp);
        let pdone = cyc(p.complete).max(i + 1);
        let c = cyc(p.retire).max(pdone + 1);
        let op = classify(&p.disasm, p.is_store);
        let ev = InstrEvents {
            f1,
            f2: f1,
            f: f1,
            dc,
            r,
            dp,
            i,
            m: if op.is_mem() { i + 1 } else { i },
            p: pdone,
            c,
            ..InstrEvents::default()
        };
        trace.push(ev, &[], &[]);
        instructions.push(Instruction {
            pc: p.pc,
            op,
            srcs: [None, None],
            dst: None,
            mem_addr: 0,
            taken: false,
            target: 0,
        });
    }
    trace.cycles = trace.events.last().map_or(0, |e| e.c);
    let stats = SimStats {
        committed: trace.len() as u64,
        cycles: trace.cycles,
        ..SimStats::default()
    };
    Ok((instructions, SimResult { trace, stats }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
O3PipeView:fetch:1000:0x400100:0:42:add a0, a1, a2
O3PipeView:decode:1500
O3PipeView:rename:2000
O3PipeView:dispatch:2500
O3PipeView:issue:3000
O3PipeView:complete:3500
O3PipeView:retire:4000
O3PipeView:fetch:1500:0x400104:0:43:ld a3, 0(a0)
O3PipeView:decode:2000
O3PipeView:rename:2500
O3PipeView:dispatch:3000
O3PipeView:issue:3500
O3PipeView:complete:4500
O3PipeView:retire:5000:store:0
";

    #[test]
    fn parses_the_documented_format() {
        let (instrs, r) = import_o3pipeview(SAMPLE, 500).expect("parses");
        assert_eq!(r.trace.events.len(), 2);
        let e0 = &r.trace.events[0];
        assert_eq!(e0.f1, 0);
        assert_eq!(e0.dc, 1);
        assert_eq!(e0.i, 4);
        assert_eq!(e0.c, 6);
        assert_eq!(instrs[0].op, OpClass::IntAlu);
        assert_eq!(instrs[0].pc, 0x400100);
        // retire:...:store marks the second record a store.
        assert_eq!(instrs[1].op, OpClass::Store);
    }

    #[test]
    fn squashed_instructions_are_dropped() {
        let text = "\
O3PipeView:fetch:1000:0x40:0:1:add x1, x2
O3PipeView:decode:1500
O3PipeView:fetch:2000:0x44:0:2:sub x3, x4
O3PipeView:decode:2500
O3PipeView:rename:3000
O3PipeView:dispatch:3500
O3PipeView:issue:4000
O3PipeView:complete:4500
O3PipeView:retire:5000
";
        let (instrs, r) = import_o3pipeview(text, 500).expect("parses");
        assert_eq!(r.trace.events.len(), 1, "unretired instruction dropped");
        assert_eq!(instrs[0].pc, 0x44);
    }

    #[test]
    fn feeds_the_deg_pipeline() {
        // The imported result must be a valid DEG substrate: all stage
        // orderings hold even with gem5's coarser timestamps.
        let (_, r) = import_o3pipeview(SAMPLE, 500).expect("parses");
        for ev in &r.trace.events {
            assert!(ev.f1 <= ev.f2 && ev.f2 <= ev.f && ev.f < ev.dc);
            assert!(ev.dc < ev.r && ev.r < ev.dp && ev.dp <= ev.i);
            assert!(ev.i <= ev.m && ev.m < ev.p && ev.p < ev.c);
        }
    }

    #[test]
    fn rejects_orphans_and_junk() {
        assert!(matches!(
            import_o3pipeview("O3PipeView:decode:100\n", 500),
            Err(O3ParseError::OrphanStage { .. })
        ));
        assert!(matches!(
            import_o3pipeview("O3PipeView:fetch:abc:0x1:0:1:nop\n", 500),
            Err(O3ParseError::Malformed { .. })
        ));
        assert!(matches!(
            import_o3pipeview("", 500),
            Err(O3ParseError::Empty {
                lines: 0,
                squashed: 0
            })
        ));
        // A record that never retires is squashed; an all-squashed trace
        // is Empty and reports how much input it scanned.
        assert!(matches!(
            import_o3pipeview("O3PipeView:fetch:1:0x1:0:1:nop\n", 500),
            Err(O3ParseError::Empty {
                lines: 1,
                squashed: 1
            })
        ));
        assert!(matches!(
            import_o3pipeview("O3PipeView:fetch:1:0x1:0:1:nop\nO3PipeView:zzz:2\n", 500),
            Err(O3ParseError::Malformed { .. })
        ));
    }

    #[test]
    fn classify_covers_common_mnemonics() {
        assert_eq!(classify("ld a0, 0(sp)", false), OpClass::Load);
        assert_eq!(classify("sw a0, 0(sp)", false), OpClass::Store);
        assert_eq!(classify("beq a0, a1, 0x40", false), OpClass::BranchCond);
        assert_eq!(classify("jal ra, 0x100", false), OpClass::Call);
        assert_eq!(classify("ret", false), OpClass::Ret);
        assert_eq!(classify("mulw a0, a1, a2", false), OpClass::IntMult);
        assert_eq!(classify("fadd.d f0, f1, f2", false), OpClass::FpAlu);
        assert_eq!(classify("anything", true), OpClass::Store);
    }
}
