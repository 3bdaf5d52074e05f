//! Graph export for visualisation: Graphviz DOT.

use crate::critical::CriticalPath;
use crate::graph::{Deg, EdgeKind};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Options controlling DOT rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotOptions {
    /// Include zero-interval pipeline edges (dense; off by default).
    pub include_zero_pipeline: bool,
    /// Include virtual edges.
    pub include_virtual: bool,
    /// Limit to the first N instructions (`usize::MAX` = all).
    pub max_instrs: usize,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            include_zero_pipeline: false,
            include_virtual: true,
            max_instrs: 64,
        }
    }
}

fn edge_style(kind: EdgeKind) -> (&'static str, &'static str) {
    match kind {
        EdgeKind::Pipeline => ("black", "solid"),
        EdgeKind::Mispredict => ("red", "bold"),
        EdgeKind::Resource(_) => ("orange", "bold"),
        EdgeKind::Fu(_) => ("purple", "solid"),
        EdgeKind::Data => ("blue", "solid"),
        EdgeKind::FetchSlot | EdgeKind::FetchBw => ("darkgreen", "solid"),
        EdgeKind::MemDep => ("crimson", "bold"),
        EdgeKind::Virtual => ("gray", "dashed"),
    }
}

/// Renders the DEG as Graphviz DOT, highlighting `path` when given.
///
/// Vertices are laid out by their measured event time (x) and instruction
/// index (y), matching the paper's Figure 7 visual convention.
pub fn to_dot(deg: &Deg, path: Option<&CriticalPath>, opts: &DotOptions) -> String {
    let on_path: HashSet<(u32, u32)> = path
        .map(|p| p.edges.iter().map(|e| (e.from, e.to)).collect())
        .unwrap_or_default();
    let mut out =
        String::from("digraph deg {\n  rankdir=LR;\n  node [shape=plaintext, fontsize=10];\n");
    let limit = (opts.max_instrs as u32).min(deg.instr_count());
    for instr in 0..limit {
        for stage in crate::graph::Stage::ALL {
            let n = deg.node(instr, stage);
            let _ = writeln!(
                out,
                "  n{n} [label=\"{stage}(I{instr})\\n@{}\", pos=\"{},{}!\"];",
                deg.time(n),
                deg.time(n),
                -(instr as i64)
            );
        }
    }
    for e in deg.edges() {
        let (fi, _) = deg.locate(e.from);
        let (ti, _) = deg.locate(e.to);
        if fi >= limit || ti >= limit {
            continue;
        }
        let w = deg.interval(e);
        if e.kind == EdgeKind::Pipeline && w == 0 && !opts.include_zero_pipeline {
            continue;
        }
        if e.kind == EdgeKind::Virtual && !opts.include_virtual {
            continue;
        }
        let (color, style) = edge_style(e.kind);
        let highlight = on_path.contains(&(e.from, e.to));
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{w}\", color={}, style={}{}];",
            e.from,
            e.to,
            if highlight { "red" } else { color },
            style,
            if highlight { ", penwidth=3" } else { "" }
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_deg;
    use crate::critical::critical_path;
    use crate::induced::induce;
    use archx_sim::{trace_gen, MicroArch, OooCore};

    fn sample() -> Deg {
        let r = OooCore::new(MicroArch::tiny())
            .run(&trace_gen::mixed_workload(30, 3))
            .expect("simulates");
        induce(build_deg(&r))
    }

    #[test]
    fn dot_is_well_formed() {
        let mut deg = sample();
        let path = critical_path(&mut deg);
        let dot = to_dot(&deg, Some(&path), &DotOptions::default());
        assert!(dot.starts_with("digraph deg {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("->"));
        assert!(
            dot.contains("penwidth=3"),
            "critical path must be highlighted"
        );
    }

    #[test]
    fn dot_respects_instruction_limit() {
        let deg = sample();
        let dot = to_dot(
            &deg,
            None,
            &DotOptions {
                max_instrs: 2,
                ..DotOptions::default()
            },
        );
        assert!(dot.contains("I1"));
        assert!(!dot.contains("(I2)"));
    }
}
