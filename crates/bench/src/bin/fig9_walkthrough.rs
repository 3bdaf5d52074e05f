//! **Figures 7–9**: the new DEG formulation and induced DEG on a small
//! instruction snippet — vertices on the time axis, typed edges, virtual
//! edges, and the critical path whose length equals the simulated runtime.
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig9_walkthrough
//! ```

use archexplorer::deg::{bottleneck, build_deg, induce};
use archexplorer::sim::isa::{Instruction, OpClass, Reg};
use archexplorer::sim::{MicroArch, OooCore};
use archx_bench::Args;

/// A snippet in the spirit of Figure 9: integer ops, loads with misses,
/// dependent arithmetic and a conditional branch.
fn snippet() -> Vec<Instruction> {
    let pc = |k: u64| 0x100 + 4 * k;
    vec![
        Instruction::op(
            pc(0),
            OpClass::IntAlu,
            [Some(Reg::int(2)), None],
            Some(Reg::int(10)),
        ),
        Instruction::branch(pc(1), Reg::int(10), true, pc(3)),
        Instruction::load(pc(3), 0x4_0000, Reg::int(1), Reg::int(11)), // cold miss
        Instruction::op(
            pc(4),
            OpClass::IntAlu,
            [Some(Reg::int(11)), None],
            Some(Reg::int(12)),
        ),
        Instruction::load(pc(5), 0x8_0000, Reg::int(1), Reg::int(13)), // cold miss
        Instruction::op(
            pc(6),
            OpClass::IntAlu,
            [Some(Reg::int(13)), None],
            Some(Reg::int(14)),
        ),
        Instruction::load(pc(7), 0x4_0008, Reg::int(1), Reg::int(15)), // hits line of I3
        Instruction::op(
            pc(8),
            OpClass::IntAlu,
            [Some(Reg::int(15)), Some(Reg::int(14))],
            Some(Reg::int(16)),
        ),
        Instruction::store(pc(9), 0x4_0010, Reg::int(1), Reg::int(16)),
        Instruction::op(
            pc(10),
            OpClass::IntAlu,
            [Some(Reg::int(16)), None],
            Some(Reg::int(17)),
        ),
        Instruction::op(
            pc(11),
            OpClass::IntAlu,
            [Some(Reg::int(17)), None],
            Some(Reg::int(18)),
        ),
    ]
}

fn main() {
    // Takes no settings, but reads the shared flags (`--telemetry`) and
    // reports when `_args` drops at the end of `main`.
    let _args = Args::from_env();
    let mut arch = MicroArch::tiny();
    arch.width = 2;
    let result = OooCore::new(arch).run(&snippet()).expect("simulates");

    println!("microexecution (cycles):");
    println!(
        "{:>4} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3}",
        "idx", "F1", "F2", "F", "DC", "R", "DP", "I", "M", "P", "C"
    );
    for (i, ev) in result.trace.events.iter().enumerate() {
        println!(
            "{i:>4} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3} {:>3}",
            ev.f1, ev.f2, ev.f, ev.dc, ev.r, ev.dp, ev.i, ev.m, ev.p, ev.c
        );
    }

    let base = build_deg(&result);
    let base_edges = base.edge_count();
    let mut deg = induce(base);
    println!(
        "\nnew DEG: {} vertices, {} edges; induced DEG adds {} virtual edges",
        deg.node_count(),
        base_edges,
        deg.edge_count() - base_edges
    );

    println!("\nskewed (inter-instruction) edges:");
    for e in deg.edges().iter().filter(|e| e.kind.is_skewed()) {
        let (fi, fs) = deg.locate(e.from);
        let (ti, ts) = deg.locate(e.to);
        println!(
            "  {fs}(I{fi})@{} -> {ts}(I{ti})@{}  [{:?}, interval {}]",
            deg.time(e.from),
            deg.time(e.to),
            e.kind,
            deg.interval(e)
        );
    }

    let path = archexplorer::deg::critical::critical_path(&mut deg);
    println!(
        "\ncritical path: {} edges, cost {}, length {} (simulated runtime {})",
        path.len(),
        path.cost,
        path.total_delay,
        result.trace.cycles
    );
    assert_eq!(path.total_delay, result.trace.cycles, "exactness");
    for e in &path.edges {
        let (fi, fs) = deg.locate(e.from);
        let (ti, ts) = deg.locate(e.to);
        if deg.interval(e) > 0 {
            println!(
                "  {fs}(I{fi})@{} -> {ts}(I{ti})@{}  [{:?}, {}]",
                deg.time(e.from),
                deg.time(e.to),
                e.kind,
                deg.interval(e)
            );
        }
    }

    let report = bottleneck::analyze(&deg, &path);
    println!("\n{}", report.render());
}
