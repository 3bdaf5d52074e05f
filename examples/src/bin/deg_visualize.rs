//! Render a small microexecution's induced DEG (with its critical path
//! highlighted) to Graphviz DOT on stdout — pipe into `dot -Tsvg` to see
//! the paper's Figure 7/9 style picture for any workload.
//!
//! ```sh
//! cargo run -p archx-examples --release --bin deg_visualize [instrs] > deg.dot
//! dot -Tsvg deg.dot -o deg.svg   # optional, needs graphviz
//! ```

use archexplorer::deg::export::{to_dot, DotOptions};
use archexplorer::prelude::*;
use archexplorer::sim::trace_gen;

fn main() {
    let instrs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let result = OooCore::new(MicroArch::tiny())
        .run(&trace_gen::mixed_workload(instrs, 7))
        .expect("simulates");
    let mut deg = induce(build_deg(&result));
    let path = archexplorer::deg::critical::critical_path(&mut deg);
    eprintln!(
        "{} instructions, {} cycles; DEG {} vertices / {} edges; path cost {}",
        instrs,
        result.trace.cycles,
        deg.node_count(),
        deg.edge_count(),
        path.cost
    );
    print!(
        "{}",
        to_dot(
            &deg,
            Some(&path),
            &DotOptions {
                max_instrs: instrs,
                ..DotOptions::default()
            }
        )
    );
}
