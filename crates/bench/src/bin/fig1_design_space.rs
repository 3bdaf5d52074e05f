//! **Figure 1**: visualisation of the design space for a 458.sjeng-like
//! workload. Random designs are evaluated for PPA and embedded into two
//! dimensions — the paper uses t-SNE; we substitute a PCA projection
//! (power iteration, dependency-free). Output is a CSV of
//! `(x, y, perf, power, area)` suitable for any plotting tool, plus
//! non-smoothness statistics (nearest-neighbour PPA jumps).
//!
//! ```sh
//! cargo run -p archx-bench --release --bin fig1_design_space \
//!     [designs=N] [instrs=N] [seed=S]
//! ```

use archexplorer::prelude::*;
use archx_bench::{Args, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// First two principal components via power iteration on the covariance.
fn pca2(features: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let n = features.len();
    let d = features[0].len();
    let mut mean = vec![0.0; d];
    for f in features {
        for (m, v) in mean.iter_mut().zip(f) {
            *m += v / n as f64;
        }
    }
    let centred: Vec<Vec<f64>> = features
        .iter()
        .map(|f| f.iter().zip(&mean).map(|(v, m)| v - m).collect())
        .collect();
    let mut components: Vec<Vec<f64>> = Vec::new();
    for k in 0..2 {
        let mut v = vec![0.0; d];
        v[k] = 1.0;
        for _ in 0..50 {
            // w = Cov · v, with deflation against previous components.
            let mut w = vec![0.0; d];
            for row in &centred {
                let dot: f64 = row.iter().zip(&v).map(|(a, b)| a * b).sum();
                for (wi, ri) in w.iter_mut().zip(row) {
                    *wi += dot * ri;
                }
            }
            for c in &components {
                let dot: f64 = w.iter().zip(c).map(|(a, b)| a * b).sum();
                for (wi, ci) in w.iter_mut().zip(c) {
                    *wi -= dot * ci;
                }
            }
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            for wi in &mut w {
                *wi /= norm;
            }
            v = w;
        }
        components.push(v);
    }
    centred
        .iter()
        .map(|row| {
            let x: f64 = row.iter().zip(&components[0]).map(|(a, b)| a * b).sum();
            let y: f64 = row.iter().zip(&components[1]).map(|(a, b)| a * b).sum();
            (x, y)
        })
        .collect()
}

fn main() {
    let args = Args::from_env();
    let designs = args.get_usize("designs", 200);
    let instrs = args.get_usize("instrs", 20_000);
    let seed = args.get_u64("seed", 1);

    let suite: Vec<Workload> = spec06_suite()
        .into_iter()
        .filter(|w| w.id.0.contains("sjeng"))
        .collect();
    let evaluator = Evaluator::builder(suite).window(instrs).seed(seed).build();
    let space = DesignSpace::table4();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut feats = Vec::with_capacity(designs);
    let mut ppas = Vec::with_capacity(designs);
    for _ in 0..designs {
        let arch = space.random(&mut rng);
        let Ok(e) = evaluator.evaluate(&arch) else {
            continue;
        };
        feats.push(space.features(&arch));
        ppas.push(e.ppa);
    }
    let xy = pca2(&feats);

    let mut t = Table::new(["x", "y", "perf", "power", "area"]);
    for ((x, y), ppa) in xy.iter().zip(&ppas) {
        t.row([
            format!("{x:.4}"),
            format!("{y:.4}"),
            format!("{:.4}", ppa.ipc),
            format!("{:.4}", ppa.power_w),
            format!("{:.4}", ppa.area_mm2),
        ]);
    }
    println!("Figure 1 data (PCA embedding of 458.sjeng-like PPA space):");
    println!("{}", t.to_csv());

    // Smoothness: how much of each metric a *linear* model over the
    // parameters explains (R²). The paper's Fig. 1 observation: the area
    // space is relatively flat because area is near-linear in the
    // parameters, while performance and power are rugged (many extrema,
    // non-smooth changes) — i.e. low linear R².
    let linear_r2 = |f: &dyn Fn(&PpaResult) -> f64| -> f64 {
        use archexplorer::dse::ml::linalg::{cholesky, cholesky_solve};
        let d = feats[0].len() + 1;
        let mut xtx = vec![0.0; d * d];
        let mut xty = vec![0.0; d];
        let ys: Vec<f64> = ppas.iter().map(f).collect();
        for (row, &y) in feats.iter().zip(&ys) {
            let mut x = Vec::with_capacity(d);
            x.push(1.0);
            x.extend_from_slice(row);
            for a in 0..d {
                for b in 0..d {
                    xtx[a * d + b] += x[a] * x[b];
                }
                xty[a] += x[a] * y;
            }
        }
        for a in 0..d {
            xtx[a * d + a] += 1e-8; // ridge jitter
        }
        let l = cholesky(&xtx, d).expect("SPD with jitter");
        let beta = cholesky_solve(&l, d, &xty);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for (row, &y) in feats.iter().zip(&ys) {
            let pred = beta[0] + row.iter().zip(&beta[1..]).map(|(a, b)| a * b).sum::<f64>();
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - mean) * (y - mean);
        }
        1.0 - ss_res / ss_tot.max(1e-12)
    };
    println!("linear-in-parameters R² of each metric (1.0 = perfectly flat/linear space):");
    println!(
        "  perf : {:.3} (rugged — low)",
        linear_r2(&|p: &PpaResult| p.ipc)
    );
    println!("  power: {:.3}", linear_r2(&|p: &PpaResult| p.power_w));
    println!(
        "  area : {:.3} (flat — near-linear in parameters)",
        linear_r2(&|p: &PpaResult| p.area_mm2)
    );
}
