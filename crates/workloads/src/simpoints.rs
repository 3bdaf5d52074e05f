//! Miniature SimPoint: basic-block-vector clustering for representative
//! sampling.
//!
//! The paper evaluates on SPEC *Simpoints* — representative intervals
//! chosen by clustering basic-block vectors (Sherwood et al.). This module
//! implements the same pipeline over our traces: split into fixed-size
//! intervals, build a per-interval frequency vector over static code
//! blocks, k-means++ the vectors, and return one representative interval
//! per cluster weighted by cluster size. `estimate` then reconstitutes a
//! whole-program metric from representative measurements — the validity
//! check behind simulating only samples.

use archx_sim::isa::Instruction;
use archx_sim::trace_gen::XorShift;

/// One chosen representative interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simpoint {
    /// First instruction of the interval.
    pub start: usize,
    /// Interval length in instructions.
    pub len: usize,
    /// Fraction of all intervals this representative stands for.
    pub weight: f64,
}

/// Per-interval basic-block vector: frequencies over `pc >> 8` buckets,
/// hashed into a fixed dimensionality and L1-normalised.
fn bbv(interval: &[Instruction], dims: usize) -> Vec<f64> {
    let mut v = vec![0.0; dims];
    for instr in interval {
        let bucket = ((instr.pc >> 8).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % dims;
        v[bucket] += 1.0;
    }
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        for x in &mut v {
            *x /= total;
        }
    }
    v
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means++ over interval BBVs; returns the cluster index per interval.
fn kmeans(vectors: &[Vec<f64>], k: usize, seed: u64) -> Vec<usize> {
    let n = vectors.len();
    let k = k.min(n).max(1);
    let mut rng = XorShift::new(seed ^ 0x5157_ABCD);

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = vec![vectors[rng.below(n as u64) as usize].clone()];
    while centroids.len() < k {
        let d2: Vec<f64> = vectors
            .iter()
            .map(|v| {
                centroids
                    .iter()
                    .map(|c| sq_dist(v, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 1e-18 {
            break; // all points identical
        }
        let mut pick = rng.unit() * total;
        let mut chosen = n - 1;
        for (i, &d) in d2.iter().enumerate() {
            if pick <= d {
                chosen = i;
                break;
            }
            pick -= d;
        }
        centroids.push(vectors[chosen].clone());
    }

    let k = centroids.len();
    let mut assign = vec![0usize; n];
    for _ in 0..25 {
        let mut changed = false;
        for (i, v) in vectors.iter().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    sq_dist(v, &centroids[a])
                        .partial_cmp(&sq_dist(v, &centroids[b]))
                        .expect("finite distances")
                })
                .expect("k >= 1");
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let dims = vectors[0].len();
        let mut sums = vec![vec![0.0; dims]; k];
        let mut counts = vec![0usize; k];
        for (i, v) in vectors.iter().enumerate() {
            counts[assign[i]] += 1;
            for (s, x) in sums[assign[i]].iter_mut().zip(v) {
                *s += x;
            }
        }
        for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if *count > 0 {
                *c = sum.iter().map(|s| s / *count as f64).collect();
            }
        }
    }
    assign
}

/// Picks up to `k` representative intervals of `interval_len` instructions.
///
/// # Panics
///
/// Panics when the trace is shorter than one interval or `k` is zero.
pub fn pick_simpoints(
    trace: &[Instruction],
    interval_len: usize,
    k: usize,
    seed: u64,
) -> Vec<Simpoint> {
    assert!(
        interval_len > 0 && trace.len() >= interval_len,
        "trace shorter than one interval"
    );
    assert!(k > 0, "need at least one simpoint");
    let n_intervals = trace.len() / interval_len;
    let dims = 64;
    let vectors: Vec<Vec<f64>> = (0..n_intervals)
        .map(|i| bbv(&trace[i * interval_len..(i + 1) * interval_len], dims))
        .collect();
    let assign = kmeans(&vectors, k, seed);
    let k_eff = assign.iter().copied().max().map_or(1, |m| m + 1);

    // Representative per cluster: the interval closest to the cluster mean.
    let mut out = Vec::new();
    for cluster in 0..k_eff {
        let members: Vec<usize> = (0..n_intervals).filter(|&i| assign[i] == cluster).collect();
        if members.is_empty() {
            continue;
        }
        let dims = vectors[0].len();
        let mut mean = vec![0.0; dims];
        for &m in &members {
            for (s, x) in mean.iter_mut().zip(&vectors[m]) {
                *s += x / members.len() as f64;
            }
        }
        let rep = *members
            .iter()
            .min_by(|&&a, &&b| {
                sq_dist(&vectors[a], &mean)
                    .partial_cmp(&sq_dist(&vectors[b], &mean))
                    .expect("finite distances")
            })
            .expect("non-empty cluster");
        out.push(Simpoint {
            start: rep * interval_len,
            len: interval_len,
            weight: members.len() as f64 / n_intervals as f64,
        });
    }
    out.sort_by_key(|s| s.start);
    out
}

/// Weighted reconstruction of a whole-trace metric from per-simpoint
/// measurements: `estimate = Σ wᵢ · measure(intervalᵢ)`.
pub fn estimate<F: FnMut(&[Instruction]) -> f64>(
    trace: &[Instruction],
    simpoints: &[Simpoint],
    mut measure: F,
) -> f64 {
    simpoints
        .iter()
        .map(|sp| sp.weight * measure(&trace[sp.start..sp.start + sp.len]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{MemoryProfile, OpMix, WorkloadSpec};
    use crate::phases::{Phase, PhasedWorkload};

    fn two_phase_trace(n: usize) -> Vec<Instruction> {
        let fp = WorkloadSpec {
            mix: OpMix::fp_default(),
            ..WorkloadSpec::balanced()
        };
        let mem = WorkloadSpec {
            memory: MemoryProfile::hostile(),
            mean_dep_distance: 2.0,
            ..WorkloadSpec::balanced()
        };
        PhasedWorkload::new(vec![
            Phase {
                spec: fp,
                instrs: 2_000,
            },
            Phase {
                spec: mem,
                instrs: 2_000,
            },
        ])
        .generate(n, 5)
    }

    #[test]
    fn recovers_the_two_phases() {
        let trace = two_phase_trace(16_000);
        let sps = pick_simpoints(&trace, 1_000, 2, 1);
        assert_eq!(sps.len(), 2, "two clusters expected");
        // Representatives land in different phases (phase period = 2000,
        // so interval index parity identifies the phase).
        let phase_of = |s: &Simpoint| (s.start / 2_000) % 2;
        assert_ne!(phase_of(&sps[0]), phase_of(&sps[1]));
        // Equal-length phases get balanced-ish weights (the CFG walk gives
        // intervals of the same phase some variance of their own).
        for sp in &sps {
            assert!(
                (0.15..=0.85).contains(&sp.weight),
                "weight {} degenerate",
                sp.weight
            );
        }
        let total: f64 = sps.iter().map(|s| s.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_estimate_tracks_full_measurement() {
        // Measure a simple trace statistic (fp fraction) through simpoints
        // and compare to the exact whole-trace value.
        let trace = two_phase_trace(24_000);
        let fp_frac = |instrs: &[Instruction]| {
            instrs
                .iter()
                .filter(|i| {
                    matches!(
                        i.op,
                        archx_sim::isa::OpClass::FpAlu
                            | archx_sim::isa::OpClass::FpMult
                            | archx_sim::isa::OpClass::FpDiv
                    )
                })
                .count() as f64
                / instrs.len() as f64
        };
        let exact = fp_frac(&trace);
        let sps = pick_simpoints(&trace, 1_000, 4, 2);
        let est = estimate(&trace, &sps, fp_frac);
        assert!(
            (est - exact).abs() < 0.05,
            "simpoint estimate {est:.3} should track exact {exact:.3}"
        );
    }

    #[test]
    fn single_cluster_for_homogeneous_trace() {
        let spec = WorkloadSpec::balanced();
        let trace = spec.generate(8_000, 3);
        let sps = pick_simpoints(&trace, 1_000, 3, 1);
        // Clustering may still split, but weights must sum to one and
        // representatives must be valid intervals.
        let total: f64 = sps.iter().map(|s| s.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for sp in &sps {
            assert!(sp.start + sp.len <= trace.len());
        }
    }

    #[test]
    #[should_panic(expected = "shorter than one interval")]
    fn short_trace_panics() {
        let spec = WorkloadSpec::balanced();
        let trace = spec.generate(100, 1);
        let _ = pick_simpoints(&trace, 1_000, 2, 1);
    }
}
