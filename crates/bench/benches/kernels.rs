//! Criterion benchmarks of the algorithmic kernels: the cycle-level
//! simulator, DEG construction, induced-DEG virtual edges, critical-path
//! DP, the fused DEG analysis, exact 3-D hypervolume, and the surrogate
//! models.

use archexplorer::deg::bottleneck;
use archexplorer::deg::{build_deg, critical, fused, induce};
use archexplorer::dse::ml::{AdaBoostRt, GaussianProcess};
use archexplorer::dse::pareto::{hypervolume, RefPoint};
use archexplorer::dse::space::DesignSpace;
use archexplorer::power::{PowerModel, PpaResult};
use archexplorer::sim::extern_trace;
use archexplorer::sim::{trace_gen, MicroArch, OooCore};
use archexplorer::workloads::pick_simpoints;
use archexplorer::workloads::spec06_suite;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const TRACE_LEN: usize = 10_000;

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(20);
    let suite = spec06_suite();
    let trace = suite[0].generate(TRACE_LEN, 1);
    let core = OooCore::new(MicroArch::baseline());
    g.bench_function("bzip2_like_10k", |b| {
        b.iter(|| black_box(core.run(&trace).expect("simulates")).stats.cycles)
    });
    let mixed = trace_gen::mixed_workload(TRACE_LEN, 3);
    g.bench_function("mixed_10k", |b| {
        b.iter(|| black_box(core.run(&mixed).expect("simulates")).stats.cycles)
    });
    g.finish();
}

fn bench_deg(c: &mut Criterion) {
    let mut g = c.benchmark_group("deg");
    g.sample_size(20);
    let core = OooCore::new(MicroArch::baseline());
    let result = core
        .run(&trace_gen::mixed_workload(TRACE_LEN, 5))
        .expect("simulates");
    g.bench_function("build_10k", |b| b.iter(|| black_box(build_deg(&result))));
    let base = build_deg(&result);
    g.bench_function("induce_10k", |b| {
        b.iter_batched(
            || base.clone(),
            |d| black_box(induce(d)),
            BatchSize::LargeInput,
        )
    });
    let induced = induce(base);
    g.bench_function("critical_path_10k", |b| {
        b.iter_batched(
            || induced.clone(),
            |mut d| black_box(critical::critical_path(&mut d)).total_delay,
            BatchSize::LargeInput,
        )
    });
    g.bench_function("fused_10k", |b| {
        b.iter(|| black_box(fused::analyze(&result)).0.total_delay)
    });
    g.finish();
}

fn bench_power(c: &mut Criterion) {
    let core = OooCore::new(MicroArch::baseline());
    let result = core
        .run(&trace_gen::mixed_workload(TRACE_LEN, 5))
        .expect("simulates");
    let model = PowerModel::default();
    let arch = MicroArch::baseline();
    c.bench_function("power/evaluate", |b| {
        b.iter(|| black_box(model.evaluate(&arch, &result.stats)))
    });
}

fn bench_hypervolume(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let points: Vec<PpaResult> = (0..200)
        .map(|_| PpaResult {
            ipc: rng.gen_range(0.1..2.0),
            power_w: rng.gen_range(0.05..1.0),
            area_mm2: rng.gen_range(2.0..12.0),
        })
        .collect();
    let r = RefPoint::default();
    c.bench_function("pareto/hypervolume_200", |b| {
        b.iter(|| black_box(hypervolume(&points, &r)))
    });
}

fn bench_ml(c: &mut Criterion) {
    let mut g = c.benchmark_group("ml");
    g.sample_size(20);
    let mut rng = StdRng::seed_from_u64(2);
    let x: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..22).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = x.iter().map(|v| v.iter().sum::<f64>().sin()).collect();
    g.bench_function("gp_fit_64x22", |b| {
        b.iter(|| black_box(GaussianProcess::fit(x.clone(), &y, 1e-4)))
    });
    let gp = GaussianProcess::fit(x.clone(), &y, 1e-4);
    let q = &x[0];
    g.bench_function("gp_predict", |b| b.iter(|| black_box(gp.predict(q))));
    g.bench_function("adaboost_fit_64x22", |b| {
        b.iter(|| black_box(AdaBoostRt::fit(&x, &y, 20, 2, 0.05)))
    });
    g.finish();
}

fn bench_trace_io(c: &mut Criterion) {
    let core = OooCore::new(MicroArch::baseline());
    let trace = trace_gen::mixed_workload(TRACE_LEN, 7);
    let result = core.run(&trace).expect("simulates");
    let text = extern_trace::export(&trace, &result);
    let mut g = c.benchmark_group("trace_io");
    g.sample_size(20);
    g.bench_function("export_10k", |b| {
        b.iter(|| black_box(extern_trace::export(&trace, &result)))
    });
    g.bench_function("import_10k", |b| {
        b.iter(|| black_box(extern_trace::import(&text)).expect("parses"))
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let core = OooCore::new(MicroArch::baseline());
    let result = core
        .run(&trace_gen::mixed_workload(TRACE_LEN, 9))
        .expect("simulates");
    let mut deg = induce(build_deg(&result));
    let path = critical::critical_path(&mut deg);
    let mut g = c.benchmark_group("analysis");
    g.bench_function("bottleneck_report_10k", |b| {
        b.iter(|| black_box(bottleneck::analyze(&deg, &path)))
    });
    g.bench_function("timeline_10k_x8", |b| {
        b.iter(|| black_box(bottleneck::timeline(&deg, &path, 8)))
    });
    let suite = spec06_suite();
    let trace = suite[0].generate(40_000, 1);
    g.sample_size(10);
    g.bench_function("simpoints_40k", |b| {
        b.iter(|| black_box(pick_simpoints(&trace, 2_000, 4, 1)))
    });
    g.finish();
}

fn bench_space(c: &mut Criterion) {
    let space = DesignSpace::table4();
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("space/random_design", |b| {
        b.iter(|| black_box(space.random(&mut rng)))
    });
    let arch = space.random(&mut rng);
    c.bench_function("space/features", |b| {
        b.iter(|| black_box(space.features(&arch)))
    });
}

criterion_group!(
    benches,
    bench_simulator,
    bench_deg,
    bench_power,
    bench_hypervolume,
    bench_ml,
    bench_trace_io,
    bench_analysis,
    bench_space
);
criterion_main!(benches);
