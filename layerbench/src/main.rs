//! Layered end-to-end benchmark of the ArchExplorer evaluation pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload evaluate|simulate|explore --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path layerbench/Cargo.toml -- --print-golden
//! ```
//!
//! Each workload draws its designs or search seeds from `--seed`, then
//! runs its fixed task list on one thread in rounds, as many as fit in
//! `--seconds` (at least one, or two when traced), repeating its set-up
//! (trace synthesis) before each round. Times are scaled to a reference
//! host speed by a calibration loop (see `measure`), and each design
//! evaluation's median over the rounds is kept. With `--trace 0`
//! telemetry is off, as in the CLI's default, and the end-to-end metrics
//! are reported: the median time per design evaluation and the median
//! set-up time. With `--trace 1` the same work runs with telemetry on in
//! every other round and the per-layer metrics are reported instead, read
//! from the program's own spans (`eval/simulate`, `eval/deg/*`) and
//! counters and from timers around the calls this benchmark makes.
//!
//! Every run checks its outputs: no evaluation may fail, every round must
//! give the same results, sampled evaluations must equal a layer-by-layer
//! recomputation through the public stage functions, the critical path
//! must equal the simulated cycles, and a fixed design set must reproduce
//! the digest committed in `golden.txt`. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod golden;
mod layers;
mod measure;
mod workloads;

use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Scaled wall-clock of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Median scaled latency of each design evaluation over the rounds,
    /// in ms, and the median unscaled latency of all evaluations.
    pub task_ms: Vec<f64>,
    pub raw_ms: f64,
    /// Rounds run.
    pub rounds: usize,
    /// Design evaluations attempted, and tasks that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations found by the workload's checks.
    pub problems: Vec<String>,
    /// Per-layer metrics (filled only by traced runs).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Takes the latencies, set-up times, round count and attempts of a
    /// measurement.
    pub fn record(&mut self, rounds: &measure::Rounds) {
        self.setup_s = rounds.setup_s.clone();
        self.task_ms = rounds.latencies();
        self.raw_ms = median(&rounds.raw_ms);
        self.rounds = rounds.ms.len();
        self.attempted = rounds.attempted(self.failed);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Median of a sample, 0 when it is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile (in whole percent, at most 99) with at least
/// ten samples above it, and its value; `None` below twenty samples.
fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return None;
    }
    let p = (((n - 10) * 100 / n) as u32).min(99);
    let rank = (n * p as usize).div_ceil(100).max(1);
    Some((p, v[rank - 1]))
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    // Telemetry is off unless a traced round turns it on, as in the CLI.
    layers::set_telemetry(false);
    if std::env::args().nth(1).as_deref() == Some("--print-golden") {
        println!("{}", golden::digest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let mut out = workload(args.seed, args.seconds, args.trace);

    let digest = golden::digest();
    if digest != golden::expected() {
        out.problems.push(format!(
            "golden digest {digest} != committed {}",
            golden::expected()
        ));
    }
    if out.task_ms.is_empty() {
        out.problems.push("no task completed".into());
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;

    let busy_s: f64 = out.task_ms.iter().sum::<f64>() / 1e3;
    let setup_s = median(&out.setup_s);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "{}: seed {}, {} evaluations x {} rounds, {busy_s:.3} s per scaled round, \
         {threads} host thread(s), 1 worker",
        args.workload,
        args.seed,
        out.task_ms.len(),
        out.rounds,
    );
    if !out.task_ms.is_empty() {
        eprint!("scaled latency: median {:.3} ms", median(&out.task_ms));
        if let Some((p, v)) = tail(&out.task_ms) {
            eprint!(", p{p} {v:.3} ms");
        }
        eprintln!(
            " over {} evaluations; unscaled median {:.3} ms",
            out.task_ms.len(),
            out.raw_ms
        );
    }
    eprintln!(
        "set-up: median {:.6} s over {} repetitions",
        setup_s,
        out.setup_s.len()
    );

    let metrics = if args.trace {
        std::mem::take(&mut out.layers)
    } else {
        vec![
            Metric {
                name: "eval_ms",
                value: median(&out.task_ms),
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
        ]
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("error: a metric is not finite");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        render(correct, out.attempted.max(1), out.failed, &metrics)
    );
    ExitCode::SUCCESS
}
