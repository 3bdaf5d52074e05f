//! Repeated rounds over a fixed task list, timed against a calibration
//! loop.
//!
//! On a shared host the speed of one core changes by up to 1.5× for
//! seconds at a time as neighbours come and go. Every timed step (a design
//! evaluation, a search step or a set-up) is therefore bracketed by runs
//! of a fixed calibration loop that belongs to this benchmark, and its
//! time is scaled by the loop's reference time over the loop's mean time
//! around it: the result is the step's time at the reference host speed.
//! The loop works in L1, so evaluations still run back to back on warm
//! caches, as the designs of a campaign do. It never calls into the
//! program, so no change to the program moves it. The unscaled times are
//! kept as well.

use crate::median;
use std::time::Instant;

/// Set-up repetitions timed before each round.
const SETUPS_PER_ROUND: usize = 20;

/// Milliseconds the calibration loop takes at the reference host speed,
/// about its time on a 2.1 GHz x86-64 vCPU of a shared 2-vCPU host;
/// scaled times are expressed at this speed.
pub const REFERENCE_MS: f64 = 1.5;

/// Reads and writes pseudo-random slots of a 16 KiB table with integer
/// arithmetic between them, in a loop of fixed length. The table stays in
/// L1, so the loop measures the speed and share of the core it runs on,
/// not where its pages landed, and evicts nothing the program keeps in
/// its caches.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            table: vec![1; 1 << 11],
        };
        c.time_ms();
        c
    }

    /// Runs the loop once and returns its wall-clock in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        let n = self.table.len();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..300_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % n as u64) as usize;
            if x & 3 == 0 {
                self.table[j] = self.table[j].wrapping_add(i);
            } else {
                acc = acc.wrapping_add(self.table[j] ^ x);
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Times `work` between two calibration runs; returns its result and
    /// its step.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Step) {
        let before = self.time_ms();
        let t = Instant::now();
        let out = work();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let after = self.time_ms();
        (out, Step::new(ms, before, after))
    }
}

/// One timed step: its wall-clock in ms and the factor that scales that
/// wall-clock to the reference host speed.
#[derive(Clone, Copy)]
pub struct Step {
    pub ms: f64,
    pub scale: f64,
}

impl Step {
    /// A step of `ms` between calibration runs of `before_ms` and
    /// `after_ms`.
    pub fn new(ms: f64, before_ms: f64, after_ms: f64) -> Self {
        Step {
            ms,
            scale: 2.0 * REFERENCE_MS / (before_ms + after_ms),
        }
    }
}

/// Scaled latencies of every round.
#[derive(Default)]
pub struct Rounds {
    /// `ms[round][task][step]`: the scaled latency of each step a task
    /// timed; an empty step list marks a task that failed in that round.
    pub ms: Vec<Vec<Vec<f64>>>,
    /// Unscaled wall-clock of every step, in ms.
    pub raw_ms: Vec<f64>,
    /// Scaled and unscaled wall-clock of each set-up repetition, in
    /// seconds.
    pub setup_s: Vec<f64>,
    pub setup_raw_s: Vec<f64>,
    /// Every scale factor applied: the host's speed relative to the
    /// reference over time.
    pub scales: Vec<f64>,
    /// Unscaled latencies summed over the telemetry-on rounds, in ms, and
    /// the design evaluations they timed.
    pub on_busy_ms: f64,
    pub on_evals: u64,
}

/// Runs `tasks` tasks once per round: `min_rounds` rounds, then more while
/// the next one, as long as the last, would end within `seconds`. Before
/// each round, times twenty more repetitions of `setup`. In a traced run
/// telemetry is on in even rounds and off in odd ones. `task(i)` returns
/// the steps of the design evaluations it timed, or an error; `failed`
/// counts the errors.
pub fn rounds(
    min_rounds: usize,
    tasks: usize,
    seconds: f64,
    trace: bool,
    failed: &mut u64,
    mut setup: impl FnMut(),
    mut task: impl FnMut(usize) -> Result<Vec<Step>, String>,
) -> Rounds {
    let mut cal = Calibrator::new();
    let mut out = Rounds::default();
    let began = Instant::now();
    let mut last_round_s = 0.0;
    while out.ms.len() < min_rounds || began.elapsed().as_secs_f64() + last_round_s <= seconds {
        let round_began = Instant::now();
        for _ in 0..SETUPS_PER_ROUND {
            let ((), step) = cal.time(&mut setup);
            out.setup_s.push(step.ms * step.scale / 1e3);
            out.setup_raw_s.push(step.ms / 1e3);
            out.scales.push(step.scale);
        }
        let on = trace && out.ms.len() % 2 == 0;
        let mut round = Vec::with_capacity(tasks);
        for i in 0..tasks {
            crate::layers::set_telemetry(on);
            let result = task(i);
            crate::layers::set_telemetry(false);
            match result {
                Ok(steps) => {
                    if on {
                        out.on_busy_ms += steps.iter().map(|s| s.ms).sum::<f64>();
                        out.on_evals += steps.len() as u64;
                    }
                    out.raw_ms.extend(steps.iter().map(|s| s.ms));
                    out.scales.extend(steps.iter().map(|s| s.scale));
                    round.push(steps.iter().map(|s| s.ms * s.scale).collect());
                }
                Err(e) => {
                    eprintln!("task {i} failed: {e}");
                    *failed += 1;
                    round.push(Vec::new());
                }
            }
        }
        out.ms.push(round);
        last_round_s = round_began.elapsed().as_secs_f64();
    }
    out
}

impl Rounds {
    /// Step evaluations attempted over all rounds.
    pub fn attempted(&self, failed: u64) -> u64 {
        self.raw_ms.len() as u64 + failed
    }

    /// Median over the rounds whose index `pick` selects of every step's
    /// scaled latency, per task; a task whose step count differs between
    /// rounds (or that failed in one) keeps no steps.
    fn per_step(&self, pick: impl Fn(usize) -> bool) -> Vec<Vec<f64>> {
        let picked: Vec<&Vec<Vec<f64>>> = (0..self.ms.len())
            .filter(|&r| pick(r))
            .map(|r| &self.ms[r])
            .collect();
        let Some(first) = picked.first() else {
            return Vec::new();
        };
        (0..first.len())
            .map(|t| {
                let steps = first[t].len();
                if picked.iter().any(|round| round[t].len() != steps) {
                    return Vec::new();
                }
                (0..steps)
                    .map(|s| median(&picked.iter().map(|round| round[t][s]).collect::<Vec<_>>()))
                    .collect()
            })
            .collect()
    }

    /// Every step's median scaled latency over all rounds.
    pub fn latencies(&self) -> Vec<f64> {
        self.per_step(|_| true).into_iter().flatten().collect()
    }

    /// How much slower steps ran with telemetry on than off, in percent:
    /// the median over steps of their on-round over their off-round
    /// latency.
    pub fn telemetry_overhead_pct(&self) -> f64 {
        let on = self.per_step(|r| r % 2 == 0);
        let off = self.per_step(|r| r % 2 == 1);
        let ratios: Vec<f64> = on
            .iter()
            .zip(&off)
            .filter(|(a, b)| a.len() == b.len())
            .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| x / y))
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            (median(&ratios) - 1.0) * 100.0
        }
    }
}
