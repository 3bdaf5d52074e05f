//! The differential verification harness behind `archx verify`.
//!
//! Sweeps seeded-random design points × workloads × instruction windows
//! through the full sim → DEG → bottleneck chain with the `CheckedCore`
//! per-cycle invariants enabled and the [`archx_deg::validate`] oracle
//! hierarchy applied to every graph, plus metamorphic checks:
//!
//! * **resource enlargement** — growing a single back-end capacity (ROB,
//!   IQ, integer RF) never increases cycles. Checked on a compute-bound
//!   independent-ALU stream, where the property is a theorem of the model;
//!   on cache-bound streams LRU reordering and cache warming by younger
//!   instructions make it empirically-but-not-universally true, so random
//!   workloads are deliberately not used here;
//! * **window prefix** — the trace synthesiser is prefix-stable (a window
//!   of `w` instructions is exactly the first `w` of a longer window),
//!   the property the evaluator's retry-on-halved-window path depends on;
//! * **determinism** — re-running a design yields bit-identical traces.
//!
//! Failures shrink (halve the window, walk the design back toward the
//! baseline parameter by parameter while the failure persists) and are
//! reported as [`Violation`]s with a ready-to-run `archx verify` repro
//! command, alongside `verify/violation/<check>` telemetry counters.

use crate::space::{DesignSpace, ParamId};
use archx_deg::bottleneck::analyze;
use archx_deg::naive::naive_stall_report;
use archx_deg::validate::validate_exactness;
use archx_deg::{build_deg, induce};
use archx_sim::check::{CheckConfig, InjectedFault};
use archx_sim::{trace_gen, MicroArch, OooCore};
use archx_telemetry::JsonValue;
use archx_workloads::{spec06_suite, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Capacity parameters whose enlargement is checked for monotonicity on
/// the compute-bound stream.
const ENLARGEABLE: [ParamId; 3] = [ParamId::Rob, ParamId::Iq, ParamId::IntRf];

/// Instruction count of the synthetic stream used by the enlargement
/// metamorphic check.
const ENLARGE_STREAM: usize = 3_000;

/// Smallest window the shrinker will try.
const MIN_WINDOW: usize = 64;

/// Configuration of one verification sweep.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Number of seeded-random design points to sweep.
    pub designs: usize,
    /// Seed for design sampling and trace synthesis.
    pub seed: u64,
    /// Largest instruction window; the sweep cycles through `window`,
    /// `window/2` and `window/4` across designs.
    pub window: usize,
    /// Workload suite to rotate through (defaults to SPEC06).
    pub workloads: Vec<Workload>,
    /// Optional intentionally injected fault (fault-injection testing).
    pub fault: Option<InjectedFault>,
    /// Whether to run the metamorphic checks.
    pub metamorphic: bool,
    /// Verify exactly this design instead of sampling (CLI `PARAM=V`
    /// overrides; `designs` is ignored when set).
    pub only_design: Option<MicroArch>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            designs: 16,
            seed: 1,
            window: 2_000,
            workloads: spec06_suite(),
            fault: None,
            metamorphic: true,
            only_design: None,
        }
    }
}

/// A shrunk reproducer for a violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The smallest design (Table 4 parameters) still showing the failure.
    pub design: MicroArch,
    /// The smallest window still showing the failure.
    pub window: usize,
    /// Trace seed of the failing run.
    pub trace_seed: u64,
    /// Ready-to-run command line reproducing the failure.
    pub command: String,
}

/// One verification failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Machine-readable check tag (matches the
    /// `verify/violation/<check>` telemetry counter).
    pub check: String,
    /// Rendered diagnostic.
    pub detail: String,
    /// Workload the failing run simulated.
    pub workload: String,
    /// Original (unshrunk) design.
    pub design: MicroArch,
    /// Original (unshrunk) window.
    pub window: usize,
    /// Trace seed of the failing run.
    pub trace_seed: u64,
    /// Shrunk reproducer, when shrinking preserved the failure.
    pub shrunk: Option<Repro>,
}

/// Outcome of a verification sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Designs swept.
    pub designs: usize,
    /// Individual checks executed.
    pub checks: u64,
    /// Sweep seed.
    pub seed: u64,
    /// Violations found (empty on a clean sweep).
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether the sweep found no violations.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Machine-readable JSON rendering of the report.
    pub fn to_json(&self) -> String {
        let design_obj = |arch: &MicroArch| {
            JsonValue::Obj(
                ParamId::ALL
                    .iter()
                    .map(|&p| (p.to_string(), JsonValue::Int(p.get(arch) as u64)))
                    .collect(),
            )
        };
        let violations = self
            .violations
            .iter()
            .map(|v| {
                let mut fields = vec![
                    ("check".to_string(), JsonValue::Str(v.check.clone())),
                    ("detail".to_string(), JsonValue::Str(v.detail.clone())),
                    ("workload".to_string(), JsonValue::Str(v.workload.clone())),
                    ("design".to_string(), design_obj(&v.design)),
                    ("window".to_string(), JsonValue::Int(v.window as u64)),
                    ("trace_seed".to_string(), JsonValue::Int(v.trace_seed)),
                ];
                match &v.shrunk {
                    Some(r) => fields.push((
                        "shrunk".to_string(),
                        JsonValue::Obj(vec![
                            ("design".to_string(), design_obj(&r.design)),
                            ("window".to_string(), JsonValue::Int(r.window as u64)),
                            ("trace_seed".to_string(), JsonValue::Int(r.trace_seed)),
                            ("command".to_string(), JsonValue::Str(r.command.clone())),
                        ]),
                    )),
                    None => fields.push(("shrunk".to_string(), JsonValue::Null)),
                }
                JsonValue::Obj(fields)
            })
            .collect();
        JsonValue::Obj(vec![
            ("designs".to_string(), JsonValue::Int(self.designs as u64)),
            ("checks".to_string(), JsonValue::Int(self.checks)),
            ("seed".to_string(), JsonValue::Int(self.seed)),
            ("ok".to_string(), JsonValue::Bool(self.ok())),
            ("violations".to_string(), JsonValue::Arr(violations)),
        ])
        .render()
    }
}

/// One failing check before it is wrapped into a [`Violation`].
type CheckFailure = (String, String);

/// A design sensitised to a given fault: the faulted resource is the
/// unique binding back-end structure, so any workload with stalls at the
/// ROB head fills it and provably trips the checker. Random designs give
/// no such guarantee (another pool may saturate first), so the sweep
/// prepends this probe whenever a fault is injected.
fn sensitised_design(space: &DesignSpace, fault: InjectedFault) -> MicroArch {
    let mut arch = MicroArch::baseline();
    let maxed = [
        ParamId::Width,
        ParamId::Iq,
        ParamId::IntRf,
        ParamId::FpRf,
        ParamId::Lq,
        ParamId::Sq,
        ParamId::IntAlu,
    ];
    for p in maxed {
        p.set(
            &mut arch,
            *space.candidates(p).last().expect("non-empty lattice"),
        );
    }
    match fault {
        InjectedFault::RobCapacityOffByOne => {
            ParamId::Rob.set(&mut arch, space.candidates(ParamId::Rob)[0]);
        }
        // Any trace with a dependent instruction exercises a wakeup.
        InjectedFault::LostWakeup => {}
    }
    arch
}

/// Runs the sim → DEG → bottleneck chain for one (design, workload,
/// window) triple under full checking. Returns the number of checks run.
fn check_chain(
    design: &MicroArch,
    workload: &Workload,
    window: usize,
    trace_seed: u64,
    fault: Option<InjectedFault>,
) -> Result<u64, CheckFailure> {
    let core = OooCore::try_new(*design)
        .map_err(|e| ("config/invalid".to_string(), e.to_string()))?
        .with_invariant_checks(CheckConfig { fault });
    let trace = workload.generate(window, trace_seed);
    let result = core.run(&trace).map_err(|e| match &e {
        archx_sim::SimError::InvariantViolation { check, .. } => (check.clone(), e.to_string()),
        other => (format!("sim/{}", other.tag()), e.to_string()),
    })?;
    let path = validate_exactness(&result).map_err(|v| (v.check.to_string(), v.detail))?;
    // Bottleneck attribution must be a normalised distribution over the
    // critical path.
    let deg = induce(build_deg(&result));
    let report = analyze(&deg, &path);
    let total = report.total();
    if !(0.0..=1.0 + 1e-9).contains(&total) {
        return Err((
            "bottleneck/normalised".to_string(),
            format!("contributions sum to {total}"),
        ));
    }
    if report.length != path.total_delay {
        return Err((
            "bottleneck/length".to_string(),
            format!(
                "report length {} != path delay {}",
                report.length, path.total_delay
            ),
        ));
    }
    // The naive stall accounting (the paper's §2.3 strawman) runs on the
    // same SimResult as a differential oracle: it must stay a normalised
    // distribution and be deterministic. (Its over-blaming *relative to
    // runtime* is the expected contrast, not a violation.)
    let (naive, blamed) = naive_stall_report(&trace, &result);
    let naive_total = naive.total();
    if !(0.0..=1.0 + 1e-9).contains(&naive_total) {
        return Err((
            "naive/normalised".to_string(),
            format!("naive stall shares sum to {naive_total}"),
        ));
    }
    if naive_stall_report(&trace, &result) != (naive, blamed) {
        return Err((
            "naive/determinism".to_string(),
            "naive stall accounting diverged between two runs".to_string(),
        ));
    }
    // Per-cycle invariants + oracle hierarchy + bottleneck + naive checks.
    Ok(4)
}

fn cycles_on_stream(design: &MicroArch) -> Result<u64, CheckFailure> {
    OooCore::try_new(*design)
        .map_err(|e| ("config/invalid".to_string(), e.to_string()))?
        .run(&trace_gen::independent_int_ops(ENLARGE_STREAM))
        .map(|r| r.trace.cycles)
        .map_err(|e| (format!("sim/{}", e.tag()), e.to_string()))
}

/// Metamorphic check: enlarging one back-end capacity never increases
/// cycles on the compute-bound stream.
fn check_enlargement(
    space: &DesignSpace,
    design: &MicroArch,
    param: ParamId,
) -> Result<u64, CheckFailure> {
    let Some(bigger) = space.next_larger(param, param.get(design)) else {
        return Ok(0); // already at the lattice maximum
    };
    let mut enlarged = *design;
    param.set(&mut enlarged, bigger);
    if enlarged.validate().is_err() {
        return Ok(0); // enlargement left the lattice of valid configs
    }
    let base = cycles_on_stream(design)?;
    let grown = cycles_on_stream(&enlarged)?;
    if grown > base {
        return Err((
            "metamorphic/enlarge".to_string(),
            format!(
                "growing {param} {} -> {bigger} increased cycles {base} -> {grown}",
                param.get(design)
            ),
        ));
    }
    Ok(1)
}

/// Metamorphic check: trace synthesis is prefix-stable and deterministic.
fn check_prefix(workload: &Workload, window: usize, trace_seed: u64) -> Result<u64, CheckFailure> {
    let full = workload.generate(window, trace_seed);
    let half = workload.generate(window / 2, trace_seed);
    if half[..] != full[..window / 2] {
        return Err((
            "metamorphic/prefix".to_string(),
            format!(
                "{}: window {} is not a prefix of window {window}",
                workload.id.0,
                window / 2
            ),
        ));
    }
    Ok(1)
}

/// Metamorphic check: simulation is deterministic.
fn check_determinism(
    design: &MicroArch,
    workload: &Workload,
    window: usize,
    trace_seed: u64,
) -> Result<u64, CheckFailure> {
    let trace = workload.generate(window, trace_seed);
    let run = |c: OooCore| {
        c.run(&trace)
            .map_err(|e| (format!("sim/{}", e.tag()), e.to_string()))
    };
    let a =
        run(OooCore::try_new(*design).map_err(|e| ("config/invalid".to_string(), e.to_string()))?)?;
    let b =
        run(OooCore::try_new(*design).map_err(|e| ("config/invalid".to_string(), e.to_string()))?)?;
    if a.trace != b.trace || a.stats != b.stats {
        return Err((
            "metamorphic/determinism".to_string(),
            format!("{}: two runs of the same design diverged", workload.id.0),
        ));
    }
    Ok(1)
}

/// Shrinks a failing (design, window) pair: first halves the window while
/// the failure persists, then walks each parameter back to the baseline
/// value (when the space allows it) keeping every step that still fails.
fn shrink(
    design: &MicroArch,
    workload: &Workload,
    window: usize,
    trace_seed: u64,
    fault: Option<InjectedFault>,
) -> Repro {
    let still_fails =
        |d: &MicroArch, w: usize| check_chain(d, workload, w, trace_seed, fault).is_err();
    let mut window = window;
    while window / 2 >= MIN_WINDOW && still_fails(design, window / 2) {
        window /= 2;
    }
    // Walk toward the *unsnapped* baseline: the repro command rebuilds the
    // design as baseline-plus-overrides, so omitted parameters must mean
    // exactly `MicroArch::baseline()` values.
    let baseline = MicroArch::baseline();
    let mut shrunk = *design;
    for &p in &ParamId::ALL {
        let target = p.get(&baseline);
        if p.get(&shrunk) == target {
            continue;
        }
        let mut candidate = shrunk;
        p.set(&mut candidate, target);
        if candidate.validate().is_ok() && still_fails(&candidate, window) {
            shrunk = candidate;
        }
    }
    let mut command = format!(
        "archx verify workload={} window={window} seed={trace_seed}",
        workload.id.0
    );
    if let Some(f) = fault {
        command.push_str(&format!(" inject={}", f.name()));
    }
    let mut pinned = false;
    for &p in &ParamId::ALL {
        if p.get(&shrunk) != p.get(&baseline) {
            command.push_str(&format!(" {p}={}", p.get(&shrunk)));
            pinned = true;
        }
    }
    if !pinned {
        // A parameter override (even at its baseline value) is what makes
        // `archx verify` pin this exact design instead of sweeping.
        command.push_str(&format!(" Width={}", ParamId::Width.get(&baseline)));
    }
    Repro {
        design: shrunk,
        window,
        trace_seed,
        command,
    }
}

/// Runs a full verification sweep.
pub fn run_verify(cfg: &VerifyConfig) -> VerifyReport {
    let _scope = archx_telemetry::scope("verify");
    let space = DesignSpace::table4();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let designs: Vec<MicroArch> = match &cfg.only_design {
        Some(d) => vec![*d],
        None => {
            let mut v: Vec<MicroArch> = cfg
                .fault
                .map(|f| sensitised_design(&space, f))
                .into_iter()
                .collect();
            v.extend((0..cfg.designs).map(|_| space.random(&mut rng)));
            v
        }
    };
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for (i, design) in designs.iter().enumerate() {
        let workload = &cfg.workloads[i % cfg.workloads.len()];
        // Repro runs (`only_design`) must use the requested window verbatim
        // so shrunk commands replay exactly; sweeps rotate window sizes.
        let window = if cfg.only_design.is_some() {
            cfg.window.max(MIN_WINDOW)
        } else {
            (cfg.window >> (i % 3)).max(MIN_WINDOW * 2)
        };
        let trace_seed = cfg.seed.wrapping_add(i as u64);
        archx_telemetry::counter_add("verify/design", 1);

        let mut record = |failure: CheckFailure, shrink_it: bool| {
            let (check, detail) = failure;
            let shrunk = shrink_it.then(|| shrink(design, workload, window, trace_seed, cfg.fault));
            violations.push(Violation {
                check,
                detail,
                workload: workload.id.0.to_string(),
                design: *design,
                window,
                trace_seed,
                shrunk,
            });
        };

        match check_chain(design, workload, window, trace_seed, cfg.fault) {
            Ok(n) => checks += n,
            Err(failure) => {
                record(failure, true);
                continue; // chain is broken; metamorphic results would lie
            }
        }
        if cfg.metamorphic {
            match check_enlargement(&space, design, ENLARGEABLE[i % ENLARGEABLE.len()]) {
                Ok(n) => checks += n,
                Err(f) => record(f, false),
            }
            match check_prefix(workload, window, trace_seed) {
                Ok(n) => checks += n,
                Err(f) => record(f, false),
            }
            if i % 8 == 0 {
                match check_determinism(design, workload, window, trace_seed) {
                    Ok(n) => checks += n,
                    Err(f) => record(f, false),
                }
            }
        }
    }
    VerifyReport {
        designs: designs.len(),
        checks,
        seed: cfg.seed,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> VerifyConfig {
        VerifyConfig {
            designs: 3,
            seed: 11,
            window: 800,
            ..VerifyConfig::default()
        }
    }

    #[test]
    fn clean_sweep_reports_no_violations() {
        let report = run_verify(&quick_cfg());
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.designs, 3);
        assert!(report.checks > 0);
        let json = report.to_json();
        assert!(
            json.contains("\"ok\": true") || json.contains("\"ok\":true"),
            "{json}"
        );
    }

    #[test]
    fn injected_fault_is_caught_and_shrunk() {
        let cfg = VerifyConfig {
            fault: Some(InjectedFault::RobCapacityOffByOne),
            metamorphic: false,
            ..quick_cfg()
        };
        let report = run_verify(&cfg);
        assert!(!report.ok(), "the injected fault must surface");
        let v = &report.violations[0];
        assert_eq!(v.check, "occupancy/ROB");
        let repro = v.shrunk.as_ref().expect("deterministic failures shrink");
        assert!(repro.window <= v.window);
        assert!(repro.command.contains("inject=rob-off-by-one"));
        let json = report.to_json();
        assert!(json.contains("occupancy/ROB"));
        assert!(json.contains("rob-off-by-one"));
    }

    #[test]
    fn only_design_pins_the_sweep() {
        let cfg = VerifyConfig {
            only_design: Some(MicroArch::tiny()),
            ..quick_cfg()
        };
        let report = run_verify(&cfg);
        assert_eq!(report.designs, 1);
        assert!(report.ok(), "violations: {:?}", report.violations);
    }
}
