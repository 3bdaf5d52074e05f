//! Write-ahead evaluation journal: one JSONL line per evaluated design,
//! flushed immediately, so a killed campaign can resume where it stopped.
//!
//! The first line is a fingerprint header describing the evaluator
//! configuration (workloads, instruction window, trace seed, simulation
//! limits); resuming against a journal written under a different
//! configuration is rejected rather than silently producing wrong
//! results. Record lines carry the design parameters, the per-workload
//! PPA and merged bottleneck report (or the failure that quarantined the
//! design), and the simulation cost, so a resumed evaluator can replay
//! the cache and the budget without re-simulating anything.
//!
//! A journal written by a process killed mid-line is still readable: a
//! truncated or corrupt *final* line is discarded (the evaluation it
//! described never completed its write, so it is simply redone);
//! corruption anywhere earlier is an error.
//!
//! Serialisation uses the telemetry crate's dependency-free
//! [`JsonValue`] — the workspace deliberately carries no JSON-framework
//! dependency.

use crate::eval::{Analysis, DesignEval, EvalError, EvalFailure};
use crate::space::ParamId;
use archx_deg::{BottleneckReport, NUM_SOURCES};
use archx_power::PpaResult;
use archx_sim::MicroArch;
use archx_telemetry::{self as telemetry, JsonValue};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Evaluator configuration a journal is only valid for.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalFingerprint {
    /// Workload names, in evaluator order.
    pub workloads: Vec<String>,
    /// Instructions simulated per workload.
    pub instrs_per_workload: usize,
    /// Seed used to synthesise the workload traces.
    pub trace_seed: u64,
    /// Per-simulation cycle budget (`None` = unlimited).
    pub cycle_budget: Option<u64>,
    /// Deadlock-watchdog interval (cycles without a commit).
    pub deadlock_watchdog: u64,
    /// Free-form campaign metadata (method, search seed, budget, …);
    /// compared like every other field on resume.
    pub extra: Vec<(String, String)>,
}

/// One journaled evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The design point.
    pub arch: MicroArch,
    /// Analysis backend the evaluation ran with.
    pub analysis: Analysis,
    /// Simulations this evaluation cost (all attempts included).
    pub sims_cost: u64,
    /// What came out.
    pub outcome: Result<DesignEval, EvalFailure>,
}

/// Journal I/O and consistency errors.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying file error.
    Io {
        /// Journal path.
        path: PathBuf,
        /// Rendered I/O error.
        message: String,
    },
    /// A non-final line failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The journal was written under a different configuration.
    Mismatch {
        /// Which fingerprint field differs.
        field: String,
        /// Value expected by the resuming evaluator.
        expected: String,
        /// Value found in the journal header.
        found: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, message } => {
                write!(f, "journal {}: {message}", path.display())
            }
            JournalError::Corrupt { line, message } => {
                write!(f, "journal line {line}: {message}")
            }
            JournalError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "journal was written under a different configuration: {field} is {found}, this campaign needs {expected}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// An open, append-only evaluation journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Starts a fresh journal at `path` (truncating any existing file)
    /// and writes the fingerprint header.
    pub fn create(
        path: impl AsRef<Path>,
        fp: &JournalFingerprint,
    ) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(|e| io_err(&path, &e))?;
        let mut line = header_to_json(fp).render();
        line.push('\n');
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_err(&path, &e))?;
        Ok(Journal { file, path })
    }

    /// Opens an existing journal for resumption: validates the header
    /// against `fp`, loads every complete record, and reopens the file in
    /// append mode. A missing file behaves like [`Journal::create`] (so
    /// the first run of a `--resume` campaign needs no special-casing).
    /// A truncated or corrupt final line is dropped; the design it
    /// described is simply re-evaluated. The file is cut back to the end
    /// of the last complete record, so the next append starts a line of
    /// its own and the journal resumes again.
    pub fn resume(
        path: impl AsRef<Path>,
        fp: &JournalFingerprint,
    ) -> Result<(Journal, Vec<JournalRecord>), JournalError> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            return Journal::create(&path, fp).map(|j| (j, Vec::new()));
        }
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
        // (line number, byte offset just past the line, trimmed line).
        let mut end = 0;
        let non_empty: Vec<(usize, usize, &str)> = text
            .split_inclusive('\n')
            .enumerate()
            .map(|(i, l)| {
                end += l.len();
                (i + 1, end, l.trim())
            })
            .filter(|(_, _, l)| !l.is_empty())
            .collect();
        let Some(&(_, header_end, header_line)) = non_empty.first() else {
            // Header never made it to disk: start over.
            return Journal::create(&path, fp).map(|j| (j, Vec::new()));
        };
        let header = JsonValue::parse(header_line).map_err(|e| JournalError::Corrupt {
            line: 1,
            message: format!("bad header: {e}"),
        })?;
        check_header(&header, fp)?;

        let mut records = Vec::new();
        let mut keep = header_end;
        let last = non_empty.len() - 1;
        for (pos, &(lineno, line_end, line)) in non_empty.iter().enumerate().skip(1) {
            match JsonValue::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|v| record_from_json(&v))
            {
                Ok(rec) => {
                    records.push(rec);
                    keep = line_end;
                }
                Err(_) if pos == last => {
                    // The write this line belonged to never completed
                    // (the process died mid-append); redo that evaluation.
                    telemetry::counter_add("journal/truncated_tail", 1);
                }
                Err(message) => {
                    return Err(JournalError::Corrupt {
                        line: lineno,
                        message,
                    })
                }
            }
        }
        let mut file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        file.set_len(keep as u64)
            .and_then(|()| {
                // A last record cut just before its newline still parses;
                // end its line so the next append does not join it.
                if text[..keep].ends_with('\n') {
                    Ok(())
                } else {
                    file.write_all(b"\n")
                }
            })
            .map_err(|e| io_err(&path, &e))?;
        Ok((Journal { file, path }, records))
    }

    /// Appends one record and flushes it to the OS immediately (the
    /// write-ahead property: a `kill -9` after this call loses nothing).
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), JournalError> {
        let mut line = record_to_json(rec).render();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err(&self.path, &e))?;
        telemetry::counter_add("journal/appended", 1);
        Ok(())
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

fn header_to_json(fp: &JournalFingerprint) -> JsonValue {
    JsonValue::Obj(vec![
        ("archx_journal".into(), JsonValue::Int(1)),
        (
            "workloads".into(),
            JsonValue::Arr(
                fp.workloads
                    .iter()
                    .map(|w| JsonValue::Str(w.clone()))
                    .collect(),
            ),
        ),
        (
            "instrs_per_workload".into(),
            JsonValue::Int(fp.instrs_per_workload as u64),
        ),
        ("trace_seed".into(), JsonValue::Int(fp.trace_seed)),
        (
            "cycle_budget".into(),
            fp.cycle_budget.map_or(JsonValue::Null, JsonValue::Int),
        ),
        (
            "deadlock_watchdog".into(),
            JsonValue::Int(fp.deadlock_watchdog),
        ),
        (
            "extra".into(),
            JsonValue::Obj(
                fp.extra
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                    .collect(),
            ),
        ),
    ])
}

/// Compares the parsed header key by key against the header `fp` would
/// write and reports the first key that differs, both values as JSON.
fn check_header(header: &JsonValue, fp: &JournalFingerprint) -> Result<(), JournalError> {
    if header.get("archx_journal").is_none() {
        return Err(JournalError::Corrupt {
            line: 1,
            message: "not an archx journal (missing `archx_journal` field)".into(),
        });
    }
    let JsonValue::Obj(fields) = header_to_json(fp) else {
        unreachable!("a journal header is a JSON object");
    };
    match fields
        .into_iter()
        .find(|(key, want)| header.get(key) != Some(want))
    {
        None => Ok(()),
        Some((field, want)) => Err(JournalError::Mismatch {
            expected: want.render(),
            found: header
                .get(&field)
                .map_or_else(|| "missing".to_string(), JsonValue::render),
            field,
        }),
    }
}

fn analysis_name(a: Analysis) -> &'static str {
    match a {
        Analysis::None => "none",
        Analysis::NewDeg => "new_deg",
        Analysis::Calipers => "calipers",
    }
}

fn analysis_from(name: &str) -> Option<Analysis> {
    Some(match name {
        "none" => Analysis::None,
        "new_deg" => Analysis::NewDeg,
        "calipers" => Analysis::Calipers,
        _ => return None,
    })
}

fn arch_to_json(arch: &MicroArch) -> JsonValue {
    JsonValue::Obj(
        ParamId::ALL
            .iter()
            .map(|&p| (p.to_string(), JsonValue::Int(u64::from(p.get(arch)))))
            .collect(),
    )
}

fn arch_from_json(v: &JsonValue) -> Result<MicroArch, String> {
    let mut arch = MicroArch::baseline();
    for &p in &ParamId::ALL {
        let name = p.to_string();
        match v.get(&name) {
            Some(JsonValue::Int(n)) => p.set(&mut arch, *n as u32),
            _ => return Err(format!("missing parameter `{name}`")),
        }
    }
    Ok(arch)
}

fn ppa_to_json(p: &PpaResult) -> JsonValue {
    JsonValue::Obj(vec![
        ("ipc".into(), JsonValue::Float(p.ipc)),
        ("power_w".into(), JsonValue::Float(p.power_w)),
        ("area_mm2".into(), JsonValue::Float(p.area_mm2)),
    ])
}

fn float_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(JsonValue::Float(x)) => Ok(*x),
        Some(JsonValue::Int(n)) => Ok(*n as f64),
        _ => Err(format!("missing float field `{key}`")),
    }
}

fn ppa_from_json(v: &JsonValue) -> Result<PpaResult, String> {
    Ok(PpaResult {
        ipc: float_field(v, "ipc")?,
        power_w: float_field(v, "power_w")?,
        area_mm2: float_field(v, "area_mm2")?,
    })
}

fn report_to_json(r: &BottleneckReport) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "contributions".into(),
            JsonValue::Arr(
                r.contributions
                    .iter()
                    .map(|&c| JsonValue::Float(c))
                    .collect(),
            ),
        ),
        ("length".into(), JsonValue::Int(r.length)),
    ])
}

fn report_from_json(v: &JsonValue) -> Result<BottleneckReport, String> {
    let items = match v.get("contributions") {
        Some(JsonValue::Arr(items)) => items,
        _ => return Err("missing `contributions`".into()),
    };
    if items.len() != NUM_SOURCES {
        return Err(format!(
            "expected {NUM_SOURCES} contributions, found {}",
            items.len()
        ));
    }
    let mut contributions = [0.0f64; NUM_SOURCES];
    for (i, item) in items.iter().enumerate() {
        contributions[i] = match item {
            JsonValue::Float(x) => *x,
            JsonValue::Int(n) => *n as f64,
            _ => return Err("contribution not a number".into()),
        };
    }
    let length = match v.get("length") {
        Some(JsonValue::Int(n)) => *n,
        _ => return Err("missing `length`".into()),
    };
    Ok(BottleneckReport {
        contributions,
        length,
    })
}

fn record_to_json(rec: &JournalRecord) -> JsonValue {
    let mut pairs = vec![
        ("params".into(), arch_to_json(&rec.arch)),
        (
            "analysis".into(),
            JsonValue::Str(analysis_name(rec.analysis).into()),
        ),
        ("sims_cost".into(), JsonValue::Int(rec.sims_cost)),
    ];
    match &rec.outcome {
        Ok(eval) => {
            pairs.push(("outcome".into(), JsonValue::Str("ok".into())));
            pairs.push(("ppa".into(), ppa_to_json(&eval.ppa)));
            pairs.push((
                "per_workload".into(),
                JsonValue::Arr(eval.per_workload.iter().map(ppa_to_json).collect()),
            ));
            pairs.push((
                "report".into(),
                eval.report.as_ref().map_or(JsonValue::Null, report_to_json),
            ));
        }
        Err(failure) => {
            pairs.push(("outcome".into(), JsonValue::Str("failed".into())));
            pairs.push(("workload".into(), JsonValue::Str(failure.workload.clone())));
            pairs.push((
                "error".into(),
                JsonValue::Str(failure.error.tag().to_string()),
            ));
            pairs.push(("message".into(), JsonValue::Str(failure.error.to_string())));
            pairs.push((
                "attempts".into(),
                JsonValue::Int(u64::from(failure.attempts)),
            ));
        }
    }
    JsonValue::Obj(pairs)
}

fn record_from_json(v: &JsonValue) -> Result<JournalRecord, String> {
    let arch = arch_from_json(v.get("params").ok_or("missing `params`")?)?;
    let analysis = match v.get("analysis") {
        Some(JsonValue::Str(s)) => {
            analysis_from(s).ok_or_else(|| format!("unknown analysis `{s}`"))?
        }
        _ => return Err("missing `analysis`".into()),
    };
    let sims_cost = match v.get("sims_cost") {
        Some(JsonValue::Int(n)) => *n,
        _ => return Err("missing `sims_cost`".into()),
    };
    let str_field = |key: &str| -> Result<String, String> {
        match v.get(key) {
            Some(JsonValue::Str(s)) => Ok(s.clone()),
            _ => Err(format!("missing string field `{key}`")),
        }
    };
    let outcome = match str_field("outcome")?.as_str() {
        "ok" => {
            let ppa = ppa_from_json(v.get("ppa").ok_or("missing `ppa`")?)?;
            let per_workload = match v.get("per_workload") {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(ppa_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("missing `per_workload`".into()),
            };
            let report = match v.get("report") {
                Some(JsonValue::Null) | None => None,
                Some(r) => Some(report_from_json(r)?),
            };
            Ok(DesignEval {
                ppa,
                per_workload,
                report,
                analysis,
            })
        }
        "failed" => {
            let attempts = match v.get("attempts") {
                Some(JsonValue::Int(n)) => *n as u32,
                _ => return Err("missing `attempts`".into()),
            };
            Err(EvalFailure {
                workload: str_field("workload")?,
                error: EvalError::Journaled {
                    tag: str_field("error")?,
                    message: str_field("message")?,
                },
                attempts,
            })
        }
        other => return Err(format!("unknown outcome `{other}`")),
    };
    Ok(JournalRecord {
        arch,
        analysis,
        sims_cost,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> JournalFingerprint {
        JournalFingerprint {
            workloads: vec!["a".into(), "b".into()],
            instrs_per_workload: 1000,
            trace_seed: 7,
            cycle_budget: Some(50_000),
            deadlock_watchdog: 1_000_000,
            extra: vec![("method".into(), "Random".into())],
        }
    }

    fn ok_record() -> JournalRecord {
        let ppa = PpaResult {
            ipc: 1.25,
            power_w: 0.31,
            area_mm2: 9.5,
        };
        let mut report = BottleneckReport {
            contributions: [0.0; NUM_SOURCES],
            length: 4321,
        };
        report.contributions[0] = 0.25;
        report.contributions[3] = 0.125;
        JournalRecord {
            arch: MicroArch::baseline(),
            analysis: Analysis::NewDeg,
            sims_cost: 2,
            outcome: Ok(DesignEval {
                ppa,
                per_workload: vec![ppa, ppa],
                report: Some(report),
                analysis: Analysis::NewDeg,
            }),
        }
    }

    fn failed_record() -> JournalRecord {
        JournalRecord {
            arch: MicroArch::tiny(),
            analysis: Analysis::None,
            sims_cost: 4,
            outcome: Err(EvalFailure {
                workload: "b".into(),
                error: EvalError::Journaled {
                    tag: "deadlock".into(),
                    message: "pipeline deadlock at cycle 9".into(),
                },
                attempts: 2,
            }),
        }
    }

    #[test]
    fn records_round_trip_exactly() {
        for rec in [ok_record(), failed_record()] {
            let line = record_to_json(&rec).render();
            let back = record_from_json(&JsonValue::parse(&line).unwrap()).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn create_append_resume_roundtrip() {
        let dir = std::env::temp_dir().join(format!("archx-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        {
            let mut j = Journal::create(&path, &fp()).unwrap();
            j.append(&ok_record()).unwrap();
            j.append(&failed_record()).unwrap();
        }
        let (_, records) = Journal::resume(&path, &fp()).unwrap();
        assert_eq!(records, vec![ok_record(), failed_record()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("archx-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.jsonl");
        {
            let mut j = Journal::create(&path, &fp()).unwrap();
            j.append(&ok_record()).unwrap();
        }
        // Simulate a crash mid-append: half a record at the end.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"params\":{\"Width\":4,\"Fetch").unwrap();
        }
        let (mut j, records) = Journal::resume(&path, &fp()).unwrap();
        assert_eq!(records, vec![ok_record()]);
        // The torn tail is gone from the file: the next record gets a
        // line of its own and a second resume reads both back.
        j.append(&ok_record()).unwrap();
        drop(j);
        let (_, records) = Journal::resume(&path, &fp()).unwrap();
        assert_eq!(records, vec![ok_record(), ok_record()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_cut_before_its_newline_gets_one_on_resume() {
        let dir = std::env::temp_dir().join(format!("archx-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("no-newline.jsonl");
        {
            let mut j = Journal::create(&path, &fp()).unwrap();
            j.append(&ok_record()).unwrap();
        }
        // The record is whole; only its newline never reached the disk.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end()).unwrap();
        let (mut j, records) = Journal::resume(&path, &fp()).unwrap();
        assert_eq!(records, vec![ok_record()]);
        j.append(&ok_record()).unwrap();
        drop(j);
        let (_, records) = Journal::resume(&path, &fp()).unwrap();
        assert_eq!(records, vec![ok_record(), ok_record()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_fingerprint_is_rejected() {
        let dir = std::env::temp_dir().join(format!("archx-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.jsonl");
        {
            Journal::create(&path, &fp()).unwrap();
        }
        let mut seed = fp();
        seed.trace_seed = 8;
        let mut method = fp();
        method.extra = vec![("method".into(), "AdaBoost".into())];
        let cases = [
            (seed, "trace_seed", "8", "7"),
            (
                method,
                "extra",
                r#"{"method":"AdaBoost"}"#,
                r#"{"method":"Random"}"#,
            ),
        ];
        for (other, want_field, want_expected, want_found) in cases {
            match Journal::resume(&path, &other) {
                Err(JournalError::Mismatch {
                    field,
                    expected,
                    found,
                }) => {
                    assert_eq!(field, want_field);
                    assert_eq!(expected, want_expected);
                    assert_eq!(found, want_found);
                }
                other => panic!("expected mismatch, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_resumes_as_fresh() {
        let dir = std::env::temp_dir().join(format!("archx-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.jsonl");
        let _ = std::fs::remove_file(&path);
        let (_, records) = Journal::resume(&path, &fp()).unwrap();
        assert!(records.is_empty());
        // The header was written, so a second resume also works.
        let (_, records) = Journal::resume(&path, &fp()).unwrap();
        assert!(records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
