//! Shared command-line option parsing for the `archx` CLI and the
//! benchmark binaries.
//!
//! Every front end speaks the same dialect — `key=value` arguments, a few
//! GNU-style flags (`--jobs N`, `--threads N`, `--journal PATH`, …) that
//! normalise to `key=value`, a `--telemetry json|pretty|off` switch, and
//! comma-separated method/seed lists — so the parsing lives here once
//! instead of being copy-pasted per binary. Each binary reads its
//! arguments through [`command_line`] and ends with [`print_telemetry`].

use crate::telemetry;
use archx_dse::campaign::Method;
use archx_workloads::{parse_suite, suite_named, suite_prefix, Workload};
use std::collections::HashMap;
use std::io::Write as _;

/// Collects `key=value` arguments into a map; other arguments are ignored
/// (positional commands are handled by the caller).
pub fn parse_kv(args: &[String]) -> HashMap<String, String> {
    args.iter()
        .filter_map(|a| {
            a.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// Rewrites GNU-style `--journal PATH`, `--resume PATH`, `--cycle-budget N`,
/// `--retries N`, `--jobs N`, `--threads N`, `--designs N`, `--seed N`,
/// `--window N`, `--report PATH` and `--inject FAULT` (including their
/// `--flag=value` forms) into the CLI's native `key=value` arguments.
fn normalize_flags(args: &[String]) -> Result<Vec<String>, String> {
    const FLAGS: [(&str, &str); 11] = [
        ("--journal", "journal"),
        ("--resume", "resume"),
        ("--cycle-budget", "cycle_budget"),
        ("--retries", "retries"),
        ("--jobs", "jobs"),
        ("--threads", "threads"),
        ("--designs", "designs"),
        ("--seed", "seed"),
        ("--window", "window"),
        ("--report", "report"),
        ("--inject", "inject"),
    ];
    let mut out = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some((flag, key)) = FLAGS.iter().find(|(f, _)| {
            arg == f || (arg.starts_with(f) && arg.as_bytes().get(f.len()) == Some(&b'='))
        }) else {
            out.push(arg.clone());
            continue;
        };
        let value = match arg.split_once('=') {
            Some((_, v)) => v.to_string(),
            None => it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone(),
        };
        out.push(format!("{key}={value}"));
    }
    Ok(out)
}

/// How a front end renders the telemetry report after its command runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Collection disabled; nothing printed.
    Off,
    /// Machine-readable JSON on stderr.
    Json,
    /// Aligned human-readable table on stderr.
    Pretty,
}

impl TelemetryMode {
    /// Parses `json`, `pretty` or `off`.
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "off" => Ok(TelemetryMode::Off),
            "json" => Ok(TelemetryMode::Json),
            "pretty" => Ok(TelemetryMode::Pretty),
            other => Err(format!(
                "--telemetry expects json|pretty|off, got `{other}`"
            )),
        }
    }
}

/// Extracts `--telemetry MODE` / `--telemetry=MODE` / `telemetry=MODE`
/// from the argument list, returning the remaining arguments and the mode
/// (default [`TelemetryMode::Off`]).
fn extract_telemetry(args: &[String]) -> Result<(Vec<String>, TelemetryMode), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut mode = TelemetryMode::Off;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--telemetry" {
            let value = it
                .next()
                .ok_or("--telemetry needs a value: json|pretty|off")?;
            mode = TelemetryMode::parse(value)?;
        } else if let Some(value) = arg
            .strip_prefix("--telemetry=")
            .or_else(|| arg.strip_prefix("telemetry="))
        {
            mode = TelemetryMode::parse(value)?;
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, mode))
}

/// The front ends' shared entry: takes the telemetry mode out of `args`
/// (`extract_telemetry`), rewrites the GNU-style flags that remain
/// (`normalize_flags`), and disables collection on the global registry
/// when the mode is [`TelemetryMode::Off`], so an unreported run pays no
/// telemetry cost. Errors are usage errors: a bad mode or a flag without
/// its value.
pub fn command_line(args: &[String]) -> Result<(Vec<String>, TelemetryMode), String> {
    let (rest, mode) = extract_telemetry(args)?;
    let rest = normalize_flags(&rest)?;
    if mode == TelemetryMode::Off {
        telemetry::global().set_enabled(false);
    }
    Ok((rest, mode))
}

/// Prints the global registry's report to stderr in `mode`: JSON, the
/// aligned table, or nothing. A report stderr cannot take is dropped
/// rather than a panic, so this is safe to call from `Drop`.
pub fn print_telemetry(mode: TelemetryMode) {
    let text = match mode {
        TelemetryMode::Off => return,
        TelemetryMode::Json => telemetry::global().report().to_json() + "\n",
        TelemetryMode::Pretty => telemetry::global().report().to_pretty(),
    };
    let _ = std::io::stderr().write_all(text.as_bytes());
}

/// Typed `key=value` lookup: `default` when the key is absent, and an
/// error naming the key and its value when the value does not parse.
pub fn get<T: std::str::FromStr>(
    kv: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match kv.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            format!(
                "bad value `{v}` for `{key}` (expected {})",
                std::any::type_name::<T>()
            )
        }),
    }
}

/// The workloads a command runs on: the suite file `suite_file=PATH`, else
/// the bundled `suite=spec06|spec17` (default `spec06`), cut to its first
/// `workloads=N` entries by [`suite_prefix`].
pub fn workloads(kv: &HashMap<String, String>) -> Result<Vec<Workload>, String> {
    let suite = match kv.get("suite_file") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_suite(&text).map_err(|e| e.to_string())?
        }
        None => suite_named(kv.get("suite").map_or("spec06", String::as_str))?,
    };
    Ok(suite_prefix(suite, get(kv, "workloads", usize::MAX)?))
}

/// Parses one method name (`archexplorer`, `random`, `adaboost`,
/// `archranker`, `boom`/`boom-explorer`, `calipers`).
pub fn parse_method(name: &str) -> Result<Method, String> {
    match name {
        "archexplorer" => Ok(Method::ArchExplorer),
        "random" => Ok(Method::Random),
        "adaboost" => Ok(Method::AdaBoost),
        "archranker" => Ok(Method::ArchRanker),
        "boom" | "boom-explorer" => Ok(Method::BoomExplorer),
        "calipers" => Ok(Method::Calipers),
        other => Err(format!("unknown method `{other}`")),
    }
}

/// Parses a method selection: `all` (every implemented method), `paper`
/// (the Fig. 12 / Table 5 headline set), or a comma-separated list of
/// method names. Rejects selections that name no methods.
pub fn parse_methods(spec: &str) -> Result<Vec<Method>, String> {
    let methods: Vec<Method> = match spec {
        "all" => Method::ALL.to_vec(),
        "paper" => Method::PAPER_SET.to_vec(),
        list => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(parse_method)
            .collect::<Result<_, _>>()?,
    };
    if methods.is_empty() {
        return Err("method list selected no methods".into());
    }
    Ok(methods)
}

/// Parses a comma-separated seed list (`1,2,3`). Rejects empty lists and
/// unparsable entries.
pub fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let seeds: Vec<u64> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .collect::<Result<_, _>>()?;
    if seeds.is_empty() {
        return Err("seed list selected no seeds".into());
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn kv_parsing_collects_pairs_and_ignores_positionals() {
        let kv = parse_kv(&strings(&["campaign", "budget=120", "suite=spec17"]));
        assert_eq!(kv.get("budget").map(String::as_str), Some("120"));
        assert_eq!(kv.get("suite").map(String::as_str), Some("spec17"));
        assert!(!kv.contains_key("campaign"));
        assert_eq!(get(&kv, "budget", 0u64), Ok(120));
        assert_eq!(get(&kv, "missing", 7u64), Ok(7));
    }

    #[test]
    fn malformed_numbers_are_errors_naming_key_and_value() {
        let kv = parse_kv(&strings(&["instrs=2k", "budget=-1", "seed=", "frac=0.5x"]));
        let err = get(&kv, "instrs", 20_000usize).expect_err("2k is not a number");
        assert!(err.contains("`instrs`") && err.contains("`2k`"), "{err}");
        assert!(get(&kv, "budget", 240u64).is_err(), "budgets are unsigned");
        assert!(
            get(&kv, "seed", 1u64).is_err(),
            "an empty value is not the default"
        );
        assert!(get(&kv, "frac", 0.95f64).is_err());
        assert_eq!(get(&kv, "frac", String::new()), Ok("0.5x".to_string()));
    }

    #[test]
    fn workloads_resolve_suite_names_and_prefixes() {
        let kv = parse_kv(&strings(&["suite=spec17", "workloads=3"]));
        let suite = workloads(&kv).expect("bundled suite");
        assert_eq!(suite.len(), 3);
        assert!(suite.iter().all(|w| w.weight == 1.0 / 3.0));
        assert_eq!(workloads(&parse_kv(&[])).expect("default").len(), 12);
        let err = workloads(&parse_kv(&strings(&["suite=spec18"]))).expect_err("unknown");
        assert!(err.contains("`spec18`"), "{err}");
        let err = workloads(&parse_kv(&strings(&["workloads=two"]))).expect_err("malformed");
        assert!(
            err.contains("`workloads`") && err.contains("`two`"),
            "{err}"
        );
    }

    #[test]
    fn suite_files_keep_their_weights() {
        let path = std::env::temp_dir().join(format!("archx-suite-{}.ini", std::process::id()));
        std::fs::write(&path, "[a]\nweight = 3\n[b]\nweight = 1\n[c]\nweight = 4\n")
            .expect("writes");
        let file = format!("suite_file={}", path.display());
        let two = workloads(&parse_kv(&strings(&[&file, "workloads=2"]))).expect("parses");
        let all = workloads(&parse_kv(&strings(&[&file]))).expect("parses");
        std::fs::remove_file(&path).ok();
        let weights = |s: &[Workload]| s.iter().map(|w| w.weight).collect::<Vec<_>>();
        assert_eq!(weights(&two), [0.75, 0.25]);
        assert_eq!(weights(&all), [0.375, 0.125, 0.5]);
    }

    #[test]
    fn flags_normalize_in_both_spellings() {
        let out = normalize_flags(&strings(&[
            "--jobs",
            "4",
            "--threads=8",
            "--journal",
            "/tmp/j",
            "budget=10",
        ]))
        .expect("parses");
        assert_eq!(
            out,
            strings(&["jobs=4", "threads=8", "journal=/tmp/j", "budget=10"])
        );
        // A flag prefix that is not the whole flag name passes through.
        let out = normalize_flags(&strings(&["--jobsx=4"])).expect("parses");
        assert_eq!(out, strings(&["--jobsx=4"]));
    }

    #[test]
    fn flag_without_value_is_an_error() {
        let err = normalize_flags(&strings(&["--jobs"])).expect_err("missing value");
        assert!(err.contains("--jobs"));
    }

    #[test]
    fn telemetry_extraction_accepts_all_spellings() {
        for args in [
            vec!["x=1", "--telemetry", "json"],
            vec!["x=1", "--telemetry=json"],
            vec!["x=1", "telemetry=json"],
        ] {
            let (rest, mode) = extract_telemetry(&strings(&args)).expect("parses");
            assert_eq!(mode, TelemetryMode::Json);
            assert_eq!(rest, strings(&["x=1"]));
        }
        let (_, mode) = extract_telemetry(&strings(&["x=1"])).expect("parses");
        assert_eq!(mode, TelemetryMode::Off);
        assert!(extract_telemetry(&strings(&["--telemetry", "loud"])).is_err());
        assert!(extract_telemetry(&strings(&["--telemetry"])).is_err());
    }

    #[test]
    fn command_line_takes_telemetry_and_flags_in_one_call() {
        let (rest, mode) =
            command_line(&strings(&["x=1", "--jobs", "4", "--telemetry=json"])).expect("parses");
        assert_eq!(mode, TelemetryMode::Json);
        assert_eq!(rest, strings(&["x=1", "jobs=4"]));
        assert_eq!(get(&parse_kv(&rest), "jobs", 1usize), Ok(4));
        let err = command_line(&strings(&["--telemetry", "loud"])).expect_err("bad mode");
        assert!(err.contains("loud"), "{err}");
        let err = command_line(&strings(&["--jobs"])).expect_err("missing value");
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn method_lists_parse_named_sets_and_csv() {
        assert_eq!(parse_methods("all").unwrap(), Method::ALL.to_vec());
        assert_eq!(parse_methods("paper").unwrap(), Method::PAPER_SET.to_vec());
        assert_eq!(
            parse_methods("random, boom").unwrap(),
            vec![Method::Random, Method::BoomExplorer]
        );
        assert!(parse_methods("archranker,warp-drive").is_err());
        assert!(parse_methods(",").is_err());
    }

    #[test]
    fn seed_lists_parse_csv() {
        assert_eq!(parse_seeds("1, 2,3").unwrap(), vec![1, 2, 3]);
        assert!(parse_seeds("1,x").is_err());
        assert!(parse_seeds("").is_err());
    }

    #[test]
    fn kv_parsing_handles_degenerate_pairs() {
        // Only the first `=` splits; later ones stay in the value.
        let kv = parse_kv(&strings(&["path=/a=b/c", "eq==", "k="]));
        assert_eq!(kv.get("path").map(String::as_str), Some("/a=b/c"));
        assert_eq!(kv.get("eq").map(String::as_str), Some("="));
        assert_eq!(kv.get("k").map(String::as_str), Some(""));
        // A later duplicate key wins (last-writer collect semantics).
        let kv = parse_kv(&strings(&["seed=1", "seed=2"]));
        assert_eq!(kv.get("seed").map(String::as_str), Some("2"));
    }

    #[test]
    fn verify_flags_normalize_in_both_spellings() {
        let out = normalize_flags(&strings(&[
            "verify",
            "--designs",
            "64",
            "--seed=7",
            "--window",
            "2000",
            "--report=/tmp/r.json",
            "--inject",
            "rob-off-by-one",
        ]))
        .expect("parses");
        assert_eq!(
            out,
            strings(&[
                "verify",
                "designs=64",
                "seed=7",
                "window=2000",
                "report=/tmp/r.json",
                "inject=rob-off-by-one",
            ])
        );
        for flag in ["--designs", "--seed", "--window", "--report", "--inject"] {
            let err = normalize_flags(&strings(&[flag])).expect_err("missing value");
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn method_names_reject_near_misses() {
        assert!(parse_method("ArchExplorer").is_err(), "names are lowercase");
        assert!(parse_method("archexplorer ").is_err(), "no trimming here");
        assert!(parse_method("").is_err());
        // The list parser does trim around commas.
        assert_eq!(
            parse_methods(" archexplorer ").unwrap(),
            vec![Method::ArchExplorer]
        );
    }

    #[test]
    fn seed_lists_reject_malformed_numbers() {
        assert!(parse_seeds("-1").is_err(), "seeds are unsigned");
        assert!(parse_seeds("1.5").is_err());
        assert!(parse_seeds("0x10").is_err());
        assert!(parse_seeds(",,,").is_err(), "only separators is empty");
        assert!(parse_seeds("18446744073709551616").is_err(), "u64 overflow");
        assert_eq!(parse_seeds("18446744073709551615").unwrap(), vec![u64::MAX]);
    }
}
