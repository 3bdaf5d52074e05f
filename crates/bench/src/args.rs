//! `KEY=VALUE` command-line parsing for the experiment binaries — a thin
//! wrapper over the shared [`archexplorer::cliopt`] parsing used by the
//! `archx` CLI, so every front end accepts the same dialect.

use archexplorer::cliopt::{self, TelemetryMode};
use archexplorer::dse::campaign::Method;
use std::collections::HashMap;

/// Parsed `KEY=VALUE` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (for tests).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let args: Vec<String> = iter.into_iter().collect();
        Args {
            map: cliopt::parse_kv(&args),
        }
    }

    /// Integer argument with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key, default)
    }

    /// Usize argument with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key, default)
    }

    /// Floating-point argument with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key, default)
    }

    /// Typed lookup through [`cliopt::get`]; a value that does not parse
    /// ends the process with a message naming the key and the value.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        cliopt::get(&self.map, key, default).unwrap_or_else(|e| fail(&e))
    }

    /// String argument with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Method-list argument (`all`, `paper`, or comma-separated names),
    /// shared with `archx campaign methods=`.
    pub fn get_methods(&self, key: &str, default: &str) -> Result<Vec<Method>, String> {
        cliopt::parse_methods(&self.get_str(key, default))
    }

    /// Seed-list argument (comma-separated), shared with
    /// `archx campaign seeds=`.
    pub fn get_seeds(&self, key: &str, default: &str) -> Result<Vec<u64>, String> {
        cliopt::parse_seeds(&self.get_str(key, default))
    }

    /// The shared `telemetry=json|pretty|off` argument (default `off`).
    /// When `off`, collection on the global registry is disabled so the
    /// measured experiment pays no telemetry cost.
    pub fn telemetry(&self) -> String {
        let mode = self.get_str("telemetry", "off");
        if TelemetryMode::parse(&mode) == Ok(TelemetryMode::Off) {
            archexplorer::telemetry::global().set_enabled(false);
        }
        mode
    }
}

/// Ends an experiment binary on an argument error, with exit status 2.
pub fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_defaults() {
        let a = Args::from_args(["budget=120".to_string(), "suite=spec17".to_string()]);
        assert_eq!(a.get_u64("budget", 10), 120);
        assert_eq!(a.get_u64("missing", 7), 7);
        assert_eq!(a.get_str("suite", "spec06"), "spec17");
        assert_eq!(a.get_usize("budget", 0), 120);
        assert_eq!(a.get_f64("budget", 0.5), 120.0);
    }

    #[test]
    fn method_and_seed_lists_share_the_cli_dialect() {
        let a = Args::from_args(["methods=random,boom".to_string(), "seeds=1,2".to_string()]);
        assert_eq!(
            a.get_methods("methods", "all").unwrap(),
            vec![Method::Random, Method::BoomExplorer]
        );
        assert_eq!(a.get_seeds("seeds", "1").unwrap(), vec![1, 2]);
        // Defaults kick in when the key is absent.
        assert_eq!(a.get_methods("absent", "paper").unwrap(), Method::PAPER_SET);
        assert_eq!(a.get_seeds("absent", "5").unwrap(), vec![5]);
    }
}
