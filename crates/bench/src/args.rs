//! `KEY=VALUE` command-line parsing for the experiment binaries — a thin
//! wrapper over the shared [`archexplorer::cliopt`] parsing used by the
//! `archx` CLI, so every front end accepts the same dialect.

use archexplorer::cliopt::{self, TelemetryMode};
use std::collections::HashMap;

/// Parsed `KEY=VALUE` arguments, read through [`cliopt::command_line`]:
/// GNU-style flags (`--jobs N`, …) arrive as their `key=value` forms and
/// the `--telemetry` mode is taken out. Dropping the `Args` prints the
/// telemetry report in that mode ([`cliopt::print_telemetry`]), so a
/// binary that holds its `Args` through `main` reports after its work
/// (unless it panicked).
#[derive(Debug)]
pub struct Args {
    map: HashMap<String, String>,
    telemetry: TelemetryMode,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list; a usage error (a bad
    /// `--telemetry` mode, a flag without its value) ends the process
    /// with exit status 2.
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let args: Vec<String> = iter.into_iter().collect();
        let (args, telemetry) = cliopt::command_line(&args).unwrap_or_else(|e| fail(&e));
        Args {
            map: cliopt::parse_kv(&args),
            telemetry,
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
}

impl Drop for Args {
    fn drop(&mut self) {
        // A binary that panicked reports nothing, as one that exited
        // through `fail` does.
        if !std::thread::panicking() {
            cliopt::print_telemetry(self.telemetry);
        }
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
    fn gnu_flags_reach_their_keys() {
        let a = Args::from_args([
            "--jobs".to_string(),
            "4".to_string(),
            "--threads=8".to_string(),
        ]);
        assert_eq!(a.get_usize("jobs", 1), 4);
        assert_eq!(a.get_usize("threads", 1), 8);
    }
}
