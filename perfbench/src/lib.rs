//! The repository's benchmark: two closed-loop workloads (`campaign`,
//! `daemon`), end-to-end metrics from untraced runs, and per-layer metrics from a separate traced run whose spans are
//! recorded around calls into each layer's public functions.
//!
//! See `perfbench/README.md` for the workloads, the layer → end-to-end
//! metric map and the daemon traps.

pub mod configs;
pub mod daemon;
pub mod fleet;
pub mod layers;
pub mod mirror;
pub mod report;
pub mod rss;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

/// One metric as printed in the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric with the given name, value and unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one benchmark run reports: output-check counts plus metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (measured and checked).
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines for stderr: the workload's own figures (medians,
    /// tails, `exposures_per_s`, `runs_per_s`), check failures, canaries.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is noted on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("CHECK FAILED: {}", what()));
            }
        }
    }

    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Adds a human-readable figure (stderr only).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `--seed` argument; configs are generated from it.
    pub seed: u64,
    /// Measurement time per run, seconds.
    pub seconds: f64,
    /// The `paper-report` binary (the traced shard component runs its
    /// `distribute` subcommand).
    pub paper_report: Option<PathBuf>,
    /// Scratch directory inside the checkout (sockets, trace files).
    pub run_dir: PathBuf,
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct Loop {
    /// Host seconds of each operation.
    pub walls: Vec<f64>,
    /// Host seconds spent in the loop, set-ups excluded.
    pub elapsed: f64,
    /// Host seconds of each repeated set-up.
    pub setups: Vec<f64>,
}

/// Runs `op` back to back for `seconds`, split into `setups` equal segments,
/// each followed by one timed run of `setup`. Spreading the set-ups over the
/// run keeps a burst of load from other processes from skewing all of them.
pub fn closed_loop(
    seconds: f64,
    setups: usize,
    mut setup: impl FnMut(),
    mut op: impl FnMut(),
) -> Loop {
    let mut measured = Loop::default();
    let segments = setups.max(1);
    for _ in 0..segments {
        let started = std::time::Instant::now();
        while started.elapsed().as_secs_f64() < seconds / segments as f64 {
            let at = std::time::Instant::now();
            op();
            measured.walls.push(at.elapsed().as_secs_f64());
        }
        measured.elapsed += started.elapsed().as_secs_f64();
        let at = std::time::Instant::now();
        setup();
        measured.setups.push(at.elapsed().as_secs_f64());
    }
    measured
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["campaign", "daemon"];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value printed with all its digits.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// gives (non-finite values cannot occur in valid JSON and print as 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        let text = format!("{value}");
        if text.contains('.') || text.contains('e') {
            text
        } else {
            format!("{text}.0")
        }
    } else {
        "0.0".to_string()
    }
}
