//! # mp-bench
//!
//! Benchmark and experiment harness for the *Master and Parasite Attack*
//! reproduction, built on the [`parasite::experiments`] registry. The
//! `paper-report` binary prints the full set of the paper's tables and
//! figures in one run — as text or as machine-readable JSON, sequentially or
//! on a thread pool — and the one bench target, `packet_flood`, measures the
//! simulator's hot path per trace recorder mode:
//!
//! ```text
//! cargo run -p mp-bench --bin paper-report
//! cargo run -p mp-bench --bin paper-report -- --json --jobs 8
//! cargo run -p mp-bench --bin paper-report -- --only table1,fig3 --seed 7
//! cargo bench -p mp-bench
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parasite::experiments::{run_many, Artifact, ExperimentId, RunConfig};
use parasite::json::{Json, ToJson};

/// Runs all eleven experiments under one configuration on `jobs` worker
/// threads, in the paper's order.
pub fn run_all(config: &RunConfig, jobs: usize) -> Vec<Artifact> {
    run_many(&ExperimentId::ALL, std::slice::from_ref(config), jobs)
}

/// Renders artifacts into the classic text report: every table and figure of
/// the paper, separated by blank lines.
pub fn render_report(artifacts: &[Artifact]) -> String {
    artifacts
        .iter()
        .map(Artifact::render_text)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Packs artifacts into one machine-readable JSON document:
/// `{"config": {…}, "artifacts": [{…}, …]}`.
pub fn report_json(config: &RunConfig, artifacts: &[Artifact]) -> Json {
    Json::obj([
        ("config", config.to_json()),
        ("artifacts", artifacts.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_wraps_config_and_artifacts() {
        let config = RunConfig {
            sites: 1_000,
            crawl_sites: 300,
            days: 10,
            ..RunConfig::default()
        };
        let ids = [ExperimentId::Fig4, ExperimentId::Ablation];
        let artifacts = run_many(&ids, std::slice::from_ref(&config), 2);
        let json = report_json(&config, &artifacts);
        let parsed = Json::parse(&json.to_string()).expect("report JSON parses");
        assert_eq!(
            parsed.get("config").and_then(|c| c.get("sites")).and_then(Json::as_u64),
            Some(1_000)
        );
        let ids: Vec<&str> = parsed
            .get("artifacts")
            .and_then(Json::as_array)
            .expect("artifact array")
            .iter()
            .filter_map(|a| a.get("id").and_then(Json::as_str))
            .collect();
        assert_eq!(ids, vec!["fig4", "ablation"]);
    }
}
