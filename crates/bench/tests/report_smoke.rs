//! Smoke test for the `paper-report` output: the report must be non-empty and
//! contain every table and figure header of the paper, so `cargo run -p
//! mp-bench --bin paper-report` can never silently lose an artefact.

use mp_bench::{render_report, run_all};
use parasite::experiments::RunConfig;

/// The classic `paper-report` output: every artefact under the default
/// configuration.
fn full_report() -> String {
    render_report(&run_all(&RunConfig::default(), 1))
}

/// The headers the paper's evaluation section produces, one per artefact.
const EXPECTED_HEADERS: [&str; 11] = [
    "Table I - cache eviction on popular browsers",
    "Table II - TCP injection evaluation",
    "Table III - refresh methods vs Cache-API parasites",
    "Table IV - caches in the wild",
    "Table V - attacks against applications",
    "Figure 1 - cache eviction message flow",
    "Figure 2 - cache infection message flow",
    "Figure 3 - object persistency over the measurement period",
    "Figure 4 - C&C channel characterisation",
    "Figure 5 / in-text measurements",
    "Countermeasure ablation",
];

#[test]
fn full_report_contains_every_table_and_figure() {
    let report = full_report();
    assert!(!report.trim().is_empty(), "report must not be empty");
    for header in EXPECTED_HEADERS {
        assert!(
            report.contains(header),
            "report is missing artefact header {header:?}"
        );
    }
    // Sanity on substance, not just headers: every artefact renders at least
    // a few rows, so the report is far longer than its headers alone.
    assert!(
        report.lines().count() > 100,
        "report looks truncated: {} lines",
        report.lines().count()
    );
}

#[test]
fn full_report_is_deterministic() {
    // The experiments all run on seeded RNGs; two renders must be identical
    // (the paper artefacts are meant to be reproducible byte-for-byte).
    assert_eq!(full_report(), full_report());
}
