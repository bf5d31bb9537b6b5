//! The report component of the traced run: the default eleven-artifact
//! paper report, one job, each experiment timed on its own.

use crate::configs::{recorded_digest, report_config};
use crate::stats::fnv1a64;
use crate::trace::Tracer;
use mp_bench::{render_report, run_all};
use mp_webgen::{Crawler, Population, PopulationConfig};
use parasite::experiments::{ExperimentId, Registry};

/// The span name of each experiment, in `ExperimentId::ALL` order.
pub const EXPERIMENT_SPANS: [&str; 11] = [
    "report.table1_s",
    "report.table2_s",
    "report.table3_s",
    "report.table4_s",
    "report.table5_s",
    "report.fig1_s",
    "report.fig2_s",
    "report.fig3_s",
    "report.fig4_s",
    "report.fig5_s",
    "report.ablation_s",
];

/// The text report of `--seed`'s variant.
pub fn report_text(seed: u64) -> String {
    render_report(&run_all(&report_config(seed), 1))
}

/// The traced component: every experiment through `Registry::get(id).run`,
/// the text rendering, and Figure 3 split into its webgen calls. Returns
/// whether the outputs matched the recorded digest and the fig3 artifact.
pub fn traced(seed: u64, tracer: &mut Tracer) -> bool {
    let config = report_config(seed);
    tracer.span("report.total_s", |tracer| {
        let artifacts: Vec<_> = ExperimentId::ALL
            .iter()
            .zip(EXPERIMENT_SPANS)
            .map(|(id, span)| tracer.span(span, |_| Registry::get(*id).run(&config)))
            .collect();
        let text = tracer.span("report.render_s", |_| render_report(&artifacts));
        let population = tracer.span("webgen.population_s", |_| {
            Population::generate(PopulationConfig::small(config.crawl_sites, config.seed))
        });
        let series = tracer.span("webgen.crawl_s", |_| {
            Crawler::new(population).run(config.days)
        });
        let fig3_matches = artifacts
            .iter()
            .find_map(|artifact| artifact.data.as_fig3())
            .is_some_and(|fig3| fig3.series == series);
        fig3_matches && recorded_digest(seed).as_deref() == Some(fnv1a64(text.as_bytes()).as_str())
    })
}
