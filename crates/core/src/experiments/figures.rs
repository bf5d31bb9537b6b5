//! Figure 1–5 and §VIII ablation runners and their result types.

use super::tables::{race_clients, RaceTask};
use super::{ExperimentError, RunConfig, RunCtx, MASTER_HOST};
use crate::cnc::{downstream_goodput_bytes_per_sec, CncServer, Command};
use crate::defense::{ablation_matrix, AblationRow, AttackStage};
use crate::eviction::{junk_origin, EvictionAttack};
use crate::json::{Json, ToJson};
use mp_browser::browser::{Browser, FetchSource};
use mp_browser::profile::BrowserProfile;
use mp_httpsim::body::ResourceKind;
use mp_httpsim::transport::{Internet, StaticOrigin};
use mp_httpsim::url::Url;
use mp_netsim::capture::TraceMode;
use mp_webgen::{scan, Crawler, PersistencySeries, PolicyScan, Population, PopulationConfig};

// ---------------------------------------------------------------------------
// Figures 1, 2 — message flows
// ---------------------------------------------------------------------------

/// A rendered message-flow trace (Figures 1, 2 and 4 are sequence diagrams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowTrace {
    /// Human-readable description of the flow.
    pub title: String,
    /// One line per step.
    pub steps: Vec<String>,
}

impl FlowTrace {
    /// Renders the flow.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.title);
        for (index, step) in self.steps.iter().enumerate() {
            out.push_str(&format!("  {:>2}. {}\n", index + 1, step));
        }
        out
    }
}

impl ToJson for FlowTrace {
    fn to_json(&self) -> Json {
        Json::obj([
            ("title", self.title.to_json()),
            ("steps", self.steps.to_json()),
        ])
    }
}

/// Regenerates the Figure 1 cache-eviction flow from a browser-level run.
pub(super) fn fig1_eviction_flow(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<FlowTrace, ExperimentError> {
    let mut victim_site = StaticOrigin::new("any.com");
    victim_site.put_text("/index.html", ResourceKind::Html, "<html><body>any</body></html>", "no-cache");
    let mut popular = StaticOrigin::new("popular.com");
    popular.put_text("/img.png", ResourceKind::JavaScript, "img", "public, max-age=86400");
    let mut net = Internet::new();
    net.register_origin(victim_site);
    net.register_origin(popular);
    net.register_origin(junk_origin(2_048, 16));

    let profile = BrowserProfile {
        cache_capacity_bytes: 16_000,
        ..BrowserProfile::chrome()
    };
    let mut browser = Browser::new(profile, Box::new(net));

    let mut steps = Vec::new();
    steps.push("victim -> any.com: GET / (legitimate)".to_string());
    browser.visit(&Url::parse("http://any.com/index.html").expect("static url"));
    steps.push(format!(
        "attacker -> victim: injected inline script `{}` [ATTACK]",
        crate::eviction::eviction_inline_script(16)
    ));
    let popular_url = Url::parse("http://popular.com/img.png").expect("static url");
    browser.fetch(&popular_url, "popular.com");
    let attack = EvictionAttack::new(2_048, 16);
    let report = attack.run(&mut browser, std::slice::from_ref(&popular_url));
    for index in 0..report.junk_objects_loaded {
        steps.push(format!("victim -> attacker.com: GET /junk{index:04}.jpg [ATTACK]"));
    }
    let refetch = browser.fetch(&popular_url, "popular.com");
    steps.push(format!(
        "victim -> popular.com: GET /img.png ({}; cache was flushed)",
        match refetch.source {
            FetchSource::Network => "fresh network fetch",
            other => {
                return Ok(FlowTrace { title: "Figure 1".into(), steps: vec![format!("unexpected source {other:?}")] })
            }
        }
    ));
    Ok(FlowTrace {
        title: "Figure 1 - cache eviction message flow".to_string(),
        steps,
    })
}

/// Regenerates the Figure 2 cache-infection flow from a packet-level run:
/// Table II's single-victim race at `config.seed`, recorded with a full trace
/// and read back from it.
pub(super) fn fig2_infection_flow(
    config: &RunConfig,
    ctx: &RunCtx,
) -> Result<FlowTrace, ExperimentError> {
    let shared = ctx.budget_for(config);
    let task = RaceTask::paper(config.seed, TraceMode::Full);
    let trace = race_clients(&task, config.event_budget, shared.as_ref(), &|_| false)?.trace;
    let mut steps: Vec<String> = trace
        .with_payload()
        .map(|event| trace.describe(event))
        .collect();

    // Step 3/4 of the figure: the parasite reloads the original object with a
    // cache-busting query so the page keeps working.
    let target = Url::parse("http://somesite.com/my.js").expect("static url");
    let busted = target.with_query(Some("t=500198"));
    steps.push(format!("victim -> somesite.com: GET {} (parasite reloads original)", busted));
    // Step 5: propagation requests to further popular domains.
    for host in ["top1.com", "top2.com", "top3.com"] {
        steps.push(format!("victim -> {host}: GET /persistent.js (propagation) [ATTACK]"));
    }

    Ok(FlowTrace {
        title: "Figure 2 - cache infection message flow (packet-level race)".to_string(),
        steps,
    })
}

// ---------------------------------------------------------------------------
// Figure 3 — persistency measurement
// ---------------------------------------------------------------------------

/// Result of the Figure 3 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// The measured series.
    pub series: PersistencySeries,
}

impl Fig3Result {
    /// Renders selected points of the curves.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 3 - object persistency over the measurement period\n");
        out.push_str("day | any .js % | name-persistent % | hash-persistent %\n");
        for &day in &[1u32, 5, 10, 25, 50, 75, 100] {
            if let Some(point) = self.series.at(day) {
                out.push_str(&format!(
                    "{:>3} | {:>9.1} | {:>17.1} | {:>17.1}\n",
                    day, point.any_js, point.name_persistent, point.hash_persistent
                ));
            }
        }
        out
    }
}

impl ToJson for PersistencySeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("days", self.days.to_json()),
            ("any_js", self.any_js.to_json()),
            ("name_persistent", self.name_persistent.to_json()),
            ("hash_persistent", self.hash_persistent.to_json()),
        ])
    }
}

impl ToJson for Fig3Result {
    fn to_json(&self) -> Json {
        Json::obj([("series", self.series.to_json())])
    }
}

/// Runs the Figure 3 persistency crawl over a generated population of
/// `config.crawl_sites` sites for `config.days` days.
pub(super) fn fig3_persistency(
    config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Fig3Result, ExperimentError> {
    let population = Population::generate(PopulationConfig::small(config.crawl_sites, config.seed));
    let series = Crawler::new(population).run(config.days);
    Ok(Fig3Result { series })
}

// ---------------------------------------------------------------------------
// Figure 4 — C&C channel
// ---------------------------------------------------------------------------

/// Result of the Figure 4 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// (parallel requests, modelled goodput bytes/s).
    pub goodput_curve: Vec<(u32, f64)>,
    /// Bytes of command data delivered end-to-end in the functional check.
    pub command_bytes_delivered: usize,
    /// Bytes exfiltrated upstream in the functional check.
    pub upstream_bytes_delivered: usize,
}

impl Fig4Result {
    /// Renders the channel characterisation.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 4 - C&C channel characterisation\n");
        out.push_str("parallel image requests | downstream goodput (KB/s)\n");
        for (parallel, goodput) in &self.goodput_curve {
            out.push_str(&format!("{:>23} | {:>10.1}\n", parallel, goodput / 1000.0));
        }
        out.push_str(&format!(
            "functional check: {} command bytes down, {} exfil bytes up\n",
            self.command_bytes_delivered, self.upstream_bytes_delivered
        ));
        out
    }
}

impl ToJson for Fig4Result {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "goodput_curve",
                Json::Arr(
                    self.goodput_curve
                        .iter()
                        .map(|(parallel, goodput)| {
                            Json::obj([
                                ("parallel", parallel.to_json()),
                                ("bytes_per_sec", goodput.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("command_bytes_delivered", self.command_bytes_delivered.to_json()),
            ("upstream_bytes_delivered", self.upstream_bytes_delivered.to_json()),
        ])
    }
}

/// Runs the Figure 4 C&C channel experiment.
pub(super) fn fig4_cnc_channel(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Fig4Result, ExperimentError> {
    let goodput_curve = [1u32, 5, 10, 25, 50]
        .into_iter()
        .map(|parallel| (parallel, downstream_goodput_bytes_per_sec(parallel, 1.0)))
        .collect();

    // Functional end-to-end check: a command travels down the image channel,
    // stolen data travels back up the URL channel.
    let mut server = CncServer::new(MASTER_HOST);
    let command = Command::ExecuteModule("login-data".to_string());
    let command_bytes = command.to_bytes();
    server.queue_command(command);
    let images = server.serve_next_command();
    // The parasite only sees each image's dimensions (SOP hides the rest).
    let dims: Vec<crate::cnc::ImageDimensions> = images
        .iter()
        .filter_map(|r| crate::cnc::parse_svg_dimensions(&r.body.as_text()))
        .collect();
    let decoded = crate::cnc::decode_dimensions(&dims).unwrap_or_default();

    let exfil = b"user=alice&pass=correct-horse&cookie=SID:abc123";
    let url = crate::cnc::encode_upstream(MASTER_HOST, "campaign-0", exfil);
    server.receive_upstream(&url);

    Ok(Fig4Result {
        goodput_curve,
        command_bytes_delivered: if decoded == command_bytes { command_bytes.len() } else { 0 },
        upstream_bytes_delivered: server.exfiltrated().first().map(|r| r.data.len()).unwrap_or(0),
    })
}

// ---------------------------------------------------------------------------
// Figure 5 — CSP / HSTS / TLS measurement
// ---------------------------------------------------------------------------

/// Result of the Figure 5 experiment (plus the in-text adoption numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// The full policy scan.
    pub scan: PolicyScan,
}

impl Fig5Result {
    /// Renders the statistics the paper reports.
    pub fn render(&self) -> String {
        let s = &self.scan;
        format!(
            "Figure 5 / in-text measurements ({} sites)\n\
             HTTP-only sites:            {:>6.2} %  (paper: 21 %)\n\
             vulnerable SSL versions:    {:>6.2} %  (paper: ~7 %)\n\
             responders without HSTS:    {:>6.2} %  (paper: 67.92 %)\n\
             preloaded responders:       {:>6}     (paper: 545 of 13419)\n\
             strippable to HTTP:         {:>6.2} %  (paper: up to 96.59 %)\n\
             pages supplying CSP:        {:>6.2} %  (paper: ~4.7 %)\n\
             pages with CSP rules:       {:>6.2} %  (paper: 4.33 %)\n\
             deprecated CSP headers:     {:>6.2} %  (paper: 15.3 %)\n\
             connect-src uses:           {:>6}     (paper: 160)\n\
             connect-src wildcards:      {:>6}     (paper: 17)\n\
             sites embedding analytics:  {:>6.2} %  (paper: 63 %)\n",
            s.total,
            s.tls.http_only_pct(),
            s.tls.vulnerable_ssl_pct(),
            s.hsts.without_hsts_pct(),
            s.hsts.preloaded,
            s.hsts.strippable_pct(),
            s.csp.supplied_pct(),
            s.csp.with_rules_pct(),
            s.csp.deprecated_pct(),
            s.csp.connect_src_uses,
            s.csp.connect_src_wildcards,
            s.google_analytics_pct(),
        )
    }
}

impl ToJson for PolicyScan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total", self.total.to_json()),
            (
                "tls",
                Json::obj([
                    ("total", self.tls.total.to_json()),
                    ("http_only", self.tls.http_only.to_json()),
                    ("vulnerable_ssl", self.tls.vulnerable_ssl.to_json()),
                    ("transport_injectable", self.tls.transport_injectable.to_json()),
                    ("http_only_pct", self.tls.http_only_pct().to_json()),
                    ("vulnerable_ssl_pct", self.tls.vulnerable_ssl_pct().to_json()),
                ]),
            ),
            (
                "hsts",
                Json::obj([
                    ("responders", self.hsts.responders.to_json()),
                    ("without_hsts", self.hsts.without_hsts.to_json()),
                    ("preloaded", self.hsts.preloaded.to_json()),
                    ("without_hsts_pct", self.hsts.without_hsts_pct().to_json()),
                    ("strippable_pct", self.hsts.strippable_pct().to_json()),
                ]),
            ),
            (
                "csp",
                Json::obj([
                    ("total", self.csp.total.to_json()),
                    ("supplied", self.csp.supplied.to_json()),
                    ("with_rules", self.csp.with_rules.to_json()),
                    ("standard_header", self.csp.standard_header.to_json()),
                    ("x_csp_header", self.csp.x_csp_header.to_json()),
                    ("x_webkit_header", self.csp.x_webkit_header.to_json()),
                    ("connect_src_uses", self.csp.connect_src_uses.to_json()),
                    ("connect_src_wildcards", self.csp.connect_src_wildcards.to_json()),
                    ("supplied_pct", self.csp.supplied_pct().to_json()),
                    ("with_rules_pct", self.csp.with_rules_pct().to_json()),
                    ("deprecated_pct", self.csp.deprecated_pct().to_json()),
                ]),
            ),
            ("google_analytics", self.google_analytics.to_json()),
            ("google_analytics_pct", self.google_analytics_pct().to_json()),
        ])
    }
}

impl ToJson for Fig5Result {
    fn to_json(&self) -> Json {
        Json::obj([("scan", self.scan.to_json())])
    }
}

/// Runs the Figure 5 policy scan over a generated population of
/// `config.sites` sites.
pub(super) fn fig5_csp_stats(
    config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Fig5Result, ExperimentError> {
    let population = Population::generate(PopulationConfig::small(config.sites, config.seed));
    Ok(Fig5Result {
        scan: scan(&population),
    })
}

// ---------------------------------------------------------------------------
// §VIII — defence ablation
// ---------------------------------------------------------------------------

/// Result of the defence ablation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationResult {
    /// One row per defence.
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// Renders the defence / stage matrix.
    pub fn render(&self) -> String {
        let mut out = String::from("Countermeasure ablation (which attack stages still succeed)\n");
        out.push_str(&format!("{:<42}", "defence"));
        for stage in AttackStage::ALL {
            out.push_str(&format!(" | {stage:<26}"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<42}", row.defense.to_string()));
            for stage in AttackStage::ALL {
                let survives = row.surviving_stages.contains(&stage);
                out.push_str(&format!(" | {:<26}", if survives { "survives" } else { "blocked" }));
            }
            out.push('\n');
        }
        out
    }
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("defense", self.defense.to_string().to_json()),
            (
                "surviving_stages",
                Json::Arr(
                    self.surviving_stages
                        .iter()
                        .map(|stage| Json::Str(stage.to_string()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for AblationResult {
    fn to_json(&self) -> Json {
        Json::obj([("rows", self.rows.to_json())])
    }
}

/// Runs the §VIII defence ablation.
pub(super) fn ablation_defenses(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<AblationResult, ExperimentError> {
    Ok(AblationResult {
        rows: ablation_matrix(),
    })
}
