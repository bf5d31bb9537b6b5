//! Table I–V runners and their result types.
//!
//! Each runner takes the uniform [`RunConfig`] and produces a structured
//! result with a paper-shaped `render()` plus a [`ToJson`] conversion; the
//! [`super::Experiment`] impls in the parent module wrap them into
//! [`super::Artifact`]s.

use super::{standard_infector, ExperimentError, RunConfig, RunCtx, MASTER_HOST};
use crate::attacks::{self, AttackReport};
use crate::cnc::CncServer;
use crate::eviction::{junk_origin, EvictionAttack, EvictionReport};
use crate::json::{Json, ToJson};
use crate::master::Master;
use crate::memo::RecentMemo;
use crate::script::Parasite;
use bytes::Bytes;
use mp_apps::banking::BankingApp;
use mp_apps::webmail::WebMailApp;
use mp_browser::browser::{Browser, FetchSource};
use mp_browser::profile::{BrowserProfile, OperatingSystem};
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::transport::{Exchange, Internet, StaticOrigin};
use mp_httpsim::url::{Scheme, Url};
use mp_netsim::capture::{Trace, TraceMode};
use mp_netsim::error::NetError;
use mp_netsim::link::MediumKind;
use mp_netsim::sim::{FixedResponder, SharedBudget, Simulator};
use mp_netsim::time::Duration as SimDuration;
use mp_webcache::{table4_entries, SharedCache};

// ---------------------------------------------------------------------------
// Table I — cache eviction
// ---------------------------------------------------------------------------

/// Result of the Table I experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// One report per evaluated browser.
    pub rows: Vec<EvictionReport>,
}

impl Table1Result {
    /// Renders rows shaped like Table I.
    pub fn render(&self) -> String {
        let mut out = String::from("Table I - cache eviction on popular browsers\n");
        out.push_str("browser                     | eviction | inter-domain | size (MB) | remarks\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:<27} | {:<8} | {:<12} | {:>9.0} | {}\n",
                row.browser,
                if row.evicted_targets { "yes" } else { "no" },
                if row.inter_domain { "yes" } else { "no" },
                row.cache_capacity_bytes as f64 / 1_000_000.0,
                row.remark
            ));
        }
        out
    }
}

impl ToJson for EvictionReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("browser", self.browser.to_json()),
            ("evicted_targets", self.evicted_targets.to_json()),
            ("inter_domain", self.inter_domain.to_json()),
            ("junk_objects_loaded", self.junk_objects_loaded.to_json()),
            ("junk_bytes", self.junk_bytes.to_json()),
            ("memory_pressure", self.memory_pressure.to_json()),
            ("cache_capacity_bytes", self.cache_capacity_bytes.to_json()),
            ("remark", self.remark.to_json()),
        ])
    }
}

impl ToJson for Table1Result {
    fn to_json(&self) -> Json {
        Json::obj([("rows", self.rows.to_json())])
    }
}

/// Runs the cache-eviction attack against every Table I browser profile.
///
/// `config.scale` (at least 1, see [`RunConfig::validate`]) shrinks the cache
/// sizes and junk objects so the experiment runs in milliseconds; the
/// *behaviour* (who evicts, who melts down) is unaffected.
pub(super) fn table1_cache_eviction(
    config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Table1Result, ExperimentError> {
    let rows = BrowserProfile::table1_browsers()
        .into_iter()
        .map(|profile| {
            let original_capacity = profile.cache_capacity_bytes;
            let scaled = BrowserProfile {
                cache_capacity_bytes: (profile.cache_capacity_bytes / config.scale).max(10_000),
                ..profile
            };
            let junk_size = 2_048usize;
            let junk_count = (scaled.cache_capacity_bytes as usize / junk_size) + 8;

            let mut victim_site = StaticOrigin::new("bank.example");
            victim_site.put_text(
                "/app.js",
                ResourceKind::JavaScript,
                "function bank(){}",
                "public, max-age=86400",
            );
            let mut net = Internet::new();
            net.register_origin(victim_site);
            net.register_origin(junk_origin(junk_size, junk_count));

            let mut browser = Browser::new(scaled, Box::new(net));
            let target = Url::parse("http://bank.example/app.js").expect("static url");
            browser.fetch(&target, "bank.example");
            let mut report = EvictionAttack::new(junk_size, junk_count).run(&mut browser, &[target]);
            report.cache_capacity_bytes = original_capacity;
            report
        })
        .collect();
    Ok(Table1Result { rows })
}

// ---------------------------------------------------------------------------
// Table II — TCP injection matrix
// ---------------------------------------------------------------------------

/// One cell of the Table II matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionCell {
    /// Injection succeeded.
    Success,
    /// Injection failed.
    Failure,
    /// The browser does not ship on this OS.
    NotApplicable,
}

impl ToJson for InjectionCell {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                InjectionCell::Success => "success",
                InjectionCell::Failure => "failure",
                InjectionCell::NotApplicable => "n/a",
            }
            .to_string(),
        )
    }
}

/// Result of the Table II experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Result {
    /// Browser column labels.
    pub browsers: Vec<String>,
    /// Matrix rows: OS label plus one cell per browser.
    pub rows: Vec<(String, Vec<InjectionCell>)>,
}

impl Table2Result {
    /// Renders the matrix like Table II.
    pub fn render(&self) -> String {
        let mut out = String::from("Table II - TCP injection evaluation\n");
        out.push_str(&format!("{:<9}", "OS"));
        for browser in &self.browsers {
            out.push_str(&format!(" | {browser:<8}"));
        }
        out.push('\n');
        for (os, cells) in &self.rows {
            out.push_str(&format!("{os:<9}"));
            for cell in cells {
                let symbol = match cell {
                    InjectionCell::Success => "ok",
                    InjectionCell::Failure => "FAIL",
                    InjectionCell::NotApplicable => "n/a",
                };
                out.push_str(&format!(" | {symbol:<8}"));
            }
            out.push('\n');
        }
        out
    }

    /// Returns `true` if no supported combination failed.
    pub fn all_supported_succeed(&self) -> bool {
        self.rows
            .iter()
            .flat_map(|(_, cells)| cells.iter())
            .all(|c| *c != InjectionCell::Failure)
    }
}

impl ToJson for Table2Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("browsers", self.browsers.to_json()),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(os, cells)| {
                            Json::obj([("os", os.to_json()), ("cells", cells.to_json())])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Link/attacker timing for one race world. The paper's Figure 2 numbers are
/// [`RaceTiming::PAPER`]; the heterogeneous campaign draws per-AP variants
/// from seeded distributions (see `ApProfile` in the campaign module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RaceTiming {
    /// Delay between the master's tap seeing the request and forging the
    /// response, in microseconds.
    pub(super) attacker_reaction_us: u64,
    /// One-way latency of the shared-WiFi access medium, in microseconds.
    pub(super) wifi_latency_us: u64,
    /// One-way WAN latency to the genuine server, in microseconds.
    pub(super) server_one_way_us: u64,
}

impl RaceTiming {
    /// The paper's Figure 2 / Table II timing: 0.3 ms attacker reaction, 2 ms
    /// WiFi hop, 40 ms one-way WAN.
    pub(super) const PAPER: RaceTiming = RaceTiming {
        attacker_reaction_us: 300,
        wifi_latency_us: 2_000,
        server_one_way_us: 40_000,
    };
}

/// The paper's race world before any victims are attached: a shared-WiFi
/// access network with the master's tap on it, and the genuine server for
/// `somesite.com/my.js` across the WAN. [`race_clients`] attaches the
/// victims: one for Table II and Figure 2, a whole café for the fleet.
pub(super) struct RaceWorld {
    /// The simulator with media, server, responder and tap wired up.
    pub(super) sim: Simulator,
    /// The shared-WiFi medium victims attach to.
    pub(super) wifi: mp_netsim::link::MediumId,
    /// The genuine server (listening on port 80).
    pub(super) server: mp_netsim::endpoint::HostId,
    /// The wire form of the request for the object the master races for,
    /// encoded once and shared by every victim that sends it.
    pub(super) request: Bytes,
}

/// Builds the race world of `task` (its seed, timing, jitter and trace
/// recorder mode; victims are attached by the caller), with at most
/// `event_budget` simulator events and an optional cross-simulator
/// [`SharedBudget`] every processed event also debits.
pub(super) fn build_race_world(
    task: &RaceTask,
    event_budget: u64,
    shared: Option<&SharedBudget>,
) -> RaceWorld {
    let timing = &task.timing;
    let master = Master::new(MASTER_HOST);
    let target = Url::parse("http://somesite.com/my.js").expect("static url");
    let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
        .with_cache_control("public, max-age=86400");
    let (tap, _stats) = master.packet_tap(
        &[(target.clone(), genuine.clone())],
        SimDuration::from_micros(timing.attacker_reaction_us),
    );

    let mut sim = Simulator::new(task.seed)
        .with_event_budget(event_budget)
        .with_trace_mode(task.trace);
    if let Some(shared) = shared {
        sim.set_shared_budget(shared.clone());
    }
    let wifi = sim.add_medium(MediumKind::SharedWireless, timing.wifi_latency_us);
    if task.jitter_us > 0 {
        sim.set_medium_jitter(wifi, SimDuration::from_micros(task.jitter_us));
    }
    let wan = sim.add_medium(MediumKind::WideArea, timing.server_one_way_us);
    let server = sim.add_host("server", mp_netsim::addr::IpAddr::new(203, 0, 113, 10), wan);
    sim.listen(server, 80);
    sim.set_service(
        server,
        Box::new(FixedResponder::new(genuine.to_wire(), SimDuration::from_micros(500))),
    );
    sim.add_tap(wifi, Box::new(tap));

    RaceWorld {
        sim,
        wifi,
        server,
        request: request_wire(&target),
    }
}

/// The wire form of a GET for `url`, as a shareable buffer for
/// [`Simulator::send_bytes`].
fn request_wire(url: &Url) -> Bytes {
    Bytes::from(Request::get(url.clone()).to_wire())
}

/// Returns `true` if a victim's delivered byte stream carries the parasite:
/// [`Response::frame`] finds the body exactly as [`Response::from_wire`]
/// would (a losing attacker's trailing segments stay cut off), and
/// [`Parasite::is_carried_by`] scans it in place. Agrees with
/// `Response::from_wire` followed by [`Parasite::detect`] on the body text,
/// without copying the stream; a stream that does not parse is clean.
pub(super) fn delivers_parasite(delivered: &[u8]) -> bool {
    Response::frame(delivered).is_ok_and(|frame| Parasite::is_carried_by(frame.body))
}

/// How many distinct delivered streams [`classify_streams`] remembers. One
/// race world delivers about three: the forgery, the genuine reply, and the
/// two spliced together under jitter.
const VERDICT_CACHE: usize = 4;

/// [`delivers_parasite`] of every stream in `streams`, in order, framing and
/// scanning each distinct stream once: the verdicts of the last
/// [`VERDICT_CACHE`] distinct streams are kept, matched by full byte
/// equality, and replaced oldest first. All of a café's victims fetch the
/// same object from one server and one master, so thousands of streams
/// share a handful of byte strings.
fn classify_streams<'a>(streams: impl IntoIterator<Item = &'a [u8]>) -> Vec<bool> {
    let mut cache: RecentMemo<&[u8], bool, VERDICT_CACHE> = RecentMemo::new();
    streams
        .into_iter()
        .map(|stream| cache.get_or_insert_with(stream, delivers_parasite))
        .collect()
}

/// One café's injection race: `clients` victims on the shared WiFi of a
/// [`build_race_world`] under `timing`, the medium jittered by up to
/// `jitter_us` per packet, recorded in `trace` mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RaceTask {
    pub(super) seed: u64,
    pub(super) timing: RaceTiming,
    pub(super) jitter_us: u64,
    pub(super) clients: usize,
    pub(super) trace: TraceMode,
}

impl RaceTask {
    /// The paper's single-victim race of Table II and Figure 2 at `seed`.
    pub(super) fn paper(seed: u64, trace: TraceMode) -> RaceTask {
        RaceTask { seed, timing: RaceTiming::PAPER, jitter_us: 0, clients: 1, trace }
    }
}

/// What a [`race_clients`] run leaves behind: whether each client got the
/// parasite, by client index, plus the simulator's event count and its
/// trace (events retained per the task's mode, counters always).
pub(super) struct RaceOutcome {
    pub(super) wins: Vec<bool>,
    pub(super) events: u64,
    pub(super) trace: Trace,
}

/// Races `task.clients` victims against the master in one simulation:
/// victim `index` connects from `10.(index >> 8).(index & 0xff).2` and asks
/// for the target object, or for one the master has not prepared when
/// `unprepared(index)` says so. Every race runs through here: Table II and
/// Figure 2 (one victim), the campaign fleet, its shard days and the
/// attack-surface grid. The world is sized for its victims before they
/// join: the host slab, the address index and the server's connection slab
/// and demux table each grow once, not one doubling at a time.
///
/// # Errors
///
/// Returns [`NetError::EventBudgetExhausted`] if `event_budget` or the
/// `shared` pool runs out.
pub(super) fn race_clients(
    task: &RaceTask,
    event_budget: u64,
    shared: Option<&SharedBudget>,
    unprepared: &dyn Fn(usize) -> bool,
) -> Result<RaceOutcome, NetError> {
    let RaceWorld {
        mut sim,
        wifi,
        server,
        request,
    } = build_race_world(task, event_budget, shared);

    let other = request_wire(&Url::parse("http://somesite.com/weather.js").expect("static url"));
    sim.reserve_hosts(task.clients);
    sim.host_mut(server).reserve_connections(task.clients);
    let mut connections = Vec::with_capacity(task.clients);
    for index in 0..task.clients {
        let ip = mp_netsim::addr::IpAddr::new(10, (index >> 8) as u8, (index & 0xff) as u8, 2);
        let client = sim.add_host("victim", ip, wifi);
        let conn = sim.connect(client, server, 80)?;
        let wire = if unprepared(index) { &other } else { &request };
        sim.send_bytes(client, conn, wire.clone())?;
        connections.push((client, conn));
    }
    sim.run_until_idle()?;

    let wins =
        classify_streams(connections.iter().map(|&(client, conn)| sim.host(client).received(conn)));
    Ok(RaceOutcome { wins, events: sim.events_processed(), trace: sim.take_trace() })
}

/// Runs the Table II OS × browser injection matrix.
pub(super) fn table2_injection_matrix(
    config: &RunConfig,
    ctx: &RunCtx,
) -> Result<Table2Result, ExperimentError> {
    let shared = ctx.budget_for(config);
    let browsers = BrowserProfile::table2_browsers();
    let browser_names = browsers.iter().map(|b| b.kind.to_string()).collect();
    let mut rows = Vec::new();
    for (os_index, os) in OperatingSystem::ALL.iter().enumerate() {
        let mut cells = Vec::new();
        for (browser_index, browser) in browsers.iter().enumerate() {
            if !browser.runs_on(*os) {
                cells.push(InjectionCell::NotApplicable);
                continue;
            }
            // TCP injection does not depend on the browser or OS (both follow
            // the TCP specification); run the race to confirm it.
            let seed = config.seed.wrapping_add((os_index * 16 + browser_index) as u64 + 1);
            let task = RaceTask::paper(seed, TraceMode::SummaryOnly);
            if race_clients(&task, config.event_budget, shared.as_ref(), &|_| false)?.wins[0] {
                cells.push(InjectionCell::Success);
            } else {
                cells.push(InjectionCell::Failure);
            }
        }
        rows.push((os.to_string(), cells));
    }
    Ok(Table2Result {
        browsers: browser_names,
        rows,
    })
}

// ---------------------------------------------------------------------------
// Table III — refresh methods vs Cache-API parasites
// ---------------------------------------------------------------------------

/// The user actions evaluated in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshMethod {
    /// Ctrl-F5 hard reload.
    HardReload,
    /// Clear the HTTP cache.
    ClearCache,
    /// Clear cookies / site data.
    ClearCookies,
}

impl std::fmt::Display for RefreshMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RefreshMethod::HardReload => "Ctrl+F5",
            RefreshMethod::ClearCache => "clear cache",
            RefreshMethod::ClearCookies => "clear cookies",
        };
        f.write_str(name)
    }
}

/// One cell of Table III: did the refresh method remove the parasite?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalCell {
    /// The parasite was removed.
    Removed,
    /// The parasite survived.
    Survived,
    /// The browser has no Cache API (IE).
    NotApplicable,
}

impl ToJson for RemovalCell {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                RemovalCell::Removed => "removed",
                RemovalCell::Survived => "survived",
                RemovalCell::NotApplicable => "n/a",
            }
            .to_string(),
        )
    }
}

/// Result of the Table III experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Result {
    /// Rows: browser name plus one cell per refresh method
    /// (Ctrl-F5, clear cache, clear cookies).
    pub rows: Vec<(String, Vec<RemovalCell>)>,
}

impl Table3Result {
    /// Renders rows shaped like Table III.
    pub fn render(&self) -> String {
        let mut out = String::from("Table III - refresh methods vs Cache-API parasites\n");
        out.push_str("browser              | Ctrl+F5   | clear cache | clear cookies\n");
        for (browser, cells) in &self.rows {
            let text: Vec<&str> = cells
                .iter()
                .map(|c| match c {
                    RemovalCell::Removed => "removed",
                    RemovalCell::Survived => "stays",
                    RemovalCell::NotApplicable => "n/a",
                })
                .collect();
            out.push_str(&format!(
                "{:<20} | {:<9} | {:<11} | {}\n",
                browser, text[0], text[1], text[2]
            ));
        }
        out
    }
}

impl ToJson for Table3Result {
    fn to_json(&self) -> Json {
        Json::obj([(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|(browser, cells)| {
                        Json::obj([
                            ("browser", browser.to_json()),
                            ("hard_reload", cells[0].to_json()),
                            ("clear_cache", cells[1].to_json()),
                            ("clear_cookies", cells[2].to_json()),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

fn parasite_survives_after(profile: BrowserProfile, method: RefreshMethod) -> RemovalCell {
    if !profile.cache_api_supported {
        return RemovalCell::NotApplicable;
    }
    let infector = standard_infector();
    let target = Url::parse("http://top1.com/persistent.js").expect("static url");

    let mut origin = StaticOrigin::new("top1.com");
    origin.put_text("/persistent.js", ResourceKind::JavaScript, "function lib(){}", "public, max-age=86400");
    let mut browser = Browser::new(profile, Box::new(origin));

    // The parasite stored an infected copy through the Cache API.
    let infected = infector.infect_response(
        &Response::ok(Body::text(ResourceKind::JavaScript, "function lib(){}"))
            .with_cache_control("public, max-age=86400"),
    );
    browser
        .cache_api_mut()
        .put(&target.origin().to_string(), "parasite", &target, infected);

    match method {
        RefreshMethod::HardReload => {
            browser.hard_reload(&target);
        }
        RefreshMethod::ClearCache => {
            browser.clear_http_cache();
        }
        RefreshMethod::ClearCookies => {
            browser.clear_cookies_and_site_data();
        }
    }

    let result = browser.fetch(&target, "top1.com");
    let survives = result.source == FetchSource::CacheApi
        && infector.is_infected(&result.response.body.as_text());
    if survives {
        RemovalCell::Survived
    } else {
        RemovalCell::Removed
    }
}

/// Runs the Table III experiment over the paper's browser set.
pub(super) fn table3_refresh_methods(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Table3Result, ExperimentError> {
    let browsers = vec![
        BrowserProfile::chrome(),
        BrowserProfile::firefox(),
        BrowserProfile::edge(),
        BrowserProfile::opera(),
        BrowserProfile::internet_explorer(),
    ];
    let rows = browsers
        .into_iter()
        .map(|profile| {
            let name = profile.kind.to_string();
            let cells = vec![
                parasite_survives_after(profile.clone(), RefreshMethod::HardReload),
                parasite_survives_after(profile.clone(), RefreshMethod::ClearCache),
                parasite_survives_after(profile, RefreshMethod::ClearCookies),
            ];
            (name, cells)
        })
        .collect();
    Ok(Table3Result { rows })
}

// ---------------------------------------------------------------------------
// Table IV — caches in the wild
// ---------------------------------------------------------------------------

/// One evaluated cache row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table4Row {
    /// Location section.
    pub location: String,
    /// Product class.
    pub class: String,
    /// Instance name.
    pub name: String,
    /// Whether the infection persisted for a second client over HTTP.
    pub infected_over_http: bool,
    /// Whether the infection persisted for a second client over HTTPS
    /// (assuming the deployment makes HTTPS visible to the cache).
    pub infected_over_https: bool,
    /// Comment from the taxonomy.
    pub comment: Option<String>,
}

impl ToJson for Table4Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("location", self.location.to_json()),
            ("class", self.class.to_json()),
            ("name", self.name.to_json()),
            ("infected_over_http", self.infected_over_http.to_json()),
            ("infected_over_https", self.infected_over_https.to_json()),
            ("comment", self.comment.to_json()),
        ])
    }
}

/// Result of the Table IV experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table4Result {
    /// Rows in the paper's order.
    pub rows: Vec<Table4Row>,
}

impl Table4Result {
    /// Renders rows shaped like Table IV.
    pub fn render(&self) -> String {
        let mut out = String::from("Table IV - caches in the wild (infection persists for a second client?)\n");
        out.push_str(&format!("{:<28} {:<26} {:<34} | http | https\n", "location", "type", "instance"));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<28} {:<26} {:<34} | {:<4} | {}\n",
                row.location,
                row.class,
                row.name,
                if row.infected_over_http { "yes" } else { "no" },
                if row.infected_over_https { "yes" } else { "no" }
            ));
        }
        out
    }
}

impl ToJson for Table4Result {
    fn to_json(&self) -> Json {
        Json::obj([("rows", self.rows.to_json())])
    }
}

fn shared_cache_infection(instance: mp_webcache::CacheInstance, https: bool) -> bool {
    let scheme = if https { Scheme::Https } else { Scheme::Http };
    let host = "top1.com";
    let mut origin = StaticOrigin::new(host);
    origin.put_text("/persistent.js", ResourceKind::JavaScript, "function lib(){}", "public, max-age=86400");

    let infector = standard_infector();
    let mut injecting = crate::injection::InjectingExchange::new(origin, infector.clone());
    let target = Url::from_parts(scheme, host, "/persistent.js");
    injecting.add_target(&target);
    if https {
        // The target site's HTTPS deployment is broken enough to inject
        // (otherwise the transport question is moot for every cache class).
        injecting
            .injectability_mut()
            .set(host, mp_httpsim::tls::TlsDeployment::legacy_ssl(mp_httpsim::tls::TlsVersion::Ssl3));
    }

    // The cache sees HTTPS if the deployment includes interception/offload.
    let mut cache = SharedCache::new(instance, injecting, true);

    // Victim A (on the hostile path) pulls the object through the cache.
    let _ = cache.exchange(&Request::get(target.clone()));
    // The attacker goes away; victim B fetches through the same cache.
    cache.upstream_mut().set_active(false);
    let second = cache.exchange(&Request::get(target));
    infector.is_infected(&second.body.as_text())
}

/// Runs the Table IV experiment over every taxonomy row.
pub(super) fn table4_caches(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Table4Result, ExperimentError> {
    let rows = table4_entries()
        .into_iter()
        .map(|instance| {
            // Browser caches are per-client; the "second client" question only
            // applies to shared caches, so browser rows reuse the Table III
            // persistence result (the parasite persists in the client cache).
            let (http, https) = if !instance.shared_between_clients() {
                (instance.http.possible(), instance.https.possible())
            } else {
                (
                    instance.http.possible() && shared_cache_infection(instance.clone(), false),
                    instance.https.possible() && shared_cache_infection(instance.clone(), true),
                )
            };
            Table4Row {
                location: instance.location.to_string(),
                class: instance.class.to_string(),
                name: instance.name.clone(),
                infected_over_http: http,
                infected_over_https: https,
                comment: instance.comment.clone(),
            }
        })
        .collect();
    Ok(Table4Result { rows })
}

// ---------------------------------------------------------------------------
// Table V — application attacks
// ---------------------------------------------------------------------------

/// Result of the Table V experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table5Result {
    /// One report per attack row exercised.
    pub reports: Vec<AttackReport>,
}

impl Table5Result {
    /// Renders rows shaped like Table V.
    pub fn render(&self) -> String {
        let mut out = String::from("Table V - attacks against applications\n");
        out.push_str(&format!("{:<45} {:<16} {:<10} {}\n", "attack", "property", "succeeded", "target"));
        for report in &self.reports {
            let property = match report.property {
                attacks::SecurityProperty::Confidentiality => "C",
                attacks::SecurityProperty::Integrity => "I",
                attacks::SecurityProperty::Availability => "A",
            };
            out.push_str(&format!(
                "{:<45} {:<16} {:<10} {}\n",
                report.name,
                property,
                if report.succeeded { "yes" } else { "no" },
                report.target
            ));
        }
        out
    }

    /// Number of successful attacks.
    pub fn successes(&self) -> usize {
        self.reports.iter().filter(|r| r.succeeded).count()
    }
}

impl ToJson for AttackReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            (
                "property",
                Json::Str(
                    match self.property {
                        attacks::SecurityProperty::Confidentiality => "confidentiality",
                        attacks::SecurityProperty::Integrity => "integrity",
                        attacks::SecurityProperty::Availability => "availability",
                    }
                    .to_string(),
                ),
            ),
            ("target", self.target.to_json()),
            ("succeeded", self.succeeded.to_json()),
            ("requirements_met", self.requirements_met.to_json()),
            ("evidence", self.evidence.to_json()),
        ])
    }
}

impl ToJson for Table5Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("reports", self.reports.to_json()),
            ("successes", self.successes().to_json()),
        ])
    }
}

/// Runs every Table V attack module against the simulated applications.
pub(super) fn table5_attacks(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Table5Result, ExperimentError> {
    let mut reports = Vec::new();
    let mut cnc = CncServer::new(MASTER_HOST);

    // --- Steal login data + fake login overlay (banking).
    let mut bank = BankingApp::default();
    let (mut login_dom, login_form) = bank.login_dom();
    let user = login_dom.by_name("username").expect("login form").id;
    let pass = login_dom.by_name("password").expect("login form").id;
    login_dom.set_attr(user, "value", "alice");
    login_dom.set_attr(pass, "value", "correct-horse");
    let submission = login_dom.submit_form(login_form).expect("form exists");
    let session = bank.login(&submission).expect("credentials are valid");
    reports.push(attacks::steal_login_data(&login_dom, &mut cnc, "campaign-0"));
    let mut overlay_dom = login_dom.clone();
    reports.push(attacks::fake_login_overlay(&mut overlay_dom));

    // --- Browser data.
    let mut browser = Browser::new(BrowserProfile::chrome(), Box::new(Internet::new()));
    let bank_page = Url::parse("https://bank.example/account").expect("static url");
    browser.cookies_mut().set_from_header("session=bank-cookie", &bank_page, 0);
    browser
        .storage_mut()
        .set_item(&bank_page.origin().to_string(), "last_login", "2021-05-17");
    reports.push(attacks::read_browser_data(&browser, &bank_page, &mut cnc, "campaign-0"));

    // --- Personal browser data (domain already has microphone permission).
    reports.push(attacks::capture_personal_data(true, &bank_page));

    // --- Website data (webmail inbox) + phishing.
    let mut mail = WebMailApp::default();
    let (mut mail_dom, mail_form) = mail.login_dom();
    let email = mail_dom.by_name("email").expect("login form").id;
    let password = mail_dom.by_name("password").expect("login form").id;
    mail_dom.set_attr(email, "value", "alice@mail.example");
    mail_dom.set_attr(password, "value", "mail-pass-123");
    let mail_session = mail.login(&mail_dom.submit_form(mail_form).expect("form")).expect("valid");
    let inbox = mail.inbox_dom(&mail_session).expect("session valid");
    reports.push(attacks::read_website_data(&inbox, &mut cnc, "campaign-0"));
    reports.push(attacks::cross_tab_side_channel(&mut cnc, "campaign-0", b"tab-sync"));
    reports.push(attacks::send_phishing_via_webmail(&mut mail, &mail_session, true));

    // --- 2FA bypass / transaction manipulation.
    reports.push(attacks::manipulate_bank_transfer(
        &mut bank,
        &session,
        "FR76 3000 6000 0112 3456 7890 189",
        "GB29 ATTACKER 0000 0000 0000 00",
        "480.00",
    ));

    // --- Resource theft, clickjacking, ad injection, DDoS.
    reports.push(attacks::steal_computation(10_000));
    let mut page_dom = mp_browser::dom::Dom::new(Url::parse("http://news.example/").expect("static url"));
    reports.push(attacks::clickjacking(&mut page_dom, "news.example"));
    reports.push(attacks::ad_injection(&mut page_dom, 4));
    reports.push(attacks::browser_ddos(250, 40, "victim-service.example"));

    // --- OS-level exploits (delivered by the parasite, platform dependent).
    reports.push(attacks::low_level_exploit("JS CPU Cache & Spectre", true));
    reports.push(attacks::low_level_exploit("Rowhammer", true));
    reports.push(attacks::low_level_exploit("0-day on Demand", true));

    // --- Victim network.
    reports.push(attacks::internal_network_recon(&[
        ("192.168.0.1 (router, default credentials)", true),
        ("192.168.0.23 (ip camera)", true),
        ("192.168.0.99 (printer)", false),
    ]));
    reports.push(attacks::browser_ddos(250, 40, "192.168.0.1"));

    Ok(Table5Result { reports })
}

#[cfg(test)]
mod classify_props {
    //! Property coverage: the in-place classifier agrees with the full HTTP
    //! path. On arbitrary bytes and on mutated streams that real races deliver
    //! (truncated, with duplicate or garbled `Content-Length`, with non-UTF-8
    //! bytes in the head or the body, with an unterminated payload field),
    //! `delivers_parasite` must equal `Response::from_wire` followed by
    //! `Parasite::detect` on the body text, and `Parasite::is_carried_by` must
    //! equal `Parasite::detect` on the lossy text.

    use super::{
        build_race_world, classify_streams, delivers_parasite, request_wire, RaceTask, RaceTiming,
        RaceWorld, VERDICT_CACHE,
    };
    use crate::script::{Parasite, PARASITE_MARKER};
    use mp_httpsim::message::Response;
    use mp_httpsim::url::Url;
    use mp_netsim::addr::IpAddr;
    use mp_netsim::capture::TraceMode;
    use mp_netsim::sim::DEFAULT_EVENT_BUDGET;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn oracle(delivered: &[u8]) -> bool {
        Response::from_wire(delivered)
            .ok()
            .map(|r| Parasite::detect(&r.body.as_text()).is_some())
            .unwrap_or(false)
    }

    fn scan_oracle(body: &[u8]) -> bool {
        Parasite::detect(&String::from_utf8_lossy(body)).is_some()
    }

    /// Streams delivered by real races: a won race (the forged response), a
    /// lost one (the genuine response with the master's late segments trailing
    /// it) and an unprepared request (the genuine response alone).
    fn delivered_streams() -> &'static [Vec<u8>; 3] {
        static STREAMS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
        STREAMS.get_or_init(|| {
            let race = |timing: RaceTiming, url: Option<&str>| {
                let task = RaceTask { timing, ..RaceTask::paper(7, TraceMode::SummaryOnly) };
                let RaceWorld { mut sim, wifi, server, request } =
                    build_race_world(&task, DEFAULT_EVENT_BUDGET, None);
                let wire =
                    url.map(|url| request_wire(&Url::parse(url).unwrap())).unwrap_or(request);
                let victim = sim.add_host("victim", IpAddr::new(10, 0, 0, 2), wifi);
                let conn = sim.connect(victim, server, 80).unwrap();
                sim.send_bytes(victim, conn, wire).unwrap();
                sim.run_until_idle().unwrap();
                sim.host(victim).received(conn).to_vec()
            };
            let slow_master = RaceTiming {
                attacker_reaction_us: 30_000,
                server_one_way_us: 5_000,
                ..RaceTiming::PAPER
            };
            [
                race(RaceTiming::PAPER, None),
                race(slow_master, None),
                race(RaceTiming::PAPER, Some("http://somesite.com/weather.js")),
            ]
        })
    }

    #[test]
    fn real_streams_cover_a_win_a_trailing_loss_and_a_passthrough() {
        let [won, lost, passthrough] = delivered_streams();
        assert!(delivers_parasite(won) && oracle(won));
        assert!(!delivers_parasite(lost) && !oracle(lost));
        assert!(!delivers_parasite(passthrough) && !oracle(passthrough));
        // The lost race's stream carries the forged payload after the genuine
        // body: only Content-Length framing keeps it clean.
        assert!(Parasite::is_carried_by(lost));
        assert!(Response::from_wire(lost).unwrap().body.len() < lost.len() / 2);
    }

    #[test]
    fn the_verdict_cache_agrees_with_the_classifier_on_every_stream() {
        let [won, lost, passthrough] = delivered_streams();
        // The won stream with one marker byte changed: same length, clean.
        let mut defused = won.clone();
        let marker = PARASITE_MARKER.as_bytes();
        let at = won.windows(marker.len()).position(|w| w == marker).expect("marker");
        defused[at] ^= 0x20;
        assert_eq!(defused.len(), won.len());
        assert!(delivers_parasite(won) && !delivers_parasite(&defused));
        let distinct: Vec<&[u8]> = vec![
            won,
            &defused,
            lost,
            passthrough,
            &[],
            &won[..won.len() / 2],
            &lost[..lost.len() - 1],
        ];
        assert!(distinct.len() > VERDICT_CACHE);
        // Every stream again, as an equal copy in its own buffer, then the
        // ones evicted longest ago interleaved with the latest.
        let copies: Vec<Vec<u8>> = distinct.iter().map(|stream| stream.to_vec()).collect();
        let mut streams = distinct.clone();
        streams.extend(copies.iter().map(Vec::as_slice));
        streams.extend([0, 6, 1, 5, 2, 4, 3, 0, 0, 1, 4, 4].map(|index| distinct[index]));
        let expected: Vec<bool> = streams.iter().map(|stream| delivers_parasite(stream)).collect();
        assert_eq!(classify_streams(streams.iter().copied()), expected);
        assert_eq!(classify_streams(std::iter::empty()), Vec::<bool>::new());
    }

    /// Byte offset of the blank line that ends the head.
    fn head_end(stream: &[u8]) -> usize {
        stream.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(stream.len())
    }

    proptest! {
        #[test]
        fn classifiers_agree_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(delivers_parasite(&bytes), oracle(&bytes));
            prop_assert_eq!(Parasite::is_carried_by(&bytes), scan_oracle(&bytes));
        }

        #[test]
        fn classifiers_agree_on_arbitrary_bodies_behind_a_valid_head(
            body in vec(any::<u8>(), 0..256),
            marker_at in any::<usize>(),
        ) {
            // Splice the marker and the field prefixes into the noise so the
            // scan gets past its first needle.
            let mut body = body;
            let at = marker_at % (body.len() + 1);
            let fields = format!("{PARASITE_MARKER}__mp_cnc='a'__mp_campaign='b'__mp_modules=");
            body.splice(at..at, fields.bytes());
            let mut stream =
                b"HTTP/1.1 200 OK\r\nContent-Type: application/javascript\r\n\r\n".to_vec();
            stream.extend_from_slice(&body);
            prop_assert_eq!(delivers_parasite(&stream), oracle(&stream));
            prop_assert_eq!(Parasite::is_carried_by(&body), scan_oracle(&body));
        }

        #[test]
        fn classifiers_agree_on_truncated_streams(which in 0..3usize, cut in any::<usize>()) {
            let stream = &delivered_streams()[which];
            let truncated = &stream[..cut % (stream.len() + 1)];
            prop_assert_eq!(delivers_parasite(truncated), oracle(truncated));
            prop_assert_eq!(Parasite::is_carried_by(truncated), scan_oracle(truncated));
        }

        #[test]
        fn classifiers_agree_under_duplicate_or_garbled_content_length(
            which in 0..3usize,
            value in "\\+?[0-9]{1,4}|-[0-9]{1,2}|[0-9]{1,3}[a-z ]{1,2}|99999999999999999999999|",
            duplicate in any::<bool>(),
            first in any::<bool>(),
        ) {
            let stream = &delivered_streams()[which];
            let text = String::from_utf8_lossy(stream).into_owned();
            let line = format!("Content-Length: {value}\r\n");
            let mutated = if duplicate {
                // An extra header, before or after the genuine one.
                let at = if first { text.find("\r\n").unwrap() + 2 } else { head_end(stream) + 2 };
                format!("{}{line}{}", &text[..at], &text[at..])
            } else {
                // The genuine header's value replaced in place.
                let start = text.find("Content-Length: ").unwrap();
                let end = start + text[start..].find("\r\n").unwrap() + 2;
                format!("{}{line}{}", &text[..start], &text[end..])
            };
            let mutated = mutated.into_bytes();
            prop_assert_eq!(delivers_parasite(&mutated), oracle(&mutated));
            prop_assert_eq!(Parasite::is_carried_by(&mutated), scan_oracle(&mutated));
        }

        #[test]
        fn classifiers_agree_with_non_utf8_bytes_in_the_head_and_the_body(
            which in 0..3usize,
            junk in vec(0x80u8..=0xff, 1..4),
            at in any::<usize>(),
            in_head in any::<bool>(),
        ) {
            let stream = &delivered_streams()[which];
            let head = head_end(stream);
            let at = if in_head {
                at % (head + 1)
            } else {
                head + 4 + at % (stream.len() - head - 3)
            };
            let mut mutated = stream.clone();
            mutated.splice(at..at, junk);
            prop_assert_eq!(delivers_parasite(&mutated), oracle(&mutated));
            prop_assert_eq!(Parasite::is_carried_by(&mutated), scan_oracle(&mutated));
        }

        #[test]
        fn classifiers_agree_when_a_payload_field_is_unterminated(
            which in 0..2usize,
            field in 0..3usize,
        ) {
            let stream = &delivered_streams()[which];
            let prefix = ["__mp_cnc='", "__mp_campaign='", "__mp_modules='"][field].as_bytes();
            let mut mutated = stream.clone();
            // Drop every quote after the field's prefix: the field never closes.
            let from =
                mutated.windows(prefix.len()).position(|w| w == prefix).unwrap() + prefix.len();
            let tail: Vec<u8> =
                mutated.split_off(from).into_iter().filter(|&b| b != b'\'').collect();
            mutated.extend(tail);
            prop_assert!(!Parasite::is_carried_by(&mutated));
            prop_assert_eq!(delivers_parasite(&mutated), oracle(&mutated));
            prop_assert_eq!(Parasite::is_carried_by(&mutated), scan_oracle(&mutated));
        }
    }
}
