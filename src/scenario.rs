//! Scenario composition: build a runnable attack world in a few lines.
//!
//! Every example and ad-hoc experiment used to hand-wire its own
//! [`Internet`], [`StaticOrigin`]s and [`Master`]; [`ScenarioBuilder`]
//! replaces that plumbing. A builder collects origins, victim applications, a
//! browser profile and the master's campaign (targets, blanket infection,
//! weak-TLS hosts), and [`ScenarioBuilder::build`] assembles a [`Scenario`]:
//! a victim [`Browser`] wired through the master's injecting exchange (or a
//! clean network when no master is configured), plus helpers to rebuild the
//! clean network — so "the victim goes home" is one call.
//!
//! ```rust
//! use master_parasite::scenario::ScenarioBuilder;
//!
//! let mut scenario = ScenarioBuilder::new()
//!     .script("somesite.com", "/my.js", "function genuine(){}", "public, max-age=604800")
//!     .master("master.attacker.example")
//!     .target("http://somesite.com/my.js")
//!     .build();
//! let url = master_parasite::httpsim::url::Url::parse("http://somesite.com/my.js").unwrap();
//! scenario.browser.fetch(&url, "somesite.com");
//! scenario.go_home(); // same sites, clean path — the cache keeps the parasite
//! ```

use mp_browser::browser::Browser;
use mp_browser::profile::BrowserProfile;
use mp_httpsim::body::ResourceKind;
use mp_httpsim::tls::{TlsDeployment, TlsVersion};
use mp_httpsim::transport::{Exchange, Internet, StaticOrigin};
use mp_httpsim::url::Url;
use parasite::cnc::CncServer;
use parasite::eviction::junk_origin;
use parasite::infect::Infector;
use parasite::master::Master;

type AppFactory = Box<dyn Fn() -> Box<dyn Exchange>>;

/// Composes origins, applications, a browser profile and a [`Master`] into a
/// runnable [`Scenario`].
#[derive(Default)]
pub struct ScenarioBuilder {
    profile: Option<BrowserProfile>,
    origins: Vec<StaticOrigin>,
    apps: Vec<(String, AppFactory)>,
    junk: Option<(usize, usize)>,
    master_host: Option<String>,
    targets: Vec<Url>,
    infect_all: bool,
    weak_tls: Vec<String>,
}

impl ScenarioBuilder {
    /// Starts an empty scenario (Chrome profile, no sites, no master).
    pub fn new() -> Self {
        ScenarioBuilder::default()
    }

    /// Uses the given browser profile for the victim (default: Chrome).
    #[must_use]
    pub fn browser(mut self, profile: BrowserProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Registers a pre-built static origin.
    #[must_use]
    pub fn origin(mut self, origin: StaticOrigin) -> Self {
        self.origins.push(origin);
        self
    }

    /// Adds an HTML page under `host` + `path` (creating the origin on first
    /// use).
    #[must_use]
    pub fn page(self, host: &str, path: &str, html: &str, cache_control: &str) -> Self {
        self.resource(host, path, ResourceKind::Html, html, cache_control)
    }

    /// Adds a JavaScript object under `host` + `path` (creating the origin on
    /// first use).
    #[must_use]
    pub fn script(self, host: &str, path: &str, source: &str, cache_control: &str) -> Self {
        self.resource(host, path, ResourceKind::JavaScript, source, cache_control)
    }

    /// Adds an arbitrary resource under `host` + `path`.
    #[must_use]
    pub fn resource(
        mut self,
        host: &str,
        path: &str,
        kind: ResourceKind,
        body: &str,
        cache_control: &str,
    ) -> Self {
        if let Some(origin) = self.origins.iter_mut().find(|o| o.host() == host) {
            origin.put_text(path, kind, body, cache_control);
        } else {
            let mut origin = StaticOrigin::new(host);
            origin.put_text(path, kind, body, cache_control);
            self.origins.push(origin);
        }
        self
    }

    /// Registers a victim application under `host`. The factory is invoked
    /// once per network build, so the hostile path and the clean path serve
    /// independent instances.
    #[must_use]
    pub fn app<F>(mut self, host: &str, factory: F) -> Self
    where
        F: Fn() -> Box<dyn Exchange> + 'static,
    {
        self.apps.push((host.to_string(), Box::new(factory)));
        self
    }

    /// Registers the attacker's junk origin used by cache-eviction scenarios:
    /// `count` objects of `size` bytes each.
    #[must_use]
    pub fn junk(mut self, size: usize, count: usize) -> Self {
        self.junk = Some((size, count));
        self
    }

    /// Puts a master (on-path attacker + C&C) at `host`. The victim's browser
    /// is wired through the master's injecting exchange.
    #[must_use]
    pub fn master(mut self, host: &str) -> Self {
        self.master_host = Some(host.to_string());
        self
    }

    /// Marks `url` as a target object the master races and infects.
    ///
    /// # Panics
    ///
    /// Panics if `url` does not parse (targets are static strings in
    /// scenarios).
    #[must_use]
    pub fn target(mut self, url: &str) -> Self {
        self.targets.push(Url::parse(url).expect("scenario target URL must parse"));
        self
    }

    /// Makes the master infect every JavaScript response it can inject into,
    /// not just the registered targets.
    #[must_use]
    pub fn infect_all(mut self) -> Self {
        self.infect_all = true;
        self
    }

    /// Declares `host`'s HTTPS deployment broken (legacy SSL 3), so the
    /// on-path master can inject into it despite the scheme.
    #[must_use]
    pub fn weak_tls(mut self, host: &str) -> Self {
        self.weak_tls.push(host.to_string());
        self
    }

    /// Builds the world and returns the runnable scenario.
    pub fn build(self) -> Scenario {
        let master = self.master_host.as_deref().map(|host| {
            let mut master = Master::new(host);
            for target in &self.targets {
                master.add_target(target.clone());
            }
            master
        });
        let browser = self.victim_browser(master.as_ref());
        Scenario {
            master,
            browser,
            builder: self,
        }
    }

    /// Wires the victim browser through the (hostile, when a master is
    /// configured) network path.
    fn victim_browser(&self, master: Option<&Master>) -> Browser {
        let profile = self.profile.clone().unwrap_or_else(BrowserProfile::chrome);
        match master {
            Some(master) => {
                let mut hostile = master.injecting_exchange(self.internet());
                hostile.infect_all(self.infect_all);
                for host in &self.weak_tls {
                    hostile
                        .injectability_mut()
                        .set(host, TlsDeployment::legacy_ssl(TlsVersion::Ssl3));
                }
                Browser::new(profile, Box::new(hostile))
            }
            None => Browser::new(profile, Box::new(self.internet())),
        }
    }

    fn internet(&self) -> Internet {
        let mut net = Internet::new();
        for origin in &self.origins {
            net.register_origin(origin.clone());
        }
        for (host, factory) in &self.apps {
            net.register(host.clone(), factory());
        }
        if let Some((size, count)) = self.junk {
            net.register_origin(junk_origin(size, count));
        }
        net
    }
}

impl std::fmt::Debug for ScenarioBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBuilder")
            .field("origins", &self.origins.len())
            .field("apps", &self.apps.iter().map(|(host, _)| host).collect::<Vec<_>>())
            .field("master_host", &self.master_host)
            .field("targets", &self.targets)
            .field("infect_all", &self.infect_all)
            .field("weak_tls", &self.weak_tls)
            .finish()
    }
}

/// A built attack world: the victim browser (wired through the master's
/// injecting exchange when one is configured) plus the recipe to rebuild the
/// clean network.
pub struct Scenario {
    /// The master attacker, if the scenario has one.
    pub master: Option<Master>,
    /// The victim browser.
    pub browser: Browser,
    builder: ScenarioBuilder,
}

impl Scenario {
    /// The infector of the scenario's master ( `None` without a master).
    pub fn infector(&self) -> Option<Infector> {
        self.master.as_ref().map(Master::infector)
    }

    /// A fresh C&C server at the master's host (`None` without a master).
    pub fn cnc(&self) -> Option<CncServer> {
        self.builder
            .master_host
            .as_deref()
            .map(CncServer::new)
    }

    /// Rebuilds the scenario's network without the attacker on the path.
    pub fn clean_internet(&self) -> Internet {
        self.builder.internet()
    }

    /// Moves the victim to a clean network (same sites, no attacker): the
    /// parasite now only survives through the caches.
    pub fn go_home(&mut self) {
        let clean = self.clean_internet();
        self.browser.change_network(Box::new(clean));
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("has_master", &self.master.is_some())
            .field("builder", &self.builder)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infected_scenario() -> Scenario {
        ScenarioBuilder::new()
            .page(
                "somesite.com",
                "/index.html",
                r#"<html><head><script src="/my.js"></script></head><body>news</body></html>"#,
                "no-cache",
            )
            .script("somesite.com", "/my.js", "function genuine(){}", "public, max-age=604800")
            .master("master.attacker.example")
            .target("http://somesite.com/my.js")
            .build()
    }

    #[test]
    fn infection_happens_on_the_hostile_path_and_survives_going_home() {
        let mut scenario = infected_scenario();
        let infector = scenario.infector().expect("scenario has a master");
        let page = Url::parse("http://somesite.com/index.html").unwrap();

        let load = scenario.browser.visit(&page);
        assert!(load.page.scripts.iter().any(|s| infector.is_infected(&s.body)));

        scenario.go_home();
        let load = scenario.browser.visit(&page);
        let script = load.page.scripts.iter().find(|s| infector.is_infected(&s.body));
        assert!(script.is_some(), "the cached parasite survives the clean network");
        assert!(script.unwrap().from_cache);
    }

    #[test]
    fn masterless_scenario_serves_clean_content() {
        let mut scenario = ScenarioBuilder::new()
            .script("somesite.com", "/my.js", "function genuine(){}", "public, max-age=604800")
            .build();
        assert!(scenario.master.is_none());
        assert!(scenario.infector().is_none());
        assert!(scenario.cnc().is_none());
        let url = Url::parse("http://somesite.com/my.js").unwrap();
        let result = scenario.browser.fetch(&url, "somesite.com");
        assert_eq!(result.response.body.as_text(), "function genuine(){}");
    }

    #[test]
    fn apps_get_fresh_instances_per_network_build() {
        let scenario = ScenarioBuilder::new()
            .app("bank.example", || Box::new(mp_apps::banking::BankingApp::default()))
            .weak_tls("bank.example")
            .master("master.attacker.example")
            .build();
        // Both the hostile path (inside the browser) and the clean rebuild
        // see the registered app host.
        assert!(scenario.clean_internet().knows("bank.example"));
        assert!(scenario.cnc().is_some());
    }
}
