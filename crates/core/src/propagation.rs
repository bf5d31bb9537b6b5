//! Parasite propagation (paper §VI-B).
//!
//! Once one object in the victim's cache carries a parasite, the infection
//! spreads:
//!
//! * **Shared files** — infecting a script that many sites embed (the paper
//!   measures the shared analytics script at 63 % of the 1M-top sites) makes
//!   the parasite execute on every site that includes it.
//! * **Iframes** — the parasite inserts iframes for target domains into the
//!   DOM; the browser then fetches those domains' subresources, each of which
//!   gets infected in turn while the victim is still on the hostile network.
//! * **Shared network caches** — any cache between attacker and victim stores
//!   the infected object and hands it to *other* clients (§VI-B2, Table IV);
//!   this is how the parasite crosses device boundaries.

use crate::infect::Infector;
use crate::injection::InjectingExchange;
use mp_browser::browser::Browser;
use mp_browser::dom::Dom;
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::Url;

/// Which domains ended up executing the parasite after a propagation step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropagationReport {
    /// Domains whose cached objects now carry the parasite.
    pub infected_domains: Vec<String>,
    /// Domains that were targeted but stayed clean.
    pub clean_domains: Vec<String>,
}

impl PropagationReport {
    /// Returns `true` if `host` got infected.
    pub fn is_infected(&self, host: &str) -> bool {
        self.infected_domains.iter().any(|d| d == host)
    }

    /// Number of infected domains.
    pub fn infected_count(&self) -> usize {
        self.infected_domains.len()
    }
}

/// Propagation via iframes: the parasite inserts one iframe per target domain
/// into the page it controls, and the browser's subresource loading does the
/// rest (the injecting path infects every script those domains serve).
pub fn propagate_via_iframes(
    browser: &mut Browser,
    carrier_dom: &mut Dom,
    targets: &[Url],
    infector: &Infector,
) -> PropagationReport {
    let mut report = PropagationReport::default();
    for target in targets {
        // The parasite inserts the iframe element (attributable in the DOM)...
        carrier_dom.add_script_element("iframe", &[("src", &target.to_string())], "");
        // ...and the browser loads the framed document plus its subresources.
        let load = browser.visit(target);
        let infected = load
            .page
            .scripts
            .iter()
            .any(|s| infector.is_infected(&s.body));
        if infected {
            report.infected_domains.push(target.host.clone());
        } else {
            report.clean_domains.push(target.host.clone());
        }
    }
    report
}

/// Propagation via a shared file: if the shared script (e.g. the analytics
/// library) is infected once, every site embedding it executes the parasite.
/// Returns the hosts (from `sites`) on which the parasite executes.
pub fn propagate_via_shared_file(
    browser: &mut Browser,
    shared_script: &Url,
    sites: &[Url],
    infector: &Infector,
) -> PropagationReport {
    let mut report = PropagationReport::default();
    for site in sites {
        let load = browser.visit(site);
        let runs_parasite = load.page.scripts.iter().any(|s| {
            s.url.as_ref().map(|u| u.host == shared_script.host).unwrap_or(false)
                && infector.is_infected(&s.body)
        });
        if runs_parasite {
            report.infected_domains.push(site.host.clone());
        } else {
            report.clean_domains.push(site.host.clone());
        }
    }
    report
}

/// Propagation across devices through a shared network cache: victim A pulls
/// the infected object through the cache, then victim B — who never saw the
/// attacker — receives the poisoned copy from the cache.
///
/// Returns `true` if the second victim's browser ended up executing the
/// parasite.
pub fn propagate_via_shared_cache<U: Exchange + 'static>(
    shared_cache: mp_webcache::SharedCache<InjectingExchange<U>>,
    victim_a_profile: mp_browser::profile::BrowserProfile,
    victim_b_profile: mp_browser::profile::BrowserProfile,
    page: &Url,
    infector: &Infector,
) -> (bool, bool) {
    use std::sync::{Arc, Mutex};

    // Both victims share the same cache instance; an Arc<Mutex<_>> transport
    // adapter lets two browsers take turns on it.
    struct SharedHandle<C>(Arc<Mutex<C>>);
    impl<C: Exchange> Exchange for SharedHandle<C> {
        fn exchange(&mut self, request: &mp_httpsim::message::Request) -> mp_httpsim::message::Response {
            self.0.lock().unwrap().exchange(request)
        }
    }

    let cache = Arc::new(Mutex::new(shared_cache));

    let mut victim_a = Browser::new(victim_a_profile, Box::new(SharedHandle(Arc::clone(&cache))));
    let load_a = victim_a.visit(page);
    let a_infected = load_a.page.scripts.iter().any(|s| infector.is_infected(&s.body));

    // The attacker leaves the path: deactivate the injection layer. Whatever
    // reaches victim B now can only come from the shared cache or the origin.
    // (The injecting exchange sits *behind* the cache, so flipping it off
    // models the attacker disappearing while the poisoned entry remains.)
    cache.lock().unwrap().upstream_mut().set_active(false);
    // Victim B now browses through the same cache.
    let mut victim_b = Browser::new(victim_b_profile, Box::new(SharedHandle(Arc::clone(&cache))));
    let load_b = victim_b.visit(page);
    let b_infected = load_b.page.scripts.iter().any(|s| infector.is_infected(&s.body));

    (a_infected, b_infected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Parasite;
    use mp_browser::profile::BrowserProfile;
    use mp_httpsim::body::ResourceKind;
    use mp_httpsim::transport::{Internet, StaticOrigin};
    use mp_webcache::{table4_entries, SharedCache};

    /// The propagation targets of the paper's demo: popular domains the
    /// victim has *not* visited during the attack, loaded via iframes.
    fn default_iframe_targets() -> Vec<Url> {
        ["http://bank.example/", "http://mail.example/", "http://social.example/"]
            .map(|target| Url::parse(target).unwrap())
            .to_vec()
    }

    fn site(host: &str, extra_script: Option<&str>) -> StaticOrigin {
        let mut origin = StaticOrigin::new(host);
        let mut head = String::from(r#"<script src="/app.js"></script>"#);
        if let Some(shared) = extra_script {
            head.push_str(&format!(r#"<script src="{shared}"></script>"#));
        }
        let html = format!("<html><head>{head}</head><body>{host}</body></html>");
        origin.put_text("/index.html", ResourceKind::Html, &html, "no-cache");
        origin.put_text("/", ResourceKind::Html, &html, "no-cache");
        origin.put_text("/app.js", ResourceKind::JavaScript, &format!("function app_{}(){{}}", host.len()), "public, max-age=86400");
        origin
    }

    fn analytics_origin() -> StaticOrigin {
        let mut origin = StaticOrigin::new("analytics.shared-metrics.example");
        origin.put_text("/ga.js", ResourceKind::JavaScript, "function ga(){}", "public, max-age=604800");
        origin
    }

    fn internet() -> Internet {
        let mut net = Internet::new();
        net.register_origin(site("news.example", Some("http://analytics.shared-metrics.example/ga.js")));
        net.register_origin(site("shop.example", Some("http://analytics.shared-metrics.example/ga.js")));
        net.register_origin(site("bank.example", None));
        net.register_origin(site("mail.example", None));
        net.register_origin(site("social.example", None));
        net.register_origin(analytics_origin());
        net
    }

    fn infector() -> Infector {
        Infector::new(Parasite::standard("master.attacker.example"))
    }

    #[test]
    fn iframe_propagation_infects_unvisited_domains() {
        let mut injecting = InjectingExchange::new(internet(), infector());
        injecting.infect_all(true);
        let mut browser = Browser::new(BrowserProfile::chrome(), Box::new(injecting));

        // The victim only visits the news site...
        let carrier = Url::parse("http://news.example/index.html").unwrap();
        let load = browser.visit(&carrier);
        assert!(load.page.scripts.iter().any(|s| infector().is_infected(&s.body)));

        // ...and the parasite iframes banking and mail into the page.
        let mut dom = Dom::new(carrier);
        let report = propagate_via_iframes(
            &mut browser,
            &mut dom,
            &default_iframe_targets(),
            &infector(),
        );
        assert!(report.is_infected("bank.example"));
        assert!(report.is_infected("mail.example"));
        assert!(report.is_infected("social.example"));
        assert_eq!(report.infected_count(), 3);
        assert_eq!(dom.script_inserted().len(), 3);
    }

    #[test]
    fn shared_file_propagation_reaches_every_embedding_site() {
        let infector = infector();
        let mut injecting = InjectingExchange::new(internet(), infector.clone());
        // Only the shared analytics script is targeted.
        let shared = Url::parse("http://analytics.shared-metrics.example/ga.js").unwrap();
        injecting.add_target(&shared);
        let mut browser = Browser::new(BrowserProfile::chrome(), Box::new(injecting));

        let sites = vec![
            Url::parse("http://news.example/index.html").unwrap(),
            Url::parse("http://shop.example/index.html").unwrap(),
            Url::parse("http://bank.example/index.html").unwrap(),
        ];
        let report = propagate_via_shared_file(&mut browser, &shared, &sites, &infector);
        assert!(report.is_infected("news.example"));
        assert!(report.is_infected("shop.example"));
        // bank.example does not embed the analytics script.
        assert!(!report.is_infected("bank.example"));
    }

    #[test]
    fn shared_cache_propagation_reaches_a_second_device() {
        let infector = infector();
        let mut injecting = InjectingExchange::new(internet(), infector.clone());
        injecting.infect_all(true);
        let squid = table4_entries().into_iter().find(|e| e.name == "Squid").unwrap();
        let cache = SharedCache::new(squid, injecting, false);

        let page = Url::parse("http://news.example/index.html").unwrap();
        let (a, b) = propagate_via_shared_cache(
            cache,
            BrowserProfile::chrome(),
            BrowserProfile::firefox(),
            &page,
            &infector,
        );
        assert!(a, "victim on the hostile path is infected");
        assert!(b, "victim behind the same shared cache is infected too");
    }

    #[test]
    fn a_cache_that_stores_nothing_propagates_nothing() {
        // The master keeps the origin's `no-store`, so the cache keeps no
        // copy, infected or clean.
        let mut infector = infector();
        infector.config.pin_cache_headers = false;
        let mut origin = StaticOrigin::new("news.example");
        let html = r#"<html><head><script src="/app.js"></script></head><body>news</body></html>"#;
        origin.put_text("/index.html", ResourceKind::Html, html, "no-store");
        origin.put_text("/app.js", ResourceKind::JavaScript, "function app(){}", "no-store");
        let mut injecting = InjectingExchange::new(origin, infector.clone());
        injecting.infect_all(true);
        let squid = table4_entries().into_iter().find(|e| e.name == "Squid").unwrap();
        let cache = SharedCache::new(squid, injecting, false);

        let page = Url::parse("http://news.example/index.html").unwrap();
        let (a, b) = propagate_via_shared_cache(
            cache,
            BrowserProfile::chrome(),
            BrowserProfile::firefox(),
            &page,
            &infector,
        );
        assert!(a, "victim on the hostile path is infected");
        assert!(!b, "with nothing cached and the attacker gone, victim B stays clean");
    }

    #[test]
    fn clean_path_means_no_propagation() {
        let mut browser = Browser::new(BrowserProfile::chrome(), Box::new(internet()));
        let mut dom = Dom::new(Url::parse("http://news.example/index.html").unwrap());
        let report = propagate_via_iframes(
            &mut browser,
            &mut dom,
            &default_iframe_targets(),
            &infector(),
        );
        assert_eq!(report.infected_count(), 0);
        assert_eq!(report.clean_domains.len(), 3);
    }
}
