//! Integration tests for parasite persistence and the removal methods of
//! Table III, across browser profiles.

use mp_browser::browser::{Browser, FetchSource};
use mp_browser::profile::BrowserProfile;
use mp_httpsim::body::ResourceKind;
use mp_httpsim::transport::StaticOrigin;
use mp_httpsim::url::Url;
use parasite::experiments::{ExperimentId, Registry, RemovalCell, RunConfig};
use parasite::infect::Infector;
use parasite::master::Master;
use parasite::script::Parasite;

fn infector() -> Infector {
    Infector::new(Parasite::standard("master.attacker.example"))
}

fn origin_with_persistent_script() -> StaticOrigin {
    let mut origin = StaticOrigin::new("top1.com");
    origin.put_text(
        "/persistent.js",
        ResourceKind::JavaScript,
        "function lib(){}",
        "public, max-age=604800",
    );
    origin
}

fn infected_browser(profile: BrowserProfile) -> (Browser, Url) {
    let target = Url::parse("http://top1.com/persistent.js").unwrap();
    let mut master = Master::new("master.attacker.example");
    master.add_target(target.clone());
    // On the hostile network the injection race delivers the infected copy
    // into the HTTP cache; the parasite then pins it, where supported, in the
    // Cache API, and the victim moves back to the clean origin.
    let hostile = master.injecting_exchange(origin_with_persistent_script());
    let mut browser = Browser::new(profile, Box::new(hostile));
    let infected = browser.fetch(&target, "top1.com").response;
    assert!(infector().is_infected(&infected.body.as_text()));
    browser
        .cache_api_mut()
        .put(&target.origin().to_string(), "parasite", &target, infected);
    browser.change_network(Box::new(origin_with_persistent_script()));
    (browser, target)
}

#[test]
fn parasite_survives_browser_restart_and_network_change() {
    let (mut browser, target) = infected_browser(BrowserProfile::chrome());
    // Days later, on a different network with the original site unreachable,
    // the infected copy still serves from the cache.
    browser.change_network(Box::new(mp_httpsim::transport::Internet::new()));
    browser.advance_time(3 * 24 * 3600);
    let result = browser.fetch(&target, "top1.com");
    assert!(infector().is_infected(&result.response.body.as_text()));
    assert!(!result.source.touched_network());
}

#[test]
fn hard_reload_and_cache_clear_do_not_remove_cache_api_parasites() {
    for profile in [BrowserProfile::chrome(), BrowserProfile::firefox(), BrowserProfile::edge(), BrowserProfile::opera()] {
        let (mut browser, target) = infected_browser(profile.clone());
        browser.hard_reload(&target);
        browser.clear_http_cache();
        let result = browser.fetch(&target, "top1.com");
        assert_eq!(result.source, FetchSource::CacheApi, "{:?}", profile.kind);
        assert!(infector().is_infected(&result.response.body.as_text()));
    }
}

#[test]
fn clearing_cookies_and_site_data_removes_the_parasite_everywhere() {
    for profile in [BrowserProfile::chrome(), BrowserProfile::firefox(), BrowserProfile::opera()] {
        let (mut browser, target) = infected_browser(profile);
        browser.clear_cookies_and_site_data();
        browser.clear_http_cache();
        let result = browser.fetch(&target, "top1.com");
        assert_eq!(result.source, FetchSource::Network);
        assert!(!infector().is_infected(&result.response.body.as_text()));
    }
}

#[test]
fn internet_explorer_has_no_cache_api_persistence_layer() {
    let (mut browser, target) = infected_browser(BrowserProfile::internet_explorer());
    // The HTTP-cache copy still serves, but the Cache API refuses it, so
    // clearing the cache removes it: there is no second layer to fall back to.
    let cached = browser.fetch(&target, "top1.com");
    assert_eq!(cached.source, FetchSource::HttpCache);
    assert!(!browser
        .cache_api_mut()
        .put(&target.origin().to_string(), "parasite", &target, cached.response));
    browser.clear_http_cache();
    let result = browser.fetch(&target, "top1.com");
    assert_eq!(result.source, FetchSource::Network);
    assert!(!infector().is_infected(&result.response.body.as_text()));
}

#[test]
fn table3_experiment_matches_these_observations() {
    let artifact = Registry::get(ExperimentId::Table3).run(&RunConfig::default());
    let table = artifact.data.as_table3().expect("table3 artifact");
    for (browser, cells) in &table.rows {
        if browser == "IE" {
            assert!(cells.iter().all(|c| *c == RemovalCell::NotApplicable));
        } else {
            assert_eq!(cells[0], RemovalCell::Survived, "{browser}: Ctrl+F5");
            assert_eq!(cells[1], RemovalCell::Survived, "{browser}: clear cache");
            assert_eq!(cells[2], RemovalCell::Removed, "{browser}: clear cookies");
        }
    }
}

#[test]
fn random_query_string_defence_bypasses_the_poisoned_cache_entry() {
    let (mut browser, target) = infected_browser(BrowserProfile::chrome());
    // §VIII: requesting with a random query string loads a fresh copy every
    // time, so the pinned infected entry is never used.
    let busted = target.with_query(Some("rnd=83729137"));
    let result = browser.fetch(&busted, "top1.com");
    assert_eq!(result.source, FetchSource::Network);
    assert!(!infector().is_infected(&result.response.body.as_text()));
}
