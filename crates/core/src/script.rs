//! Parasite scripts.
//!
//! A *parasite* is a legitimate script from a real website, modified by the
//! attacker to carry extra behaviour (paper §III, §VI). The reproduction
//! models the payload as structured data embedded in the script text behind a
//! recognisable marker, so that (a) infected objects are ordinary
//! [`mp_httpsim::message::Response`]s that flow through caches exactly like
//! clean ones, and (b) the "execution" of a parasite can be recovered from
//! any script body by parsing the marker back out.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Marker that introduces the parasite payload inside a script body.
pub const PARASITE_MARKER: &str = "/*__PARASITE__*/";

/// The behaviour modules a parasite can carry (paper §VII lists the modules
/// the authors implemented: browser-data reading, protected-data extraction,
/// phishing-based spreading and login-data extraction, plus C&C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ParasiteModule {
    /// Establish the covert command-and-control channel (§VI-C).
    CommandControl,
    /// Read browser data: URL, user agent, cookies, local storage.
    ReadBrowserData,
    /// Extract protected data (microphone/camera/geolocation) via browser APIs.
    ExtractProtectedData,
    /// Hook login forms and exfiltrate credentials.
    ExtractLoginData,
    /// Read application data out of the DOM (mail, balances, chats).
    ReadDomData,
    /// Propagate to other domains (shared files, iframes).
    Propagate,
    /// Send personalised phishing from the victim's accounts.
    Phishing,
    /// Steal computation resources (crypto mining).
    StealComputation,
    /// Manipulate transactions / bypass 2FA by rewriting the DOM.
    ManipulateTransactions,
    /// Overlay a fake login screen.
    FakeLogin,
    /// Inject advertisements.
    AdInjection,
    /// Launch browser-based DDoS.
    Ddos,
    /// Scan and attack the victim's internal network (WebRTC/WebSocket recon).
    InternalNetworkRecon,
    /// Low-level side channels (CPU cache timing, Rowhammer, 0-day loader).
    SideChannels,
}

impl ParasiteModule {
    /// Short identifier used in the serialized payload.
    pub fn tag(self) -> &'static str {
        match self {
            ParasiteModule::CommandControl => "cnc",
            ParasiteModule::ReadBrowserData => "browser-data",
            ParasiteModule::ExtractProtectedData => "protected-data",
            ParasiteModule::ExtractLoginData => "login-data",
            ParasiteModule::ReadDomData => "dom-data",
            ParasiteModule::Propagate => "propagate",
            ParasiteModule::Phishing => "phishing",
            ParasiteModule::StealComputation => "mining",
            ParasiteModule::ManipulateTransactions => "transactions",
            ParasiteModule::FakeLogin => "fake-login",
            ParasiteModule::AdInjection => "ads",
            ParasiteModule::Ddos => "ddos",
            ParasiteModule::InternalNetworkRecon => "recon",
            ParasiteModule::SideChannels => "side-channels",
        }
    }

    /// Parses an identifier back into a module.
    pub fn from_tag(tag: &str) -> Option<Self> {
        let all = [
            ParasiteModule::CommandControl,
            ParasiteModule::ReadBrowserData,
            ParasiteModule::ExtractProtectedData,
            ParasiteModule::ExtractLoginData,
            ParasiteModule::ReadDomData,
            ParasiteModule::Propagate,
            ParasiteModule::Phishing,
            ParasiteModule::StealComputation,
            ParasiteModule::ManipulateTransactions,
            ParasiteModule::FakeLogin,
            ParasiteModule::AdInjection,
            ParasiteModule::Ddos,
            ParasiteModule::InternalNetworkRecon,
            ParasiteModule::SideChannels,
        ];
        all.into_iter().find(|m| m.tag() == tag)
    }
}

impl fmt::Display for ParasiteModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A parasite payload: the modules it carries plus the C&C rendezvous host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Parasite {
    /// Modules the parasite executes.
    pub modules: Vec<ParasiteModule>,
    /// The master's C&C host.
    pub cnc_host: String,
    /// Identifier of the infection campaign (lets the master tell bots apart).
    pub campaign: String,
}

impl Parasite {
    /// Creates a parasite with the default module set the paper's evaluation
    /// uses (C&C, browser data, login data, propagation).
    pub fn standard(cnc_host: impl Into<String>) -> Self {
        Parasite {
            modules: vec![
                ParasiteModule::CommandControl,
                ParasiteModule::ReadBrowserData,
                ParasiteModule::ExtractLoginData,
                ParasiteModule::Propagate,
            ],
            cnc_host: cnc_host.into(),
            campaign: "campaign-0".into(),
        }
    }

    /// Creates a parasite with an explicit module list.
    pub fn with_modules(cnc_host: impl Into<String>, modules: Vec<ParasiteModule>) -> Self {
        Parasite {
            modules,
            cnc_host: cnc_host.into(),
            campaign: "campaign-0".into(),
        }
    }

    /// Returns `true` if the parasite carries `module`.
    pub fn has_module(&self, module: ParasiteModule) -> bool {
        self.modules.contains(&module)
    }

    /// Serialises the payload as the JavaScript snippet appended to infected
    /// objects. Variable and function names are chosen so they do not collide
    /// with the host application (paper §VI-A).
    pub fn payload_snippet(&self) -> String {
        let modules = self
            .modules
            .iter()
            .map(|m| m.tag())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{PARASITE_MARKER}(function __mp_parasite(){{var __mp_cnc='{}';var __mp_campaign='{}';var __mp_modules='{}';}})();",
            self.cnc_host, self.campaign, modules
        )
    }

    /// Recovers a parasite from a script body, if the body carries one.
    pub fn detect(script_body: &str) -> Option<Parasite> {
        let [cnc_host, campaign, modules] = scan_payload(script_body.as_bytes())?;
        // Every field sits between an ASCII prefix and an ASCII quote, so
        // its byte range falls on character boundaries.
        let modules = script_body[modules]
            .split(',')
            .filter_map(ParasiteModule::from_tag)
            .collect();
        Some(Parasite {
            modules,
            cnc_host: script_body[cnc_host].to_string(),
            campaign: script_body[campaign].to_string(),
        })
    }

    /// Returns `true` if `body` carries a parasite, scanning the raw bytes
    /// in place. Agrees with [`Parasite::detect`] on the body's lossy UTF-8
    /// text: the marker and field delimiters are ASCII, and lossy decoding
    /// never adds, drops or reorders ASCII bytes.
    pub fn is_carried_by(body: &[u8]) -> bool {
        scan_payload(body).is_some()
    }
}

/// The one payload scan behind [`Parasite::detect`] and
/// [`Parasite::is_carried_by`]: finds [`PARASITE_MARKER`], then the C&C
/// host, campaign and module fields after it, and returns their byte ranges
/// in that order.
fn scan_payload(body: &[u8]) -> Option<[Range<usize>; 3]> {
    let start = find(body, PARASITE_MARKER.as_bytes())?;
    let quoted = |prefix: &[u8]| {
        let from = start + find(&body[start..], prefix)? + prefix.len();
        let len = body[from..].iter().position(|&b| b == b'\'')?;
        Some(from..from + len)
    };
    Some([quoted(b"__mp_cnc='")?, quoted(b"__mp_campaign='")?, quoted(b"__mp_modules='")?])
}

/// Offset of the first occurrence of `needle` (not empty) in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let last = haystack.len().checked_sub(needle.len())?;
    (0..=last).find(|&at| haystack[at] == needle[0] && haystack[at..].starts_with(needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_through_script_text() {
        let parasite = Parasite::standard("master.attacker.example");
        let original = "function appInit(){ /* real code */ }";
        let infected = format!("{original};{}", parasite.payload_snippet());
        let recovered = Parasite::detect(&infected).expect("marker must be detectable");
        assert_eq!(recovered, parasite);
        assert!(infected.starts_with(original), "original functionality is preserved");
    }

    #[test]
    fn clean_scripts_are_not_detected_as_parasites() {
        assert!(Parasite::detect("function appInit(){}").is_none());
        assert!(Parasite::detect("").is_none());
        // A script that merely mentions the word is not a payload.
        assert!(Parasite::detect("var note='parasite attack paper';").is_none());
    }

    #[test]
    fn module_tags_round_trip() {
        for module in [
            ParasiteModule::CommandControl,
            ParasiteModule::ReadBrowserData,
            ParasiteModule::ExtractProtectedData,
            ParasiteModule::ExtractLoginData,
            ParasiteModule::ReadDomData,
            ParasiteModule::Propagate,
            ParasiteModule::Phishing,
            ParasiteModule::StealComputation,
            ParasiteModule::ManipulateTransactions,
            ParasiteModule::FakeLogin,
            ParasiteModule::AdInjection,
            ParasiteModule::Ddos,
            ParasiteModule::InternalNetworkRecon,
            ParasiteModule::SideChannels,
        ] {
            assert_eq!(ParasiteModule::from_tag(module.tag()), Some(module));
        }
        assert_eq!(ParasiteModule::from_tag("unknown"), None);
    }

    #[test]
    fn custom_module_sets_are_preserved() {
        let parasite = Parasite::with_modules(
            "c2.example",
            vec![ParasiteModule::StealComputation, ParasiteModule::Ddos],
        );
        assert!(parasite.has_module(ParasiteModule::Ddos));
        assert!(!parasite.has_module(ParasiteModule::Phishing));
        let recovered = Parasite::detect(&parasite.payload_snippet()).unwrap();
        assert_eq!(recovered.modules, parasite.modules);
    }
}
