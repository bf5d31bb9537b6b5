//! Injection of parasites into the victim's traffic (paper §V).
//!
//! Two models of the same attacker are provided, at two levels of detail:
//!
//! * [`MasterTap`] operates at the packet level on an `mp-netsim` shared
//!   medium. It watches for HTTP requests to target objects, forges the
//!   infected response as spoofed TCP segments and races the genuine server
//!   (Figure 2, Table II).
//! * [`InjectingExchange`] operates at the HTTP level: it wraps the path to
//!   the real origin as an [`mp_httpsim::transport::Exchange`] and replaces
//!   the responses for target objects with infected copies, subject to the
//!   same reachability rules (only injectable schemes/deployments). It is the
//!   transport used for the browser-level experiments, where simulating every
//!   packet would add nothing.

use crate::infect::Infector;
use crate::memo::RecentMemo;
use mp_httpsim::message::{Request, Response};
use mp_httpsim::tls::TlsDeployment;
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::{Scheme, Url};
use bytes::Bytes;
use mp_netsim::attacker::{Injection, Injector, Tap};
use mp_netsim::packet::Packet;
use mp_netsim::time::Instant;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Shared statistics about what the master injected.
#[derive(Debug, Clone, Default)]
pub struct InjectionStats {
    /// Requests observed for target objects.
    pub target_requests_seen: u64,
    /// Infected responses injected.
    pub responses_injected: u64,
    /// Requests passed through untouched.
    pub passthrough: u64,
}

/// Handle to injection statistics shared with the simulator-side tap.
pub type SharedInjectionStats = Arc<Mutex<InjectionStats>>;

/// How many distinct payloads [`MasterTap`] remembers its verdict for. A
/// café's race world carries about three on the shared medium: the target
/// request, the request for an unprepared object and the genuine response.
const PAYLOAD_MEMO: usize = 4;

/// What [`MasterTap`] does with one observed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Not a GET request naming a host: ignored, not counted.
    NotGet,
    /// A GET for an object the master has not prepared: counted, passed on.
    Passthrough,
    /// A GET for `prepared_objects[i]`: answered with its infected response.
    Inject(usize),
}

/// Packet-level master: a [`Tap`] for `mp-netsim` shared media.
pub struct MasterTap {
    infector: Infector,
    injector: Injector,
    /// Origin content the master has prepared in advance, as `(host, path,
    /// response)` — "waiting for an HTTP request to one of the objects he
    /// has prepared" (§V). The responses are stored pre-serialised as
    /// [`Bytes`], so every injection slices the one buffer instead of
    /// re-encoding the response. A master prepares a handful of objects, so
    /// a scan beats hashing an owned key per request it parses; and it
    /// parses each distinct payload once, since `verdicts` keeps the
    /// outcome of the last few.
    prepared_objects: Vec<(String, String, Bytes)>,
    /// The verdicts of the last [`PAYLOAD_MEMO`] distinct non-empty payloads,
    /// matched by full byte equality: a café's victims all send the same
    /// request, so the master parses it once, not once per victim. Each key
    /// shares the observed packet's buffer. Cleared by
    /// [`MasterTap::prepare_object`], which changes what a request means.
    verdicts: RecentMemo<Bytes, Verdict, PAYLOAD_MEMO>,
    stats: SharedInjectionStats,
}

impl MasterTap {
    /// Creates a packet-level master and returns it with a handle to its
    /// statistics.
    pub fn new(infector: Infector, reaction: mp_netsim::time::Duration) -> (Self, SharedInjectionStats) {
        let stats: SharedInjectionStats = Arc::new(Mutex::new(InjectionStats::default()));
        (
            MasterTap {
                infector,
                injector: Injector::new(reaction),
                prepared_objects: Vec::new(),
                verdicts: RecentMemo::new(),
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }

    /// Registers a target object the master has fetched and infected ahead of
    /// time.
    pub fn prepare_object(&mut self, url: &Url, genuine: Response) {
        self.verdicts.clear();
        let infected = Bytes::from(self.infector.infect_response(&genuine).to_wire());
        match self
            .prepared_objects
            .iter_mut()
            .find(|(host, path, _)| *host == url.host && *path == url.path)
        {
            Some((_, _, response)) => *response = infected,
            None => self
                .prepared_objects
                .push((url.host.clone(), url.path.clone(), infected)),
        }
    }

    /// The `(Host header value, path)` of a GET request, borrowed from the
    /// payload.
    fn parse_request(payload: &[u8]) -> Option<(&str, &str)> {
        let text = std::str::from_utf8(payload).ok()?;
        let mut lines = text.lines();
        let request_line = lines.next()?;
        let mut parts = request_line.split_whitespace();
        if parts.next()? != "GET" {
            return None;
        }
        let target = parts.next()?;
        let path = target.split('?').next().unwrap_or(target);
        let host = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.trim().eq_ignore_ascii_case("host"))
            .map(|(_, value)| value.trim())?;
        Some((host, path))
    }

    /// What to do with `payload`, parsed afresh.
    fn verdict(&self, payload: &[u8]) -> Verdict {
        let Some((host, path)) = Self::parse_request(payload) else {
            return Verdict::NotGet;
        };
        // `Url` hosts are lowercase, so a case-insensitive match is exactly
        // "the lowercased Host header names the prepared host".
        self.prepared_objects
            .iter()
            .position(|(prepared_host, prepared_path, _)| {
                prepared_path == path && prepared_host.eq_ignore_ascii_case(host)
            })
            .map_or(Verdict::Passthrough, Verdict::Inject)
    }
}

impl Tap for MasterTap {
    fn observe(&mut self, packet: &Packet, _now: Instant, out: &mut Vec<Injection>) {
        let payload = &packet.segment.payload;
        // An empty payload (SYN, ACK, RST) is never a request.
        if payload.is_empty() {
            return;
        }
        let verdict = self.verdicts.get(payload).unwrap_or_else(|| {
            let verdict = self.verdict(payload);
            self.verdicts.insert(payload.clone(), verdict);
            verdict
        });
        match verdict {
            Verdict::NotGet => {}
            Verdict::Passthrough => self.stats.lock().unwrap().passthrough += 1,
            Verdict::Inject(index) => {
                let mut stats = self.stats.lock().unwrap();
                stats.target_requests_seen += 1;
                stats.responses_injected += 1;
                drop(stats);
                let infected = self.prepared_objects[index].2.clone();
                self.injector.forge_response_bytes(packet, infected, out);
            }
        }
    }
}

/// How the attacker decides whether it can inject into a connection at all.
#[derive(Debug, Clone, Default)]
pub struct Injectability {
    /// TLS deployment per host; hosts not listed are assumed to use modern,
    /// correctly deployed HTTPS when reached over `https://` URLs.
    pub deployments: HashMap<String, TlsDeployment>,
}

impl Injectability {
    /// Registers a host's TLS deployment.
    pub fn set(&mut self, host: &str, deployment: TlsDeployment) {
        self.deployments.insert(host.to_ascii_lowercase(), deployment);
    }

    /// Returns `true` if the master can inject into requests for `url`:
    /// always for plain HTTP, and for HTTPS only when the deployment is
    /// broken (vulnerable SSL, fraudulent certificate, user-ignored errors).
    pub fn injectable(&self, url: &Url) -> bool {
        match url.scheme {
            Scheme::Http => true,
            Scheme::Https => self
                .deployments
                .get(&url.host)
                .map(|d| d.injectable())
                .unwrap_or(false),
        }
    }
}

/// HTTP-level master: an on-path [`Exchange`] wrapper that infects responses
/// for target objects while the victim is on the attacker's network.
pub struct InjectingExchange<U> {
    upstream: U,
    infector: Infector,
    /// Target object predicates: exact (host, path) pairs.
    targets: Vec<(String, String)>,
    /// Infect *every* infectable response rather than just listed targets —
    /// what the propagation phase does once the beachhead is established.
    infect_all: bool,
    injectability: Injectability,
    /// Whether the attack is currently active (the victim is on the hostile
    /// network). When inactive, the wrapper is a pure pass-through.
    active: bool,
    stats: InjectionStats,
}

impl<U> InjectingExchange<U> {
    /// Creates an injecting wrapper around the path to the genuine origins.
    pub fn new(upstream: U, infector: Infector) -> Self {
        InjectingExchange {
            upstream,
            infector,
            targets: Vec::new(),
            infect_all: false,
            injectability: Injectability::default(),
            active: true,
            stats: InjectionStats::default(),
        }
    }

    /// Adds a target object to infect.
    pub fn add_target(&mut self, url: &Url) {
        self.targets.push((url.host.clone(), url.path.clone()));
    }

    /// Switches to infect-everything mode (used by the propagation phase).
    pub fn infect_all(&mut self, enabled: bool) {
        self.infect_all = enabled;
    }

    /// Access to the injectability rules.
    pub fn injectability_mut(&mut self) -> &mut Injectability {
        &mut self.injectability
    }

    /// Activates or deactivates the attacker (victim joins / leaves the
    /// hostile network).
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Injection statistics.
    pub fn stats(&self) -> &InjectionStats {
        &self.stats
    }

    fn is_target(&self, url: &Url) -> bool {
        self.infect_all
            || self
                .targets
                .iter()
                .any(|(host, path)| host == &url.host && path == &url.path)
    }
}

impl<U: Exchange> Exchange for InjectingExchange<U> {
    fn exchange(&mut self, request: &Request) -> Response {
        if !self.active || !self.is_target(&request.url) || !self.injectability.injectable(&request.url) {
            self.stats.passthrough += 1;
            return self.upstream.exchange(request);
        }
        self.stats.target_requests_seen += 1;
        // Strip validators so the origin hands back a full body to infect
        // rather than a 304.
        let manipulated = self.infector.manipulate_request(request);
        let genuine = self.upstream.exchange(&manipulated);
        let infected = self.infector.infect_response(&genuine);
        if infected != genuine {
            self.stats.responses_injected += 1;
        }
        infected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Parasite;
    use mp_httpsim::body::{Body, ResourceKind};
    use mp_httpsim::tls::TlsVersion;
    use mp_httpsim::transport::StaticOrigin;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn origin() -> StaticOrigin {
        let mut origin = StaticOrigin::new("somesite.com");
        origin.put(
            "/my.js",
            Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
                .with_cache_control("max-age=600")
                .with_etag("\"v1\""),
        );
        origin.put_text("/other.js", ResourceKind::JavaScript, "function other(){}", "max-age=600");
        origin
    }

    fn infector() -> Infector {
        Infector::new(Parasite::standard("master.attacker.example"))
    }

    #[test]
    fn listed_targets_are_infected_and_others_pass_through() {
        let mut path = InjectingExchange::new(origin(), infector());
        path.add_target(&url("http://somesite.com/my.js"));

        let infected = path.exchange(&Request::get(url("http://somesite.com/my.js")));
        assert!(Parasite::detect(&infected.body.as_text()).is_some());

        let clean = path.exchange(&Request::get(url("http://somesite.com/other.js")));
        assert!(Parasite::detect(&clean.body.as_text()).is_none());

        assert_eq!(path.stats().responses_injected, 1);
        assert_eq!(path.stats().passthrough, 1);
    }

    #[test]
    fn conditional_requests_for_targets_get_full_infected_bodies() {
        let mut path = InjectingExchange::new(origin(), infector());
        path.add_target(&url("http://somesite.com/my.js"));
        let conditional = Request::get(url("http://somesite.com/my.js")).with_etag_validator("\"v1\"");
        let response = path.exchange(&conditional);
        assert!(response.status.is_success(), "304 must be prevented");
        assert!(Parasite::detect(&response.body.as_text()).is_some());
    }

    #[test]
    fn https_targets_require_a_broken_deployment() {
        let mut https_origin = StaticOrigin::new("bank.example");
        https_origin.put_text("/app.js", ResourceKind::JavaScript, "bank()", "max-age=600");
        let mut path = InjectingExchange::new(https_origin, infector());
        path.add_target(&url("https://bank.example/app.js"));

        // Modern HTTPS (default assumption): injection fails, genuine body flows.
        let clean = path.exchange(&Request::get(url("https://bank.example/app.js")));
        assert!(Parasite::detect(&clean.body.as_text()).is_none());

        // Same host with a vulnerable SSL deployment: injectable.
        path.injectability_mut()
            .set("bank.example", TlsDeployment::legacy_ssl(TlsVersion::Ssl3));
        let infected = path.exchange(&Request::get(url("https://bank.example/app.js")));
        assert!(Parasite::detect(&infected.body.as_text()).is_some());
    }

    #[test]
    fn inactive_attacker_is_a_pure_passthrough() {
        let mut path = InjectingExchange::new(origin(), infector());
        path.add_target(&url("http://somesite.com/my.js"));
        path.set_active(false);
        let response = path.exchange(&Request::get(url("http://somesite.com/my.js")));
        assert!(Parasite::detect(&response.body.as_text()).is_none());
        assert_eq!(path.stats().responses_injected, 0);
    }

    #[test]
    fn infect_all_mode_hits_every_script() {
        let mut path = InjectingExchange::new(origin(), infector());
        path.infect_all(true);
        let a = path.exchange(&Request::get(url("http://somesite.com/my.js")));
        let b = path.exchange(&Request::get(url("http://somesite.com/other.js")));
        assert!(Parasite::detect(&a.body.as_text()).is_some());
        assert!(Parasite::detect(&b.body.as_text()).is_some());
    }

    #[test]
    fn master_tap_parses_requests_and_injects_prepared_objects() {
        use mp_netsim::addr::IpAddr;
        use mp_netsim::packet::Segment;
        use mp_netsim::seq::SeqNum;

        let (mut tap, stats) = MasterTap::new(infector(), mp_netsim::time::Duration::from_micros(300));
        let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
            .with_cache_control("max-age=600");
        tap.prepare_object(&url("http://somesite.com/my.js"), genuine);

        let request_bytes = Request::get(url("http://somesite.com/my.js")).to_wire();
        let segment = Segment::data(51000, 80, SeqNum::new(100), SeqNum::new(200), request_bytes);
        let packet = Packet::new(IpAddr::new(10, 0, 0, 2), IpAddr::new(203, 0, 113, 9), segment);

        let mut injections = Vec::new();
        tap.observe(&packet, Instant::ZERO, &mut injections);
        assert!(!injections.is_empty());
        assert!(injections[0].packet.spoofed);
        let wire: Vec<u8> = injections
            .iter()
            .flat_map(|i| i.packet.segment.payload.to_vec())
            .collect();
        let response = Response::from_wire(&wire).unwrap();
        assert!(Parasite::detect(&response.body.as_text()).is_some());
        assert_eq!(stats.lock().unwrap().responses_injected, 1);

        // A request for an unprepared object is ignored.
        let other = Request::get(url("http://somesite.com/unknown.js")).to_wire();
        let segment = Segment::data(51000, 80, SeqNum::new(100), SeqNum::new(200), other);
        let packet = Packet::new(IpAddr::new(10, 0, 0, 2), IpAddr::new(203, 0, 113, 9), segment);
        injections.clear();
        tap.observe(&packet, Instant::ZERO, &mut injections);
        assert!(injections.is_empty());
        assert_eq!(stats.lock().unwrap().passthrough, 1);

        // Header names and host values match case-insensitively, around
        // whitespace, and the query string is not part of the path.
        let shouted = &b"GET /my.js?v=2 HTTP/1.1\r\nHOST:  SomeSite.COM \r\n\r\n"[..];
        let segment = Segment::data(51000, 80, SeqNum::new(100), SeqNum::new(200), shouted);
        let packet = Packet::new(IpAddr::new(10, 0, 0, 2), IpAddr::new(203, 0, 113, 9), segment);
        tap.observe(&packet, Instant::ZERO, &mut injections);
        assert!(!injections.is_empty());
        assert_eq!(stats.lock().unwrap().responses_injected, 2);
    }

    /// The counters of a stats handle, comparable.
    fn counts(stats: &SharedInjectionStats) -> [u64; 3] {
        let stats = stats.lock().unwrap();
        [stats.target_requests_seen, stats.responses_injected, stats.passthrough]
    }

    #[test]
    fn the_payload_memo_matches_a_fresh_tap_per_packet() {
        use mp_netsim::addr::IpAddr;
        use mp_netsim::packet::{Segment, TcpFlags};
        use mp_netsim::seq::SeqNum;

        let my_js = url("http://somesite.com/my.js");
        let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
            .with_cache_control("max-age=600");
        let prepared_tap = || {
            let (mut tap, stats) =
                MasterTap::new(infector(), mp_netsim::time::Duration::from_micros(300));
            tap.prepare_object(&my_js, genuine.clone());
            (tap, stats)
        };
        let client = IpAddr::new(10, 0, 0, 2);
        let server = IpAddr::new(203, 0, 113, 9);
        let data = |port: u16, payload: Vec<u8>| {
            let segment = Segment::data(port, 80, SeqNum::new(100), SeqNum::new(200), payload);
            Packet::new(client, server, segment)
        };
        let unprepared = Request::get(url("http://somesite.com/unknown.js")).to_wire();
        let distinct = [
            data(51000, Request::get(my_js.clone()).to_wire()),
            data(51001, unprepared.clone()),
            Packet::new(
                server,
                client,
                Segment::data(80, 51000, SeqNum::new(200), SeqNum::new(140), genuine.to_wire()),
            ),
            Packet::new(
                client,
                server,
                Segment::control(51002, 80, SeqNum::new(1), SeqNum::new(1), TcpFlags::ACK),
            ),
            data(51003, b"GET /my.js?v=2 HTTP/1.1\r\nHOST:  SomeSite.COM \r\n\r\n".to_vec()),
            // U+00A0 is whitespace to the request-line split: still a GET.
            data(51004, "\u{a0}GET /my.js HTTP/1.1\r\nHost: somesite.com\r\n\r\n".into()),
        ];
        // Each packet again, then the earliest ones after the memo has
        // evicted them, each on another port so the forgeries differ.
        let mut sequence: Vec<Packet> = distinct.iter().chain(&distinct).cloned().collect();
        sequence.extend([0, 5, 1, 4, 0, 0, 2].map(|index| distinct[index].clone()));
        sequence.push(data(52000, distinct[0].segment.payload.to_vec()));

        let (mut tap, stats) = prepared_tap();
        let mut expected_counts = [0; 3];
        let mut injections = Vec::new();
        for packet in &sequence {
            injections.clear();
            tap.observe(packet, Instant::ZERO, &mut injections);
            let (mut fresh, fresh_stats) = prepared_tap();
            let mut expected = Vec::new();
            fresh.observe(packet, Instant::ZERO, &mut expected);
            let forged = |list: &[Injection]| -> Vec<(mp_netsim::time::Duration, Packet)> {
                list.iter().map(|i| (i.delay, i.packet.clone())).collect()
            };
            assert_eq!(forged(&injections), forged(&expected));
            for (total, count) in expected_counts.iter_mut().zip(counts(&fresh_stats)) {
                *total += count;
            }
            assert_eq!(counts(&stats), expected_counts);
        }
        // Requests for my.js (plain, shouted, U+00A0-led) inject; only the
        // unknown object passes through; the response and the ACK count
        // nowhere.
        assert_eq!(expected_counts, [12, 12, 3]);

        // A passthrough verdict is cached; preparing the object afterwards
        // must turn the very same request into an injection.
        let passthrough = data(51001, unprepared);
        injections.clear();
        tap.observe(&passthrough, Instant::ZERO, &mut injections);
        assert!(injections.is_empty());
        assert_eq!(counts(&stats), [12, 12, 4]);
        tap.prepare_object(&url("http://somesite.com/unknown.js"), genuine.clone());
        tap.observe(&passthrough, Instant::ZERO, &mut injections);
        assert!(!injections.is_empty());
        assert_eq!(counts(&stats), [13, 13, 4]);
    }
}
