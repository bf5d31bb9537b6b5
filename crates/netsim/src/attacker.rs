//! The *master* attacker: eavesdropping tap and TCP segment injector.
//!
//! The paper's attacker model (§III) is an eavesdropper on a shared wireless
//! network: it **sees** every segment the victim sends (source port, sequence
//! and acknowledgement numbers) but cannot block or modify traffic. From an
//! observed HTTP request it crafts a spoofed response segment impersonating
//! the server and races it against the genuine response; because the local
//! attacker answers within microseconds while the real server is tens of
//! milliseconds away, the spoofed segment arrives first and
//! first-segment-wins reassembly does the rest (§V, Figure 2).

use crate::addr::{FourTuple, IpAddr};
use crate::packet::{Packet, Segment, DEFAULT_MSS};
use crate::seq::SeqNum;
use crate::time::{Duration, Instant};
use bytes::Bytes;
use std::sync::{Arc, Mutex};

/// A packet injection requested by a tap, to be delivered after `delay`.
#[derive(Debug, Clone)]
pub struct Injection {
    /// Additional delay (the attacker's reaction time) before the spoofed
    /// packet reaches its destination, on top of the medium latency.
    pub delay: Duration,
    /// The crafted packet.
    pub packet: Packet,
}

/// Observer attached to a shared medium.
///
/// Taps see every packet that traverses an observable medium and may request
/// injections in response. They can never suppress or alter the observed
/// packet — matching the paper's "can eavesdrop but cannot block or modify"
/// attacker.
pub trait Tap: Send {
    /// Called for every observed packet; injections appended to `out` are
    /// scheduled for delivery. `out` is simulator-owned and reused across
    /// every observation, so a tap that injects nothing (or forges from a
    /// shared buffer) costs no allocation.
    fn observe(&mut self, packet: &Packet, now: Instant, out: &mut Vec<Injection>);

    /// Human-readable name used in traces.
    fn name(&self) -> &str {
        "tap"
    }
}

/// A single observation recorded by an [`Eavesdropper`].
#[derive(Debug, Clone)]
pub struct Observation {
    /// When the packet was observed.
    pub at: Instant,
    /// The observed packet.
    pub packet: Packet,
}

/// Shared handle to the packets an [`Eavesdropper`] has recorded.
pub type ObservationLog = Arc<Mutex<Vec<Observation>>>;

/// A passive eavesdropper that records every observed packet.
///
/// Useful on its own for measurement and as the observation half of more
/// elaborate attackers built in higher-level crates.
#[derive(Debug)]
pub struct Eavesdropper {
    log: ObservationLog,
    name: String,
}

impl Eavesdropper {
    /// Creates an eavesdropper and returns it together with a shared handle to
    /// its observation log.
    pub fn new(name: impl Into<String>) -> (Self, ObservationLog) {
        let log: ObservationLog = Arc::new(Mutex::new(Vec::new()));
        (
            Eavesdropper {
                log: Arc::clone(&log),
                name: name.into(),
            },
            log,
        )
    }
}

impl Tap for Eavesdropper {
    fn observe(&mut self, packet: &Packet, now: Instant, _out: &mut Vec<Injection>) {
        self.log.lock().unwrap().push(Observation {
            at: now,
            packet: packet.clone(),
        });
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Crafts spoofed TCP segments from observed client traffic.
///
/// The injector is a pure helper: given an observed client→server packet it
/// produces the server→client segments an off-path attacker would forge. The
/// sequence number of the spoofed response is the ACK the client just sent
/// (the next byte it expects from the server) and the acknowledgement number
/// covers the client's request — both read directly off the wire, no guessing
/// required.
#[derive(Debug, Clone)]
pub struct Injector {
    /// Reaction time between observing the request and emitting the spoofed
    /// response. Defaults to 300 µs: a co-located attacker answering from RAM.
    pub reaction_time: Duration,
    /// Maximum payload bytes per spoofed segment.
    pub mss: usize,
}

impl Default for Injector {
    fn default() -> Self {
        Injector {
            reaction_time: Duration::from_micros(300),
            mss: DEFAULT_MSS,
        }
    }
}

impl Injector {
    /// Creates an injector with the given reaction time.
    pub fn new(reaction_time: Duration) -> Self {
        Injector {
            reaction_time,
            ..Default::default()
        }
    }

    /// Builds the spoofed server response for an observed client request
    /// packet, appending one injection per MSS-sized spoofed segment to
    /// `out`. The segments slice the shared `payload` buffer, so a master
    /// replaying a prepared object pays no per-injection allocation.
    ///
    /// Appends nothing if the observed packet carries no payload (there is
    /// nothing to respond to yet).
    pub fn forge_response_bytes(&self, observed: &Packet, payload: Bytes, out: &mut Vec<Injection>) {
        if observed.segment.payload.is_empty() {
            return;
        }
        let tuple: FourTuple = observed.four_tuple();
        // The spoofed response impersonates the server: source = the server
        // endpoint the client was talking to.
        let src_ip: IpAddr = tuple.dst.ip;
        let dst_ip: IpAddr = tuple.src.ip;
        let src_port = tuple.dst.port;
        let dst_port = tuple.src.port;

        // Sequence number: the client's ACK field is exactly the next byte it
        // expects from the server.
        let mut seq: SeqNum = observed.segment.ack;
        // Acknowledge everything the client has sent including this request.
        let ack: SeqNum = observed.segment.seq_end();

        let mut offset = 0usize;
        while offset < payload.len() {
            let end = (offset + self.mss).min(payload.len());
            let chunk = payload.slice(offset..end);
            let len = chunk.len() as u32;
            let mut segment = Segment::data(src_port, dst_port, seq, ack, chunk);
            segment.window = observed.segment.window;
            seq = seq + len;
            out.push(Injection {
                delay: self.reaction_time,
                packet: Packet::new(src_ip, dst_ip, segment).spoofed(),
            });
            offset = end;
        }
    }

    /// Builds a spoofed RST that would tear down the observed connection.
    #[cfg(test)]
    fn forge_reset(&self, observed: &Packet) -> Injection {
        let tuple = observed.four_tuple();
        let segment = Segment::control(
            tuple.dst.port,
            tuple.src.port,
            observed.segment.ack,
            observed.segment.seq_end(),
            crate::packet::TcpFlags::RST,
        );
        Injection {
            delay: self.reaction_time,
            packet: Packet::new(tuple.dst.ip, tuple.src.ip, segment).spoofed(),
        }
    }
}

/// A [`Tap`] that injects a canned spoofed response whenever an observed
/// packet's payload satisfies a predicate.
///
/// This is the minimal "master" used by netsim's own tests; the full master in
/// the `parasite` crate implements [`Tap`] itself with far richer behaviour
/// (object matching, parasite construction, C&C).
pub struct ResponseInjector {
    injector: Injector,
    matcher: PayloadMatcher,
    response_builder: ResponseBuilder,
    injected_count: usize,
    name: String,
}

/// Predicate over an observed payload deciding whether to attack.
pub type PayloadMatcher = Box<dyn Fn(&[u8]) -> bool + Send>;

/// Builds the spoofed response bytes from the observed request payload.
pub type ResponseBuilder = Box<dyn FnMut(&[u8]) -> Vec<u8> + Send>;

impl std::fmt::Debug for ResponseInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseInjector")
            .field("name", &self.name)
            .field("injected_count", &self.injected_count)
            .finish()
    }
}

impl ResponseInjector {
    /// Creates a response injector.
    ///
    /// `matcher` decides (from the observed payload) whether to attack;
    /// `response_builder` produces the spoofed response bytes from the
    /// observed request payload.
    pub fn new(
        name: impl Into<String>,
        injector: Injector,
        matcher: impl Fn(&[u8]) -> bool + Send + 'static,
        response_builder: impl FnMut(&[u8]) -> Vec<u8> + Send + 'static,
    ) -> Self {
        ResponseInjector {
            injector,
            matcher: Box::new(matcher),
            response_builder: Box::new(response_builder),
            injected_count: 0,
            name: name.into(),
        }
    }

    /// Number of injections performed so far.
    pub fn injected_count(&self) -> usize {
        self.injected_count
    }
}

impl Tap for ResponseInjector {
    fn observe(&mut self, packet: &Packet, _now: Instant, out: &mut Vec<Injection>) {
        if packet.segment.payload.is_empty() || !(self.matcher)(&packet.segment.payload) {
            return;
        }
        let response = (self.response_builder)(&packet.segment.payload);
        let before = out.len();
        self.injector
            .forge_response_bytes(packet, Bytes::copy_from_slice(&response), out);
        if out.len() > before {
            self.injected_count += 1;
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SocketAddr;

    fn observed_request() -> Packet {
        let seg = Segment::data(
            51000,
            80,
            SeqNum::new(1001),
            SeqNum::new(5001),
            &b"GET /my.js HTTP/1.1\r\nHost: somesite.com\r\n\r\n"[..],
        );
        Packet::new(IpAddr::new(10, 0, 0, 2), IpAddr::new(203, 0, 113, 10), seg)
    }

    #[test]
    fn forged_response_impersonates_server_and_uses_observed_numbers() {
        let injector = Injector::default();
        let observed = observed_request();
        let mut injections = Vec::new();
        let response = Bytes::from_static(b"HTTP/1.1 200 OK\r\n\r\nevil");
        injector.forge_response_bytes(&observed, response, &mut injections);
        assert_eq!(injections.len(), 1);
        let pkt = &injections[0].packet;
        assert!(pkt.spoofed);
        assert_eq!(pkt.src_ip, IpAddr::new(203, 0, 113, 10));
        assert_eq!(pkt.dst_ip, IpAddr::new(10, 0, 0, 2));
        assert_eq!(pkt.segment.src_port, 80);
        assert_eq!(pkt.segment.dst_port, 51000);
        // SEQ taken from the client's ACK, ACK covers the request bytes.
        assert_eq!(pkt.segment.seq, SeqNum::new(5001));
        assert_eq!(
            pkt.segment.ack,
            SeqNum::new(1001 + observed.segment.payload.len() as u32)
        );
    }

    #[test]
    fn forged_response_is_segmented_at_mss() {
        let injector = Injector::default();
        let observed = observed_request();
        let big = vec![b'x'; DEFAULT_MSS * 2 + 17];
        let mut injections = Vec::new();
        injector.forge_response_bytes(&observed, Bytes::from(big), &mut injections);
        assert_eq!(injections.len(), 3);
        // Sequence numbers are contiguous across spoofed segments.
        assert_eq!(
            injections[1].packet.segment.seq,
            injections[0].packet.segment.seq_end()
        );
    }

    #[test]
    fn no_response_is_forged_for_empty_observations() {
        let injector = Injector::default();
        let seg = Segment::control(51000, 80, SeqNum::new(1), SeqNum::new(1), crate::packet::TcpFlags::ACK);
        let pkt = Packet::new(IpAddr::new(10, 0, 0, 2), IpAddr::new(203, 0, 113, 10), seg);
        let mut injections = Vec::new();
        injector.forge_response_bytes(&pkt, Bytes::from_static(b"data"), &mut injections);
        assert!(injections.is_empty());
    }

    #[test]
    fn eavesdropper_records_observations() {
        let (mut tap, log) = Eavesdropper::new("sniffer");
        let pkt = observed_request();
        let mut injections = Vec::new();
        tap.observe(&pkt, Instant::from_micros(55), &mut injections);
        assert!(injections.is_empty());
        let observations = log.lock().unwrap();
        assert_eq!(observations.len(), 1);
        assert_eq!(observations[0].at, Instant::from_micros(55));
        assert_eq!(observations[0].packet.segment.dst_port, 80);
    }

    #[test]
    fn response_injector_only_fires_on_matching_payloads() {
        let mut tap = ResponseInjector::new(
            "master",
            Injector::default(),
            |payload| payload.starts_with(b"GET /my.js"),
            |_req| b"HTTP/1.1 200 OK\r\n\r\nparasite".to_vec(),
        );
        let miss_seg = Segment::data(51000, 80, SeqNum::new(1), SeqNum::new(1), &b"GET /other.js"[..]);
        let miss = Packet::new(IpAddr::new(10, 0, 0, 2), IpAddr::new(203, 0, 113, 10), miss_seg);
        let mut injections = Vec::new();
        tap.observe(&miss, Instant::ZERO, &mut injections);
        assert!(injections.is_empty());
        assert_eq!(tap.injected_count(), 0);

        let hit = observed_request();
        tap.observe(&hit, Instant::ZERO, &mut injections);
        assert_eq!(injections.len(), 1);
        assert_eq!(tap.injected_count(), 1);
        assert!(injections[0].packet.spoofed);
    }

    #[test]
    fn forge_reset_targets_the_client() {
        let injector = Injector::default();
        let observed = observed_request();
        let rst = injector.forge_reset(&observed);
        assert!(rst.packet.segment.flags.rst);
        assert_eq!(
            rst.packet.four_tuple().dst,
            SocketAddr::new(IpAddr::new(10, 0, 0, 2), 51000)
        );
    }
}
