//! The attacker's packet-level interface: the [`Tap`] trait and the TCP
//! segment [`Injector`].
//!
//! The paper's attacker model (§III) is an eavesdropper on a shared wireless
//! network: it **sees** every segment the victim sends (source port, sequence
//! and acknowledgement numbers) but cannot block or modify traffic. From an
//! observed HTTP request it crafts a spoofed response segment impersonating
//! the server and races it against the genuine response; because the local
//! attacker answers within microseconds while the real server is tens of
//! milliseconds away, the spoofed segment arrives first and
//! first-segment-wins reassembly does the rest (§V, Figure 2). The master
//! itself, the one tap the experiments attach, is `parasite`'s `MasterTap`.

use crate::addr::{FourTuple, IpAddr};
use crate::packet::{Packet, Segment, DEFAULT_MSS};
use crate::seq::SeqNum;
use crate::time::{Duration, Instant};
use bytes::Bytes;

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
