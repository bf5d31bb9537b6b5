//! Packet and TCP segment model.
//!
//! The simulator works at the granularity of TCP segments wrapped in a thin
//! IPv4 envelope. Only the header fields that matter for the Master and
//! Parasite attack are modelled: addresses, ports, sequence and
//! acknowledgement numbers, flags, the receive window and the payload.

use crate::addr::{FourTuple, IpAddr, SocketAddr};
use crate::seq::SeqNum;
use bytes::Bytes;
use std::fmt;

/// Default maximum segment size used by simulated hosts, in bytes.
///
/// 1460 matches an Ethernet MTU of 1500 minus 40 bytes of IPv4+TCP headers,
/// which is what the victims on the paper's WiFi network would negotiate.
pub const DEFAULT_MSS: usize = 1460;

/// TCP header flags. Only the flags the simulation acts upon are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// Synchronise sequence numbers (connection setup).
    pub syn: bool,
    /// Acknowledgement field is significant.
    pub ack: bool,
    /// No more data from sender (connection teardown).
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push buffered data to the application promptly.
    pub psh: bool,
}

impl TcpFlags {
    /// Flags for an initial SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };

    /// Flags for a SYN-ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    /// Flags for a plain ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    /// Flags for a data segment (PSH+ACK).
    pub const PSH_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: true,
    };

    /// Flags for a FIN-ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };

    /// Flags for an RST.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        if self.syn {
            names.push("SYN");
        }
        if self.fin {
            names.push("FIN");
        }
        if self.rst {
            names.push("RST");
        }
        if self.psh {
            names.push("PSH");
        }
        if self.ack {
            names.push("ACK");
        }
        if names.is_empty() {
            names.push("-");
        }
        write!(f, "{}", names.join("+"))
    }
}

/// A TCP segment: header fields plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Acknowledgement number (next byte expected from the peer).
    pub ack: SeqNum,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub window: u32,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Segment {
    /// Creates a data segment.
    pub fn data(
        src_port: u16,
        dst_port: u16,
        seq: SeqNum,
        ack: SeqNum,
        payload: impl Into<Bytes>,
    ) -> Self {
        Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags::PSH_ACK,
            window: 65_535,
            payload: payload.into(),
        }
    }

    /// Creates a control (payload-less) segment with the given flags.
    pub fn control(src_port: u16, dst_port: u16, seq: SeqNum, ack: SeqNum, flags: TcpFlags) -> Self {
        Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65_535,
            payload: Bytes::new(),
        }
    }

    /// Length the segment occupies in sequence space: payload bytes plus one
    /// for SYN and one for FIN.
    pub fn seq_len(&self) -> u32 {
        let mut len = self.payload.len() as u32;
        if self.flags.syn {
            len += 1;
        }
        if self.flags.fin {
            len += 1;
        }
        len
    }

    /// Sequence number one past the last byte of this segment.
    pub fn seq_end(&self) -> SeqNum {
        self.seq + self.seq_len()
    }
}

/// An IPv4 packet carrying one TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source IP address. The attacker sets this to the server's address when
    /// spoofing, which is exactly why the victim cannot tell injected segments
    /// from genuine ones.
    pub src_ip: IpAddr,
    /// Destination IP address.
    pub dst_ip: IpAddr,
    /// Time-to-live. Kept because some middlebox models inspect it.
    pub ttl: u8,
    /// The TCP segment.
    pub segment: Segment,
    /// True if the packet was crafted by an attacker rather than a genuine
    /// endpoint. This flag is *metadata for measurement only*: no simulated
    /// component is allowed to base protocol decisions on it (the victim
    /// cannot see it), but experiment harnesses use it to attribute outcomes.
    pub spoofed: bool,
}

impl Packet {
    /// Wraps a segment in an IPv4 envelope.
    pub fn new(src_ip: IpAddr, dst_ip: IpAddr, segment: Segment) -> Self {
        Packet {
            src_ip,
            dst_ip,
            ttl: 64,
            segment,
            spoofed: false,
        }
    }

    /// Marks the packet as attacker-crafted (measurement metadata only).
    pub fn spoofed(mut self) -> Self {
        self.spoofed = true;
        self
    }

    /// Returns the connection four-tuple in the direction of this packet.
    pub fn four_tuple(&self) -> FourTuple {
        FourTuple::new(
            SocketAddr::new(self.src_ip, self.segment.src_port),
            SocketAddr::new(self.dst_ip, self.segment.dst_port),
        )
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} [{}] seq={} ack={} len={}{}",
            self.src_ip,
            self.segment.src_port,
            self.dst_ip,
            self.segment.dst_port,
            self.segment.flags,
            self.segment.seq,
            self.segment.ack,
            self.segment.payload.len(),
            if self.spoofed { " (spoofed)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let syn = Segment::control(1000, 80, SeqNum::new(5), SeqNum::new(0), TcpFlags::SYN);
        assert_eq!(syn.seq_len(), 1);
        assert_eq!(syn.seq_end(), SeqNum::new(6));

        let fin = Segment::control(1000, 80, SeqNum::new(5), SeqNum::new(0), TcpFlags::FIN_ACK);
        assert_eq!(fin.seq_len(), 1);

        let data = Segment::data(1000, 80, SeqNum::new(5), SeqNum::new(0), &b"hello"[..]);
        assert_eq!(data.seq_len(), 5);
        assert_eq!(data.seq_end(), SeqNum::new(10));
    }

    #[test]
    fn packet_four_tuple_matches_header_fields() {
        let seg = Segment::data(51000, 80, SeqNum::new(1), SeqNum::new(1), &b"x"[..]);
        let pkt = Packet::new(IpAddr::new(10, 0, 0, 2), IpAddr::new(93, 184, 216, 34), seg);
        let tuple = pkt.four_tuple();
        assert_eq!(tuple.src.port, 51000);
        assert_eq!(tuple.dst.port, 80);
        assert_eq!(tuple.dst.ip, IpAddr::new(93, 184, 216, 34));
    }

    #[test]
    fn spoofed_flag_is_metadata_only() {
        let seg = Segment::data(80, 51000, SeqNum::new(1), SeqNum::new(1), &b"evil"[..]);
        let genuine = Packet::new(IpAddr::new(93, 184, 216, 34), IpAddr::new(10, 0, 0, 2), seg.clone());
        let spoofed = Packet::new(IpAddr::new(93, 184, 216, 34), IpAddr::new(10, 0, 0, 2), seg).spoofed();
        // Identical on the wire as far as any simulated endpoint is concerned.
        assert_eq!(genuine.four_tuple(), spoofed.four_tuple());
        assert_eq!(genuine.segment, spoofed.segment);
        assert!(spoofed.spoofed && !genuine.spoofed);
    }

    #[test]
    fn display_mentions_flags_and_spoofing() {
        let seg = Segment::control(80, 51000, SeqNum::new(9), SeqNum::new(3), TcpFlags::SYN_ACK);
        let pkt = Packet::new(IpAddr::new(1, 2, 3, 4), IpAddr::new(5, 6, 7, 8), seg).spoofed();
        let line = pkt.to_string();
        assert!(line.contains("SYN+ACK"));
        assert!(line.contains("(spoofed)"));
    }
}
