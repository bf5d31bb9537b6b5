//! TCP connection state machine and first-segment-wins reassembly.
//!
//! This module implements the subset of TCP behaviour that the Master and
//! Parasite attack relies on:
//!
//! * the three-way handshake, so sequence numbers are established the same
//!   way they are on a real network,
//! * in-window acceptance of data segments,
//! * **first-segment-wins reassembly**: once bytes for a given range of the
//!   sequence space have been accepted, later segments for the same range are
//!   ignored. This is the standard behaviour that lets an eavesdropping
//!   attacker who answers *faster than the genuine server* have its spoofed
//!   payload accepted while the genuine response is discarded as a duplicate
//!   (paper §V, Figure 2).
//! * RST and FIN handling, so middlebox and teardown experiments behave
//!   plausibly.
//!
//! Received data is not copied while it fits in one segment: the reassembled
//! stream is then a zero-copy slice of that segment's payload, and
//! [`TcpConnection::take_new_bytes`] slices it again. The stream is copied
//! into an owned buffer only when a second segment extends it.

use crate::addr::SocketAddr;
use crate::error::NetError;
use crate::packet::{Segment, TcpFlags, DEFAULT_MSS};
use crate::seq::SeqNum;
use bytes::Bytes;
use std::collections::BTreeMap;

/// States of the TCP state machine (condensed to those the simulation needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent, waiting for SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent, waiting for ACK.
    SynReceived,
    /// Connection established; data may flow.
    Established,
    /// We sent FIN and are draining.
    FinWait,
    /// Peer sent FIN; we may still send.
    CloseWait,
    /// Connection was reset.
    Reset,
}

/// Outcome of processing one incoming segment, used by experiment harnesses
/// to attribute which bytes ended up in the application stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// The segment carried no new data (pure ACK, duplicate, out of window).
    NoData,
    /// New bytes were accepted into the reassembly buffer.
    Accepted {
        /// Number of new payload bytes accepted.
        fresh_bytes: usize,
    },
    /// The payload overlapped already-received sequence space entirely and
    /// was dropped — this is what happens to the *losing* side of an
    /// injection race.
    DuplicateDropped,
    /// The segment was rejected because it fell outside the receive window.
    OutOfWindow,
    /// The segment reset the connection.
    ResetReceived,
}

/// First-segment-wins reassembly buffer.
///
/// Bytes are addressed by their offset from the initial receive sequence
/// number. For every offset the *first* byte value accepted is kept; later
/// arrivals for the same offset are discarded.
///
/// The contiguous stream is shared, not copied, for as long as one in-order
/// segment has built it: [`Reassembler::offer_bytes`] keeps a zero-copy
/// slice of that segment's payload. The stream is copied into an owned
/// buffer only when a second segment extends it (or bytes arrive out of
/// order), so a one-segment request or response costs no allocation.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    /// Contiguous, application-visible stream.
    stream: Stream,
    /// Out-of-order byte ranges, keyed by stream offset.
    pending: BTreeMap<u64, Vec<u8>>,
}

/// The contiguous stream of a [`Reassembler`].
#[derive(Debug, Clone)]
enum Stream {
    /// Built by at most one segment: a slice of its payload.
    Shared(Bytes),
    /// Extended by more than one segment: an owned copy.
    Owned(Vec<u8>),
}

impl Default for Stream {
    fn default() -> Self {
        Stream::Shared(Bytes::new())
    }
}

impl Stream {
    fn as_slice(&self) -> &[u8] {
        match self {
            Stream::Shared(bytes) => bytes,
            Stream::Owned(vec) => vec,
        }
    }

    /// Appends `data`, first copying a shared stream into an owned buffer.
    fn extend(&mut self, data: &[u8]) {
        match self {
            Stream::Owned(vec) => vec.extend_from_slice(data),
            Stream::Shared(bytes) => {
                let mut vec = Vec::with_capacity(bytes.len() + data.len());
                vec.extend_from_slice(bytes);
                vec.extend_from_slice(data);
                *self = Stream::Owned(vec);
            }
        }
    }
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of contiguous bytes delivered so far.
    pub fn assembled_len(&self) -> u64 {
        self.stream.as_slice().len() as u64
    }

    /// Offers `data` starting at `offset` (relative to the initial sequence
    /// number). Returns the number of *fresh* bytes that had not been covered
    /// by earlier segments. While the stream is empty and `data` extends it
    /// in order, the stream becomes a zero-copy slice of `data` instead of a
    /// copy.
    pub fn offer_bytes(&mut self, offset: u64, data: &Bytes) -> usize {
        if data.is_empty() {
            return 0;
        }
        let end = offset + data.len() as u64;
        let assembled_len = self.assembled_len();

        // In-order fast path (the overwhelmingly common case): no buffered
        // out-of-order ranges and the segment touches the contiguous prefix,
        // so the new tail extends the stream directly — no range buffer is
        // allocated and every byte is copied at most once.
        if self.pending.is_empty() && offset <= assembled_len {
            if end <= assembled_len {
                return 0;
            }
            let skip = (assembled_len - offset) as usize;
            match &mut self.stream {
                Stream::Shared(stream) if stream.is_empty() => *stream = data.slice(skip..),
                stream => stream.extend(&data[skip..]),
            }
            return data.len() - skip;
        }

        let mut fresh = 0usize;
        // Portion that extends the contiguous prefix or fills later gaps.
        let mut cursor = offset.max(assembled_len);
        while cursor < end {
            // Skip ranges already buffered out-of-order (first segment wins).
            if let Some((&pstart, pdata)) = self.pending.range(..=cursor).next_back() {
                let pend = pstart + pdata.len() as u64;
                if cursor < pend {
                    cursor = pend;
                    continue;
                }
            }
            // Find where the next already-buffered range begins, to bound this gap.
            let gap_end = self
                .pending
                .range(cursor..)
                .next()
                .map(|(&s, _)| s.min(end))
                .unwrap_or(end);
            if gap_end <= cursor {
                break;
            }
            let slice = &data[(cursor - offset) as usize..(gap_end - offset) as usize];
            fresh += slice.len();
            self.pending.insert(cursor, slice.to_vec());
            cursor = gap_end;
        }

        self.drain_contiguous();
        fresh
    }

    /// Moves pending ranges that are now contiguous with the assembled prefix
    /// into the application stream.
    fn drain_contiguous(&mut self) {
        loop {
            let next_offset = self.assembled_len();
            match self.pending.remove(&next_offset) {
                Some(chunk) => self.stream.extend(&chunk),
                None => break,
            }
        }
    }

    /// Returns the contiguous application-visible byte stream.
    pub fn assembled(&self) -> &[u8] {
        self.stream.as_slice()
    }

    /// The stream from `start` on as a shared buffer: a zero-copy slice while
    /// the stream is shared, a copy once it is owned.
    fn assembled_from(&self, start: usize) -> Bytes {
        match &self.stream {
            Stream::Shared(bytes) => bytes.slice(start..),
            Stream::Owned(vec) => Bytes::copy_from_slice(&vec[start..]),
        }
    }
}

/// A single TCP connection endpoint (one side of a connection).
#[derive(Debug, Clone)]
pub struct TcpConnection {
    state: TcpState,
    local: SocketAddr,
    remote: SocketAddr,
    /// Initial send sequence number.
    iss: SeqNum,
    /// Initial receive sequence number (peer's ISS), valid after SYN seen.
    irs: SeqNum,
    /// Next sequence number we will send.
    snd_nxt: SeqNum,
    /// Highest cumulative ACK received from the peer.
    snd_una: SeqNum,
    /// Next sequence number expected from the peer.
    rcv_nxt: SeqNum,
    /// Receive window we advertise.
    rcv_wnd: u32,
    /// Maximum segment size for outgoing data.
    mss: usize,
    reassembler: Reassembler,
    /// Bytes already handed to the application.
    delivered: usize,
}

impl TcpConnection {
    /// Creates a connection in the `Listen` state (passive open).
    pub fn listen(local: SocketAddr, iss: SeqNum) -> Self {
        TcpConnection {
            state: TcpState::Listen,
            local,
            remote: SocketAddr::new(crate::addr::IpAddr::UNSPECIFIED, 0),
            iss,
            irs: SeqNum::new(0),
            snd_nxt: iss,
            snd_una: iss,
            rcv_nxt: SeqNum::new(0),
            rcv_wnd: 65_535,
            mss: DEFAULT_MSS,
            reassembler: Reassembler::new(),
            delivered: 0,
        }
    }

    /// A passive open created for a SYN from `peer`: a [`TcpConnection::listen`]
    /// connection whose remote endpoint is known from the start, so the
    /// host can demultiplex on it before the SYN is processed.
    pub(crate) fn accept(local: SocketAddr, peer: SocketAddr, iss: SeqNum) -> Self {
        TcpConnection {
            remote: peer,
            ..TcpConnection::listen(local, iss)
        }
    }

    /// Creates a connection performing an active open and returns the SYN to
    /// transmit.
    pub fn connect(local: SocketAddr, remote: SocketAddr, iss: SeqNum) -> (Self, Segment) {
        let syn = Segment::control(local.port, remote.port, iss, SeqNum::new(0), TcpFlags::SYN);
        let conn = TcpConnection {
            state: TcpState::SynSent,
            local,
            remote,
            iss,
            irs: SeqNum::new(0),
            snd_nxt: iss + 1,
            snd_una: iss,
            rcv_nxt: SeqNum::new(0),
            rcv_wnd: 65_535,
            mss: DEFAULT_MSS,
            reassembler: Reassembler::new(),
            delivered: 0,
        };
        (conn, syn)
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local endpoint.
    pub fn local(&self) -> SocketAddr {
        self.local
    }

    /// Remote endpoint (unspecified until a SYN is received on a listener).
    pub fn remote(&self) -> SocketAddr {
        self.remote
    }

    /// Next sequence number this endpoint will use for new data.
    #[cfg(test)]
    fn send_next(&self) -> SeqNum {
        self.snd_nxt
    }

    /// Next sequence number expected from the peer. An eavesdropper who has
    /// seen the client's request knows this value for the server direction,
    /// which is all it needs to spoof an acceptable response.
    #[cfg(test)]
    fn recv_next(&self) -> SeqNum {
        self.rcv_nxt
    }

    /// Returns `true` once the three-way handshake has completed.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait
        )
    }

    /// Queues application data for transmission, segmenting at the MSS, and
    /// appends the segments to hand to the network layer to `out`. Each
    /// segment payload is a zero-copy slice of `data`, and `out` is
    /// caller-owned so the hot service path can reuse one segment scratch
    /// vector across sends.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidState`] if the connection is not
    /// established (nothing is appended to `out`).
    pub fn send_bytes_into(&mut self, data: Bytes, out: &mut Vec<Segment>) -> Result<(), NetError> {
        if !self.is_established() {
            return Err(NetError::InvalidState {
                reason: format!("cannot send in state {:?}", self.state),
            });
        }
        let mut offset = 0usize;
        while offset < data.len() {
            let end = (offset + self.mss).min(data.len());
            let chunk = data.slice(offset..end);
            let len = chunk.len() as u32;
            let seg = Segment::data(
                self.local.port,
                self.remote.port,
                self.snd_nxt,
                self.rcv_nxt,
                chunk,
            );
            self.snd_nxt = self.snd_nxt + len;
            out.push(seg);
            offset = end;
        }
        Ok(())
    }

    /// Initiates connection teardown, returning the FIN segment.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidState`] if the connection is not established.
    pub fn close(&mut self) -> Result<Segment, NetError> {
        if !self.is_established() {
            return Err(NetError::InvalidState {
                reason: format!("cannot close in state {:?}", self.state),
            });
        }
        let fin = Segment::control(
            self.local.port,
            self.remote.port,
            self.snd_nxt,
            self.rcv_nxt,
            TcpFlags::FIN_ACK,
        );
        self.snd_nxt = self.snd_nxt + 1;
        self.state = TcpState::FinWait;
        Ok(fin)
    }

    /// Processes an incoming segment from `peer`, appending any segments to
    /// send in response to `responses` and returning a record of what
    /// happened to the payload. The buffer is caller-owned, so the
    /// simulator's event loop reuses one segment vector across deliveries
    /// instead of allocating per event.
    pub fn on_segment_into(
        &mut self,
        peer: SocketAddr,
        seg: &Segment,
        responses: &mut Vec<Segment>,
    ) -> AcceptOutcome {
        if seg.flags.rst {
            if self.state != TcpState::Listen && self.state != TcpState::Closed {
                self.state = TcpState::Reset;
            }
            return AcceptOutcome::ResetReceived;
        }

        match self.state {
            TcpState::Listen => self.on_segment_listen(peer, seg, responses),
            TcpState::SynSent => self.on_segment_syn_sent(seg, responses),
            TcpState::SynReceived => {
                if seg.flags.ack {
                    self.state = TcpState::Established;
                    self.snd_una = seg.ack;
                }
                // The ACK completing the handshake may already carry data.
                if !seg.payload.is_empty() {
                    self.on_data(seg, responses)
                } else {
                    AcceptOutcome::NoData
                }
            }
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait => {
                self.on_data(seg, responses)
            }
            TcpState::Closed | TcpState::Reset => {
                // A closed endpoint answers with RST.
                responses.push(Segment::control(
                    self.local.port,
                    peer.port,
                    seg.ack,
                    seg.seq_end(),
                    TcpFlags::RST,
                ));
                AcceptOutcome::NoData
            }
        }
    }

    fn on_segment_listen(
        &mut self,
        peer: SocketAddr,
        seg: &Segment,
        responses: &mut Vec<Segment>,
    ) -> AcceptOutcome {
        if !seg.flags.syn {
            return AcceptOutcome::NoData;
        }
        self.remote = peer;
        self.irs = seg.seq;
        self.rcv_nxt = seg.seq + 1;
        self.state = TcpState::SynReceived;
        responses.push(Segment::control(
            self.local.port,
            peer.port,
            self.iss,
            self.rcv_nxt,
            TcpFlags::SYN_ACK,
        ));
        self.snd_nxt = self.iss + 1;
        AcceptOutcome::NoData
    }

    fn on_segment_syn_sent(&mut self, seg: &Segment, responses: &mut Vec<Segment>) -> AcceptOutcome {
        if !(seg.flags.syn && seg.flags.ack) {
            return AcceptOutcome::NoData;
        }
        self.irs = seg.seq;
        self.rcv_nxt = seg.seq + 1;
        self.snd_una = seg.ack;
        self.state = TcpState::Established;
        responses.push(Segment::control(
            self.local.port,
            self.remote.port,
            self.snd_nxt,
            self.rcv_nxt,
            TcpFlags::ACK,
        ));
        AcceptOutcome::NoData
    }

    fn on_data(&mut self, seg: &Segment, responses: &mut Vec<Segment>) -> AcceptOutcome {
        if seg.flags.ack {
            self.snd_una = seg.ack;
        }

        let mut outcome = AcceptOutcome::NoData;
        if !seg.payload.is_empty() {
            let window_start = self.rcv_nxt;
            let payload_len = seg.payload.len() as u32;
            let seg_end = seg.seq + payload_len;
            if seg_end.precedes_or_eq(window_start) {
                // Entirely old data: the losing side of an injection race or a
                // retransmission. Acknowledged below but the payload is dropped.
                outcome = AcceptOutcome::DuplicateDropped;
            } else {
                // The segment must overlap [rcv_nxt, rcv_nxt + rcv_wnd).
                let in_window = seg.seq.in_window(window_start, self.rcv_wnd)
                    || window_start.in_window(seg.seq, payload_len);
                if !in_window {
                    return AcceptOutcome::OutOfWindow;
                }
                let offset = self.irs.distance_to(seg.seq) as u64;
                // Offset 0 is the SYN; payload starts at stream offset (offset - 1).
                let stream_offset = offset.saturating_sub(1);
                let fresh = self.reassembler.offer_bytes(stream_offset, &seg.payload);
                outcome = if fresh > 0 {
                    AcceptOutcome::Accepted { fresh_bytes: fresh }
                } else {
                    AcceptOutcome::DuplicateDropped
                };
                self.rcv_nxt = self.irs + 1 + self.reassembler.assembled_len() as u32;
            }
        }

        if seg.flags.fin {
            self.rcv_nxt = self.rcv_nxt + 1;
            if self.state == TcpState::Established {
                self.state = TcpState::CloseWait;
            } else if self.state == TcpState::FinWait {
                self.state = TcpState::Closed;
            }
        }
        if !seg.payload.is_empty() || seg.flags.fin {
            responses.push(Segment::control(
                self.local.port,
                self.remote.port,
                self.snd_nxt,
                self.rcv_nxt,
                TcpFlags::ACK,
            ));
        }
        outcome
    }

    /// Returns application data that has become available since the last
    /// call, sliced from the received stream. While one segment has built the
    /// stream the slice shares that segment's payload (no copy); once the
    /// stream is owned the new bytes are copied out. Empty when nothing new
    /// arrived.
    pub fn take_new_bytes(&mut self) -> Bytes {
        let len = self.reassembler.assembled().len();
        if self.delivered >= len {
            return Bytes::new();
        }
        let new = self.reassembler.assembled_from(self.delivered);
        self.delivered = len;
        new
    }

    /// Returns the entire contiguous byte stream received so far.
    pub fn received(&self) -> &[u8] {
        self.reassembler.assembled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;

    fn addrs() -> (SocketAddr, SocketAddr) {
        (
            SocketAddr::new(IpAddr::new(10, 0, 0, 2), 51000),
            SocketAddr::new(IpAddr::new(93, 184, 216, 34), 80),
        )
    }

    /// Sends `data` on `conn`, returning the segments to transmit.
    fn send(conn: &mut TcpConnection, data: &[u8]) -> Result<Vec<Segment>, NetError> {
        let mut segments = Vec::new();
        conn.send_bytes_into(Bytes::copy_from_slice(data), &mut segments)?;
        Ok(segments)
    }

    /// Delivers `seg` from `peer` to `conn`, returning the responses and the
    /// outcome.
    fn deliver(conn: &mut TcpConnection, peer: SocketAddr, seg: &Segment) -> (Vec<Segment>, AcceptOutcome) {
        let mut responses = Vec::new();
        let outcome = conn.on_segment_into(peer, seg, &mut responses);
        (responses, outcome)
    }

    /// Runs a full handshake between a client and a server connection.
    fn handshake() -> (TcpConnection, TcpConnection) {
        let (client_addr, server_addr) = addrs();
        let (mut client, syn) = TcpConnection::connect(client_addr, server_addr, SeqNum::new(1000));
        let mut server = TcpConnection::listen(server_addr, SeqNum::new(5000));

        let (synack, _) = deliver(&mut server, client_addr, &syn);
        assert_eq!(synack.len(), 1);
        let (ack, _) = deliver(&mut client, server_addr, &synack[0]);
        assert_eq!(ack.len(), 1);
        deliver(&mut server, client_addr, &ack[0]);

        assert!(client.is_established());
        assert!(server.is_established());
        (client, server)
    }

    #[test]
    fn three_way_handshake_establishes_both_sides() {
        let (client, server) = handshake();
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        // Server's rcv_nxt is the client's snd_nxt, as an eavesdropper would infer.
        assert_eq!(server.recv_next(), client.send_next());
    }

    #[test]
    fn data_transfer_delivers_in_order() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let segments = send(&mut client, b"GET / HTTP/1.1\r\n\r\n").unwrap();
        for seg in &segments {
            deliver(&mut server, client_addr, seg);
        }
        assert_eq!(server.received(), b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(server.take_new_bytes(), b"GET / HTTP/1.1\r\n\r\n");
        assert!(server.take_new_bytes().is_empty());
    }

    #[test]
    fn large_payload_is_segmented_at_mss() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let body = vec![0x61u8; DEFAULT_MSS * 2 + 100];
        let segments = send(&mut client, &body).unwrap();
        assert_eq!(segments.len(), 3);
        for seg in &segments {
            deliver(&mut server, client_addr, seg);
        }
        assert_eq!(server.received().len(), body.len());
    }

    #[test]
    fn first_segment_wins_over_later_duplicate() {
        let (client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let seq = client.send_next();

        // Attacker's spoofed payload arrives first for this sequence range.
        let spoofed = Segment::data(51000, 80, seq, server.send_next(), &b"EVIL DATA!"[..]);
        let (_, outcome1) = deliver(&mut server, client_addr, &spoofed);
        assert_eq!(outcome1, AcceptOutcome::Accepted { fresh_bytes: 10 });

        // Genuine payload for the same range arrives later and is dropped.
        let genuine = Segment::data(51000, 80, seq, server.send_next(), &b"real data."[..]);
        let (_, outcome2) = deliver(&mut server, client_addr, &genuine);
        assert_eq!(outcome2, AcceptOutcome::DuplicateDropped);

        assert_eq!(server.received(), b"EVIL DATA!");
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let (client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let seq = client.send_next();

        let part2 = Segment::data(51000, 80, seq + 5, server.send_next(), &b"world"[..]);
        let part1 = Segment::data(51000, 80, seq, server.send_next(), &b"hello"[..]);
        deliver(&mut server, client_addr, &part2);
        assert_eq!(server.received(), b"");
        deliver(&mut server, client_addr, &part1);
        assert_eq!(server.received(), b"helloworld");
    }

    #[test]
    fn out_of_window_segment_is_rejected() {
        let (client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let far_future = client.send_next() + 1_000_000;
        let seg = Segment::data(51000, 80, far_future, server.send_next(), &b"zzz"[..]);
        let (_, outcome) = deliver(&mut server, client_addr, &seg);
        assert_eq!(outcome, AcceptOutcome::OutOfWindow);
        assert!(server.received().is_empty());
    }

    #[test]
    fn rst_tears_down_the_connection() {
        let (mut client, _server) = handshake();
        let (_, server_addr) = addrs();
        let rst = Segment::control(80, 51000, SeqNum::new(0), SeqNum::new(0), TcpFlags::RST);
        let (_, outcome) = deliver(&mut client, server_addr, &rst);
        assert_eq!(outcome, AcceptOutcome::ResetReceived);
        assert_eq!(client.state(), TcpState::Reset);
        assert!(send(&mut client, b"more").is_err());
    }

    #[test]
    fn fin_moves_to_close_wait_and_acks() {
        let (mut client, mut server) = handshake();
        let (client_addr, server_addr) = addrs();
        let fin = client.close().unwrap();
        let (acks, _) = deliver(&mut server, client_addr, &fin);
        assert_eq!(server.state(), TcpState::CloseWait);
        assert_eq!(acks.len(), 1);
        deliver(&mut client, server_addr, &acks[0]);
        assert_eq!(client.state(), TcpState::FinWait);
    }

    #[test]
    fn send_before_handshake_is_an_error() {
        let (client_addr, server_addr) = addrs();
        let (mut client, _syn) = TcpConnection::connect(client_addr, server_addr, SeqNum::new(1));
        let err = send(&mut client, b"early").unwrap_err();
        assert!(matches!(err, NetError::InvalidState { .. }));
    }

    #[test]
    fn take_new_bytes_hands_over_zero_copy_chunks() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let segments = send(&mut client, b"GET /my.js HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(segments.len(), 1);
        deliver(&mut server, client_addr, &segments[0]);
        let new = server.take_new_bytes();
        assert_eq!(new, b"GET /my.js HTTP/1.1\r\n\r\n");
        // One segment built the stream: the slice shares its payload.
        assert_eq!(new.as_ptr(), segments[0].payload.as_ptr());
        // Nothing new: a second take yields nothing.
        assert!(server.take_new_bytes().is_empty());
    }

    #[test]
    fn take_new_bytes_copies_once_a_second_segment_extends_the_stream() {
        let (mut client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let first = send(&mut client, b"hello").unwrap();
        let second = send(&mut client, b" world").unwrap();
        deliver(&mut server, client_addr, &first[0]);
        deliver(&mut server, client_addr, &second[0]);
        let new = server.take_new_bytes();
        assert_eq!(new, b"hello world");
        assert_ne!(new.as_ptr(), first[0].payload.as_ptr());
        assert_eq!(server.received(), b"hello world");
    }

    #[test]
    fn out_of_order_chunks_are_stitched_correctly() {
        let (client, mut server) = handshake();
        let (client_addr, _) = addrs();
        let seq = client.send_next();
        let part2 = Segment::data(51000, 80, seq + 5, server.send_next(), &b"world"[..]);
        let part1 = Segment::data(51000, 80, seq, server.send_next(), &b"hello"[..]);
        deliver(&mut server, client_addr, &part2);
        deliver(&mut server, client_addr, &part1);
        assert_eq!(server.take_new_bytes(), b"helloworld");
    }

    #[test]
    fn reassembler_partial_overlap_keeps_first_bytes() {
        let mut r = Reassembler::new();
        assert_eq!(r.offer_bytes(0, &Bytes::from_static(b"AAAA")), 4);
        // Overlapping write: only the two new trailing bytes are fresh.
        assert_eq!(r.offer_bytes(2, &Bytes::from_static(b"BBBB")), 2);
        assert_eq!(r.assembled(), b"AAAABB");
    }

    #[test]
    fn reassembler_shares_a_one_segment_stream_until_a_second_extends_it() {
        let payload = Bytes::copy_from_slice(b"xxhello");
        let mut r = Reassembler::new();
        // An overlapping first segment: only its tail is new, and shared.
        assert_eq!(r.offer_bytes(0, &payload.slice(2..)), 5);
        assert_eq!(r.assembled().as_ptr(), payload[2..].as_ptr());
        assert_eq!(r.offer_bytes(3, &Bytes::copy_from_slice(b"lo world")), 6);
        assert_eq!(r.assembled(), b"hello world");
        assert_ne!(r.assembled().as_ptr(), payload[2..].as_ptr());
    }

    #[test]
    fn reassembler_fills_gap_between_pending_ranges() {
        let mut r = Reassembler::new();
        assert_eq!(r.offer_bytes(10, &Bytes::from_static(b"cc")), 2);
        assert_eq!(r.offer_bytes(0, &Bytes::from_static(b"aa")), 2);
        assert_eq!(r.assembled(), b"aa");
        assert_eq!(r.offer_bytes(2, &Bytes::from_static(b"bbbbbbbb")), 8);
        assert_eq!(r.assembled(), b"aabbbbbbbbcc");
    }
}
