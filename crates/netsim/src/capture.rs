//! Packet capture and message-flow traces.
//!
//! The paper illustrates its attack phases with message-sequence diagrams
//! (Figures 1, 2 and 4). The simulator records every transmission in a
//! [`Trace`] so the experiment harness can regenerate those flows as text.
//!
//! Traces are built for the hot path: endpoint names are interned once into a
//! name table and events carry compact [`NameId`] references instead of
//! per-event `String`s, and the recorder mode ([`TraceMode`]) bounds memory —
//! [`TraceMode::Full`] keeps every event (the classic behaviour),
//! [`TraceMode::Ring`] keeps only the most recent *n*, and
//! [`TraceMode::SummaryOnly`] keeps nothing but the running [`TraceSummary`]
//! counters, so population-scale sweeps retain no per-packet memory at all.

use crate::packet::Packet;
use crate::time::Instant;
use crate::fasthash::FxHashMap;
use std::collections::VecDeque;
use std::fmt;

/// Index into a [`Trace`]'s interned name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// How much of the packet flow a [`Trace`] retains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TraceMode {
    /// Keep every event (unbounded; the classic behaviour and the default).
    #[default]
    Full,
    /// Keep only the most recent `n` events in a ring buffer; older events are
    /// dropped (still counted in the [`TraceSummary`]).
    Ring(usize),
    /// Keep no events at all, only the running [`TraceSummary`] counters.
    SummaryOnly,
}

/// Running counters a [`Trace`] maintains in every mode, so bounded recorders
/// still answer "how much happened" questions.
///
/// The summary describes the *workload*, not the recorder: for the same run
/// it is byte-identical under [`TraceMode::Full`], [`TraceMode::Ring`] and
/// [`TraceMode::SummaryOnly`] — events evicted from a ring (or never retained
/// at all) still count here. How many events the recorder itself discarded is
/// recorder metadata, reported separately by [`Trace::recorder_dropped`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Transmissions seen (retained or not).
    pub total_events: u64,
    /// Attacker-injected transmissions seen.
    pub injected_events: u64,
    /// Transmissions carrying application payload.
    pub payload_events: u64,
    /// Total application payload bytes across all transmissions.
    pub payload_bytes: u64,
    /// Buffered pre-handshake send chunks evicted because their connection
    /// closed or was reset before establishing.
    pub pending_chunks_dropped: u64,
    /// Bytes in those evicted chunks.
    pub pending_bytes_dropped: u64,
}

/// One transmission recorded by the simulator.
///
/// Endpoint names are stored as [`NameId`] references into the owning
/// [`Trace`]'s name table; resolve them with [`Trace::name`] or render the
/// event with [`Trace::describe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time at which the packet left its sender.
    pub sent_at: Instant,
    /// Simulated time at which the packet reaches its destination.
    pub delivered_at: Instant,
    /// Interned sender name ("victim", "master", "server", ...).
    pub from: NameId,
    /// Interned receiver name.
    pub to: NameId,
    /// Whether the packet was injected by an attacker tap.
    pub injected: bool,
    /// The packet itself (payload shared with the delivered copy, not cloned).
    pub packet: Packet,
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}…", &s[..max])
    }
}

/// An ordered log of packet transmissions in a simulation run, with an
/// interned endpoint-name table and a bounded-memory recorder mode.
#[derive(Debug, Clone)]
pub struct Trace {
    mode: TraceMode,
    names: Vec<String>,
    // Interning table: keyed lookups only (the ordered view is `names`).
    // FxHashMap has no per-process RandomState, so even its internal layout
    // is reproducible across runs.
    name_index: FxHashMap<String, NameId>,
    events: VecDeque<TraceEvent>,
    summary: TraceSummary,
    /// Events the *recorder* discarded (ring overflow, summary-only mode or a
    /// mode switch). Kept outside [`TraceSummary`] so the summary stays
    /// byte-identical across recorder modes; `retained = total_events -
    /// recorder_dropped` still holds on every path.
    recorder_dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Creates an empty trace that retains every event ([`TraceMode::Full`]).
    pub fn new() -> Self {
        Trace::with_mode(TraceMode::Full)
    }

    /// Creates an empty trace with the given recorder mode.
    ///
    /// # Panics
    ///
    /// Panics on `Ring(0)` (a zero-capacity ring is [`TraceMode::SummaryOnly`]
    /// in disguise; ask for that instead).
    pub fn with_mode(mode: TraceMode) -> Self {
        if let TraceMode::Ring(n) = mode {
            assert!(n > 0, "ring capacity must be positive; use SummaryOnly to retain nothing");
        }
        Trace {
            mode,
            names: Vec::new(),
            name_index: FxHashMap::default(),
            events: VecDeque::new(),
            summary: TraceSummary::default(),
            recorder_dropped: 0,
        }
    }

    /// The recorder mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Switches the recorder mode in place. Already-retained events that the
    /// new mode would not hold are dropped (and counted in
    /// [`Trace::recorder_dropped`]); the name table and counters are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics on `Ring(0)`, like [`Trace::with_mode`].
    pub fn set_mode(&mut self, mode: TraceMode) {
        match mode {
            TraceMode::Full => {}
            TraceMode::Ring(n) => {
                assert!(n > 0, "ring capacity must be positive; use SummaryOnly to retain nothing");
                while self.events.len() > n {
                    self.events.pop_front();
                    self.recorder_dropped += 1;
                }
            }
            TraceMode::SummaryOnly => {
                self.recorder_dropped += self.events.len() as u64;
                self.events.clear();
            }
        }
        self.mode = mode;
    }

    /// Returns `true` if this trace retains events at all (`Full` or `Ring`).
    pub fn retains_events(&self) -> bool {
        !matches!(self.mode, TraceMode::SummaryOnly)
    }

    /// An empty trace with the same mode and name table, used by the
    /// simulator to keep interned [`NameId`]s valid across
    /// [`crate::sim::Simulator::take_trace`].
    pub fn fresh_like(&self) -> Trace {
        Trace {
            mode: self.mode,
            names: self.names.clone(),
            name_index: self.name_index.clone(),
            events: VecDeque::new(),
            summary: TraceSummary::default(),
            recorder_dropped: 0,
        }
    }

    /// Interns `name`, returning its id (existing id if already interned).
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_index.get(name) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("name table fits in u32"));
        self.names.push(name.to_string());
        self.name_index.insert(name.to_string(), id);
        id
    }

    /// Resolves an interned id back to its name.
    ///
    /// # Panics
    ///
    /// Panics if the id was not interned by this trace (or one it was
    /// [`Trace::fresh_like`]-derived from).
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Looks up the id of an already-interned name.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.name_index.get(name).copied()
    }

    /// Appends an event, honouring the recorder mode.
    pub fn push(&mut self, event: TraceEvent) {
        self.note(event.injected, event.packet.segment.payload.len());
        match self.mode {
            TraceMode::Full => self.events.push_back(event),
            TraceMode::Ring(n) => {
                if self.events.len() == n {
                    self.events.pop_front();
                    self.recorder_dropped += 1;
                }
                self.events.push_back(event);
            }
            // `note` above already counted the event as recorder-dropped.
            TraceMode::SummaryOnly => {}
        }
    }

    /// Updates the summary counters for one transmission without storing an
    /// event. The simulator uses this in [`TraceMode::SummaryOnly`] so the hot
    /// path never materialises a [`TraceEvent`] at all; in that mode the
    /// event counts as recorder-dropped, keeping `retained = total - dropped`
    /// true on every path.
    pub fn note(&mut self, injected: bool, payload_len: usize) {
        self.summary.total_events += 1;
        if injected {
            self.summary.injected_events += 1;
        }
        if payload_len > 0 {
            self.summary.payload_events += 1;
            self.summary.payload_bytes += payload_len as u64;
        }
        if matches!(self.mode, TraceMode::SummaryOnly) {
            self.recorder_dropped += 1;
        }
    }

    /// Records the eviction of buffered pre-handshake sends whose connection
    /// died before establishing.
    pub fn note_dropped_pending(&mut self, chunks: u64, bytes: u64) {
        self.summary.pending_chunks_dropped += chunks;
        self.summary.pending_bytes_dropped += bytes;
    }

    /// The running counters (maintained in every mode). For the same run, the
    /// summary is byte-identical regardless of the recorder mode.
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// Number of events the recorder discarded (ring overflow, summary-only
    /// mode or a mode switch). Recorder metadata, deliberately *not* part of
    /// the [`TraceSummary`]: `retained = total_events - recorder_dropped`.
    pub fn recorder_dropped(&self) -> u64 {
        self.recorder_dropped
    }

    /// Returns the retained events in transmission order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of *retained* events (see [`TraceSummary::total_events`] for the
    /// number seen).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no transmissions are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns only attacker-injected transmissions (retained ones).
    pub fn injected(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.injected)
    }

    /// Returns only transmissions carrying application payload (retained
    /// ones).
    pub fn with_payload(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| !e.packet.segment.payload.is_empty())
    }

    /// Total payload bytes transferred between the named endpoints (either
    /// direction), over the retained events.
    pub fn bytes_between(&self, a: &str, b: &str) -> usize {
        let (Some(a), Some(b)) = (self.name_id(a), self.name_id(b)) else {
            return 0;
        };
        self.events
            .iter()
            .filter(|e| (e.from == a && e.to == b) || (e.from == b && e.to == a))
            .map(|e| e.packet.segment.payload.len())
            .sum()
    }

    /// Returns a short one-line description of an event, in the style of the
    /// paper's figures: legitimate traffic is labelled plainly, attack traffic
    /// is marked.
    pub fn describe(&self, event: &TraceEvent) -> String {
        let marker = if event.injected { " [ATTACK]" } else { "" };
        let payload = String::from_utf8_lossy(&event.packet.segment.payload);
        let first_line = payload.lines().next().unwrap_or("").trim();
        let from = self.name(event.from);
        let to = self.name(event.to);
        if first_line.is_empty() {
            format!(
                "{} {} -> {}: {}{}",
                event.delivered_at, from, to, event.packet.segment.flags, marker
            )
        } else {
            format!(
                "{} {} -> {}: {} \"{}\"{}",
                event.delivered_at,
                from,
                to,
                event.packet.segment.flags,
                truncate(first_line, 60),
                marker
            )
        }
    }

    /// Renders the trace as a textual message-sequence diagram, one line per
    /// retained transmission, matching the structure of the paper's Figures 1
    /// and 2.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&self.describe(event));
            out.push('\n');
        }
        out
    }

    /// Clears retained events and resets the summary counters. The name table
    /// (and all interned ids) stays valid.
    pub fn clear(&mut self) {
        self.events.clear();
        self.summary = TraceSummary::default();
        self.recorder_dropped = 0;
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;
    use crate::packet::Segment;
    use crate::seq::SeqNum;

    fn push_event(trace: &mut Trace, from: &str, to: &str, payload: &[u8], injected: bool) {
        let seg = Segment::data(1000, 80, SeqNum::new(1), SeqNum::new(1), payload.to_vec());
        let from = trace.intern(from);
        let to = trace.intern(to);
        trace.push(TraceEvent {
            sent_at: Instant::from_micros(10),
            delivered_at: Instant::from_micros(20),
            from,
            to,
            injected,
            packet: Packet::new(IpAddr::new(1, 1, 1, 1), IpAddr::new(2, 2, 2, 2), seg),
        });
    }

    #[test]
    fn describe_marks_attack_traffic() {
        let mut trace = Trace::new();
        push_event(&mut trace, "victim", "server", b"GET / HTTP/1.1", false);
        push_event(&mut trace, "master", "victim", b"HTTP/1.1 200 OK", true);
        let lines: Vec<String> = trace.events().map(|e| trace.describe(e)).collect();
        assert!(!lines[0].contains("[ATTACK]"));
        assert!(lines[1].contains("[ATTACK]"));
        assert!(lines[1].contains("HTTP/1.1 200 OK"));
        assert!(lines[0].contains("victim -> server"));
    }

    #[test]
    fn trace_filters_and_counts() {
        let mut trace = Trace::new();
        push_event(&mut trace, "victim", "server", b"GET /a", false);
        push_event(&mut trace, "master", "victim", b"HTTP/1.1 200 OK", true);
        push_event(&mut trace, "server", "victim", b"", false);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.injected().count(), 1);
        assert_eq!(trace.with_payload().count(), 2);
        assert_eq!(trace.bytes_between("victim", "server"), 6);
        assert_eq!(trace.bytes_between("victim", "nobody"), 0);
        let rendering = trace.render();
        assert_eq!(rendering.lines().count(), 3);
        let summary = trace.summary();
        assert_eq!(summary.total_events, 3);
        assert_eq!(summary.injected_events, 1);
        assert_eq!(summary.payload_events, 2);
        assert_eq!(summary.payload_bytes, 21);
        assert_eq!(trace.recorder_dropped(), 0);
    }

    #[test]
    fn long_payload_lines_are_truncated() {
        let mut trace = Trace::new();
        let long = vec![b'a'; 200];
        push_event(&mut trace, "a", "b", &long, false);
        let line = trace.describe(trace.events().next().unwrap());
        assert!(line.len() < 200);
    }

    #[test]
    fn interning_deduplicates_names() {
        let mut trace = Trace::new();
        let a = trace.intern("victim");
        let b = trace.intern("victim");
        let c = trace.intern("server");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(trace.name(a), "victim");
        assert_eq!(trace.name_id("server"), Some(c));
        assert_eq!(trace.name_id("unknown"), None);
    }

    #[test]
    fn ring_mode_keeps_only_the_most_recent_events() {
        let mut trace = Trace::with_mode(TraceMode::Ring(2));
        push_event(&mut trace, "a", "b", b"one", false);
        push_event(&mut trace, "a", "b", b"two", false);
        push_event(&mut trace, "a", "b", b"three", false);
        assert_eq!(trace.len(), 2);
        let payloads: Vec<Vec<u8>> = trace.events().map(|e| e.packet.segment.payload.to_vec()).collect();
        assert_eq!(payloads, vec![b"two".to_vec(), b"three".to_vec()]);
        assert_eq!(trace.summary().total_events, 3);
        assert_eq!(trace.recorder_dropped(), 1);
    }

    #[test]
    fn summary_only_mode_retains_no_events_but_counts_everything() {
        let mut trace = Trace::with_mode(TraceMode::SummaryOnly);
        push_event(&mut trace, "a", "b", b"payload", false);
        trace.note(true, 5);
        assert!(trace.is_empty());
        assert!(!trace.retains_events());
        let summary = trace.summary();
        assert_eq!(summary.total_events, 2);
        assert_eq!(summary.injected_events, 1);
        assert_eq!(summary.payload_bytes, 12);
        // Both the pushed event and the noted one count as recorder-dropped:
        // retained == total - dropped on every path.
        assert_eq!(trace.recorder_dropped(), 2);
        assert_eq!(trace.bytes_between("a", "b"), 0);
    }

    #[test]
    fn summary_is_byte_identical_across_recorder_modes() {
        // The same workload replayed under every mode: the TraceSummary (the
        // workload counters) must not depend on what the recorder retains,
        // including events evicted from a ring.
        let record = |mode: TraceMode| {
            let mut trace = Trace::with_mode(mode);
            for index in 0..10 {
                push_event(&mut trace, "victim", "server", b"GET /object", false);
                push_event(&mut trace, "master", "victim", b"HTTP/1.1 200 OK", index % 2 == 0);
            }
            trace.note_dropped_pending(1, 9);
            *trace.summary()
        };
        let full = record(TraceMode::Full);
        assert_eq!(full, record(TraceMode::Ring(3)));
        assert_eq!(full, record(TraceMode::Ring(1)));
        assert_eq!(full, record(TraceMode::SummaryOnly));
        assert_eq!(full.total_events, 20);
        assert_eq!(full.injected_events, 5);
    }

    #[test]
    fn fresh_like_preserves_mode_and_name_ids() {
        let mut trace = Trace::with_mode(TraceMode::Ring(8));
        let victim = trace.intern("victim");
        push_event(&mut trace, "victim", "server", b"x", false);
        let fresh = trace.fresh_like();
        assert!(fresh.is_empty());
        assert_eq!(fresh.mode(), TraceMode::Ring(8));
        assert_eq!(fresh.summary().total_events, 0);
        assert_eq!(fresh.name(victim), "victim");
    }

    #[test]
    fn pending_drops_are_summarised() {
        let mut trace = Trace::new();
        trace.note_dropped_pending(2, 77);
        assert_eq!(trace.summary().pending_chunks_dropped, 2);
        assert_eq!(trace.summary().pending_bytes_dropped, 77);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_ring_is_rejected() {
        let _ = Trace::with_mode(TraceMode::Ring(0));
    }
}
