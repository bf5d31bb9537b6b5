//! The simulator's event queue: a calendar queue with a heap overflow tier.
//!
//! The classic discrete-event-simulation result (Brown's calendar queue,
//! CACM 1988) is that a bucketed structure beats a binary heap once the event
//! population is non-trivial: pushes and pops touch one small bucket instead
//! of sifting through `log n` heap levels. This module implements that shape
//! for the simulator:
//!
//! * near-future events (within the wheel horizon of the cursor) live in a
//!   circular array of [`SLOTS`] buckets, each `1 << SLOT_SHIFT` microseconds
//!   wide and kept sorted so pops are exact;
//! * far-future events overflow into a [`BinaryHeap`] and migrate into the
//!   wheel as simulated time advances;
//! * the queue stores only compact [`EventKey`]s — the packet payloads
//!   themselves sit in an [`EventPool`] slab whose slots are recycled through
//!   a free list, so steady-state operation allocates nothing.
//!
//! The pop order is the exact total order on `(at, seq)` that the previous
//! `BinaryHeap<QueuedEvent>` produced, which is what keeps traces
//! byte-identical across the data-structure swap.

use crate::endpoint::HostId;
use crate::packet::Packet;
use crate::time::Instant;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Width of one calendar bucket, as a power-of-two microsecond count
/// (`1 << SLOT_SHIFT`).
const SLOT_SHIFT: u32 = 11;

/// Number of buckets in the wheel (a power of two). One bucket spans
/// `1 << SLOT_SHIFT` = 2048 µs — comfortably finer than the simulator's
/// typical 2–40 ms medium latencies — so the wheel reaches ~131 ms ahead of
/// the cursor; events scheduled beyond that go to the overflow heap.
const SLOTS: usize = 64;

/// Compact ordering key for one queued event: delivery time, global sequence
/// number (total-order tiebreak) and the pool slot holding the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventKey {
    /// Delivery time.
    pub(crate) at: Instant,
    /// Global push sequence number; unique, so `(at, seq)` is a total order.
    pub(crate) seq: u64,
    /// Index into the owning [`EventPool`].
    pub(crate) slot: u32,
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.cmp(&other.at).then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The payload of one queued event.
#[derive(Debug)]
pub(crate) struct EventBody {
    /// Destination host.
    pub(crate) to: HostId,
    /// The packet being delivered.
    pub(crate) packet: Packet,
}

/// Slab of event payloads with a free list, so dequeued events are recycled
/// instead of reallocated.
#[derive(Debug, Default)]
pub(crate) struct EventPool {
    slots: Vec<Option<EventBody>>,
    free: Vec<u32>,
}

impl EventPool {
    /// Stores a body, reusing a free slot when one exists.
    pub(crate) fn insert(&mut self, body: EventBody) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(body);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("event pool fits in u32");
            self.slots.push(Some(body));
            slot
        }
    }

    /// Removes and returns the body in `slot`, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (a key was popped twice).
    pub(crate) fn take(&mut self, slot: u32) -> EventBody {
        let body = self.slots[slot as usize]
            .take()
            .expect("pool slot holds a queued event");
        self.free.push(slot);
        body
    }
}

/// One wheel bucket, lazily sorted (the classic calendar-queue trick): keys
/// accumulate unsorted with O(1) pushes while the bucket lies in the future,
/// are sorted ascending by `(at, seq)` exactly once when the cursor reaches
/// the bucket, and then drain from the front through `head`. Only an event
/// scheduled *into the bucket currently being drained* pays for a sorted
/// insert, and such events are rare (the delivery latency usually clears the
/// cursor's ~2 ms bucket).
#[derive(Debug, Default)]
struct Bucket {
    keys: Vec<EventKey>,
    /// Index of the next key to pop; `keys[..head]` is already consumed.
    /// Meaningful only while `sorted`.
    head: usize,
    /// Whether `keys[head..]` is currently in ascending `(at, seq)` order.
    sorted: bool,
}

impl Bucket {
    /// Sorts the live region if the bucket has not been prepared for
    /// draining yet.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            debug_assert_eq!(self.head, 0, "unsorted buckets have never been popped");
            self.keys.sort_unstable();
            self.sorted = true;
        }
    }

    fn pop(&mut self) -> Option<EventKey> {
        if self.keys.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let key = *self.keys.get(self.head)?;
        self.head += 1;
        if self.head == self.keys.len() {
            // Fully drained: reuse the buffer from the start.
            self.keys.clear();
            self.head = 0;
            self.sorted = false;
        }
        Some(key)
    }

    fn push(&mut self, key: EventKey) {
        if !self.sorted {
            // Future bucket: plain append, sorting is deferred to the drain.
            self.keys.push(key);
        } else if self.keys.last().is_none_or(|last| *last < key) {
            self.keys.push(key);
        } else {
            // Rare: an event lands in the bucket mid-drain, behind its tail.
            let live = &self.keys[self.head..];
            let position = self.head + live.partition_point(|queued| *queued < key);
            self.keys.insert(position, key);
        }
    }
}

/// Calendar queue over [`EventKey`]s: a sorted-bucket wheel for the near
/// future plus a binary-heap overflow tier for everything beyond the horizon.
#[derive(Debug, Default)]
pub(crate) struct CalendarQueue {
    /// Circular bucket array.
    wheel: Vec<Bucket>,
    /// Events at or beyond the wheel horizon, as a min-heap.
    overflow: BinaryHeap<Reverse<EventKey>>,
    /// Absolute bucket index (`at >> SLOT_SHIFT`) below which every wheel
    /// bucket is empty. Monotone: it only advances, tracking simulated time.
    cursor: u64,
    /// Number of wheel-resident events.
    wheel_len: usize,
}

impl CalendarQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        CalendarQueue {
            wheel: (0..SLOTS).map(|_| Bucket::default()).collect(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            wheel_len: 0,
        }
    }

    /// Total queued events.
    pub(crate) fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Returns `true` if no events are queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bucket_of(at: Instant) -> u64 {
        at.as_micros() >> SLOT_SHIFT
    }

    /// Inserts a key.
    ///
    /// The simulator never schedules before the last popped key's time, so
    /// `bucket_of(key.at) >= cursor` normally holds. The bucket index is
    /// still clamped to the cursor: a key whose timestamp falls earlier in
    /// the cursor's own bucket span lands in the currently draining bucket,
    /// where the in-bucket `(at, seq)` sort keeps the pop order exact. The
    /// previous `debug_assert!` guarded this only in debug builds — in
    /// release an early key would have been filed under an *aliased* future
    /// bucket and popped out of order.
    pub(crate) fn push(&mut self, key: EventKey) {
        let bucket = Self::bucket_of(key.at).max(self.cursor);
        if bucket < self.cursor + SLOTS as u64 {
            self.wheel[(bucket & (SLOTS as u64 - 1)) as usize].push(key);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Removes and returns the minimum `(at, seq)` key.
    pub(crate) fn pop(&mut self) -> Option<EventKey> {
        if self.wheel_len > 0 {
            for offset in 0..SLOTS as u64 {
                let bucket = self.cursor + offset;
                let ring = (bucket & (SLOTS as u64 - 1)) as usize;
                if let Some(key) = self.wheel[ring].pop() {
                    self.wheel_len -= 1;
                    self.advance_to(bucket);
                    return Some(key);
                }
            }
            // The wheel_len counter is kept in lockstep with the buckets. mp-lint: allow(panic-discipline)
            unreachable!("wheel_len > 0 but every bucket within the horizon is empty");
        }
        let Reverse(key) = self.overflow.pop()?;
        self.advance_to(Self::bucket_of(key.at));
        Some(key)
    }

    /// Advances the cursor to `bucket` and migrates overflow events that the
    /// enlarged horizon now covers into the wheel.
    fn advance_to(&mut self, bucket: u64) {
        if bucket <= self.cursor {
            return;
        }
        self.cursor = bucket;
        let horizon = self.cursor + SLOTS as u64;
        while let Some(Reverse(key)) = self.overflow.peek() {
            if Self::bucket_of(key.at) >= horizon {
                break;
            }
            let Reverse(key) = self.overflow.pop().expect("peeked above");
            let bucket = Self::bucket_of(key.at);
            self.wheel[(bucket & (SLOTS as u64 - 1)) as usize].push(key);
            self.wheel_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, seq: u64) -> EventKey {
        EventKey {
            at: Instant::from_micros(at),
            seq,
            slot: seq as u32,
        }
    }

    /// Popping must yield the exact (at, seq) total order a binary heap would.
    fn assert_pops_sorted(mut queue: CalendarQueue, mut expected: Vec<EventKey>) {
        expected.sort();
        let mut popped = Vec::new();
        while let Some(key) = queue.pop() {
            popped.push(key);
        }
        assert_eq!(popped, expected);
        assert!(queue.is_empty());
    }

    #[test]
    fn pops_in_at_seq_order_within_the_wheel() {
        let mut queue = CalendarQueue::new();
        let keys = vec![key(5_000, 2), key(2_000, 0), key(5_000, 1), key(0, 3), key(40_000, 4)];
        for &k in &keys {
            queue.push(k);
        }
        assert_eq!(queue.len(), 5);
        assert_pops_sorted(queue, keys);
    }

    #[test]
    fn far_future_events_overflow_and_migrate_back() {
        let mut queue = CalendarQueue::new();
        let mut keys = Vec::new();
        // One near event plus a spread reaching far beyond the wheel horizon.
        for seq in 0..200u64 {
            let k = key(seq * 10_000, seq);
            keys.push(k);
            queue.push(k);
        }
        assert!(queue.len() == 200);
        assert_pops_sorted(queue, keys);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut queue = CalendarQueue::new();
        let mut seq = 0u64;
        let alloc = |at: u64, seq: &mut u64| {
            let k = key(at, *seq);
            *seq += 1;
            k
        };
        queue.push(alloc(2_000, &mut seq));
        queue.push(alloc(42_000, &mut seq));
        let first = queue.pop().unwrap();
        assert_eq!(first.at.as_micros(), 2_000);
        // Schedule relative to the popped event's time, as the simulator does.
        queue.push(alloc(first.at.as_micros() + 2_000, &mut seq));
        queue.push(alloc(first.at.as_micros() + 500_000, &mut seq));
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|k| k.at.as_micros()).collect();
        assert_eq!(order, vec![4_000, 42_000, 502_000]);
    }

    #[test]
    fn same_timestamp_pops_in_push_order() {
        let mut queue = CalendarQueue::new();
        for seq in 0..100u64 {
            queue.push(key(7_000, seq));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|k| k.seq).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    }

    /// The wheel horizon in microseconds: events further out go to the
    /// overflow heap.
    const HORIZON_US: u64 = (SLOTS as u64) << SLOT_SHIFT;

    #[test]
    fn events_straddling_the_horizon_boundary_pop_in_exact_order() {
        // Keys pushed exactly around the 64×2048 µs wheel span: the last
        // in-wheel bucket, the first overflow bucket and one bucket further,
        // interleaved with near keys and with ties on both sides of the edge.
        let mut queue = CalendarQueue::new();
        let edge = HORIZON_US;
        let keys = vec![
            key(edge - 1, 0),      // last wheel bucket
            key(edge, 1),          // first overflow bucket
            key(edge, 2),          // tie in the overflow tier
            key(edge - 1, 3),      // tie in the last wheel bucket
            key(edge + (1 << SLOT_SHIFT), 4),
            key(10, 5),            // near key, pops first
            key(edge - (1 << SLOT_SHIFT), 6),
        ];
        for &k in &keys {
            queue.push(k);
        }
        assert_pops_sorted(queue, keys);
    }

    #[test]
    fn multi_day_timestamps_cross_the_overflow_tier_in_order() {
        // Multi-day campaigns schedule across day boundaries: timestamps in
        // the 10^11 µs range live far beyond the wheel span and must migrate
        // back through the overflow heap in exact (at, seq) order.
        const DAY_US: u64 = 86_400_000_000;
        let mut queue = CalendarQueue::new();
        let mut keys = Vec::new();
        let mut seq = 0u64;
        for day in 0..7u64 {
            for offset in [0, 1, 2_000, HORIZON_US - 1, HORIZON_US, 3 * HORIZON_US] {
                let k = key(day * DAY_US + offset, seq);
                seq += 1;
                keys.push(k);
                queue.push(k);
            }
        }
        assert_pops_sorted(queue, keys);
    }

    #[test]
    fn interleaved_pops_and_horizon_pushes_match_a_reference_heap() {
        // Differential check against a total-order reference: pseudo-random
        // pushes relative to the last popped time — some near, some exactly
        // at the horizon, some days out — interleaved with pops. The
        // calendar queue must reproduce the reference's (at, seq) order
        // exactly, which is what keeps multi-day traces byte-identical.
        use std::collections::BTreeSet;
        let mut queue = CalendarQueue::new();
        let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut rng: u64 = 0x9e37_79b9;
        let mut next = move || {
            // xorshift64*: deterministic, no external RNG needed here.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut now = 0u64;
        for (seq, round) in (0..5_000u64).enumerate() {
            let delay = match next() % 7 {
                0 => 0,
                1 => next() % 100,
                2 => next() % (1 << SLOT_SHIFT),
                3 => HORIZON_US - 1 + next() % 3, // straddle the edge
                4 => HORIZON_US * (1 + next() % 4),
                5 => 86_400_000_000 + next() % 1_000, // a day out
                _ => next() % (4 * HORIZON_US),
            };
            let k = key(now + delay, seq as u64);
            queue.push(k);
            reference.insert((k.at.as_micros(), k.seq));
            if round % 3 != 0 {
                let popped = queue.pop().expect("reference is non-empty");
                let expected = reference.pop_first().expect("mirrors the queue");
                assert_eq!((popped.at.as_micros(), popped.seq), expected);
                now = popped.at.as_micros();
            }
        }
        while let Some(popped) = queue.pop() {
            let expected = reference.pop_first().expect("mirrors the queue");
            assert_eq!((popped.at.as_micros(), popped.seq), expected);
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn late_keys_within_the_cursor_bucket_keep_exact_order() {
        // A key whose timestamp is earlier than the cursor bucket's start is
        // clamped into the draining bucket instead of aliasing a future slot:
        // it must pop before everything scheduled after it.
        let mut queue = CalendarQueue::new();
        queue.push(key(5 * (1 << SLOT_SHIFT), 0));
        let first = queue.pop().unwrap();
        assert_eq!(first.seq, 0);
        // Cursor now sits at bucket 5; these at-times fall in earlier bucket
        // spans but arrive after the pop (zero-latency replies at "now").
        queue.push(key(3 * (1 << SLOT_SHIFT), 1));
        queue.push(key(4 * (1 << SLOT_SHIFT) + 7, 2));
        queue.push(key(6 * (1 << SLOT_SHIFT), 3));
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|k| k.seq).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pool_recycles_slots_through_the_free_list() {
        use crate::addr::IpAddr;
        use crate::packet::{Segment, TcpFlags};
        use crate::seq::SeqNum;

        let mut pool = EventPool::default();
        let body = || EventBody {
            to: HostId(0),
            packet: Packet::new(
                IpAddr::new(10, 0, 0, 1),
                IpAddr::new(10, 0, 0, 2),
                Segment::control(1, 2, SeqNum::new(0), SeqNum::new(0), TcpFlags::SYN),
            ),
        };
        let a = pool.insert(body());
        let b = pool.insert(body());
        assert_ne!(a, b);
        let _ = pool.take(a);
        // The freed slot is reused before the slab grows.
        let c = pool.insert(body());
        assert_eq!(c, a);
        let _ = pool.take(b);
        let _ = pool.take(c);
    }
}
