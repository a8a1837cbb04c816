//! The flight recorder: a fixed-capacity lock-free ring of recent
//! events, cheap enough to leave on for an entire fault-seed run and
//! dumped only when something goes wrong.
//!
//! Writers claim a slot with one `fetch_add` on the head counter and
//! publish fields under a per-slot sequence stamp (a seqlock): readers
//! that observe the same non-zero stamp before and after reading the
//! fields know the slot was not being rewritten mid-read. A torn slot
//! is simply skipped — this is forensics, not accounting; the metrics
//! registry owns exact counts.
//!
//! Two writers a full lap apart map to the same slot. A writer takes
//! the slot by swapping its stamp to `WRITING` with one CAS; a writer
//! that finds the slot held, or already holding a newer event, drops its
//! own event instead of interleaving its stores with the holder's.

use crate::EventKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of events the flight recorder retains. Power of two so the
/// slot index is one mask. 4096 events at 48 bytes/slot ≈ 192 KiB per
/// enabled recorder, allocated only on [`Obs::enable`](crate::Obs::enable).
pub const RING_CAPACITY: usize = 4096;

/// Stamp of a slot a writer currently holds. Never a real `seq + 1`.
const WRITING: u64 = u64::MAX;

#[derive(Debug)]
struct Slot {
    /// 0 = never written, `WRITING` = held by a writer; otherwise
    /// `seq + 1` of the event it holds.
    stamp: AtomicU64,
    t_nanos: AtomicU64,
    kind: AtomicU64,
    trace: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            t_nanos: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One event recovered from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global record sequence number (total order of recording).
    pub seq: u64,
    /// Timeline time of the event, in nanoseconds since the epoch.
    pub t_nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// The client-local trace id (0 = not transaction-scoped).
    pub trace: u64,
    /// Event-specific operand (port value, machine id, ...).
    pub a: u64,
    /// Second event-specific operand (payload length, attempt, ...).
    pub b: u64,
}

impl FlightEvent {
    /// One JSON object describing the event.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\",\"trace\":{},\"a\":{},\"b\":{}}}",
            self.seq,
            self.t_nanos,
            self.kind.name(),
            self.trace,
            self.a,
            self.b
        )
    }
}

/// The lock-free event ring. Writers never block or allocate; readers
/// reconstruct a best-effort ordered timeline.
#[derive(Debug)]
pub(crate) struct Ring {
    head: AtomicU64,
    slots: [Slot; RING_CAPACITY],
}

impl Ring {
    pub(crate) fn new() -> Ring {
        #[allow(clippy::declare_interior_mutable_const)] // repeat seed
        const EMPTY: Slot = Slot::empty();
        Ring {
            head: AtomicU64::new(0),
            slots: [EMPTY; RING_CAPACITY],
        }
    }

    /// Records one event: one `fetch_add`, one CAS on the slot stamp and
    /// six stores.
    #[inline]
    pub(crate) fn push(&self, kind: EventKind, t_nanos: u64, trace: u64, a: u64, b: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & (RING_CAPACITY - 1)];
        // Take the slot, write fields, then publish the new stamp: a
        // concurrent reader either sees WRITING / a mismatched stamp
        // (and skips the slot) or a stable stamp bracketing its reads.
        // A writer that lapped a stalled one finds the slot held and
        // drops its event rather than tearing the holder's fields.
        let mut cur = slot.stamp.load(Ordering::Relaxed);
        loop {
            if cur == WRITING || cur > seq + 1 {
                return;
            }
            match slot.stamp.compare_exchange_weak(
                cur,
                WRITING,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        // Every store is Release so the chain retains program order
        // (a later relaxed store may legally hoist above a release
        // store, which would let a reader accept a torn slot).
        slot.t_nanos.store(t_nanos, Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Release);
        slot.trace.store(trace, Ordering::Release);
        slot.a.store(a, Ordering::Release);
        slot.b.store(b, Ordering::Release);
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Snapshots the ring's surviving events in recording order.
    pub(crate) fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(RING_CAPACITY);
        for slot in &self.slots {
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 == 0 || s1 == WRITING {
                continue;
            }
            let ev = FlightEvent {
                seq: s1 - 1,
                t_nanos: slot.t_nanos.load(Ordering::Relaxed),
                kind: EventKind::from_u64(slot.kind.load(Ordering::Relaxed)),
                trace: slot.trace.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            // Field loads must complete before the validation load.
            std::sync::atomic::fence(Ordering::Acquire);
            let s2 = slot.stamp.load(Ordering::Acquire);
            if s1 == s2 {
                out.push(ev);
            }
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order() {
        let ring = Ring::new();
        for i in 0..100u64 {
            ring.push(EventKind::FrameOnWire, i * 10, i, i, i);
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 100);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.trace, i as u64);
            assert_eq!(e.kind, EventKind::FrameOnWire);
        }
    }

    #[test]
    fn ring_keeps_only_the_most_recent_capacity_events() {
        let ring = Ring::new();
        let total = RING_CAPACITY as u64 + 500;
        for i in 0..total {
            ring.push(EventKind::Delivered, i, 0, 0, 0);
        }
        let evs = ring.events();
        assert_eq!(evs.len(), RING_CAPACITY);
        assert_eq!(evs.first().unwrap().seq, 500);
        assert_eq!(evs.last().unwrap().seq, total - 1);
    }

    #[test]
    fn lapping_writer_never_touches_a_held_or_newer_slot() {
        let ring = Ring::new();
        ring.push(EventKind::Delivered, 0, 0, 1, 2);
        // Slot 0 held by a stalled writer: the writer one lap later
        // drops its event, and readers skip the held slot.
        ring.slots[0].stamp.store(WRITING, Ordering::Release);
        ring.head.store(RING_CAPACITY as u64, Ordering::Relaxed);
        ring.push(EventKind::Delivered, 0, 0, 3, 4);
        assert_eq!(ring.slots[0].stamp.load(Ordering::Acquire), WRITING);
        assert_eq!(ring.slots[0].a.load(Ordering::Relaxed), 1);
        assert!(ring.events().is_empty());
        // Slot 0 released holding seq 4096: a writer that claimed seq 0
        // before it stalled must not put the older event back.
        ring.slots[0]
            .stamp
            .store(RING_CAPACITY as u64 + 1, Ordering::Release);
        ring.head.store(0, Ordering::Relaxed);
        ring.push(EventKind::Delivered, 0, 0, 5, 6);
        let evs = ring.events();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].seq, evs[0].a), (RING_CAPACITY as u64, 1));
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_ring() {
        use std::sync::Arc;
        let ring = Arc::new(Ring::new());
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        ring.push(EventKind::ReplyDemux, i, w, i, i * 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let evs = ring.events();
        assert!(!evs.is_empty());
        for e in evs {
            assert_eq!(e.kind, EventKind::ReplyDemux);
            assert_eq!(e.b, e.a * 2, "torn slot survived the seqlock");
        }
    }
}
