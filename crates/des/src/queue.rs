//! Cancellable event queue with deterministic tie-breaking.
//!
//! Events scheduled at the same instant pop in schedule order (FIFO), so a
//! simulation run is a pure function of its inputs and seed. Cancellation
//! is lazy: a cancelled entry stays in the heap and is skipped on pop,
//! which keeps both `schedule` and `cancel` O(log n) amortized.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can be cancelled later.
///
/// Ids are unique within one [`EventQueue`] and never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list: the heart of the discrete-event simulator.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    // Sorted would be overkill: cancellations are rare relative to events,
    // so a hash set of cancelled seqs suffices.
    cancelled: std::collections::HashSet<u64>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: std::collections::HashSet::new(),
            next_seq: 0,
            live: 0,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            cancelled: std::collections::HashSet::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.live += 1;
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. not yet popped and not already cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        // An id may refer to an event that already popped; popping removes
        // it from the heap, so inserting its seq here is harmless — `pop`
        // will never see that seq again. We only report `true` when the
        // entry is genuinely still live, which requires a scan-free
        // heuristic: track live count and membership.
        if self.cancelled.contains(&id.0) {
            return false;
        }
        if self.popped_seqs_contains(id.0) {
            return false;
        }
        self.cancelled.insert(id.0);
        self.live -= 1;
        true
    }

    fn popped_seqs_contains(&self, seq: u64) -> bool {
        // A seq that is neither in the heap nor cancelled must have popped.
        // Scanning the heap is O(n) but only runs on `cancel`, which in the
        // reliability simulator happens at most once per disk (pending
        // failure cancelled on replacement); heaps there hold O(disks)
        // entries, so this stays cheap relative to event volume.
        !self.heap.iter().any(|e| e.seq == seq)
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            // `HashSet::remove` hashes even on an empty set, and the
            // simulator never cancels: test emptiness first.
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.live -= 1;
            return Some((entry.time, entry.event));
        }
        None
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let entry = self.heap.peek()?;
            if self.cancelled.contains(&entry.seq) {
                let seq = self.heap.pop().expect("peeked entry exists").seq;
                self.cancelled.remove(&seq);
                continue;
            }
            return Some(entry.time);
        }
    }

    /// Number of live (scheduled, not cancelled, not popped) events.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.live = 0;
    }

    /// Reset to the freshly-constructed state while keeping the heap's
    /// allocation. Unlike [`EventQueue::clear`], the id sequence also
    /// restarts at zero, so a recycled queue hands out the exact same
    /// [`EventId`]s a new queue would — part of the trial determinism
    /// contract.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.next_seq = 0;
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_twice_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_pop_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.pop();
        assert!(!q.cancel(a));
        // And cancelling must not affect later events with other seqs.
        let b = q.schedule(t(2.0), ());
        assert!(q.cancel(b));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Event-driven style: popping an event schedules a follow-up.
        let mut q = EventQueue::new();
        q.schedule(t(0.0), 0u32);
        let mut fired = Vec::new();
        let mut now = SimTime::ZERO;
        while let Some((time, n)) = q.pop() {
            assert!(time >= now, "time must never go backwards");
            now = time;
            fired.push(n);
            if n < 5 {
                q.schedule(time + Duration::from_secs(10.0), n + 1);
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4, 5]);
        assert!((now.as_secs() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn matches_naive_reference_model() {
        // Pseudo-random schedule/pop/cancel sequence cross-checked against
        // a sorted-vec reference implementation.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64, u64)> = Vec::new(); // (time_ms, seq, payload)
        let mut ids: Vec<(EventId, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut popped_ref = Vec::new();
        for _ in 0..2000 {
            match rng.gen_range(0..3) {
                0 => {
                    let time_ms = rng.gen_range(0..1000u64);
                    let id = q.schedule(t(time_ms as f64 / 1000.0), seq);
                    reference.push((time_ms, seq, seq));
                    ids.push((id, seq));
                    seq += 1;
                }
                1 => {
                    if let Some((time, e)) = q.pop() {
                        popped.push(e);
                        let min = reference
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &(tm, sq, _))| (tm, sq))
                            .map(|(i, _)| i)
                            .expect("reference non-empty when queue non-empty");
                        let (tm, _, payload) = reference.swap_remove(min);
                        popped_ref.push(payload);
                        assert!((time.as_secs() - tm as f64 / 1000.0).abs() < 1e-12);
                    } else {
                        assert!(reference.is_empty());
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let k = rng.gen_range(0..ids.len());
                        let (id, payload) = ids.swap_remove(k);
                        let in_ref = reference.iter().position(|&(_, _, p)| p == payload);
                        let cancelled = q.cancel(id);
                        assert_eq!(cancelled, in_ref.is_some());
                        if let Some(i) = in_ref {
                            reference.swap_remove(i);
                        }
                    }
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some((_, e)) = q.pop() {
            popped.push(e);
            let min = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, &(tm, sq, _))| (tm, sq))
                .map(|(i, _)| i)
                .unwrap();
            popped_ref.push(reference.swap_remove(min).2);
        }
        assert_eq!(popped, popped_ref);
    }
}
