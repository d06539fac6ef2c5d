//! Two-tier event queue with deterministic tie-breaking.
//!
//! Events scheduled at the same instant pop in schedule order (FIFO), so a
//! simulation run is a pure function of its inputs and seed.
//!
//! A reliability trial knows most of its events before it handles the
//! first one: building the system samples every drive's lifetime and
//! schedules the failures that fall inside the horizon. Those entries —
//! everything scheduled before the first [`EventQueue::pop`] after
//! [`EventQueue::new`] or [`EventQueue::reset`] — go into a plain vector
//! that the first pop sorts once. Entries scheduled after that (detects,
//! rebuild completions, the failures of drives added mid-trial) go into a
//! binary heap, which then stays shallow. Each pop takes whichever tier's
//! head is earlier by `(time, seq)`; `seq` is unique, so the pop order is
//! exactly that of a single heap.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) is
        // the greatest. seq breaks ties FIFO.
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
    /// Entries scheduled before the first pop. That pop sorts them
    /// latest-first, so every later pop takes the earliest off the end.
    bulk: Vec<Entry<E>>,
    /// Entries scheduled after the first pop.
    heap: BinaryHeap<Entry<E>>,
    /// Set by the first pop; cleared by [`EventQueue::reset`].
    popping: bool,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            bulk: Vec::new(),
            heap: BinaryHeap::new(),
            popping: false,
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let entry = Entry {
            time,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        if self.popping {
            self.heap.push(entry);
        } else {
            self.bulk.push(entry);
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.popping {
            self.popping = true;
            // Ascending in `Entry`'s inverted order: latest first.
            self.bulk.sort_unstable();
        }
        let from_heap = match (self.bulk.last(), self.heap.peek()) {
            (Some(b), Some(h)) => h > b,
            (Some(_), None) => false,
            (None, _) => true,
        };
        let entry = if from_heap {
            self.heap.pop()
        } else {
            self.bulk.pop()
        }?;
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bulk.len() + self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reset to the freshly-constructed state while keeping both tiers'
    /// allocations: the sequence restarts at zero and the next schedules
    /// go to the bulk tier again, so a recycled queue pops exactly as a
    /// new one would — part of the trial determinism contract.
    pub fn reset(&mut self) {
        self.bulk.clear();
        self.heap.clear();
        self.popping = false;
        self.next_seq = 0;
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
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        // One entry in each tier.
        q.schedule(t(3.0), ());
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
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

    /// Pop the earliest entry of a `(time_ms, seq)` reference list.
    fn pop_reference(reference: &mut Vec<(u64, u64)>) -> Option<(u64, u64)> {
        let min = (0..reference.len()).min_by_key(|&i| reference[i])?;
        Some(reference.swap_remove(min))
    }

    /// Drive `q` through one bulk load followed by interleaved
    /// schedule/pop against a sorted `(time, seq)` reference model; return
    /// the popped payloads (each entry's seq).
    fn drive_against_reference(q: &mut EventQueue<u64>, seed: u64) -> Vec<u64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut schedule = |q: &mut EventQueue<u64>, r: &mut Vec<_>, time_ms: u64| {
            q.schedule(t(time_ms as f64 / 1000.0), seq);
            r.push((time_ms, seq));
            seq += 1;
        };
        // Bulk phase: a narrow time range forces duplicate times.
        for _ in 0..rng.gen_range(0..300) {
            let time_ms = rng.gen_range(0..200u64);
            schedule(q, &mut reference, time_ms);
        }
        assert!(
            q.heap.is_empty(),
            "seed {seed}: a bulk entry went to the heap"
        );
        for _ in 0..2000 {
            if rng.gen_range(0..2) == 0 {
                // Often reuse a pending entry's exact time, so ties cross
                // the two tiers.
                let time_ms = match reference.len() {
                    n if n > 0 && rng.gen_range(0..3) == 0 => reference[rng.gen_range(0..n)].0,
                    _ => rng.gen_range(0..1000u64),
                };
                schedule(q, &mut reference, time_ms);
            } else {
                let got = q.pop();
                let want = pop_reference(&mut reference);
                assert_eq!(got.is_some(), want.is_some());
                if let (Some((time, e)), Some((tm, seq))) = (got, want) {
                    assert_eq!(e, seq, "seed {seed}: pop order diverged");
                    assert_eq!(time, t(tm as f64 / 1000.0));
                    popped.push(e);
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some((_, e)) = q.pop() {
            assert_eq!(Some(e), pop_reference(&mut reference).map(|(_, p)| p));
            popped.push(e);
        }
        assert!(reference.is_empty());
        popped
    }

    #[test]
    fn matches_naive_reference_model() {
        for seed in 0..20 {
            drive_against_reference(&mut EventQueue::new(), seed);
        }
    }

    #[test]
    fn recycled_queue_pops_like_a_fresh_one() {
        // `reset` must re-enter the bulk phase: a queue left mid-run (both
        // tiers non-empty) and reset pops exactly as a new one does.
        let mut recycled = EventQueue::new();
        for seed in 0..10 {
            recycled.schedule(t(1.0), 0);
            recycled.pop();
            recycled.schedule(t(0.5), 0);
            recycled.schedule(t(9.0), 0);
            recycled.reset();
            assert!(recycled.is_empty());
            let fresh = drive_against_reference(&mut EventQueue::new(), seed);
            assert_eq!(drive_against_reference(&mut recycled, seed), fresh);
        }
    }
}
