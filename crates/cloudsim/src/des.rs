//! Discrete-event simulation primitives: a deterministic event queue.

use std::collections::BinaryHeap;

/// Simulated time in seconds.
pub type SimTime = f64;

/// An event queue ordered by time, with FIFO tie-breaking by insertion
/// sequence so simulations are fully deterministic.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, then lowest
        // sequence number first
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `payload` at absolute simulated time `time`.
    ///
    /// # Panics
    /// Panics on NaN or negative times — both indicate simulation bugs.
    pub fn push(&mut self, time: SimTime, payload: T) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
impl<T> EventQueue<T> {
    /// Time of the next event without removing it.
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, "c");
        q.push(1.0, "a");
        q.push(3.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(2.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(7.5, ());
        q.push(2.5, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2.5));
        q.pop();
        assert_eq!(q.peek_time(), Some(7.5));
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_negative_time() {
        let mut q = EventQueue::new();
        q.push(-1.0, ());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10.0, 10);
        q.push(1.0, 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(5.0, 5);
        q.push(0.5, 0); // time in the "past" relative to popped events is
                        // allowed at this layer; callers enforce causality
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
        assert!(q.pop().is_none());
    }
}
