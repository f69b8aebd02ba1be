//! Benchmark-only facade over the internal `EventQueue`.
//!
//! The queue is deliberately `pub(crate)` — simulation users schedule work
//! through [`crate::network::Context`], never by touching the scheduler
//! directly. Criterion benches live in a separate crate, though, and need
//! to drive push/pop in isolation to measure the timer wheel against its
//! event-time distribution. This thin wrapper exposes exactly that: timer
//! pushes at absolute nanosecond instants and pops observed as
//! `(at_nanos, seq)` pairs. It adds no behavior of its own, so benching
//! the wrapper is benching the queue.

use crate::event::{EventKind, EventQueue};
use crate::frame::{Frame, NodeId};
use crate::time::SimTime;
use bytes::Bytes;

/// An event queue handle for benchmarks: schedules opaque timer events.
#[derive(Debug, Default)]
pub struct BenchEventQueue(EventQueue);

impl BenchEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BenchEventQueue(EventQueue::new())
    }

    /// Schedules a timer event at the absolute instant `at_nanos`.
    pub fn push_timer(&mut self, at_nanos: u64, token: u64) {
        self.0.push(
            SimTime::from_nanos(at_nanos),
            EventKind::Timer {
                node: NodeId::from_index(0),
                token,
            },
        );
    }

    /// Pops the earliest event, returning its `(at_nanos, seq)` stamp.
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        self.0.pop().map(|e| (e.at.as_nanos(), e.seq))
    }

    /// Schedules an empty-payload frame delivery to node `to` at `at_nanos`
    /// (the burst-drain bench needs real `Deliver` events, not timers).
    pub fn push_deliver(&mut self, at_nanos: u64, to: usize) {
        self.0.push(
            SimTime::from_nanos(at_nanos),
            EventKind::Deliver {
                from: NodeId::from_index(0),
                to: NodeId::from_index(to),
                frame: Frame::new(Bytes::new()),
            },
        );
    }

    /// Pops the next event only if it is a delivery to node `to` at exactly
    /// `at_nanos` — the probe [`crate::network::Network::run`] uses to
    /// extend a same-instant burst. Returns whether a delivery was drained.
    pub fn pop_deliver_if(&mut self, at_nanos: u64, to: usize) -> bool {
        self.0
            .pop_deliver_if(SimTime::from_nanos(at_nanos), NodeId::from_index(to))
            .is_some()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliver_facade_drains_bursts() {
        let mut q = BenchEventQueue::new();
        q.push_deliver(100, 3);
        q.push_deliver(100, 3);
        q.push_deliver(100, 4); // different node: not part of the burst
        q.push_deliver(200, 3); // later instant: not part of the burst
        let (at, _) = q.pop().expect("head");
        assert_eq!(at, 100);
        assert!(q.pop_deliver_if(100, 3));
        assert!(!q.pop_deliver_if(100, 3), "node 4's frame ends the burst");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn facade_preserves_queue_order() {
        let mut q = BenchEventQueue::new();
        q.push_timer(300, 0);
        q.push_timer(100, 1);
        q.push_timer(100, 2);
        assert_eq!(q.len(), 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(at, _)| at).collect();
        assert_eq!(order, vec![100, 100, 300]);
        assert!(q.is_empty());
    }
}
