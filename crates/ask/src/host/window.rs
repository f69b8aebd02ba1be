//! The sender's sliding window (§3.3 "Host Sender").
//!
//! The sender keeps at most `W` unacknowledged packets in flight. ACKs —
//! from the switch or from the receiver host — retire entries and allow new
//! sends. Out-of-order ACKs never trigger retransmission (the two ACK
//! sources naturally reorder); only the fine-grained timeout does.

use ask_wire::packet::TaskId;
use bytes::Bytes;
use std::collections::BTreeMap;

/// What an in-flight frame carries, as far as ACK handling and the
/// no-aggregate escalation need to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A slotted data frame: gates its task's FIN, escalates to
    /// no-aggregate pass-through.
    Data,
    /// A long-key bypass batch: gates its task's FIN.
    LongKv,
    /// A task's FIN: its ACK ends the task's sending phase.
    Fin,
}

/// One unacknowledged frame.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// The envelope as it went on the wire. Retransmissions resend these
    /// bytes directly (an O(1) refcount bump) instead of re-encoding.
    pub encoded: Bytes,
    /// On-wire size of the frame carrying `encoded`.
    pub wire: usize,
    /// What the frame carries.
    pub kind: FrameKind,
    /// The task the frame belongs to.
    pub task: TaskId,
    /// Number of retransmissions so far.
    pub retransmits: u32,
    /// Entry was escalated to degraded no-aggregate pass-through after the
    /// configured retransmission budget ran out.
    pub degraded: bool,
}

/// Sliding send window over one data channel's sequence space.
///
/// Sequence numbers are modular (`u64` wrapping): all window arithmetic is
/// phrased as wrapping distances from `next_seq`, so the window keeps
/// working across the `u64::MAX → 0` wraparound. An in-flight sequence `s`
/// is always within `W` behind `next_seq`, which makes
/// `next_seq.wrapping_sub(s) ∈ [1, W]` the age of `s`.
#[derive(Debug)]
pub struct SenderWindow {
    w: u64,
    next_seq: u64,
    inflight: BTreeMap<u64, InFlight>,
    peak_inflight: usize,
}

impl SenderWindow {
    /// Creates a window of size `w` packets.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn new(w: usize) -> Self {
        Self::with_start_seq(w, 0)
    }

    /// Creates a window whose first transmission will use sequence number
    /// `start` — lets tests start the sequence space anywhere, notably just
    /// below the `u64` wraparound.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn with_start_seq(w: usize, start: u64) -> Self {
        assert!(w > 0, "window must be positive");
        SenderWindow {
            w: w as u64,
            next_seq: start,
            inflight: BTreeMap::new(),
            peak_inflight: 0,
        }
    }

    /// True if the window permits transmitting the next sequence number:
    /// the oldest unacknowledged packet is less than `W` behind `next_seq`
    /// (in wrapping distance).
    pub fn can_send(&self) -> bool {
        match self.oldest_unacked() {
            Some(oldest) => self.next_seq.wrapping_sub(oldest) < self.w,
            None => true,
        }
    }

    /// The oldest (logically, not numerically) unacknowledged sequence.
    ///
    /// In-flight sequences live in the half-open modular interval
    /// `[next_seq - W, next_seq)`; keys numerically `>= next_seq` are the
    /// pre-wrap tail of that interval and therefore older than any key
    /// below `next_seq`.
    pub fn oldest_unacked(&self) -> Option<u64> {
        self.inflight
            .range(self.next_seq..)
            .next()
            .map(|(&s, _)| s)
            .or_else(|| self.inflight.keys().next().copied())
    }

    /// Number of unacknowledged packets.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// High-water mark of [`SenderWindow::in_flight`] over the window's
    /// lifetime — the invariant `peak_in_flight ≤ W` is what a conformance
    /// harness checks to prove the sender never overran its window.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_inflight
    }

    /// The in-flight sequence numbers, oldest first (wraparound-aware).
    pub fn in_flight_seqs(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = self.inflight.range(self.next_seq..).map(|(&s, _)| s).collect();
        seqs.extend(self.inflight.range(..self.next_seq).map(|(&s, _)| s));
        seqs
    }

    /// The sequence number the next send will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Registers a fresh transmission, consuming the next sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the window is full ([`SenderWindow::can_send`] is false).
    pub fn register(&mut self, kind: FrameKind, task: TaskId, encoded: Bytes, wire: usize) -> u64 {
        assert!(self.can_send(), "window full");
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.peak_inflight = self.peak_inflight.max(self.inflight.len() + 1);
        self.inflight.insert(
            seq,
            InFlight {
                encoded,
                wire,
                kind,
                task,
                retransmits: 0,
                degraded: false,
            },
        );
        seq
    }

    /// Retires `seq`; returns the entry if it was in flight (`None` for
    /// duplicate ACKs).
    pub fn ack(&mut self, seq: u64) -> Option<InFlight> {
        self.inflight.remove(&seq)
    }

    /// Looks up an in-flight frame (for retransmission), bumping its
    /// retransmit counter. The entry is mutable so the caller can swap in a
    /// re-flagged frame (degraded-mode escalation).
    pub fn retransmit(&mut self, seq: u64) -> Option<&mut InFlight> {
        let entry = self.inflight.get_mut(&seq)?;
        entry.retransmits += 1;
        Some(entry)
    }

    /// True once every transmission has been acknowledged.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Empties the window and restarts the sequence space at 0, returning
    /// the abandoned entries (newest-epoch resynchronization: the switch's
    /// dedup registers were wiped, and their even/odd phase encoding only
    /// reads correctly for a sequence space that starts from zero). The
    /// peak-in-flight high-water mark is preserved across the reset.
    pub fn drain_reset(&mut self) -> Vec<InFlight> {
        self.next_seq = 0;
        std::mem::take(&mut self.inflight).into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registers an empty data frame of task 0.
    fn send(w: &mut SenderWindow) -> u64 {
        w.register(FrameKind::Data, TaskId(0), Bytes::new(), 0)
    }

    #[test]
    fn window_blocks_at_w_unacked() {
        let mut w = SenderWindow::new(4);
        for i in 0..4 {
            assert!(w.can_send());
            assert_eq!(send(&mut w), i);
        }
        assert!(!w.can_send());
        assert_eq!(w.in_flight(), 4);
    }

    #[test]
    fn acking_oldest_slides_window() {
        let mut w = SenderWindow::new(2);
        send(&mut w);
        send(&mut w);
        assert!(!w.can_send());
        // Acking the *newest* does not slide (oldest still pins the window).
        assert!(w.ack(1).is_some());
        assert!(!w.can_send(), "seq 2 >= 0 + 2");
        assert!(w.ack(0).is_some());
        assert!(w.can_send());
        assert!(w.is_idle());
    }

    #[test]
    fn duplicate_ack_returns_none() {
        let mut w = SenderWindow::new(2);
        send(&mut w);
        assert!(w.ack(0).is_some());
        assert!(w.ack(0).is_none());
    }

    #[test]
    fn retransmit_counts() {
        let mut w = SenderWindow::new(2);
        w.register(FrameKind::Fin, TaskId(3), Bytes::new(), 90);
        assert_eq!(w.retransmit(0).unwrap().retransmits, 1);
        assert_eq!(w.retransmit(0).unwrap().retransmits, 2);
        let e = w.ack(0).unwrap();
        assert_eq!(e.retransmits, 2);
        assert_eq!((e.kind, e.task, e.wire), (FrameKind::Fin, TaskId(3), 90));
        assert!(w.retransmit(0).is_none(), "acked packets are gone");
    }

    #[test]
    fn drain_reset_restarts_sequence_space() {
        let mut w = SenderWindow::with_start_seq(4, 1000);
        w.register(FrameKind::LongKv, TaskId(3), Bytes::new(), 0);
        send(&mut w);
        assert_eq!(w.peak_in_flight(), 2);
        let drained = w.drain_reset();
        assert_eq!(drained.len(), 2);
        assert!(w.is_idle());
        assert_eq!(w.next_seq(), 0, "sequence space restarts at zero");
        assert_eq!(w.peak_in_flight(), 2, "high-water mark survives the reset");
        assert_eq!(send(&mut w), 0);
    }

    #[test]
    #[should_panic(expected = "window full")]
    fn register_past_full_panics() {
        let mut w = SenderWindow::new(1);
        send(&mut w);
        send(&mut w);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = SenderWindow::new(0);
    }

    #[test]
    fn window_slides_across_u64_wraparound() {
        // Start two packets shy of u64::MAX and stream 16 packets through a
        // window of 4: sequence numbers wrap through 0 and the window keeps
        // sliding (the old `oldest + w` arithmetic overflowed here).
        let mut w = SenderWindow::with_start_seq(4, u64::MAX - 2);
        let mut expected = u64::MAX - 2;
        for _ in 0..16 {
            assert!(w.can_send());
            let seq = send(&mut w);
            assert_eq!(seq, expected);
            assert!(w.ack(seq).is_some());
            expected = expected.wrapping_add(1);
        }
        assert!(w.is_idle());
        assert_eq!(w.peak_in_flight(), 1);
    }

    #[test]
    fn oldest_unacked_is_wraparound_aware() {
        let mut w = SenderWindow::with_start_seq(4, u64::MAX - 1);
        let a = send(&mut w); // MAX-1
        let b = send(&mut w); // MAX
        let c = send(&mut w); // 0
        assert_eq!((a, b, c), (u64::MAX - 1, u64::MAX, 0));
        // Numerically the smallest key is 0, but logically MAX-1 is oldest.
        assert_eq!(w.oldest_unacked(), Some(u64::MAX - 1));
        assert_eq!(w.in_flight_seqs(), vec![u64::MAX - 1, u64::MAX, 0]);
        assert!(w.can_send(), "3 of 4 slots used");
        send(&mut w); // 1
        assert!(!w.can_send(), "window full across the wrap");
        assert!(w.ack(u64::MAX - 1).is_some());
        assert!(w.can_send(), "acking the oldest slides the window");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        proptest! {
            /// For any start point — including just below the u64 wrap —
            /// and any interleaving of sends and (possibly duplicate) ACKs,
            /// the window behaves exactly like an ideal model over
            /// non-wrapping virtual positions: same sequence assignment,
            /// same can-send verdict, and never more than `W` in flight.
            #[test]
            fn wraparound_matches_unwrapped_model(
                seed in any::<u64>(),
                w in 1usize..12,
                // Bias starts around the wrap point and a few "plain" spots.
                start_back in 0u64..40,
                plain_start in prop_oneof![Just(false), Just(true)],
                steps in 32usize..200,
            ) {
                let start = if plain_start {
                    start_back // near zero
                } else {
                    u64::MAX.wrapping_sub(start_back) // near the wrap
                };
                let mut sw = SenderWindow::with_start_seq(w, start);
                let mut rng = StdRng::seed_from_u64(seed);
                // Model: virtual (non-wrapping) positions of in-flight sends.
                let mut inflight_virt: Vec<u64> = Vec::new();
                let mut next_virt: u64 = 0;
                for _ in 0..steps {
                    let model_can_send = match inflight_virt.first() {
                        Some(&oldest) => next_virt - oldest < w as u64,
                        None => true,
                    };
                    prop_assert_eq!(sw.can_send(), model_can_send);
                    prop_assert!(sw.in_flight() <= w);
                    if model_can_send && (inflight_virt.is_empty() || rng.gen_bool(0.6)) {
                        let seq = send(&mut sw);
                        prop_assert_eq!(seq, start.wrapping_add(next_virt));
                        inflight_virt.push(next_virt);
                        next_virt += 1;
                    } else if !inflight_virt.is_empty() {
                        // Ack a random in-flight packet (ACKs reorder freely);
                        // occasionally replay an old ACK to model duplicates.
                        let ix = rng.gen_range(0..inflight_virt.len());
                        let virt = inflight_virt.remove(ix);
                        let seq = start.wrapping_add(virt);
                        prop_assert!(sw.ack(seq).is_some());
                        if rng.gen_bool(0.3) {
                            prop_assert!(sw.ack(seq).is_none(), "duplicate ACK");
                        }
                    }
                    prop_assert_eq!(sw.in_flight(), inflight_virt.len());
                    let model_oldest =
                        inflight_virt.first().map(|&v| start.wrapping_add(v));
                    prop_assert_eq!(sw.oldest_unacked(), model_oldest);
                }
                prop_assert!(sw.peak_in_flight() <= w);
            }

            /// Retransmit/ACK lifecycle under duplicate ACKs: a duplicate
            /// ACK never resurrects a packet, never unblocks extra sends,
            /// and a retransmission after a duplicate ACK is a no-op for
            /// acked packets while unacked ones keep counting attempts.
            #[test]
            fn retransmit_after_duplicate_ack(
                seed in any::<u64>(),
                w in 2usize..10,
                steps in 20usize..120,
            ) {
                let mut sw = SenderWindow::new(w);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut live: Vec<(u64, u32)> = Vec::new(); // (seq, retransmits)
                let mut acked: Vec<u64> = Vec::new();
                for _ in 0..steps {
                    match rng.gen_range(0..4u8) {
                        0 if sw.can_send() => {
                            let seq =
                                send(&mut sw);
                            live.push((seq, 0));
                        }
                        1 if !live.is_empty() => {
                            let ix = rng.gen_range(0..live.len());
                            let (seq, retx) = live.remove(ix);
                            let entry = sw.ack(seq);
                            prop_assert!(entry.is_some());
                            prop_assert_eq!(entry.unwrap().retransmits, retx);
                            acked.push(seq);
                        }
                        2 if !live.is_empty() => {
                            // Timeout fires for an in-flight packet.
                            let ix = rng.gen_range(0..live.len());
                            live[ix].1 += 1;
                            let seq = live[ix].0;
                            let got = sw.retransmit(seq);
                            prop_assert!(got.is_some());
                            prop_assert_eq!(got.unwrap().retransmits, live[ix].1);
                        }
                        _ if !acked.is_empty() => {
                            // Duplicate ACK, then a late timeout for the same
                            // sequence: both must be inert.
                            let seq = acked[rng.gen_range(0..acked.len())];
                            let before = sw.in_flight();
                            prop_assert!(sw.ack(seq).is_none());
                            prop_assert!(sw.retransmit(seq).is_none());
                            prop_assert_eq!(sw.in_flight(), before);
                        }
                        _ => {}
                    }
                    prop_assert!(sw.in_flight() <= w);
                }
                prop_assert_eq!(sw.in_flight(), live.len());
            }
        }
    }
}
