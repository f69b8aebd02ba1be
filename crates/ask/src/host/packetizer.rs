//! Sender-assisted addressing and packet construction (§3.2.2, §3.2.3).
//!
//! The packetizer classifies each key as short / medium / long, assigns
//! short keys to one of the short slots and medium keys to one of the
//! medium groups by an *ordered key-space partition* (`hash(key) % N`), and
//! packs packets slot-by-slot so the same key always rides the same slot —
//! and therefore always meets the same aggregator array on the switch,
//! avoiding the single-key-multiple-spot problem.
//!
//! Long keys bypass the switch in dedicated batch packets.
//!
//! A stream is classified once ([`Packetizer::classify`]): a counting sort
//! of tuple *indices* by slot, over a tuple vector the sender shares with
//! its replay buffer. Frames are then cut one at a time as borrowed slot
//! lists ([`StreamFrame`]) that the wire crate's `FrameBuilder` writes
//! straight into frame bytes; [`Packetizer::packetize`] materializes the
//! same frames as owned payloads for analyses and benchmarks.

use ask_wire::key::KeyClass;
use ask_wire::packet::{KvTuple, PacketLayout};
use std::rc::Rc;

/// Output of packetizing one task's key-value stream.
#[derive(Debug, Clone, Default)]
pub struct PacketizedStream {
    /// Slot vectors for data packets, in send order.
    pub data_payloads: Vec<Vec<Option<KvTuple>>>,
    /// Long-key batches for bypass packets, in send order.
    pub long_batches: Vec<Vec<KvTuple>>,
}

impl PacketizedStream {
    /// Total packets (data + bypass).
    pub fn packet_count(&self) -> usize {
        self.data_payloads.len() + self.long_batches.len()
    }

    /// Total tuples across all packets.
    pub fn tuple_count(&self) -> usize {
        let in_data: usize = self
            .data_payloads
            .iter()
            .map(|p| p.iter().filter(|s| s.is_some()).count())
            .sum();
        let in_long: usize = self.long_batches.iter().map(|b| b.len()).sum();
        in_data + in_long
    }

    /// Mean occupied slots per data packet (Figure 8(b)'s metric).
    pub fn mean_occupancy(&self) -> f64 {
        if self.data_payloads.is_empty() {
            return 0.0;
        }
        let occupied: usize = self
            .data_payloads
            .iter()
            .map(|p| p.iter().filter(|s| s.is_some()).count())
            .sum();
        occupied as f64 / self.data_payloads.len() as f64
    }

    /// Per-packet occupied-slot counts (for occupancy CDFs).
    pub fn occupancies(&self) -> Vec<usize> {
        self.data_payloads
            .iter()
            .map(|p| p.iter().filter(|s| s.is_some()).count())
            .collect()
    }
}

/// Builds packets from key-value streams under a fixed [`PacketLayout`].
#[derive(Debug, Clone)]
pub struct Packetizer {
    layout: PacketLayout,
    long_kv_batch: usize,
}

impl Packetizer {
    /// Creates a packetizer.
    ///
    /// # Panics
    ///
    /// Panics if `long_kv_batch == 0`.
    pub fn new(layout: PacketLayout, long_kv_batch: usize) -> Self {
        assert!(long_kv_batch > 0, "long-kv batch must be positive");
        Packetizer {
            layout,
            long_kv_batch,
        }
    }

    /// The layout packets are built for.
    pub fn layout(&self) -> &PacketLayout {
        &self.layout
    }

    /// The slot a tuple's key maps to, or `None` if the key must bypass the
    /// switch (long keys, or no slot of the right class exists).
    pub fn slot_for(&self, tuple: &KvTuple) -> Option<usize> {
        let l = &self.layout;
        match tuple.key.class(l.medium_segments()) {
            KeyClass::Short if l.short_slots() > 0 => {
                Some((tuple.key.hash64() % l.short_slots() as u64) as usize)
            }
            KeyClass::Medium if l.medium_groups() > 0 => {
                Some(l.short_slots() + (tuple.key.hash64() % l.medium_groups() as u64) as usize)
            }
            _ => None,
        }
    }

    /// Classifies a stream once into slot-ordered tuple indices: a
    /// counting sort by slot (stream order kept within each slot), long
    /// keys last. Frames are then produced one at a time by
    /// [`ClassifiedStream::next_frame`], borrowing the tuples, so a sender
    /// holds a stream as one shared vector plus four bytes per tuple.
    ///
    /// # Panics
    ///
    /// Panics if the stream holds `u32::MAX` tuples or more.
    pub fn classify(&self, tuples: Rc<Vec<KvTuple>>) -> ClassifiedStream {
        let slots = self.layout.slot_count();
        let n = u32::try_from(tuples.len()).expect("a stream holds fewer than 2^32 tuples");
        // Bucket `slots` holds the long keys; a layout has at most 128
        // slots, so every bucket fits a byte.
        let bucket: Vec<u8> = tuples
            .iter()
            .map(|t| self.slot_for(t).unwrap_or(slots) as u8)
            .collect();
        let mut starts = vec![0u32; slots + 2];
        for &b in &bucket {
            starts[b as usize + 1] += 1;
        }
        let data_frames = starts[1..=slots].iter().copied().max().unwrap_or(0);
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut fill = starts.clone();
        let mut order = vec![0u32; n as usize];
        for (i, &b) in bucket.iter().enumerate() {
            let at = &mut fill[b as usize];
            order[*at as usize] = i as u32;
            *at += 1;
        }
        let next_long = starts[slots];
        ClassifiedStream {
            tuples,
            order,
            starts,
            data_frames,
            next_data: 0,
            next_long,
            long_kv_batch: self.long_kv_batch,
        }
    }

    /// Packs a stream of tuples into packets.
    ///
    /// Tuples within each slot keep their stream order; a packet takes the
    /// next tuple from every non-empty slot, so skew shows up as blank
    /// slots rather than reordering (§5.3, Figure 8(b)). The packets are
    /// exactly the frames [`Packetizer::classify`] yields, materialized.
    pub fn packetize<I>(&self, tuples: I) -> PacketizedStream
    where
        I: IntoIterator<Item = KvTuple>,
    {
        let mut stream = self.classify(Rc::new(tuples.into_iter().collect()));
        let mut out = PacketizedStream::default();
        while let Some(frame) = stream.next_frame() {
            match frame {
                StreamFrame::Data(slots) => {
                    let mut payload = vec![None; self.layout.slot_count()];
                    for (i, t) in slots {
                        payload[i] = Some(t.clone());
                    }
                    out.data_payloads.push(payload);
                }
                StreamFrame::LongKv(entries) => out.long_batches.push(entries.cloned().collect()),
            }
        }
        out
    }
}

/// A stream classified by [`Packetizer::classify`]: the tuples, shared with
/// whoever else retains them, plus their indices grouped by slot. Data
/// frame `k` carries the `k`-th tuple of every slot that has one; long-key
/// batches follow, in stream order.
#[derive(Debug)]
pub struct ClassifiedStream {
    tuples: Rc<Vec<KvTuple>>,
    /// Tuple indices, slot 0's first, long keys last.
    order: Vec<u32>,
    /// `order[starts[s]..starts[s + 1]]` are slot `s`'s tuples; the last
    /// bucket holds the long keys.
    starts: Vec<u32>,
    /// Data frames in the stream: the longest slot bucket.
    data_frames: u32,
    /// Data frames emitted so far.
    next_data: u32,
    /// Position in `order` of the next long key to emit.
    next_long: u32,
    long_kv_batch: usize,
}

/// One frame's worth of a [`ClassifiedStream`], borrowing its tuples.
#[derive(Debug)]
pub enum StreamFrame<'a> {
    /// The occupied slots of a data frame, in slot order.
    Data(DataSlots<'a>),
    /// The tuples of a long-key bypass batch, in stream order.
    LongKv(LongEntries<'a>),
}

/// `(slot index, tuple)` pairs of one data frame, in increasing slot order.
#[derive(Debug, Clone)]
pub struct DataSlots<'a> {
    tuples: &'a [KvTuple],
    order: &'a [u32],
    /// The slot buckets' bounds only (the long-key bucket is cut off).
    starts: &'a [u32],
    frame: u32,
    slot: usize,
}

/// The tuples of one long-key batch.
#[derive(Debug, Clone)]
pub struct LongEntries<'a> {
    tuples: &'a [KvTuple],
    indices: std::slice::Iter<'a, u32>,
}

impl ClassifiedStream {
    /// The next frame, or `None` once the stream is exhausted: every data
    /// frame first, then the long-key batches.
    pub fn next_frame(&mut self) -> Option<StreamFrame<'_>> {
        let slots = self.starts.len() - 2;
        if self.next_data < self.data_frames {
            let frame = self.next_data;
            self.next_data += 1;
            return Some(StreamFrame::Data(DataSlots {
                tuples: &self.tuples,
                order: &self.order,
                starts: &self.starts[..=slots],
                frame,
                slot: 0,
            }));
        }
        let from = self.next_long as usize;
        let long_end = self.order.len();
        if from >= long_end {
            return None;
        }
        let to = long_end.min(from + self.long_kv_batch);
        self.next_long = to as u32;
        Some(StreamFrame::LongKv(LongEntries {
            tuples: &self.tuples,
            indices: self.order[from..to].iter(),
        }))
    }
}

impl<'a> Iterator for DataSlots<'a> {
    type Item = (usize, &'a KvTuple);

    fn next(&mut self) -> Option<Self::Item> {
        while self.slot + 1 < self.starts.len() {
            let s = self.slot;
            self.slot += 1;
            let at = self.starts[s] + self.frame;
            if at < self.starts[s + 1] {
                return Some((s, &self.tuples[self.order[at as usize] as usize]));
            }
        }
        None
    }
}

impl<'a> Iterator for LongEntries<'a> {
    type Item = &'a KvTuple;

    fn next(&mut self) -> Option<&'a KvTuple> {
        self.indices.next().map(|&i| &self.tuples[i as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.indices.size_hint()
    }
}

impl ExactSizeIterator for LongEntries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use ask_wire::key::Key;

    fn kv(s: &str, v: u32) -> KvTuple {
        KvTuple::new(Key::from_str(s).unwrap(), v)
    }

    fn packetizer() -> Packetizer {
        Packetizer::new(PacketLayout::custom(4, 2, 2), 3)
    }

    #[test]
    fn same_key_always_same_slot() {
        let p = packetizer();
        let s1 = p.slot_for(&kv("cat", 1)).unwrap();
        let s2 = p.slot_for(&kv("cat", 99)).unwrap();
        assert_eq!(s1, s2);
        assert!(s1 < 4, "short keys go to short slots");
        let m = p.slot_for(&kv("maples", 1)).unwrap();
        assert!(m >= 4, "medium keys go to medium slots");
    }

    #[test]
    fn long_keys_bypass() {
        let p = packetizer();
        assert_eq!(p.slot_for(&kv("waytoolongkey", 1)), None);
        let out = p.packetize(vec![kv("waytoolongkey", 1); 7]);
        assert!(out.data_payloads.is_empty());
        assert_eq!(out.long_batches.len(), 3, "7 tuples in batches of 3");
        assert_eq!(out.tuple_count(), 7);
    }

    #[test]
    fn uniform_keys_fill_packets_densely() {
        let p = Packetizer::new(PacketLayout::short_only(8), 8);
        // Many distinct short keys spread uniformly over slots.
        let tuples: Vec<KvTuple> = (0..8000)
            .map(|i| KvTuple::new(Key::from_u64(i), 1))
            .collect();
        let out = p.packetize(tuples);
        assert!(
            out.mean_occupancy() > 7.0,
            "uniform stream should nearly fill the 8 slots, got {}",
            out.mean_occupancy()
        );
        assert_eq!(out.tuple_count(), 8000);
    }

    #[test]
    fn single_hot_key_leaves_blanks() {
        let p = Packetizer::new(PacketLayout::short_only(8), 8);
        let out = p.packetize(vec![kv("hot", 1); 100]);
        // All 100 tuples share one slot: 100 packets, each with 1 tuple.
        assert_eq!(out.data_payloads.len(), 100);
        assert!((out.mean_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stream_order_preserved_within_slot() {
        let p = packetizer();
        let out = p.packetize(vec![kv("cat", 1), kv("cat", 2), kv("cat", 3)]);
        let slot = p.slot_for(&kv("cat", 0)).unwrap();
        let values: Vec<u32> = out
            .data_payloads
            .iter()
            .filter_map(|pl| pl[slot].as_ref().map(|t| t.value))
            .collect();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn short_keys_bypass_when_no_short_slots() {
        let p = Packetizer::new(PacketLayout::custom(0, 4, 2), 8);
        assert_eq!(p.slot_for(&kv("cat", 1)), None, "no short slots → bypass");
        assert!(p.slot_for(&kv("maples", 1)).is_some());
    }

    #[test]
    fn packet_count_sums() {
        let p = packetizer();
        let out = p.packetize(vec![kv("cat", 1), kv("waytoolongkey", 2)]);
        assert_eq!(out.packet_count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        let _ = Packetizer::new(PacketLayout::paper_default(), 0);
    }

    /// The per-slot queue packetizer the classifier replaced: one FIFO per
    /// slot, each data packet pops the head of every queue, long keys are
    /// batched in stream order.
    fn queue_reference(p: &Packetizer, tuples: &[KvTuple]) -> PacketizedStream {
        let slots = p.layout().slot_count();
        let mut queues = vec![std::collections::VecDeque::new(); slots];
        let mut long = Vec::new();
        for t in tuples {
            match p.slot_for(t) {
                Some(s) => queues[s].push_back(t.clone()),
                None => long.push(t.clone()),
            }
        }
        let mut out = PacketizedStream::default();
        while queues.iter().any(|q| !q.is_empty()) {
            out.data_payloads
                .push(queues.iter_mut().map(|q| q.pop_front()).collect());
        }
        out.long_batches = long.chunks(p.long_kv_batch).map(<[_]>::to_vec).collect();
        out
    }

    #[test]
    fn lazy_stream_matches_eager_packetize() {
        let p = packetizer();
        let tuples: Vec<KvTuple> = (0..40)
            .map(|i| KvTuple::new(Key::from_u64(i % 11), i as u32))
            .chain((0..7).map(|i| kv("waytoolongkey", i)))
            .chain((0..5).map(|i| kv("maples", i)))
            .collect();
        let want = queue_reference(&p, &tuples);
        let eager = p.packetize(tuples.clone());
        assert_eq!(eager.data_payloads, want.data_payloads);
        assert_eq!(eager.long_batches, want.long_batches);

        // The lazy stream yields the same frames one at a time, borrowing
        // the shared tuples.
        let shared = Rc::new(tuples);
        let mut stream = p.classify(Rc::clone(&shared));
        let (mut data, mut long) = (Vec::new(), Vec::new());
        while let Some(frame) = stream.next_frame() {
            match frame {
                StreamFrame::Data(slots) => {
                    let mut payload = vec![None; p.layout().slot_count()];
                    for (i, t) in slots {
                        payload[i] = Some(t.clone());
                    }
                    assert!(long.is_empty(), "data frames come first");
                    data.push(payload);
                }
                StreamFrame::LongKv(entries) => long.push(entries.cloned().collect::<Vec<_>>()),
            }
        }
        assert!(
            stream.next_frame().is_none(),
            "an exhausted stream stays empty"
        );
        assert_eq!(data, want.data_payloads);
        assert_eq!(long, want.long_batches);
        assert_eq!(
            Rc::strong_count(&shared),
            2,
            "classification copies no tuple"
        );
    }

    #[test]
    fn empty_stream_has_no_frames() {
        let mut stream = packetizer().classify(Rc::new(Vec::new()));
        assert!(stream.next_frame().is_none());
    }
}
