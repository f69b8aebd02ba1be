//! The receiver's residual merge table: open-addressed, arena-backed.
//!
//! Every tuple the switch could not absorb lands here — residual slots the
//! view path reads straight off the wire, long-key bypass tuples, fetch
//! replies, and co-located sender streams. The paper's host daemon (§4)
//! merges these into a shared-memory table at line rate, so the structure
//! is built for the merge loop, not for general map workloads:
//!
//! - **Open addressing, linear probing, power-of-two capacity.** One flat
//!   slot array, no per-entry boxes, no bucket chains; the common miss
//!   costs one cache line.
//! - **Wire-computed hashes.** [`TaskTable::merge_hashed`] takes the 64-bit
//!   FNV-1a hash the view layer already produced per slot
//!   ([`ask_wire::view::SlotView::hash64`]), so the hot path never re-reads
//!   key bytes to hash them.
//! - **Inline short keys, arena for long ones.** Keys up to
//!   [`INLINE_CAP`] bytes live inside the slot; longer keys are
//!   bump-allocated into one contiguous arena and the slot stores an
//!   offset. Rehashing moves slots only — arena offsets are stable — and
//!   [`TaskTable::clear`] (the epoch-resync wipe) truncates the arena
//!   without releasing its capacity.
//! - **Amortized sorted harvest.** Nothing stays ordered during merges;
//!   [`TaskTable::sorted_entries`] sorts once at harvest time, which is how
//!   report output stays byte-identical to the old `HashMap` + sort.
//!
//! All aggregation operators are commutative and associative
//! ([`AggregateOp::combine`]), so merge order never changes the values.

use ask_wire::key::Key;
use ask_wire::packet::AggregateOp;
use std::collections::HashMap;

/// Key bytes stored inline in a slot. Together with the hash, value, and
/// bookkeeping this keeps a slot at 40 bytes — comfortably under a cache
/// line, with two slots per line.
pub const INLINE_CAP: usize = 20;

/// Smallest allocated capacity (power of two).
const MIN_CAPACITY: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    value: u32,
    /// Key length in bytes; `0` marks a vacant slot (wire keys are
    /// validated non-empty, so no live entry can collide with the marker).
    key_len: u32,
    /// The key bytes when `key_len <= INLINE_CAP`.
    inline: [u8; INLINE_CAP],
    /// Arena offset of the key bytes when `key_len > INLINE_CAP`.
    arena_off: u32,
}

const VACANT: Slot = Slot {
    hash: 0,
    value: 0,
    key_len: 0,
    inline: [0; INLINE_CAP],
    arena_off: 0,
};

/// Open-addressed residual table for one receive task. See the module
/// documentation for the layout rationale.
#[derive(Debug, Default)]
pub struct TaskTable {
    slots: Vec<Slot>,
    /// `slots.len() - 1`; capacity is always a power of two.
    mask: usize,
    len: usize,
    /// Backing store for keys longer than [`INLINE_CAP`] bytes.
    arena: Vec<u8>,
}

impl TaskTable {
    /// An empty table. Allocates nothing until the first merge.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Number of distinct keys merged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key has been merged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_key(&self, ix: usize) -> &[u8] {
        let s = &self.slots[ix];
        let len = s.key_len as usize;
        if len <= INLINE_CAP {
            &s.inline[..len]
        } else {
            &self.arena[s.arena_off as usize..s.arena_off as usize + len]
        }
    }

    /// Merges `value` under the key whose bytes are `key` and whose FNV-1a
    /// hash is `hash` — the wire-computed hash from
    /// [`ask_wire::view::SlotView::hash64`] /
    /// [`ask_wire::view::EntryView::hash64`], which equals
    /// [`Key::hash64`] of the materialized key.
    pub fn merge_hashed(&mut self, hash: u64, key: &[u8], value: u32, op: AggregateOp) {
        debug_assert!(!key.is_empty(), "wire keys are validated non-empty");
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.mask;
        let mut ix = (hash as usize) & mask;
        loop {
            let s = &self.slots[ix];
            if s.key_len == 0 {
                break; // vacant: insert here
            }
            if s.hash == hash && s.key_len as usize == key.len() && self.slot_key(ix) == key {
                let v = &mut self.slots[ix].value;
                *v = op.combine(*v, value);
                return;
            }
            ix = (ix + 1) & mask;
        }
        let arena_off = if key.len() > INLINE_CAP {
            let off = self.arena.len() as u32;
            self.arena.extend_from_slice(key);
            off
        } else {
            0
        };
        let s = &mut self.slots[ix];
        s.hash = hash;
        s.value = value;
        s.key_len = key.len() as u32;
        s.arena_off = arena_off;
        if key.len() <= INLINE_CAP {
            s.inline[..key.len()].copy_from_slice(key);
        }
        self.len += 1;
    }

    /// Merges `value` under `key`, hashing it first — the fallback paths
    /// (materialized tuples, co-located streams) where no wire hash exists.
    pub fn merge(&mut self, key: &Key, value: u32, op: AggregateOp) {
        self.merge_hashed(key.hash64(), key.as_bytes(), value, op);
    }

    /// Doubles capacity and reinserts every live slot. Arena offsets are
    /// untouched: only slots move.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(MIN_CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_cap]);
        self.mask = new_cap - 1;
        for s in old {
            if s.key_len == 0 {
                continue;
            }
            let mut ix = (s.hash as usize) & self.mask;
            while self.slots[ix].key_len != 0 {
                ix = (ix + 1) & self.mask;
            }
            self.slots[ix] = s;
        }
    }

    /// Empties the table, keeping slot and arena capacity — the
    /// epoch-resync wipe: partial residuals are dropped and the senders'
    /// replays repopulate the same allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.key_len = 0;
        }
        self.len = 0;
        self.arena.clear();
    }

    /// Allocated slot count; `0` once [`TaskTable::take_entries`] has
    /// released the table's memory.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn materialize_key(&self, ix: usize) -> Key {
        Key::from_slice(self.slot_key(ix)).expect("table keys come from validated wire bytes")
    }

    /// Drains the table into the `HashMap` the application-facing
    /// [`TaskResult`](crate::host::daemon::TaskResult) exposes, pre-sized
    /// for `extra` more keys (the final fetch reply, folded in afterwards
    /// with [`fold_entry`]). The table is left empty and its slot array and
    /// arena are freed: a finished task pins no memory.
    pub fn take_entries(&mut self, extra: usize) -> HashMap<Key, u32> {
        let table = std::mem::take(self);
        let mut out = HashMap::with_capacity(table.len + extra);
        for ix in 0..table.slots.len() {
            if table.slots[ix].key_len != 0 {
                out.insert(table.materialize_key(ix), table.slots[ix].value);
            }
        }
        out
    }

    /// Harvests every entry sorted by key bytes — the amortized sorted
    /// harvest: merge order is arbitrary, the sort happens once here, and
    /// the output is byte-identical to collecting the old `HashMap` and
    /// sorting it.
    pub fn sorted_entries(&self) -> Vec<(Key, u32)> {
        let mut out: Vec<(Key, u32)> = (0..self.slots.len())
            .filter(|&ix| self.slots[ix].key_len != 0)
            .map(|ix| (self.materialize_key(ix), self.slots[ix].value))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Merges `value` under the key whose bytes are `key` straight into a
/// result map — how the final fetch reply completes a task without passing
/// through a [`TaskTable`]. Keys up to
/// [`INLINE_KEY_CAP`](ask_wire::key::INLINE_KEY_CAP) bytes are built
/// without allocating.
pub fn fold_entry(entries: &mut HashMap<Key, u32>, key: &[u8], value: u32, op: AggregateOp) {
    let key = Key::from_slice(key).expect("fetched keys come from validated wire bytes");
    entries
        .entry(key)
        .and_modify(|v| *v = op.combine(*v, value))
        .or_insert(value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::FastMap;
    use proptest::prelude::*;

    fn keys() -> Vec<Key> {
        // Short inline keys, boundary-length keys, and arena-backed long
        // keys, with deliberate length variety around INLINE_CAP.
        let mut ks = Vec::new();
        for i in 0..40u64 {
            ks.push(Key::from_u64(i + 1));
        }
        ks.push(Key::from_str(&"x".repeat(INLINE_CAP)).unwrap());
        ks.push(Key::from_str(&"y".repeat(INLINE_CAP + 1)).unwrap());
        ks.push(Key::from_str("a-long-key-clearly-beyond-the-inline-cap").unwrap());
        ks.push(Key::from_str(&"z".repeat(100)).unwrap());
        ks
    }

    fn reference_merge(
        stream: &[(Key, u32)],
        op: AggregateOp,
    ) -> FastMap<Key, u32> {
        // The exact structure and merge expression the daemon used before
        // the open-addressed table.
        let mut map: FastMap<Key, u32> = FastMap::default();
        for (k, v) in stream {
            map.entry(k.clone())
                .and_modify(|cur| *cur = op.combine(*cur, *v))
                .or_insert(*v);
        }
        map
    }

    fn stream() -> Vec<(Key, u32)> {
        let ks = keys();
        let mut s = Vec::new();
        // Deterministic pseudo-random repetition so most keys merge several
        // times and values exercise wrapping sums.
        let mut x = 0x1234_5678_9abc_def0u64;
        for round in 0..7 {
            for (i, k) in ks.iter().enumerate() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 33) % 3 == round % 3 {
                    s.push((k.clone(), (x >> 7) as u32 | (i as u32) << 24));
                }
            }
        }
        s
    }

    #[test]
    fn merge_matches_hashmap_reference() {
        for op in [AggregateOp::Sum, AggregateOp::Max, AggregateOp::Min] {
            let s = stream();
            let want: HashMap<Key, u32> = reference_merge(&s, op).into_iter().collect();
            let mut table = TaskTable::new();
            for (k, v) in &s {
                table.merge(k, *v, op);
            }
            assert_eq!(table.len(), want.len());
            assert_eq!(table.take_entries(0), want);
        }
    }

    #[test]
    fn wire_hash_and_key_hash_merge_identically() {
        let op = AggregateOp::Sum;
        let s = stream();
        let mut by_key = TaskTable::new();
        let mut by_hash = TaskTable::new();
        for (k, v) in &s {
            by_key.merge(k, *v, op);
            by_hash.merge_hashed(k.hash64(), k.as_bytes(), *v, op);
        }
        assert_eq!(by_key.take_entries(0), by_hash.take_entries(0));
    }

    #[test]
    fn sorted_harvest_is_byte_identical_to_hashmap_sort() {
        // The old daemon's report path: collect the HashMap, sort by key.
        // The pinning is literal — both harvests are rendered to bytes and
        // compared as strings, long-key arena entries included, across an
        // epoch-resync clear.
        let op = AggregateOp::Sum;
        let s = stream();
        let mut table = TaskTable::new();
        for (k, v) in &s {
            table.merge(k, *v, op);
        }
        let mut want: Vec<(Key, u32)> = reference_merge(&s, op).into_iter().collect();
        want.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(format!("{:?}", table.sorted_entries()), format!("{want:?}"));

        // Epoch resync clears the table (and truncates the arena); a
        // replayed, different stream must harvest exactly as a fresh map.
        table.clear();
        assert!(table.is_empty());
        let replay: Vec<(Key, u32)> = s.iter().rev().cloned().collect();
        for (k, v) in &replay {
            table.merge(k, *v, op);
        }
        let mut want2: Vec<(Key, u32)> = reference_merge(&replay, op).into_iter().collect();
        want2.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(format!("{:?}", table.sorted_entries()), format!("{want2:?}"));
    }

    #[test]
    fn take_entries_leaves_the_table_empty() {
        let mut table = TaskTable::new();
        table.merge(&Key::from_u64(1), 5, AggregateOp::Sum);
        assert_eq!(table.len(), 1);
        assert_eq!(table.take_entries(0).len(), 1);
        assert!(table.is_empty());
        assert_eq!(table.capacity(), 0, "the drain frees the slot array");
        assert!(table.take_entries(0).is_empty());
        // The table stays usable after the drain.
        table.merge(&Key::from_u64(2), 9, AggregateOp::Sum);
        assert_eq!(table.sorted_entries(), vec![(Key::from_u64(2), 9)]);
    }

    #[test]
    fn growth_rehash_keeps_arena_backed_keys() {
        let op = AggregateOp::Sum;
        let mut table = TaskTable::new();
        let long_a = Key::from_str(&"a".repeat(50)).unwrap();
        let long_b = Key::from_str(&"b".repeat(50)).unwrap();
        table.merge(&long_a, 1, op);
        table.merge(&long_b, 2, op);
        // Force several growth rounds past MIN_CAPACITY.
        for i in 0..200u64 {
            table.merge(&Key::from_u64(i + 1), 1, op);
        }
        table.merge(&long_a, 10, op);
        let entries = table.take_entries(0);
        assert_eq!(entries[&long_a], 11);
        assert_eq!(entries[&long_b], 2);
        assert_eq!(entries.len(), 202);
    }

    /// Key pool for the fold-equivalence property: lengths straddling the
    /// medium width (8/9 bytes with the default layout), [`INLINE_CAP`]
    /// (20/21) and [`ask_wire::key::INLINE_KEY_CAP`] (23/24), plus short
    /// and arena-only keys, three distinct keys per length.
    fn fold_pool() -> Vec<Key> {
        let mut pool = Vec::new();
        for len in [1, 4, 8, 9, 20, 21, 23, 24, 40] {
            for first in [b'a', b'b', b'c'] {
                let mut bytes = vec![b'k'; len];
                bytes[0] = first;
                pool.push(Key::from_slice(&bytes).unwrap());
            }
        }
        pool
    }

    proptest! {
        /// Completing with the final fetch folded straight into the drained
        /// result map equals the old path: merge the reply into the table,
        /// then drain it.
        #[test]
        fn final_fold_equals_merge_then_take(
            op in prop_oneof![Just(AggregateOp::Sum), Just(AggregateOp::Max), Just(AggregateOp::Min)],
            residual in proptest::collection::vec((0..27usize, any::<u32>()), 0..60),
            fetched in proptest::collection::vec((0..27usize, any::<u32>()), 0..60),
            disjoint in any::<bool>(),
        ) {
            let pool = fold_pool();
            // Disjoint: residual keys from the even pool slots, fetched keys
            // from the odd ones. Overlapping: both draw from the whole pool.
            let rk = |i: usize| if disjoint { i & !1 } else { i };
            let fk = |i: usize| if disjoint { (i | 1).min(25) } else { i };
            let mut table = TaskTable::new();
            for &(i, v) in &residual {
                table.merge(&pool[rk(i)], v, op);
            }
            let mut merged = TaskTable::new();
            for &(i, v) in &residual {
                merged.merge(&pool[rk(i)], v, op);
            }
            for &(i, v) in &fetched {
                let k = &pool[fk(i)];
                merged.merge_hashed(k.hash64(), k.as_bytes(), v, op);
            }
            let want = merged.take_entries(0);

            let mut got = table.take_entries(fetched.len());
            for &(i, v) in &fetched {
                fold_entry(&mut got, pool[fk(i)].as_bytes(), v, op);
            }
            prop_assert_eq!(table.capacity(), 0);
            prop_assert_eq!(got, want);
        }
    }
}
