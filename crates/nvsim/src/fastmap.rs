//! Hash maps for the simulator's hot paths.
//!
//! Profiling the figure sweeps shows the simulator spends a large share
//! of its time hashing `LineAddr`/`u64` keys with SipHash through
//! `std::collections::HashMap` (directory entries, OMC bookkeeping).
//! Per-line state whose keys cover the whole trace footprint lives in
//! [`crate::linetable::LineTable`] instead. This module provides two
//! replacements, both with **deterministic, seed-free** behavior so runs
//! stay byte-reproducible:
//!
//! * [`FastMap`] — an open-addressing (linear-probe, backward-shift
//!   delete) map specialized for small `Copy` integer-like keys. This is
//!   the choice for the hottest per-access structures.
//! * [`FastHashMap`]/[`FastHashSet`] — `std` collections with an Fx-style
//!   multiply-xor [`FastHasher`], a drop-in for call sites that need the
//!   full `HashMap` API (entry, arbitrary key types) or appear in public
//!   signatures.
//!
//! Iteration order of both depends only on the sequence of operations
//! performed, never on a random seed, so "same trace in → same stats
//! out" holds across serial and parallel drivers alike.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style streaming hasher: rotate-xor-multiply per word with a
/// SplitMix64-style finalizer for well-mixed low bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix(self.hash)
    }
}

/// SplitMix64 finalizer: full-avalanche mixing so the low bits a hash
/// table indexes by depend on every input bit.
#[inline]
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Deterministic `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `std::collections::HashMap` with the Fx-style [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `std::collections::HashSet` with the Fx-style [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, FastBuildHasher>;

/// Key types [`FastMap`] and [`crate::linetable::LineTable`] can store:
/// cheap to copy, and convertible to and from the `u64` the probe hash
/// (or the page index) is computed from.
pub trait FastKey: Copy + Eq {
    /// The 64-bit value hashed for bucket selection.
    fn as_u64(self) -> u64;

    /// The key whose [`FastKey::as_u64`] is `raw`.
    fn from_u64(raw: u64) -> Self;
}

impl FastKey for u64 {
    #[inline]
    fn as_u64(self) -> u64 {
        self
    }

    #[inline]
    fn from_u64(raw: u64) -> Self {
        raw
    }
}

impl FastKey for u32 {
    #[inline]
    fn as_u64(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_u64(raw: u64) -> Self {
        raw as u32
    }
}

impl FastKey for crate::addr::LineAddr {
    #[inline]
    fn as_u64(self) -> u64 {
        self.raw()
    }

    #[inline]
    fn from_u64(raw: u64) -> Self {
        Self::new(raw)
    }
}

impl FastKey for crate::addr::PageAddr {
    #[inline]
    fn as_u64(self) -> u64 {
        self.raw()
    }

    #[inline]
    fn from_u64(raw: u64) -> Self {
        Self::new(raw)
    }
}

/// An open-addressing map from integer-like keys to values.
///
/// Linear probing over a power-of-two table with backward-shift deletion
/// (no tombstones), resized at 7/8 load. The probe hash is a multiply-xor
/// finalizer over the raw key — a few cycles against SipHash's dozens,
/// which is what the simulator's per-access structures need.
///
/// ```
/// use nvsim::fastmap::FastMap;
///
/// let mut m: FastMap<u64, u32> = FastMap::new();
/// assert_eq!(m.insert(7, 1), None);
/// assert_eq!(m.insert(7, 2), Some(1));
/// assert_eq!(m.get(&7), Some(&2));
/// assert_eq!(m.remove(&7), Some(2));
/// assert!(m.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct FastMap<K: FastKey, V> {
    slots: Vec<Option<(K, V)>>,
    mask: usize,
    len: usize,
}

impl<K: FastKey, V> Default for FastMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

const MIN_CAPACITY: usize = 8;

impl<K: FastKey, V> FastMap<K, V> {
    /// An empty map (allocates the minimum table).
    pub fn new() -> Self {
        Self::with_capacity(MIN_CAPACITY)
    }

    /// An empty map sized to hold `cap` entries without resizing.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = (cap.max(MIN_CAPACITY) * 8 / 7 + 1)
            .next_power_of_two()
            .max(MIN_CAPACITY);
        Self {
            slots: (0..slots).map(|_| None).collect(),
            mask: slots - 1,
            len: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_of(&self, key: K) -> usize {
        mix(key.as_u64()) as usize & self.mask
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn probe(&self, key: K) -> usize {
        let mut i = self.bucket_of(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return i,
                None => return i,
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// A reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.slots[self.probe(*key)].as_ref().map(|(_, v)| v)
    }

    /// A mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.probe(*key);
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.slots[self.probe(*key)].is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let i = self.probe(key);
        match &mut self.slots[i] {
            Some((_, v)) => Some(std::mem::replace(v, value)),
            empty @ None => {
                *empty = Some((key, value));
                self.len += 1;
                None
            }
        }
    }

    /// The value for `key`, inserting `default()` first if absent.
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let i = self.probe(key);
        if self.slots[i].is_none() {
            self.slots[i] = Some((key, default()));
            self.len += 1;
        }
        self.slots[i].as_mut().map(|(_, v)| v).expect("just filled")
    }

    /// The value for `key`, inserting the default first if absent.
    pub fn or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.or_insert_with(key, V::default)
    }

    /// Removes `key`, returning its value. Backward-shift deletion keeps
    /// probe chains intact without tombstones.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let mut i = self.probe(*key);
        let (_, value) = self.slots[i].take()?;
        self.len -= 1;
        // Shift the rest of the probe chain back over the hole.
        let mut j = (i + 1) & self.mask;
        while let Some((k, _)) = &self.slots[j] {
            let home = self.bucket_of(*k);
            // Move k back iff its home bucket does not sit in (i, j]
            // cyclically — i.e. the hole is within k's probe path.
            let hole_in_path = if j >= home {
                i >= home && i < j
            } else {
                i >= home || i < j
            };
            if hole_in_path {
                self.slots[i] = self.slots[j].take();
                i = j;
            }
            j = (j + 1) & self.mask;
        }
        Some(value)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Iterates entries in table order (deterministic for a given
    /// operation sequence; not sorted — sort on drain where consumers
    /// depend on order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (k, v))
    }

    /// Iterates keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.slots.iter().flatten().map(|(k, _)| k)
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_len).map(|_| None).collect());
        self.mask = new_len - 1;
        for (k, v) in old.into_iter().flatten() {
            let i = self.probe(k);
            debug_assert!(self.slots[i].is_none(), "duplicate key during grow");
            self.slots[i] = Some((k, v));
        }
    }
}

impl<K: FastKey, V> std::ops::Index<&K> for FastMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<'a, K: FastKey, V> IntoIterator for &'a FastMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<
        std::iter::Flatten<std::slice::Iter<'a, Option<(K, V)>>>,
        fn(&'a (K, V)) -> (&'a K, &'a V),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.iter().flatten().map(|(k, v)| (k, v))
    }
}

impl<K: FastKey, V> FromIterator<(K, V)> for FastMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let it = iter.into_iter();
        let mut m = Self::with_capacity(it.size_hint().0);
        for (k, v) in it {
            m.insert(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn insert_get_update_remove() {
        let mut m: FastMap<u64, u64> = FastMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(&1), Some(&11));
        assert_eq!(m.len(), 2);
        *m.get_mut(&2).unwrap() += 1;
        assert_eq!(m.get(&2), Some(&21));
        assert_eq!(m.remove(&1), Some(11));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
        assert!(!m.contains_key(&1));
        assert!(m.contains_key(&2));
    }

    #[test]
    fn or_insert_with_and_or_default() {
        let mut m: FastMap<u64, u64> = FastMap::new();
        *m.or_default(5) += 3;
        *m.or_default(5) += 4;
        assert_eq!(m.get(&5), Some(&7));
        let v = m.or_insert_with(6, || 100);
        assert_eq!(*v, 100);
        assert_eq!(m.or_insert_with(6, || 999), &100);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: FastMap<u64, u64> = FastMap::with_capacity(4);
        for i in 0..10_000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000 {
            assert_eq!(m.get(&i), Some(&(i * 2)), "key {i}");
        }
    }

    #[test]
    fn probe_chains_wrap_around_the_table_end() {
        // Force collisions into the last buckets by brute-force search:
        // find keys whose home bucket is the final slot of a tiny table.
        let mut m: FastMap<u64, u64> = FastMap::with_capacity(MIN_CAPACITY);
        let table = m.slots.len();
        let tail_keys: Vec<u64> = (0..100_000u64)
            .filter(|k| mix(*k) as usize & (table - 1) >= table - 2)
            .take(4)
            .collect();
        assert_eq!(tail_keys.len(), 4, "found colliding tail keys");
        for (i, k) in tail_keys.iter().enumerate() {
            m.insert(*k, i as u64);
        }
        for (i, k) in tail_keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(&(i as u64)), "wrapped key {k}");
        }
        // Remove the first (the one physically at the table tail) and
        // verify backward shift repaired the wrapped chain.
        m.remove(&tail_keys[0]);
        for (i, k) in tail_keys.iter().enumerate().skip(1) {
            assert_eq!(m.get(k), Some(&(i as u64)), "post-removal key {k}");
        }
    }

    #[test]
    fn differential_against_std_hashmap() {
        // A few thousand randomized (seeded) operations must behave
        // exactly like std::collections::HashMap.
        let mut rng = Rng64::seed_from_u64(0xFA57_AB1E);
        let mut fast: FastMap<u64, u64> = FastMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for step in 0..5_000u64 {
            let key = rng.gen_range(0u64..600); // small space → collisions
            match rng.gen_range(0u32..10) {
                0..=4 => {
                    assert_eq!(
                        fast.insert(key, step),
                        model.insert(key, step),
                        "insert {key}"
                    );
                }
                5..=6 => {
                    assert_eq!(fast.remove(&key), model.remove(&key), "remove {key}");
                }
                7 => {
                    *fast.or_default(key) += 1;
                    *model.entry(key).or_default() += 1;
                }
                _ => {
                    assert_eq!(fast.get(&key), model.get(&key), "get {key}");
                }
            }
            assert_eq!(fast.len(), model.len(), "len after step {step}");
        }
        let mut got: Vec<(u64, u64)> = fast.iter().map(|(k, v)| (*k, *v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want, "final contents match");
    }

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m: FastMap<u64, u64> = FastMap::new();
            for i in 0..500 {
                m.insert(i * 31 % 257, i);
            }
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn fast_hashmap_is_a_dropin() {
        let mut m: FastHashMap<(u16, u64), u64> = FastHashMap::default();
        m.insert((1, 2), 3);
        *m.entry((1, 2)).or_insert(0) += 1;
        assert_eq!(m[&(1, 2)], 4);
        let mut s: FastHashSet<u64> = FastHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }

    #[test]
    fn hasher_mixes_low_bits() {
        // Sequential keys must not collide into sequential buckets of a
        // small table (the failure mode of the unfinalized Fx hash).
        let buckets: HashSet<u64> = (0..64u64).map(|k| mix(k) & 1023).collect();
        assert!(buckets.len() > 48, "low bits well-mixed: {}", buckets.len());
    }
}
