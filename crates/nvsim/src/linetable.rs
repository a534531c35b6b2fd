//! Page-indexed per-line tables.
//!
//! The simulator keeps several kinds of per-line state whose keys cover
//! the whole trace footprint: the DRAM working image and OID tags, NVM
//! wear, the runner's load-value oracle, and the baselines' write sets.
//! A hash map scatters neighbouring lines across host memory, so a miss
//! that touches four of these tables costs four host cache (and often
//! TLB) misses. [`LineTable`] instead keeps the 64 lines of a page
//! together in one chunk and finds the chunk with one probe of a small
//! [`PageIndex`]; lines of one page then share host cache lines, and the
//! index stays small enough to stay cached.
//!
//! Iteration order depends only on the sequence of operations (chunks in
//! the order their pages were first touched, lines ascending within a
//! chunk), so runs stay byte-reproducible.

use crate::fastmap::FastKey;
use std::fmt;
use std::marker::PhantomData;

/// Slots per chunk: the 64 lines of a 4-KiB page.
const CHUNK: u64 = 64;

/// An open-addressing index from page numbers to dense positions
/// (`0..len`, in insertion order).
///
/// Slots hold `(page + 1, position)`, zero keys empty; the table is at
/// most half full, so the probes for unmapped pages — most of them in a
/// time-travel walk — reach an empty slot quickly.
#[derive(Clone, Debug)]
pub struct PageIndex {
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl Default for PageIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl PageIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self {
            slots: vec![(0, 0); 8],
            len: 0,
        }
    }

    /// The slot of `slots` holding `page`, or the empty slot where it
    /// would go.
    #[inline]
    fn slot_of(slots: &[(u64, u32)], page: u64) -> usize {
        let mask = slots.len() - 1;
        // Fibonacci hashing: the product's top bits spread neighbouring
        // pages across the index.
        let shift = 64 - slots.len().trailing_zeros();
        let mut i = (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while slots[i].0 != page.wrapping_add(1) && slots[i].0 != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// The position of `page`, if it is mapped.
    #[inline]
    pub fn get(&self, page: u64) -> Option<usize> {
        let (key, pos) = self.slots[Self::slot_of(&self.slots, page)];
        (key != 0).then_some(pos as usize)
    }

    /// Maps the unmapped `page` to the next position, which it returns.
    ///
    /// # Panics
    /// Panics if `page` is `u64::MAX` (its key would read as empty).
    pub fn insert(&mut self, page: u64) -> usize {
        assert!(page != u64::MAX, "page number out of range");
        debug_assert!(self.get(page).is_none(), "page {page:#x} already mapped");
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![(0, 0); self.slots.len() * 2];
            for entry in std::mem::replace(&mut self.slots, grown) {
                if entry.0 != 0 {
                    let slot = Self::slot_of(&self.slots, entry.0 - 1);
                    self.slots[slot] = entry;
                }
            }
        }
        let pos = self.len;
        let slot = Self::slot_of(&self.slots, page);
        self.slots[slot] = (page + 1, pos as u32);
        self.len += 1;
        pos
    }

    /// Iterates `(page, position)` pairs in index order (unsorted).
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.0 != 0)
            .map(|&(key, pos)| (key - 1, pos as usize))
    }
}

/// One page's lines: an occupancy mask and the 64 values, side by side
/// so a lookup touches one host region.
#[derive(Clone)]
struct Chunk<V> {
    page: u64,
    live: u64,
    slots: [V; CHUNK as usize],
}

/// A map from line-like keys to small `Copy` values, stored as one
/// 64-slot chunk per touched page behind a [`PageIndex`].
///
/// Memory is proportional to the pages touched, not the lines: a chunk is
/// never freed (removing a line only clears its bit, and
/// [`LineTable::clear`] empties every chunk in place for reuse).
///
/// ```
/// use nvsim::linetable::LineTable;
///
/// let mut t: LineTable<u64, u32> = LineTable::new();
/// assert_eq!(t.insert(7, 1), None);
/// assert_eq!(t.insert(7, 2), Some(1));
/// assert_eq!(t.get(7), Some(&2));
/// assert_eq!(t.remove(7), Some(2));
/// assert!(t.is_empty());
/// ```
#[derive(Clone)]
pub struct LineTable<K, V> {
    index: PageIndex,
    chunks: Vec<Chunk<V>>,
    len: usize,
    _key: PhantomData<fn() -> K>,
}

impl<K: FastKey, V: Copy + Default> Default for LineTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: FastKey, V: Copy + Default> LineTable<K, V> {
    /// An empty table (allocates no chunk).
    pub fn new() -> Self {
        Self {
            index: PageIndex::new(),
            chunks: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk position and slot of `key`, if its page is mapped.
    #[inline]
    fn locate(&self, key: K) -> Option<(usize, usize)> {
        let k = key.as_u64();
        Some((self.index.get(k / CHUNK)?, (k % CHUNK) as usize))
    }

    /// The chunk position and slot of `key`, mapping its page first.
    #[inline]
    fn locate_or_map(&mut self, key: K) -> (usize, usize) {
        let k = key.as_u64();
        let page = k / CHUNK;
        let c = match self.index.get(page) {
            Some(c) => c,
            None => {
                self.chunks.push(Chunk {
                    page,
                    live: 0,
                    slots: [V::default(); CHUNK as usize],
                });
                self.index.insert(page)
            }
        };
        (c, (k % CHUNK) as usize)
    }

    /// A reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        let (c, s) = self.locate(key)?;
        let chunk = &self.chunks[c];
        (chunk.live >> s & 1 != 0).then(|| &chunk.slots[s])
    }

    /// A mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let (c, s) = self.locate(key)?;
        let chunk = &mut self.chunks[c];
        (chunk.live >> s & 1 != 0).then(|| &mut chunk.slots[s])
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (c, s) = self.locate_or_map(key);
        let chunk = &mut self.chunks[c];
        let old = std::mem::replace(&mut chunk.slots[s], value);
        if chunk.live >> s & 1 != 0 {
            Some(old)
        } else {
            chunk.live |= 1 << s;
            self.len += 1;
            None
        }
    }

    /// The value for `key`, inserting the default first if absent.
    #[inline]
    pub fn or_default(&mut self, key: K) -> &mut V {
        let (c, s) = self.locate_or_map(key);
        let chunk = &mut self.chunks[c];
        if chunk.live >> s & 1 == 0 {
            chunk.live |= 1 << s;
            chunk.slots[s] = V::default();
            self.len += 1;
        }
        &mut chunk.slots[s]
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let (c, s) = self.locate(key)?;
        let chunk = &mut self.chunks[c];
        if chunk.live >> s & 1 == 0 {
            return None;
        }
        chunk.live &= !(1 << s);
        self.len -= 1;
        Some(chunk.slots[s])
    }

    /// Removes every entry, keeping the chunks for reuse.
    pub fn clear(&mut self) {
        for chunk in &mut self.chunks {
            chunk.live = 0;
        }
        self.len = 0;
    }

    /// Iterates entries: chunks in the order their pages were first
    /// touched, keys ascending within a chunk.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.chunks.iter().flat_map(|chunk| {
            live_slots(chunk.live)
                .map(move |s| (K::from_u64(chunk.page * CHUNK + s as u64), &chunk.slots[s]))
        })
    }

    /// Iterates values in [`LineTable::iter`] order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates values mutably, in [`LineTable::iter`] order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.chunks.iter_mut().flat_map(|chunk| {
            let live = chunk.live;
            chunk
                .slots
                .iter_mut()
                .enumerate()
                .filter(move |(s, _)| live >> s & 1 != 0)
                .map(|(_, v)| v)
        })
    }
}

/// The set bits of `live`, ascending.
fn live_slots(mut live: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (live != 0).then(|| {
            let s = live.trailing_zeros() as usize;
            live &= live - 1;
            s
        })
    })
}

impl<'a, K: FastKey, V: Copy + Default> IntoIterator for &'a LineTable<K, V> {
    type Item = (K, &'a V);
    type IntoIter = Box<dyn Iterator<Item = (K, &'a V)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Content equality, independent of insertion order.
impl<K: FastKey, V: Copy + Default + PartialEq> PartialEq for LineTable<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: FastKey + fmt::Debug, V: Copy + Default + fmt::Debug> fmt::Debug for LineTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmap::FastMap;
    use crate::rng::Rng64;

    #[test]
    fn page_index_maps_pages_in_insertion_order() {
        let mut ix = PageIndex::new();
        let pages = [0u64, 1, 1 << 40, 77, (1 << 58) - 1];
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(ix.get(p), None);
            assert_eq!(ix.insert(p), i);
        }
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(ix.get(p), Some(i), "page {p:#x}");
        }
        assert_eq!(ix.get(2), None);
        let mut all: Vec<(u64, usize)> = ix.iter().collect();
        all.sort_unstable_by_key(|&(_, i)| i);
        assert_eq!(all, pages.iter().copied().zip(0..).collect::<Vec<_>>());
    }

    #[test]
    fn clear_keeps_chunks_and_forgets_entries() {
        let mut t: LineTable<u64, u8> = LineTable::new();
        t.insert(3, 1);
        t.insert(200, 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(3), None);
        assert_eq!(
            *t.or_default(3),
            0,
            "a cleared slot restarts at the default"
        );
        assert_eq!(t.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn values_mut_visits_live_slots_only() {
        let mut t: LineTable<u64, u64> = LineTable::new();
        for k in [1u64, 64, 65, 130] {
            t.insert(k, k);
        }
        t.remove(64);
        for v in t.values_mut() {
            *v += 1;
        }
        let got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(got, vec![(1, 2), (65, 66), (130, 131)]);
    }

    /// Seeded insert / get / overwrite / remove / clear traffic against a
    /// [`FastMap`] model, over keys that straddle page boundaries, sit
    /// many pages apart, and include 0 and a key near 2^56.
    #[test]
    fn differential_against_fastmap() {
        let mut rng = Rng64::seed_from_u64(0x7AB1E);
        let mut bases: Vec<u64> = vec![0, 64, 4096 * 64, 1 << 40, (1 << 56) - 128];
        for _ in 0..8 {
            bases.push(rng.gen_range(0..1u64 << 50) & !63);
        }
        let mut table: LineTable<u64, u64> = LineTable::new();
        let mut model: FastMap<u64, u64> = FastMap::new();
        for step in 0..40_000u64 {
            let base = bases[rng.gen_range(0..bases.len())];
            // Offsets -8..136 cross into the neighbouring pages.
            let key = (base + rng.gen_range(0..144u64)).saturating_sub(8);
            match rng.gen_range(0..100u32) {
                0..=39 => assert_eq!(
                    table.insert(key, step),
                    model.insert(key, step),
                    "insert {key:#x}"
                ),
                40..=59 => assert_eq!(table.get(key), model.get(&key), "get {key:#x}"),
                60..=74 => assert_eq!(table.remove(key), model.remove(&key), "remove {key:#x}"),
                75..=89 => {
                    *table.or_default(key) += 1;
                    *model.or_default(key) += 1;
                }
                90..=98 => {
                    if let Some(v) = table.get_mut(key) {
                        *v ^= 0xFF;
                    }
                    if let Some(v) = model.get_mut(&key) {
                        *v ^= 0xFF;
                    }
                }
                _ => {
                    table.clear();
                    model.clear();
                }
            }
            assert_eq!(table.len(), model.len(), "len after step {step}");
            assert_eq!(
                table.contains_key(key),
                model.contains_key(&key),
                "step {step}"
            );
        }
        let mut got: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        want.sort_unstable();
        assert_eq!(got, want, "same key set and values");
        assert!(!got.is_empty());
        let copy = table.clone();
        assert_eq!(copy, table);
    }
}
