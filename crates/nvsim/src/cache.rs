//! A generic set-associative cache array with LRU replacement.
//!
//! The array stores per-line user metadata `T` (coherence state, OID tag,
//! content token, sharer bits — whatever the level needs). It is used for
//! L1s, L2s, LLC slices, PiCL's version-tagged LLC and NVOverlay's OMC
//! buffer alike.
//!
//! Layout is one region per set: each slot keeps its tag, LRU stamp and
//! metadata side by side, and a set's slots are contiguous, indexed by
//! `set * ways + slot`. A miss probes a set and then touches the hit or
//! victim slot's stamp and metadata; with the three fields in three
//! parallel vectors that was three host regions (and TLB entries) per
//! cold LLC set, now it is one. It landed with the page-indexed per-line
//! tables of [`crate::linetable`]: together they took hashtable-miss's
//! serial replay from 0.68–0.70 to 0.84–0.89 Maccess/s and the L1-bound
//! kmeans-l1's from 3.5–3.7 to 4.4 (20 s `nvbm` pairs, 2-vCPU KVM
//! guest). Against the three-vector layout on the same tree, per-scheme
//! replay times stayed within that host's run-to-run noise (about
//! ±15%), so scanning whole slots instead of a packed tag vector costs
//! the hit path nothing measurable. Slot ordering (push-at-end,
//! `swap_remove` on evict) is unchanged, because iteration order feeds
//! downstream event and NVM write ordering.

use crate::addr::LineAddr;
use crate::config::CacheParams;

/// One way of a set: tag, LRU stamp and metadata together.
#[derive(Clone, Debug)]
struct Slot<T> {
    tag: LineAddr,
    lru: u64,
    /// `Some` exactly on live slots.
    meta: Option<T>,
}

/// A set-associative array mapping [`LineAddr`] → `T` with LRU replacement.
///
/// ```
/// use nvsim::cache::CacheArray;
/// use nvsim::addr::LineAddr;
///
/// let mut c: CacheArray<u32> = CacheArray::new(2, 2);
/// assert!(c.insert(LineAddr::new(0), 10).is_none());
/// assert!(c.insert(LineAddr::new(2), 20).is_none()); // same set (2 sets)
/// // Third distinct line in set 0 evicts the LRU entry (line 0).
/// let victim = c.insert(LineAddr::new(4), 30).unwrap();
/// assert_eq!(victim.0, LineAddr::new(0));
/// assert_eq!(victim.1, 10);
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray<T> {
    /// `sets * ways` slots, set by set; slots `0..set_len[s]` of each set
    /// are live.
    slots: Vec<Slot<T>>,
    /// Live slot count per set.
    set_len: Vec<u32>,
    set_mask: u64,
    index_stride: u64,
    ways: usize,
    tick: u64,
}

impl<T> CacheArray<T> {
    /// Creates an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: u64, ways: u32) -> Self {
        Self::with_stride(sets, ways, 1)
    }

    /// Like [`CacheArray::new`], but set indices are computed from
    /// `line / index_stride`. Sliced caches (LLC) pass the slice count as
    /// the stride so that consecutive lines in one slice map to
    /// consecutive sets.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two, or `ways`/`index_stride` is
    /// zero.
    pub fn with_stride(sets: u64, ways: u32, index_stride: u64) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "associativity must be positive");
        assert!(index_stride > 0, "index stride must be positive");
        let slots = (sets * ways as u64) as usize;
        Self {
            slots: (0..slots)
                .map(|_| Slot {
                    tag: LineAddr::new(0),
                    lru: 0,
                    meta: None,
                })
                .collect(),
            set_len: vec![0; sets as usize],
            set_mask: sets - 1,
            index_stride,
            ways: ways as usize,
            tick: 0,
        }
    }

    /// Creates an array from one cache level's parameters.
    pub fn from_params(p: &CacheParams) -> Self {
        Self::new(p.sets(), p.ways)
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        ((line.raw() / self.index_stride) & self.set_mask) as usize
    }

    /// Finds the flat slot index of `line`, scanning only the live prefix
    /// of its set.
    #[inline]
    fn probe(&self, line: LineAddr) -> Option<usize> {
        let s = self.set_of(line);
        let base = s * self.ways;
        let len = self.set_len[s] as usize;
        self.slots[base..base + len]
            .iter()
            .position(|slot| slot.tag == line)
            .map(|i| base + i)
    }

    /// Looks up a line without touching LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let i = self.probe(line)?;
        self.slots[i].meta.as_ref()
    }

    /// Looks up a line, promoting it to MRU on hit.
    pub fn get(&mut self, line: LineAddr) -> Option<&T> {
        self.get_mut(line).map(|m| &*m)
    }

    /// Mutable lookup, promoting the line to MRU on hit. Misses consume
    /// no LRU tick, so a miss-heavy probe stream cannot skew the victim
    /// ordering of later inserts.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let i = self.probe(line)?;
        self.tick += 1;
        let slot = &mut self.slots[i];
        slot.lru = self.tick;
        slot.meta.as_mut()
    }

    /// Mutable lookup without LRU promotion (for coherence/walker probes
    /// that must not perturb replacement, paper §IV-C "tag walker runs
    /// opportunistically").
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let i = self.probe(line)?;
        self.slots[i].meta.as_mut()
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// The flat slot index of a resident line: the key
    /// [`CacheArray::iter_slots`] visits it under. Walkers use it to merge
    /// per-line side data from another array into one in-order pass.
    pub fn slot_of(&self, line: LineAddr) -> Option<usize> {
        self.probe(line)
    }

    /// Inserts a line as MRU, returning the evicted LRU victim if the set
    /// was full.
    ///
    /// # Panics
    /// Panics if the line is already resident (update in place via
    /// [`CacheArray::get_mut`] instead).
    pub fn insert(&mut self, line: LineAddr, meta: T) -> Option<(LineAddr, T)> {
        self.tick += 1;
        let fresh = Slot {
            tag: line,
            lru: self.tick,
            meta: Some(meta),
        };
        let s = self.set_of(line);
        let base = s * self.ways;
        let len = self.set_len[s] as usize;
        let set = &mut self.slots[base..base + self.ways];
        // One pass over the set: duplicate detection and LRU-victim
        // selection together (ties keep the earliest slot, matching a
        // `min_by_key` scan).
        let mut victim_idx = 0;
        let mut victim_lru = u64::MAX;
        for (i, slot) in set[..len].iter().enumerate() {
            assert!(
                slot.tag != line,
                "line {line} already resident; update in place instead"
            );
            if slot.lru < victim_lru {
                victim_lru = slot.lru;
                victim_idx = i;
            }
        }
        if len == self.ways {
            // swap_remove(victim_idx) then push: the last slot's entry
            // moves into the victim slot and the new line lands at the
            // end — exactly the old vec-of-vecs ordering.
            let last = len - 1;
            set.swap(victim_idx, last);
            let victim = std::mem::replace(&mut set[last], fresh);
            Some((victim.tag, victim.meta.expect("live slot has metadata")))
        } else {
            set[len] = fresh;
            self.set_len[s] = (len + 1) as u32;
            None
        }
    }

    /// Removes a line, returning its metadata.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let i = self.probe(line)?;
        let s = self.set_of(line);
        let last = s * self.ways + self.set_len[s] as usize - 1;
        // swap_remove: the last live slot fills the hole.
        self.slots.swap(i, last);
        self.set_len[s] -= 1;
        self.slots[last].meta.take()
    }

    /// The LRU victim the next insert into `line`'s set would evict, if the
    /// set is currently full.
    pub fn would_evict(&self, line: LineAddr) -> Option<LineAddr> {
        let s = self.set_of(line);
        let base = s * self.ways;
        let len = self.set_len[s] as usize;
        if len == self.ways {
            self.slots[base..base + len]
                .iter()
                .min_by_key(|slot| slot.lru)
                .map(|slot| slot.tag)
        } else {
            None
        }
    }

    /// Iterates all resident lines (tag-walk order: set by set).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.iter_slots().map(|(_, l, m)| (l, m))
    }

    /// [`CacheArray::iter`] with each line's flat slot index; indices
    /// ascend, so the slot index orders lines exactly as a tag walk does.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, LineAddr, &T)> {
        self.set_len.iter().enumerate().flat_map(move |(s, &len)| {
            let base = s * self.ways;
            self.slots[base..base + len as usize]
                .iter()
                .enumerate()
                .map(move |(i, slot)| (base + i, slot.tag, slot.meta.as_ref().expect("live slot")))
        })
    }

    /// Mutable iteration over all resident lines, in [`CacheArray::iter`]
    /// order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut T)> {
        self.slots
            .chunks_mut(self.ways)
            .zip(&self.set_len)
            .flat_map(|(set, &len)| {
                set[..len as usize]
                    .iter_mut()
                    .map(|slot| (slot.tag, slot.meta.as_mut().expect("live slot")))
            })
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.set_len.iter().map(|&l| l as usize).sum()
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.set_len.iter().all(|&l| l == 0)
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.set_len.len() * self.ways
    }

    /// Collects the addresses of lines matching a predicate (borrow-friendly
    /// helper for tag walkers that must mutate while scanning).
    pub fn lines_where(&self, mut pred: impl FnMut(LineAddr, &T) -> bool) -> Vec<LineAddr> {
        self.iter()
            .filter(|(l, m)| pred(*l, m))
            .map(|(l, _)| l)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn hit_and_miss() {
        let mut c: CacheArray<u8> = CacheArray::new(4, 2);
        assert!(c.insert(line(5), 1).is_none());
        assert_eq!(c.get(line(5)), Some(&1));
        assert_eq!(c.get(line(9)), None);
        assert!(c.contains(line(5)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: CacheArray<u8> = CacheArray::new(1, 2);
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        // Touch 1 so 2 becomes LRU.
        c.get(line(1));
        let (v, m) = c.insert(line(3), 3).expect("set full");
        assert_eq!(v, line(2));
        assert_eq!(m, 2);
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c: CacheArray<u8> = CacheArray::new(1, 2);
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        // Peek at 1: without promotion it stays LRU.
        assert_eq!(c.peek(line(1)), Some(&1));
        let (v, _) = c.insert(line(3), 3).unwrap();
        assert_eq!(v, line(1));
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut c: CacheArray<u8> = CacheArray::new(1, 1);
        c.insert(line(1), 1);
        assert_eq!(c.remove(line(1)), Some(1));
        assert_eq!(c.remove(line(1)), None);
        assert!(c.insert(line(2), 2).is_none());
    }

    #[test]
    fn would_evict_predicts_the_victim() {
        let mut c: CacheArray<u8> = CacheArray::new(1, 2);
        assert_eq!(c.would_evict(line(0)), None);
        c.insert(line(1), 1);
        assert_eq!(c.would_evict(line(0)), None);
        c.insert(line(2), 2);
        assert_eq!(c.would_evict(line(0)), Some(line(1)));
        let (v, _) = c.insert(line(3), 3).unwrap();
        assert_eq!(v, line(1));
    }

    #[test]
    fn stride_separates_slice_indexing() {
        // 2 sets, stride 4: lines 0,4 map to set 0/1 respectively.
        let mut c: CacheArray<u8> = CacheArray::with_stride(2, 1, 4);
        c.insert(line(0), 0);
        assert!(
            c.insert(line(4), 1).is_none(),
            "different sets under stride"
        );
        // line 8 shares set 0 with line 0 (8/4 = 2, even).
        let (v, _) = c.insert(line(8), 2).unwrap();
        assert_eq!(v, line(0));
    }

    #[test]
    fn iter_covers_everything() {
        let mut c: CacheArray<u8> = CacheArray::new(4, 2);
        for i in 0..6 {
            c.insert(line(i), i as u8);
        }
        let mut got: Vec<u64> = c.iter().map(|(l, _)| l.raw()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn iter_order_matches_slot_order_after_eviction() {
        // The slot layout must reproduce the swap_remove-then-push slot
        // ordering exactly: evicting slot 0 of a full 3-way set moves the
        // last entry into slot 0 and appends the new line at the end.
        let mut c: CacheArray<u8> = CacheArray::new(1, 3);
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        c.insert(line(3), 3);
        let (v, _) = c.insert(line(4), 4).unwrap();
        assert_eq!(v, line(1), "slot 0 was LRU");
        let order: Vec<u64> = c.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(order, vec![3, 2, 4], "swap_remove ordering preserved");
    }

    #[test]
    fn remove_uses_swap_remove_ordering() {
        let mut c: CacheArray<u8> = CacheArray::new(1, 4);
        for i in 1..=4 {
            c.insert(line(i), i as u8);
        }
        assert_eq!(c.remove(line(2)), Some(2));
        let order: Vec<u64> = c.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(order, vec![1, 4, 3]);
    }

    #[test]
    fn iter_mut_visits_live_slots_only() {
        let mut c: CacheArray<u8> = CacheArray::new(2, 2);
        c.insert(line(0), 10);
        c.insert(line(1), 11);
        c.insert(line(2), 12);
        c.remove(line(0));
        for (_, m) in c.iter_mut() {
            *m += 1;
        }
        let mut got: Vec<(u64, u8)> = c.iter().map(|(l, m)| (l.raw(), *m)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(1, 12), (2, 13)]);
    }

    #[test]
    fn slot_indices_follow_walk_order() {
        let mut c: CacheArray<u8> = CacheArray::new(4, 3);
        for i in 0..20u64 {
            c.insert(line(i * 7 % 23), i as u8);
        }
        let gone = c.iter().next().map(|(l, _)| l).unwrap();
        assert!(c.remove(gone).is_some());
        let slots: Vec<(usize, LineAddr)> = c.iter_slots().map(|(i, l, _)| (i, l)).collect();
        assert!(slots.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        for &(i, l) in &slots {
            assert_eq!(c.slot_of(l), Some(i));
        }
        let walk: Vec<LineAddr> = c.iter().map(|(l, _)| l).collect();
        let walk_mut: Vec<LineAddr> = c.iter_mut().map(|(l, _)| l).collect();
        assert_eq!(walk, slots.iter().map(|&(_, l)| l).collect::<Vec<_>>());
        assert_eq!(walk, walk_mut);
        assert_eq!(c.slot_of(gone), None);
    }

    #[test]
    fn lines_where_filters() {
        let mut c: CacheArray<u8> = CacheArray::new(2, 4);
        for i in 0..6 {
            c.insert(line(i), i as u8);
        }
        let odd = c.lines_where(|_, m| m % 2 == 1);
        assert_eq!(odd.len(), 3);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut c: CacheArray<u8> = CacheArray::new(1, 2);
        c.insert(line(1), 1);
        c.insert(line(1), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _: CacheArray<u8> = CacheArray::new(3, 1);
    }
}
