//! Sparse coherence directory.
//!
//! Tracks, per cache line, which *nodes* (Versioned Domains at the LLC
//! level) hold the line and which one, if any, holds it exclusively. The
//! directory is sparse: lines nobody caches have no entry, which is how the
//! non-inclusive LLC of the paper (§II-D, §III-B) can track lines it does
//! not itself hold data for.
//!
//! Invariant maintained: an exclusive owner is the *only* sharer
//! (single-writer / multi-reader).

use crate::addr::LineAddr;
use crate::fastmap::FastMap;

/// Maximum number of directory nodes (VDs) supported by the bitmask.
pub const MAX_NODES: u16 = 64;

/// Directory state for one line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirEntry {
    sharers: u64,
    owner: Option<u16>,
}

impl DirEntry {
    /// The exclusive owner (a node holding the line in M or E), if any.
    #[inline]
    pub fn owner(&self) -> Option<u16> {
        self.owner
    }

    /// Whether `node` currently shares the line.
    #[inline]
    pub fn is_sharer(&self, node: u16) -> bool {
        self.sharers & (1u64 << node) != 0
    }

    /// Number of sharers.
    #[inline]
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// Iterates all sharer node indices (ascending).
    pub fn sharers(&self) -> BitIter {
        BitIter(self.sharers)
    }

    /// Sharers other than `node` (ascending). Allocation-free: iterates
    /// the sharer word directly via `trailing_zeros`.
    pub fn sharers_except(&self, node: u16) -> BitIter {
        BitIter(self.sharers & !(1u64 << node))
    }

    fn check(&self) {
        if let Some(o) = self.owner {
            debug_assert!(
                self.sharers & (1u64 << o) != 0,
                "the owner must hold a copy"
            );
        }
    }
}

/// Ascending iterator over the set bits of a sharer word — the
/// allocation-free replacement for the old `Vec<u16>`-returning walks on
/// the GetS/GetX hot path.
#[derive(Clone, Copy, Debug)]
pub struct BitIter(u64);

impl Iterator for BitIter {
    type Item = u16;

    #[inline]
    fn next(&mut self) -> Option<u16> {
        if self.0 == 0 {
            return None;
        }
        let n = self.0.trailing_zeros() as u16;
        self.0 &= self.0 - 1;
        Some(n)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BitIter {}

/// A sparse directory over up to [`MAX_NODES`] nodes.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: FastMap<LineAddr, DirEntry>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `line`, if any node caches it.
    pub fn entry(&self, line: LineAddr) -> Option<&DirEntry> {
        self.entries.get(&line)
    }

    /// Records that `node` obtained a shared copy.
    ///
    /// # Panics
    /// Debug-panics if another node still owns the line exclusively — the
    /// caller must downgrade the owner first (MESI) or use
    /// [`Directory::add_sharer_keep_owner`] (MOESI).
    pub fn add_sharer(&mut self, line: LineAddr, node: u16) {
        assert!(node < MAX_NODES, "node index out of range");
        let e = self.entries.or_default(line);
        debug_assert!(
            e.owner.is_none() || e.owner == Some(node),
            "add_sharer with a live foreign owner"
        );
        if e.owner == Some(node) {
            // Self-downgrade: keep sharing, drop exclusivity.
            e.owner = None;
        }
        e.sharers |= 1u64 << node;
        e.check();
    }

    /// Records that `node` obtained a shared copy while the current owner
    /// keeps Owned (dirty-shared) responsibility — the MOESI downgrade.
    pub fn add_sharer_keep_owner(&mut self, line: LineAddr, node: u16) {
        assert!(node < MAX_NODES, "node index out of range");
        let e = self.entries.or_default(line);
        e.sharers |= 1u64 << node;
        e.check();
    }

    /// Records that `node` obtained the line exclusively (M/E). All other
    /// sharers must already have been invalidated by the caller.
    pub fn set_owner(&mut self, line: LineAddr, node: u16) {
        assert!(node < MAX_NODES, "node index out of range");
        let e = self.entries.or_default(line);
        debug_assert!(
            e.sharers & !(1u64 << node) == 0,
            "set_owner with other sharers still present"
        );
        e.sharers = 1u64 << node;
        e.owner = Some(node);
        e.check();
    }

    /// Downgrades the exclusive owner to a plain sharer (keeps its copy).
    pub fn downgrade_owner(&mut self, line: LineAddr) {
        if let Some(e) = self.entries.get_mut(&line) {
            e.owner = None;
            e.check();
        }
    }

    /// Removes `node` from the line's sharers (invalidation or eviction of
    /// the node's last copy). Drops the entry when nobody shares.
    pub fn remove_node(&mut self, line: LineAddr, node: u16) {
        if let Some(e) = self.entries.get_mut(&line) {
            e.sharers &= !(1u64 << node);
            if e.owner == Some(node) {
                e.owner = None;
            }
            if e.sharers == 0 {
                self.entries.remove(&line);
            }
        }
    }

    /// Drops the whole entry (all copies gone).
    pub fn clear_line(&mut self, line: LineAddr) {
        self.entries.remove(&line);
    }

    /// Every tracked line with its entry (unspecified order; for
    /// invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &DirEntry)> {
        self.entries.iter().map(|(l, e)| (*l, e))
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory tracks no lines.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn shared_then_exclusive_transitions() {
        let mut d = Directory::new();
        d.add_sharer(line(1), 0);
        d.add_sharer(line(1), 3);
        let e = d.entry(line(1)).unwrap();
        assert_eq!(e.sharer_count(), 2);
        assert_eq!(e.owner(), None);
        assert!(e.is_sharer(3));

        // Invalidate sharer 0, then 3 upgrades to owner.
        d.remove_node(line(1), 0);
        d.set_owner(line(1), 3);
        let e = d.entry(line(1)).unwrap();
        assert_eq!(e.owner(), Some(3));
        assert_eq!(e.sharer_count(), 1);
    }

    #[test]
    fn owner_self_downgrade_via_add_sharer() {
        let mut d = Directory::new();
        d.set_owner(line(7), 2);
        d.add_sharer(line(7), 2);
        let e = d.entry(line(7)).unwrap();
        assert_eq!(e.owner(), None);
        assert!(e.is_sharer(2));
    }

    #[test]
    fn downgrade_keeps_copy() {
        let mut d = Directory::new();
        d.set_owner(line(9), 5);
        d.downgrade_owner(line(9));
        let e = d.entry(line(9)).unwrap();
        assert_eq!(e.owner(), None);
        assert!(e.is_sharer(5));
        // Another node can now share.
        d.add_sharer(line(9), 6);
        assert_eq!(d.entry(line(9)).unwrap().sharer_count(), 2);
    }

    #[test]
    fn entry_disappears_when_last_sharer_leaves() {
        let mut d = Directory::new();
        d.add_sharer(line(4), 1);
        d.remove_node(line(4), 1);
        assert!(d.entry(line(4)).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn sharers_except_lists_others() {
        let mut d = Directory::new();
        for n in [0u16, 2, 5] {
            d.add_sharer(line(2), n);
        }
        let others: Vec<u16> = d.entry(line(2)).unwrap().sharers_except(2).collect();
        assert_eq!(others, vec![0, 5]);
        assert_eq!(d.entry(line(2)).unwrap().sharers_except(2).len(), 2);
    }

    #[test]
    fn moesi_owner_coexists_with_sharers() {
        let mut d = Directory::new();
        d.set_owner(line(3), 1);
        d.add_sharer_keep_owner(line(3), 4);
        d.add_sharer_keep_owner(line(3), 5);
        let e = d.entry(line(3)).unwrap();
        assert_eq!(e.owner(), Some(1));
        assert_eq!(e.sharer_count(), 3);
        // Owner eviction leaves plain sharers.
        d.remove_node(line(3), 1);
        let e = d.entry(line(3)).unwrap();
        assert_eq!(e.owner(), None);
        assert_eq!(e.sharer_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_out_of_range_panics() {
        let mut d = Directory::new();
        d.add_sharer(line(0), 64);
    }
}
