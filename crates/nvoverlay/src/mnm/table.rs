//! Overlay mapping tables (paper §V-C, Fig 9/10).
//!
//! Both table kinds share one *modelled* radix-tree shape over the 48-bit
//! physical address: four inner levels indexed by 9 bits each (bits
//! 47–12, the page number, exactly like x86-64 page tables) and a
//! 64-entry leaf level indexed by bits 11–6 (the line within the page):
//!
//! * the **per-epoch table** `M_E` is volatile (DRAM) and tracks the
//!   versions produced in epoch E;
//! * the **Master Mapping Table** `M_master` is persisted on NVM and maps
//!   the current consistent memory image; [`MasterTable`] wraps the radix
//!   tree with 8-byte NVM metadata write accounting and displaced-location
//!   tracking for garbage collection.
//!
//! Node sizes match Fig 10: inner nodes are 512×8 B = 4 KiB; leaf nodes
//! are 64×8 B = 512 B, giving the 12.5 % theoretical metadata floor the
//! paper reports against in Fig 13.
//!
//! ## Host representation vs. the modelled tree
//!
//! The host layout is not the modelled one. §V-E time-travel reads fall
//! through up to hundreds of per-epoch tables per query, and a pointer
//! tree costs five dependent loads per table. So [`RadixTable`] finds a
//! page's leaf with one probe of a page-number hash index, and keeps the
//! modelled inner nodes only as a set of level-tagged index prefixes.
//! Node counts, [`InsertEffect`]s, `size_bytes` and leaf occupancy are
//! those of the pointer tree, which never frees a node (a leaf emptied by
//! [`RadixTable::remove_if`] stays), so Fig 13 and the NVM metadata bytes
//! do not depend on the host layout.

use super::pool::NvmLoc;
use nvsim::addr::LineAddr;
use nvsim::fastmap::FastMap;
use nvsim::linetable::PageIndex;
use std::fmt;

/// Entries per inner radix node (9 index bits).
pub const INNER_FANOUT: usize = 512;
/// Entries per leaf node (6 index bits — the 64 lines of a page).
pub const LEAF_FANOUT: usize = 64;
/// Bytes per inner node when persisted (512 × 8 B).
pub const INNER_NODE_BYTES: u64 = (INNER_FANOUT * 8) as u64;
/// Bytes per leaf node when persisted (64 × 8 B).
pub const LEAF_NODE_BYTES: u64 = (LEAF_FANOUT * 8) as u64;

/// Page-number bits the tree indexes (address bits 47–12); higher bits
/// alias, as they would in a 48-bit table walk.
const PAGE_BITS: u32 = 36;
/// Index bits per inner level.
const LEVEL_BITS: u32 = 9;

/// Encodes a mapping entry as the 8-byte word persisted in `M_master`:
/// bit 0 is the valid bit, bits 1–6 the page slot, bits 7–38 the overlay
/// page number, bits 39–62 are reserved (zero), and bit 63 makes the
/// word's population count odd. The odd-parity bit means any single-bit
/// corruption of a persisted entry is detectable on recovery.
pub fn encode_loc(loc: NvmLoc) -> u64 {
    let mut w = 1u64 | ((u64::from(loc.slot) & 0x3F) << 1) | (u64::from(loc.page) << 7);
    if w.count_ones().is_multiple_of(2) {
        w |= 1 << 63;
    }
    w
}

/// Decodes a persisted mapping word, returning `None` for corrupt words:
/// even parity (any single bit flip), a clear valid bit, or non-zero
/// reserved bits.
pub fn decode_loc(word: u64) -> Option<NvmLoc> {
    if word.count_ones().is_multiple_of(2) || word & 1 == 0 || (word >> 39) & 0xFF_FFFF != 0 {
        return None;
    }
    Some(NvmLoc {
        page: ((word >> 7) & 0xFFFF_FFFF) as u32,
        slot: ((word >> 1) & 0x3F) as u8,
    })
}

type Leaf = [Option<NvmLoc>; LEAF_FANOUT];

/// Splits a line address into its page number (the four inner-level
/// indices, bits 47–12) and its slot in the page's leaf (bits 11–6).
fn split(line: LineAddr) -> (u64, usize) {
    let raw = line.raw();
    ((raw >> 6) & ((1 << PAGE_BITS) - 1), (raw & 0x3F) as usize)
}

/// Counters describing one insert's effect on the persisted tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsertEffect {
    /// 8-byte pointer/entry writes performed (leaf entry + any new parent
    /// pointers).
    pub entry_writes: u64,
    /// New nodes allocated (inner or leaf).
    pub nodes_created: u64,
    /// The location this insert displaced, if the line was already mapped.
    pub displaced: Option<NvmLoc>,
}

/// The shared five-level radix tree mapping lines to NVM locations (see
/// the module docs for how it is held in host memory).
pub struct RadixTable {
    /// Page number → position in `leaves` (the simulator's shared
    /// page index, also behind its per-line tables).
    index: PageIndex,
    leaves: Vec<Leaf>,
    /// The modelled inner nodes below the root, keyed by their index
    /// prefix tagged with its depth (1–3 indices from the root).
    inner: FastMap<u64, ()>,
    entries: u64,
}

impl Default for RadixTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RadixTable {
    /// An empty table (the root inner node exists from the start).
    pub fn new() -> Self {
        Self {
            index: PageIndex::new(),
            leaves: Vec::new(),
            inner: FastMap::new(),
            entries: 0,
        }
    }

    /// Maps `line` to `loc`, returning what the insert did to the tree.
    pub fn insert(&mut self, line: LineAddr, loc: NvmLoc) -> InsertEffect {
        let (page, slot) = split(line);
        let mut fx = InsertEffect::default();
        let leaf = match self.index.get(page) {
            Some(leaf) => leaf,
            None => {
                // A new leaf, plus every missing inner node on its path,
                // deepest first. Nodes are never freed, so the first node
                // found present has all its ancestors too.
                fx.nodes_created = 1;
                for depth in (1..=3u32).rev() {
                    let prefix = page >> (LEVEL_BITS * (4 - depth));
                    let key = (u64::from(depth) << PAGE_BITS) | prefix;
                    if self.inner.insert(key, ()).is_some() {
                        break;
                    }
                    fx.nodes_created += 1;
                }
                // Each new node costs one pointer write in its parent.
                fx.entry_writes = fx.nodes_created;
                self.leaves.push([None; LEAF_FANOUT]);
                self.index.insert(page)
            }
        };
        fx.displaced = self.leaves[leaf][slot].replace(loc);
        fx.entry_writes += 1; // the leaf entry itself
        if fx.displaced.is_none() {
            self.entries += 1;
        }
        fx
    }

    /// Removes the mapping for `line` if it currently points at `loc`
    /// (used when a compacted page's dead versions are reclaimed so no
    /// stale entry can alias into a reused page). Returns whether an
    /// entry was removed.
    pub fn remove_if(&mut self, line: LineAddr, loc: NvmLoc) -> bool {
        let (page, slot) = split(line);
        let Some(leaf) = self.index.get(page) else {
            return false;
        };
        let entry = &mut self.leaves[leaf][slot];
        if *entry == Some(loc) {
            *entry = None;
            self.entries -= 1;
            true
        } else {
            false
        }
    }

    /// Looks up the mapping for `line`.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<NvmLoc> {
        let (page, slot) = split(line);
        self.leaves[self.index.get(page)?][slot]
    }

    /// Number of mapped lines.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the table maps nothing.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Total size of the tree if persisted (Fig 13's metric).
    pub fn size_bytes(&self) -> u64 {
        self.inner_nodes() * INNER_NODE_BYTES + self.leaf_nodes() * LEAF_NODE_BYTES
    }

    /// Inner node count (the root included).
    pub fn inner_nodes(&self) -> u64 {
        1 + self.inner.len() as u64
    }

    /// Leaf node count.
    pub fn leaf_nodes(&self) -> u64 {
        self.leaves.len() as u64
    }

    /// Average fraction of leaf slots in use (Fig 13's occupancy analysis).
    pub fn leaf_occupancy(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        self.entries as f64 / (self.leaf_nodes() * LEAF_FANOUT as u64) as f64
    }

    /// Iterates all `(line, loc)` mappings in address order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, NvmLoc)> + '_ {
        let mut pages: Vec<(u64, usize)> = self.index.iter().collect();
        pages.sort_unstable();
        pages.into_iter().flat_map(move |(page, leaf)| {
            self.leaves[leaf]
                .iter()
                .enumerate()
                .filter_map(move |(slot, loc)| {
                    loc.map(|loc| (LineAddr::new((page << 6) | slot as u64), loc))
                })
        })
    }
}

impl fmt::Debug for RadixTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RadixTable")
            .field("entries", &self.entries)
            .field("inner_nodes", &self.inner_nodes())
            .field("leaf_nodes", &self.leaf_nodes())
            .field("size_bytes", &self.size_bytes())
            .finish()
    }
}

/// The persistent Master Mapping Table: a [`RadixTable`] plus cumulative
/// NVM metadata write accounting (each 8-byte entry write is charged to
/// the NVM when the merge runs).
#[derive(Debug, Default)]
pub struct MasterTable {
    tree: RadixTable,
    meta_entry_writes: u64,
}

impl MasterTable {
    /// An empty master table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges one mapping in; returns the insert effect (the caller
    /// charges `entry_writes × 8` bytes of NVM metadata and adjusts page
    /// reference counts via `displaced`).
    pub fn merge_in(&mut self, line: LineAddr, loc: NvmLoc) -> InsertEffect {
        let fx = self.tree.insert(line, loc);
        self.meta_entry_writes += fx.entry_writes;
        fx
    }

    /// Looks up the current image's mapping for `line`.
    pub fn get(&self, line: LineAddr) -> Option<NvmLoc> {
        self.tree.get(line)
    }

    /// The underlying tree (size metrics, iteration).
    pub fn tree(&self) -> &RadixTable {
        &self.tree
    }

    /// Total 8-byte metadata entry writes performed so far.
    pub fn meta_entry_writes(&self) -> u64 {
        self.meta_entry_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn loc(p: u32, s: u8) -> NvmLoc {
        NvmLoc { page: p, slot: s }
    }

    #[test]
    fn insert_then_get_identity() {
        let mut t = RadixTable::new();
        let fx = t.insert(line(0x1234), loc(3, 7));
        assert_eq!(t.get(line(0x1234)), Some(loc(3, 7)));
        assert_eq!(t.get(line(0x1235)), None);
        assert_eq!(fx.displaced, None);
        assert_eq!(fx.nodes_created, 4, "first insert builds the whole path");
        assert_eq!(fx.entry_writes, 5, "4 pointers + 1 leaf entry");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_displaces_and_reuses_path() {
        let mut t = RadixTable::new();
        t.insert(line(64), loc(0, 0));
        let fx = t.insert(line(64), loc(1, 1));
        assert_eq!(fx.displaced, Some(loc(0, 0)));
        assert_eq!(fx.nodes_created, 0);
        assert_eq!(fx.entry_writes, 1);
        assert_eq!(t.len(), 1, "replacement does not grow the table");
        assert_eq!(t.get(line(64)), Some(loc(1, 1)));
    }

    #[test]
    fn same_page_lines_share_the_leaf() {
        let mut t = RadixTable::new();
        // Lines 0..64 live in page 0: one leaf after the first insert.
        for i in 0..64 {
            t.insert(line(i), loc(0, i as u8));
        }
        assert_eq!(t.leaf_nodes(), 1);
        assert_eq!(t.len(), 64);
        assert!((t.leaf_occupancy() - 1.0).abs() < 1e-9);
        // Fully populated leaf: metadata is exactly 512 B for 4 KiB of
        // data, the 12.5 % floor — plus the inner path.
        assert_eq!(t.size_bytes(), 4 * INNER_NODE_BYTES + LEAF_NODE_BYTES);
    }

    #[test]
    fn sparse_lines_inflate_occupancy_metric() {
        let mut t = RadixTable::new();
        // One line per page across 10 pages: 10 leaves at 1/64 occupancy.
        for p in 0..10u64 {
            t.insert(line(p * 64), loc(0, 0));
        }
        assert_eq!(t.leaf_nodes(), 10);
        assert!((t.leaf_occupancy() - 10.0 / 640.0).abs() < 1e-9);
    }

    #[test]
    fn iter_lists_all_mappings_in_order() {
        let mut t = RadixTable::new();
        let addrs = [5u64, 64, 1 << 20, (1 << 30) + 3];
        for (i, &a) in addrs.iter().enumerate() {
            t.insert(line(a), loc(i as u32, 0));
        }
        let got: Vec<u64> = t.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(got, vec![5, 64, 1 << 20, (1 << 30) + 3]);
        for (l, loc_) in t.iter() {
            assert_eq!(t.get(l), Some(loc_));
        }
    }

    #[test]
    fn distant_addresses_use_distinct_paths() {
        let mut t = RadixTable::new();
        t.insert(line(0), loc(0, 0));
        let fx = t.insert(line(1 << 41), loc(1, 0)); // differs at the top level
        assert_eq!(fx.nodes_created, 4);
        assert_eq!(t.inner_nodes(), 1 + 3 + 3);
        assert_eq!(t.leaf_nodes(), 2);
    }

    #[test]
    fn mapping_word_round_trips() {
        for &(p, s) in &[(0u32, 0u8), (1, 63), (0xFFFF_FFFF, 17), (42, 5)] {
            let w = encode_loc(loc(p, s));
            assert_eq!(decode_loc(w), Some(loc(p, s)), "page {p} slot {s}");
            assert_eq!(w.count_ones() % 2, 1, "odd parity");
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        for &(p, s) in &[(0u32, 0u8), (3, 9), (0xDEAD_BEEF, 63)] {
            let w = encode_loc(loc(p, s));
            for bit in 0..64 {
                assert_eq!(
                    decode_loc(w ^ (1u64 << bit)),
                    None,
                    "flip of bit {bit} in {w:#x} must break parity"
                );
            }
        }
    }

    #[test]
    fn master_table_accumulates_meta_writes() {
        let mut m = MasterTable::new();
        m.merge_in(line(0), loc(0, 0));
        m.merge_in(line(1), loc(0, 1));
        // First: 5 writes; second reuses the path: 1 write.
        assert_eq!(m.meta_entry_writes(), 6);
        assert_eq!(m.get(line(1)), Some(loc(0, 1)));
        assert_eq!(m.tree().len(), 2);
    }
}
