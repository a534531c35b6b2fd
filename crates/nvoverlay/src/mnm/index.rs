//! The host-only per-line version index beside an OMC's epoch tables.
//!
//! A §V-E time-travel read of `line` at epoch `E` wants the newest
//! retained epoch table at or below `E` that maps `line`. The modelled
//! OMC finds it by falling through the tables from `E` downward, one
//! page-index probe per epoch — about a hundred on the high-frequency
//! workloads. [`VersionIndex`] answers the same question from host data:
//! for each line, the epochs whose retained table maps it, each with the
//! table's location, so a read looks only at the line's own versions (a
//! handful) and never touches the tables.
//!
//! It is simulator bookkeeping, not modelled hardware: it adds nothing
//! to the epoch-table DRAM bytes, the metadata NVM traffic or any other
//! modelled figure. The OMC keeps it equal to the transpose of its
//! retained tables at every table insert, removal and reclaim, and
//! `Omc::check_page_state` checks that it does.

use super::pool::NvmLoc;
use nvsim::addr::LineAddr;
use nvsim::linetable::LineTable;

/// One retained version of a line: its epoch (see [`narrow`]) and where
/// the epoch's table maps it (see [`pack`]). Eight bytes.
#[derive(Clone, Copy, Debug, Default)]
struct Version {
    epoch: u32,
    loc: u32,
}

/// A line's versions: the newest inline, and the `len` older ones
/// ascending by epoch from arena position `at`, in a block of
/// `1 << class(len)` slots. Sixteen bytes.
#[derive(Clone, Copy, Debug, Default)]
struct Head {
    epoch: u32,
    loc: u32,
    at: u32,
    len: u32,
}

/// An epoch as the index stores it: 32 bits, over four billion epochs.
///
/// # Panics
/// Panics on a later epoch.
fn narrow(epoch: u64) -> u32 {
    u32::try_from(epoch).expect("epoch beyond the version index's range")
}

/// Packs `loc` as `page × 64 + slot`, which fits 32 bits for pools of up
/// to 2^26 pages (256 GiB).
///
/// # Panics
/// Panics on a larger page number.
fn pack(loc: NvmLoc) -> u32 {
    assert!(
        loc.page < 1 << 26,
        "overlay page {} beyond the version index's range",
        loc.page
    );
    loc.page << 6 | u32::from(loc.slot)
}

/// The location [`pack`] packed.
fn unpack(word: u32) -> NvmLoc {
    NvmLoc {
        page: word >> 6,
        slot: (word & 0x3F) as u8,
    }
}

/// The free-list class of a block holding `len` versions: log2 of its
/// capacity, a power of two of at least four, so most lines' older
/// versions never move (p99 eight versions a line on btree-hifreq).
fn class(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros().max(2) as usize
}

/// Per-line version arrays, newest epoch inline.
///
/// Each line's [`Head`] lives in a [`LineTable`] slot, beside its page's
/// other lines, and holds the newest version, so recording a newer
/// version or reading at or past it touches only the slot. The older
/// versions sit side by side in one arena shared by all lines, so a read
/// below the newest scans adjacent entries however many versions the
/// line has. Blocks have power-of-two capacities and move when they
/// fill or halve; freed blocks go on a free list per size, so nothing is
/// allocated per line.
#[derive(Clone, Debug, Default)]
pub(crate) struct VersionIndex {
    heads: LineTable<LineAddr, Head>,
    arena: Arena,
}

/// The blocks of older versions, with a free list per class.
#[derive(Clone, Debug, Default)]
struct Arena {
    older: Vec<Version>,
    free: Vec<Vec<u32>>,
}

impl Arena {
    /// A free block for `len` versions, from its free list or the end.
    fn alloc(&mut self, len: usize) -> usize {
        let c = class(len);
        if let Some(at) = self.free.get_mut(c).and_then(Vec::pop) {
            return at as usize;
        }
        let at = self.older.len();
        self.older.resize(at + (1 << c), Version::default());
        at
    }

    /// Puts the block at `at` holding `len` versions on its free list.
    fn release(&mut self, at: usize, len: usize) {
        let c = class(len);
        if self.free.len() <= c {
            self.free.resize_with(c + 1, Vec::new);
        }
        self.free[c].push(u32::try_from(at).expect("version index overflow"));
    }

    /// Moves the first `keep` versions of the block at `at` holding
    /// `len` into a block for `new_len`, freeing the old one. Returns
    /// the new block's position.
    fn resize(&mut self, at: usize, len: usize, keep: usize, new_len: usize) -> usize {
        let to = self.alloc(new_len);
        self.older.copy_within(at..at + keep, to);
        self.release(at, len);
        to
    }
}

impl VersionIndex {
    /// Records that `epoch`'s table maps `line` to `loc`, replacing the
    /// location if the pair is already indexed. Versions may arrive in
    /// any epoch order; they stay sorted.
    pub(crate) fn set(&mut self, line: LineAddr, epoch: u64, loc: NvmLoc) {
        let (epoch, loc) = (narrow(epoch), pack(loc));
        let Some(h) = self.heads.get_mut(line) else {
            self.heads.insert(
                line,
                Head {
                    epoch,
                    loc,
                    ..Head::default()
                },
            );
            return;
        };
        if epoch == h.epoch {
            h.loc = loc;
            return;
        }
        let arena = &mut self.arena;
        let (at, len) = (h.at as usize, h.len as usize);
        // The version to file among the older ones, and where: a newer
        // version takes the head and files the old head last.
        let (i, v) = if epoch > h.epoch {
            let old = Version {
                epoch: h.epoch,
                loc: h.loc,
            };
            (h.epoch, h.loc) = (epoch, loc);
            (len, old)
        } else {
            let i = arena.older[at..at + len].partition_point(|v| v.epoch < epoch);
            if i < len && arena.older[at + i].epoch == epoch {
                arena.older[at + i].loc = loc;
                return;
            }
            (i, Version { epoch, loc })
        };
        let at = if len == 0 {
            arena.alloc(1)
        } else if class(len + 1) != class(len) {
            arena.resize(at, len, len, len + 1)
        } else {
            at
        };
        arena.older.copy_within(at + i..at + len, at + i + 1);
        arena.older[at + i] = v;
        h.at = u32::try_from(at).expect("version index overflow");
        h.len += 1;
    }

    /// Forgets `epoch`'s version of `line`, if indexed.
    pub(crate) fn remove(&mut self, line: LineAddr, epoch: u64) {
        let Some(h) = self.heads.get_mut(line) else {
            return;
        };
        let epoch = narrow(epoch);
        let arena = &mut self.arena;
        let (at, len) = (h.at as usize, h.len as usize);
        if epoch == h.epoch {
            if len == 0 {
                self.heads.remove(line);
                return;
            }
            // The newest older version takes the head.
            let v = arena.older[at + len - 1];
            (h.epoch, h.loc) = (v.epoch, v.loc);
        } else {
            let i = arena.older[at..at + len].partition_point(|v| v.epoch < epoch);
            if i == len || arena.older[at + i].epoch != epoch {
                return;
            }
            arena.older.copy_within(at + i + 1..at + len, at + i);
        }
        let left = len - 1;
        if left == 0 {
            arena.release(at, len);
        } else if class(left) != class(len) {
            h.at =
                u32::try_from(arena.resize(at, len, left, left)).expect("version index overflow");
        }
        h.len -= 1;
    }

    /// The newest indexed version of `line` at or below `epoch`, as its
    /// epoch and location.
    #[inline]
    pub(crate) fn at(&self, line: LineAddr, epoch: u64) -> Option<(u64, NvmLoc)> {
        let h = self.heads.get(line)?;
        // Every stored epoch fits 32 bits, so a later `epoch` sees them all.
        let epoch = u32::try_from(epoch).unwrap_or(u32::MAX);
        if h.epoch <= epoch {
            return Some((h.epoch.into(), unpack(h.loc)));
        }
        let vs = &self.arena.older[h.at as usize..][..h.len as usize];
        let v = vs[..vs.partition_point(|v| v.epoch <= epoch)].last()?;
        Some((v.epoch.into(), unpack(v.loc)))
    }

    /// Forgets every version, keeping the allocations for reuse.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.arena.older.clear();
        self.arena.free.iter_mut().for_each(Vec::clear);
    }

    /// Iterates every line's versions, ascending by epoch, as `(line,
    /// epoch, loc)`.
    #[cfg(any(debug_assertions, test, feature = "strict-invariants"))]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (LineAddr, u64, NvmLoc)> + '_ {
        self.heads.iter().flat_map(move |(line, h)| {
            let newest = Version {
                epoch: h.epoch,
                loc: h.loc,
            };
            self.arena.older[h.at as usize..][..h.len as usize]
                .iter()
                .copied()
                .chain([newest])
                .map(move |v| (line, v.epoch.into(), unpack(v.loc)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::rng::Rng64;
    use std::collections::BTreeMap;

    fn loc(n: u64) -> NvmLoc {
        NvmLoc {
            page: (n / 64) as u32,
            slot: (n % 64) as u8,
        }
    }

    /// Seeded set / remove / clear traffic in any epoch order against a
    /// sorted-map model; every read at every epoch must agree.
    #[test]
    fn differential_against_sorted_map() {
        let mut rng = Rng64::seed_from_u64(0x1DE7);
        let mut ix = VersionIndex::default();
        let mut model: BTreeMap<(u64, u64), NvmLoc> = BTreeMap::new();
        for step in 0..20_000u64 {
            let line = rng.gen_range(0..130u64);
            let epoch = rng.gen_range(1..24u64);
            match rng.gen_range(0..100u32) {
                0..=59 => {
                    ix.set(LineAddr::new(line), epoch, loc(step));
                    model.insert((line, epoch), loc(step));
                }
                60..=98 => {
                    ix.remove(LineAddr::new(line), epoch);
                    model.remove(&(line, epoch));
                }
                _ => {
                    ix.clear();
                    model.clear();
                }
            }
            assert_eq!(ix.iter().count(), model.len(), "step {step}");
            for e in 0..25 {
                let want = model
                    .range((line, 0)..=(line, e))
                    .next_back()
                    .map(|(&(_, e), &l)| (e, l));
                assert_eq!(ix.at(LineAddr::new(line), e), want, "step {step} @ {e}");
            }
        }
        let mut listed: Vec<(u64, u64, NvmLoc)> =
            ix.iter().map(|(l, e, loc)| (l.raw(), e, loc)).collect();
        listed.sort_by_key(|&(l, e, _)| (l, e));
        let want: Vec<(u64, u64, NvmLoc)> =
            model.iter().map(|(&(l, e), &loc)| (l, e, loc)).collect();
        assert_eq!(listed, want);
        assert!(!want.is_empty());
        assert!(
            ix.arena.older.len() <= 4 * 130 * 23,
            "freed blocks are reused"
        );
    }
}
