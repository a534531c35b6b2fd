//! DRAM working-memory model.
//!
//! Holds the working copy of every line (as a content token) plus, for
//! NVOverlay, the per-line OID tags the paper stores "in the ECC banks"
//! (§IV-A4). The OID store supports the §V-F *super block* option where one
//! tag is shared by a block of consecutive lines and only grows
//! monotonically ("The existing OID is only updated if the incoming OID is
//! larger").
//!
//! Both live in [`LineTable`]s: every miss that reaches memory reads the
//! image, and NVOverlay's LLC victims update the tags, so neighbouring
//! lines share host cache lines instead of scattering across a hash map.

use crate::addr::{LineAddr, Token};
use crate::clock::Cycle;
use crate::linetable::LineTable;

/// DRAM device: constant-latency, token-addressable working memory.
#[derive(Clone, Debug)]
pub struct Dram {
    latency: Cycle,
    contents: LineTable<LineAddr, Token>,
    oid_tags: LineTable<u64, u16>,
    superblock_lines: u64,
    reads: u64,
    writes: u64,
}

impl Dram {
    /// Creates a DRAM with the given access latency and OID super-block
    /// granularity (1 = per-line tags).
    ///
    /// # Panics
    /// Panics if `superblock_lines` is zero.
    pub fn new(latency: Cycle, superblock_lines: u32) -> Self {
        assert!(superblock_lines > 0, "super-block size must be positive");
        Self {
            latency,
            contents: LineTable::new(),
            oid_tags: LineTable::new(),
            superblock_lines: superblock_lines as u64,
            reads: 0,
            writes: 0,
        }
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Reads the working copy of a line. Unwritten lines read as token 0
    /// (zero-filled memory).
    pub fn read(&mut self, line: LineAddr) -> Token {
        self.reads += 1;
        self.contents.get(line).copied().unwrap_or(0)
    }

    /// Writes the working copy of a line.
    pub fn write(&mut self, line: LineAddr, token: Token) {
        self.writes += 1;
        self.contents.insert(line, token);
    }

    /// Reads a line without counting an access (verification helper).
    pub fn peek(&self, line: LineAddr) -> Token {
        self.contents.get(line).copied().unwrap_or(0)
    }

    fn tag_key(&self, line: LineAddr) -> u64 {
        line.raw() / self.superblock_lines
    }

    /// The OID tag covering `line`, if ever set.
    pub fn oid(&self, line: LineAddr) -> Option<u16> {
        self.oid_tags.get(self.tag_key(line)).copied()
    }

    /// Updates the OID tag covering `line`.
    ///
    /// With super-blocks larger than one line the tag only moves forward:
    /// `cmp_newer(incoming, existing)` decides (the caller supplies epoch
    /// comparison so wrap-around rules stay in one place).
    pub fn update_oid(&mut self, line: LineAddr, oid: u16, cmp_newer: impl Fn(u16, u16) -> bool) {
        let key = self.tag_key(line);
        match self.oid_tags.get_mut(key) {
            Some(existing) => {
                if self.superblock_lines == 1 || cmp_newer(oid, *existing) {
                    *existing = oid;
                }
            }
            None => {
                self.oid_tags.insert(key, oid);
            }
        }
    }

    /// Number of distinct OID tags stored (DRAM tagging overhead metric).
    pub fn oid_tag_count(&self) -> usize {
        self.oid_tags.len()
    }

    /// Rewrites every stored OID tag matching `pred` to `replacement`.
    ///
    /// Used by NVOverlay's §IV-D wrap-around protocol: when epochs enter a
    /// recycled 16-bit group, stale DRAM tags from that group's previous
    /// generation are scrubbed to the flip boundary so they can never read
    /// as "from the future".
    pub fn scrub_oids(&mut self, mut pred: impl FnMut(u16) -> bool, replacement: u16) {
        for v in self.oid_tags.values_mut() {
            if pred(*v) {
                *v = replacement;
            }
        }
    }

    /// Total reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Iterates the current working image (line → token).
    pub fn image(&self) -> impl Iterator<Item = (LineAddr, Token)> + '_ {
        self.contents.iter().map(|(l, t)| (l, *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn read_write_round_trip() {
        let mut d = Dram::new(150, 1);
        assert_eq!(d.read(line(1)), 0, "unwritten memory reads as zero");
        d.write(line(1), 42);
        assert_eq!(d.read(line(1)), 42);
        assert_eq!(d.reads(), 2);
        assert_eq!(d.writes(), 1);
    }

    #[test]
    fn per_line_oid_tags_overwrite_freely() {
        let mut d = Dram::new(150, 1);
        d.update_oid(line(0), 10, |a, b| a > b);
        d.update_oid(line(0), 5, |a, b| a > b);
        // Granularity 1: always overwritten (each line has its own tag).
        assert_eq!(d.oid(line(0)), Some(5));
    }

    #[test]
    fn superblock_tags_only_grow() {
        let mut d = Dram::new(150, 4);
        d.update_oid(line(0), 10, |a, b| a > b);
        d.update_oid(line(3), 5, |a, b| a > b); // same super block, older
        assert_eq!(d.oid(line(1)), Some(10), "older OID must not regress tag");
        d.update_oid(line(2), 12, |a, b| a > b);
        assert_eq!(d.oid(line(0)), Some(12));
        assert_eq!(d.oid_tag_count(), 1);
        d.update_oid(line(4), 1, |a, b| a > b); // next super block
        assert_eq!(d.oid_tag_count(), 2);
    }

    #[test]
    fn scrub_rewrites_matching_tags() {
        let mut d = Dram::new(150, 1);
        d.update_oid(line(0), 40_000, |a, b| a > b);
        d.update_oid(line(1), 10, |a, b| a > b);
        d.scrub_oids(|t| t >= 32_768, 32_768);
        assert_eq!(d.oid(line(0)), Some(32_768));
        assert_eq!(d.oid(line(1)), Some(10));
    }

    #[test]
    fn image_lists_written_lines() {
        let mut d = Dram::new(150, 1);
        d.write(line(8), 100);
        d.write(line(9), 200);
        let mut img: Vec<_> = d.image().collect();
        img.sort_by_key(|(l, _)| l.raw());
        assert_eq!(img, vec![(line(8), 100), (line(9), 200)]);
    }
}
