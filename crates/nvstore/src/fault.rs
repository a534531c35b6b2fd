//! The store fault plane: deterministic crash/corruption replay for
//! file I/O.
//!
//! A recording [`MemIo`] journals every completed operation of a
//! backup/restore/gc script; [`replay`] rebuilds any *prefix cut* of
//! that journal, optionally tearing the write at the crash boundary
//! to a byte prefix, to produce the filesystem a crash would have left
//! behind. The store crash target (`nvchaos::store_chaos`), one of the two
//! targets of the `nvchaos` crash explorer, opens the store on each
//! replayed image (after flipping a bit in it, when its seeded draw
//! says so) and asserts the robustness contract: a clean restore of a
//! prior consistent manifest, or a typed [`crate::StoreError`] — never
//! a panic or a hybrid image.

use crate::io::{MemIo, StoreOp};

/// Replays the first `site` ops of `journal` (a journal taken from
/// [`MemIo::take_journal`]), returning the filesystem a crash at `site`
/// leaves behind; valid sites are `0..=journal.len()`. When the op at
/// `site` is a write, `torn_keep` persists that many of its bytes (a
/// torn tail); `None` drops the boundary op entirely. Renames and
/// removes are atomic, so a torn boundary leaves them unapplied.
pub fn replay(journal: &[StoreOp], site: usize, torn_keep: Option<usize>) -> MemIo {
    let mut fs = MemIo::new();
    let site = site.min(journal.len());
    for op in &journal[..site] {
        fs.apply(op);
    }
    if let (Some(keep), Some(StoreOp::Write { path, data })) = (torn_keep, journal.get(site)) {
        fs.apply_torn_write(path, data, keep);
    }
    fs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::StoreIo;

    fn plane() -> Vec<StoreOp> {
        let mut io = MemIo::recording();
        io.write("tmp/x", b"abcdef").unwrap();
        io.rename("tmp/x", "layers/x").unwrap();
        io.write("ROOT.0", b"root").unwrap();
        io.take_journal()
    }

    #[test]
    fn prefix_cuts_are_prefix_closed() {
        let p = plane();
        let at0 = replay(&p, 0, None);
        assert!(at0.paths().is_empty());
        let at2 = replay(&p, 2, None);
        assert_eq!(at2.paths(), vec!["layers/x"]);
        assert!(!at2.exists("ROOT.0"));
        let all = replay(&p, 3, None);
        assert_eq!(all.read("ROOT.0").unwrap(), b"root");
    }

    #[test]
    fn torn_boundary_write_keeps_a_byte_prefix() {
        let p = plane();
        let torn = replay(&p, 0, Some(3));
        assert_eq!(torn.read("tmp/x").unwrap(), b"abc");
        // Boundary op 1 is a rename: atomic, so a torn cut leaves it
        // unapplied entirely.
        let at_rename = replay(&p, 1, Some(2));
        assert_eq!(at_rename.read("tmp/x").unwrap(), b"abcdef");
        assert!(!at_rename.exists("layers/x"));
    }
}
