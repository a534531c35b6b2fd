//! Shared parts of the baseline schemes: the epoch-commit write set and
//! the NVM entry sizes.

use nvsim::addr::LineAddr;
use nvsim::linetable::LineTable;

/// The lines a software or shadow scheme must flush at the next epoch
/// boundary, in first-store order.
///
/// A line leaves the set early when it is persisted mid-epoch (HW
/// Shadow's LLC write-back); its slot becomes a tombstone, so removal is
/// O(1) and a line dirtied again afterwards joins at the end — the order
/// a `Vec::retain` + `push` would give, without the O(set) rescan.
#[derive(Debug, Default)]
pub(crate) struct WriteSet {
    order: Vec<Option<LineAddr>>,
    slot: LineTable<LineAddr, usize>,
}

impl WriteSet {
    /// Records a store; only a line's first store since it last left the
    /// set takes a place in the order.
    pub(crate) fn insert(&mut self, line: LineAddr) {
        if !self.slot.contains_key(line) {
            self.slot.insert(line, self.order.len());
            self.order.push(Some(line));
        }
    }

    /// Drops a line from the set; returns whether it was present.
    pub(crate) fn remove(&mut self, line: LineAddr) -> bool {
        match self.slot.remove(line) {
            Some(i) => {
                self.order[i] = None;
                true
            }
            None => false,
        }
    }

    /// Empties the set, returning its lines in order.
    pub(crate) fn take(&mut self) -> Vec<LineAddr> {
        self.slot.clear();
        self.order.drain(..).flatten().collect()
    }
}

/// Size in bytes of one undo/redo log entry (paper §VII-B: "each log
/// entry takes 72 bytes (64B data + 8B address tag)").
pub const LOG_ENTRY_BYTES: u64 = 72;

/// Size of a cache line's data payload.
pub const DATA_BYTES: u64 = 64;

/// Size of one mapping-table entry write.
pub const TABLE_ENTRY_BYTES: u64 = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::rng::Rng64;

    #[test]
    fn write_set_orders_like_retain_and_push() {
        let l = LineAddr::new;
        let mut ws = WriteSet::default();
        for n in [1, 2, 3, 4] {
            ws.insert(l(n));
        }
        ws.insert(l(2)); // already present: keeps its place
        assert!(ws.remove(l(3)), "evicted only");
        assert!(ws.remove(l(1)));
        ws.insert(l(1)); // evicted, then dirtied again: joins at the end
        assert!(!ws.remove(l(9)));
        assert_eq!(ws.slot.len(), 3);
        assert_eq!(ws.take(), vec![l(2), l(4), l(1)]);
        assert_eq!(ws.slot.len(), 0);
        assert!(ws.take().is_empty());
    }

    #[test]
    fn write_set_matches_vec_model_under_seeded_traffic() {
        let mut rng = Rng64::seed_from_u64(0x5E7);
        let mut ws = WriteSet::default();
        let mut model: Vec<LineAddr> = Vec::new();
        for step in 0..20_000 {
            let line = LineAddr::new(rng.gen_range(0..64u64));
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    ws.insert(line);
                    if !model.contains(&line) {
                        model.push(line);
                    }
                }
                6..=8 => {
                    let present = model.contains(&line);
                    model.retain(|l| *l != line);
                    assert_eq!(ws.remove(line), present, "step {step}");
                }
                _ => assert_eq!(ws.take(), std::mem::take(&mut model), "step {step}"),
            }
            assert_eq!(ws.slot.len(), model.len(), "step {step}");
        }
    }
}
