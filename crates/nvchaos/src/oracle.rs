//! The pre-crash oracle: ground truth about the workload derived from
//! the trace alone (no simulator state), against which every recovered
//! image is judged.
//!
//! Every crash target holds every recovered or restored image to the
//! same two oracle-backed invariants, [`TraceOracle::check_cut`]. The
//! third, image equality against a journal- or backup-derived
//! expectation, each target computes from its own ground truth.

use nvsim::addr::{LineAddr, ThreadId, Token};
use nvsim::fastmap::{FastHashMap, FastHashSet};
use nvsim::memsys::MemOp;
use nvsim::trace::{Trace, TraceEvent};

/// Per-trace ground truth: which tokens were written where, in what
/// per-thread order, and which lines are *private* (single-writer) —
/// the lines for which per-thread prefix-cut reasoning applies.
pub struct TraceOracle {
    /// token → (owning thread, per-thread store sequence number).
    order: FastHashMap<Token, (u16, u64)>,
    /// line → every token ever stored to it (program order per thread;
    /// threads concatenated — exact order only meaningful for private
    /// lines).
    line_writes: FastHashMap<LineAddr, Vec<Token>>,
    /// Private lines (exactly one writing thread) → that thread.
    private: Vec<(LineAddr, u16)>,
    threads: usize,
}

impl TraceOracle {
    /// Scans the trace once and builds the oracle.
    pub fn new(trace: &Trace) -> Self {
        let mut order = FastHashMap::default();
        let mut line_writes: FastHashMap<LineAddr, Vec<Token>> = FastHashMap::default();
        let mut writers: FastHashMap<LineAddr, FastHashSet<u16>> = FastHashMap::default();
        for t in 0..trace.thread_count() {
            let mut seq = 0u64;
            for ev in trace.thread(ThreadId(t as u16)) {
                if let TraceEvent::Access {
                    op: MemOp::Store,
                    addr,
                    token,
                } = ev
                {
                    let line = addr.line();
                    order.insert(*token, (t as u16, seq));
                    seq += 1;
                    line_writes.entry(line).or_default().push(*token);
                    writers.entry(line).or_default().insert(t as u16);
                }
            }
        }
        let mut private: Vec<(LineAddr, u16)> = writers
            .iter()
            .filter(|(_, w)| w.len() == 1)
            .map(|(l, w)| (*l, *w.iter().next().expect("non-empty")))
            .collect();
        private.sort_by_key(|(l, _)| l.raw());
        Self {
            order,
            line_writes,
            private,
            threads: trace.thread_count(),
        }
    }

    /// Whether `token` was ever stored to `line` by the workload
    /// (consistency invariant 1: no fabricated data).
    pub fn written_to(&self, line: LineAddr, token: Token) -> bool {
        self.line_writes
            .get(&line)
            .is_some_and(|v| v.contains(&token))
    }

    /// Every token stored to `line`, in program order (exact for private
    /// lines).
    pub fn writes_to(&self, line: LineAddr) -> &[Token] {
        self.line_writes.get(&line).map_or(&[], Vec::as_slice)
    }

    /// Private lines and their single writer, in address order.
    pub fn private_lines(&self) -> &[(LineAddr, u16)] {
        &self.private
    }

    /// Checks a recovered image against the two consistency-cut
    /// invariants and appends each violation to `out`:
    ///
    /// 1. every recovered token was actually written to that line by the
    ///    workload;
    /// 2. per-thread prefix cut on private (single-writer) lines — if the
    ///    image reflects thread `t`'s write number `s`, it cannot miss an
    ///    earlier final write by the same thread.
    pub fn check_cut(&self, img: &FastHashMap<LineAddr, Token>, out: &mut Vec<String>) {
        for (l, t) in img {
            if !self.written_to(*l, *t) {
                out.push(format!(
                    "line {:#x} recovered with token {t} never written there",
                    l.raw()
                ));
            }
        }
        let mut cut_seq: Vec<Option<u64>> = vec![None; self.threads];
        for (line, owner) in &self.private {
            let Some(&tok) = img.get(line) else { continue };
            let Some(&(t, s)) = self.order.get(&tok) else {
                continue; // already reported by invariant 1
            };
            if t != *owner {
                out.push(format!(
                    "private line {:#x} of thread {owner} recovered with thread {t}'s token",
                    line.raw()
                ));
                continue;
            }
            let c = &mut cut_seq[t as usize];
            *c = Some(c.map_or(s, |p| p.max(s)));
        }
        for (line, owner) in &self.private {
            let Some(cut) = cut_seq[*owner as usize] else {
                continue;
            };
            let last = *self.writes_to(*line).last().expect("written line");
            let &(_, s) = self.order.get(&last).expect("traced token");
            if s <= cut && img.get(line) != Some(&last) {
                out.push(format!(
                    "thread {owner}'s cut reflects write #{cut} but private line {:#x} \
                     is not at its final write #{s}",
                    line.raw()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::Addr;
    use nvsim::trace::TraceBuilder;

    #[test]
    fn oracle_tracks_order_and_privacy() {
        let mut b = TraceBuilder::new(2);
        let t0 = b.store(ThreadId(0), Addr::new(0)); // private to thread 0
        let t1 = b.store(ThreadId(0), Addr::new(0));
        let t2 = b.store(ThreadId(1), Addr::new(64)); // private to thread 1
        let t3 = b.store(ThreadId(0), Addr::new(128)); // shared line
        let t4 = b.store(ThreadId(1), Addr::new(128));
        let o = TraceOracle::new(&b.build());
        assert_eq!(o.order.get(&t0), Some(&(0, 0)));
        assert_eq!(o.order.get(&t1), Some(&(0, 1)));
        assert_eq!(o.order.get(&t2), Some(&(1, 0)));
        assert!(o.written_to(LineAddr::new(0), t1));
        assert!(!o.written_to(LineAddr::new(0), t2));
        assert_eq!(o.writes_to(LineAddr::new(0)), &[t0, t1]);
        assert_eq!(
            o.private_lines(),
            &[(LineAddr::new(0), 0), (LineAddr::new(1), 1)],
            "line 2 (0x80) is written by both threads"
        );
        assert!(o.written_to(LineAddr::new(2), t3) && o.written_to(LineAddr::new(2), t4));
        assert_eq!(o.order.len(), 5);
    }
}
