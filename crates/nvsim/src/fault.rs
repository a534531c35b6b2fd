//! Persistence-order shadow model for the NVM device.
//!
//! The timing model in [`crate::nvm`] answers *when* a write becomes
//! durable; this module answers *what is durable if we crash now*. Every
//! write enqueued on the device enters a volatile **in-flight window**:
//! the set of accepted writes whose completion time lies beyond a crash
//! instant. Real devices drain their queues in completion order, so a
//! crash durably retains only a **prefix-closed subset** of that window
//! (ordered by completion time, the device's `persist_horizon` order),
//! with at most one **torn** write on the boundary — partially written,
//! detectably corrupt.
//!
//! A [`FaultPlane`] attached to an [`crate::nvm::Nvm`] records every
//! write as a [`WriteRecord`]. Writers annotate records with the logical
//! *persistent effect* the write carries ([`PersistPayload`]): a version
//! landing in an overlay page, a chunk of Master Mapping Table entries,
//! the 8-byte `rec-epoch` root update, a context dump, an undo-log
//! entry. A crash-site explorer (the `nvchaos` crate) replays the
//! journal up to a [`CrashCut`] to reconstruct exactly the durable state
//! an adversarial power cut would leave behind, then runs recovery
//! against it.
//!
//! The model is purely additive: with no fault plane attached the device
//! pays one branch per write and records nothing.

use crate::addr::{LineAddr, Token};
use crate::clock::Cycle;
use crate::rng::Rng64;

/// The logical persistent effect carried by one NVM write, attached by
/// the component that issued it. Reconstruction replays surviving
/// payloads in issue order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistPayload {
    /// A version written into an overlay data page (NVOverlay): once
    /// durable, `line` has content `token` in snapshot `epoch`.
    Version {
        /// The line the version belongs to.
        line: LineAddr,
        /// The 64-byte content stand-in.
        token: Token,
        /// The absolute epoch that captured the version.
        epoch: u64,
    },
    /// One 256-byte metadata chunk of a Master Mapping Table merge:
    /// up to 32 encoded 8-byte mapping entries (see
    /// `nvoverlay::mnm::table::encode_loc`). A torn chunk retains a
    /// prefix of its entries.
    MasterChunk {
        /// `(line, encoded mapping word)` pairs carried by the chunk.
        entries: Vec<(LineAddr, u64)>,
    },
    /// The master OMC's atomic `rec-epoch` root pointer update.
    RecEpochRoot {
        /// The new recoverable epoch.
        epoch: u64,
    },
    /// A processor context dump at an epoch boundary.
    Context {
        /// The versioned domain dumping its context.
        vd: u16,
        /// The epoch that just ended.
        epoch: u64,
        /// The context blob stand-in.
        blob: Token,
    },
    /// An undo-log entry (software logging baselines): before `line` is
    /// overwritten in `epoch`, its pre-image `prev` is logged.
    UndoLog {
        /// The line about to be overwritten.
        line: LineAddr,
        /// The pre-image (0 = never written).
        prev: Token,
        /// The epoch the entry belongs to.
        epoch: u64,
    },
    /// An in-place home-location data write (software logging
    /// baselines' epoch-boundary flush).
    DataHome {
        /// The line flushed home.
        line: LineAddr,
        /// The content written.
        token: Token,
        /// The epoch being committed.
        epoch: u64,
    },
    /// A durable epoch-commit marker: once durable, `epoch`'s flush is
    /// complete and its undo log is dead.
    EpochCommit {
        /// The committed epoch.
        epoch: u64,
    },
}

/// One NVM write as seen by the shadow model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteRecord {
    /// Issue-order id (index into the journal).
    pub id: u64,
    /// Time the write was enqueued.
    pub enqueue: Cycle,
    /// Time the write becomes durable.
    pub completion: Cycle,
    /// The logical effect, if the writer annotated one.
    pub payload: Option<PersistPayload>,
}

/// The shadow journal: every write the device accepted, in issue order,
/// with completion times and logical payloads.
#[derive(Clone, Debug, Default)]
pub struct FaultPlane {
    log: Vec<WriteRecord>,
}

impl FaultPlane {
    /// Records one accepted write (called by the device).
    pub fn record(&mut self, enqueue: Cycle, completion: Cycle) {
        let id = self.log.len() as u64;
        self.log.push(WriteRecord {
            id,
            enqueue,
            completion,
            payload: None,
        });
    }

    /// Attaches the logical payload to the most recently recorded write.
    /// No-op on an empty journal.
    pub fn annotate_last(&mut self, payload: PersistPayload) {
        if let Some(rec) = self.log.last_mut() {
            rec.payload = Some(payload);
        }
    }

    /// The journal, in issue order (`records()[i].id == i`).
    pub fn records(&self) -> &[WriteRecord] {
        &self.log
    }

    /// Number of writes recorded.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The in-flight window at crash site `site` (the crash happens as
    /// write `site` is being issued; `site == len()` means a crash after
    /// the last issue): ids of writes issued before the crash whose
    /// completion lies beyond it, sorted by `(completion, id)` — the
    /// order the device drains them, i.e. `persist_horizon` order.
    ///
    /// # Panics
    /// Panics if `site > len()`.
    fn in_flight_at(&self, site: usize) -> Vec<u64> {
        assert!(site <= self.log.len(), "site beyond the journal");
        let crash_time = self.crash_time(site);
        let mut window: Vec<u64> = self.log[..site]
            .iter()
            .filter(|r| r.completion > crash_time)
            .map(|r| r.id)
            .collect();
        window.sort_by_key(|&id| (self.log[id as usize].completion, id));
        window
    }

    /// The simulated instant of a crash at `site`: the enqueue time of
    /// the write being issued (or of the last write, for an end crash).
    fn crash_time(&self, site: usize) -> Cycle {
        if site < self.log.len() {
            self.log[site].enqueue
        } else {
            self.log.last().map_or(0, |r| r.enqueue)
        }
    }

    /// Draws a crash cut at `site`: a seeded prefix of the in-flight
    /// window (in completion order) survives; with probability `torn_p`
    /// the first non-surviving write is torn rather than cleanly lost.
    ///
    /// # Panics
    /// Panics if `site > len()`.
    pub fn crash_cut(&self, site: usize, rng: &mut Rng64, torn_p: f64) -> CrashCut {
        let in_flight = self.in_flight_at(site).len();
        let durable = rng.gen_range(0..in_flight + 1);
        let tear = durable < in_flight && rng.gen_bool(torn_p);
        self.cut_with_durable_prefix(site, durable, tear)
    }

    /// The one cut builder: exactly the first `durable` in-flight writes
    /// (completion order) survive, the rest are lost, optionally tearing
    /// the first lost write.
    ///
    /// # Panics
    /// Panics if `site > len()`.
    pub fn cut_with_durable_prefix(&self, site: usize, durable: usize, tear: bool) -> CrashCut {
        let window = self.in_flight_at(site);
        let mut lost = window[durable.min(window.len())..].to_vec();
        let torn = (tear && !lost.is_empty()).then(|| lost.remove(0));
        lost.sort_unstable();
        CrashCut {
            site,
            crash_time: self.crash_time(site),
            lost,
            torn,
        }
    }
}

/// The durable outcome of a crash: writes issued before `site` survive
/// unless listed in `lost` (cleanly absent) or marked `torn` (partially
/// written, detectably corrupt); writes from `site` on never happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashCut {
    /// The write being issued when the crash hit (itself not durable).
    pub site: usize,
    /// The simulated crash instant.
    pub crash_time: Cycle,
    /// Ids of accepted-but-not-retained writes (sorted ascending).
    pub lost: Vec<u64>,
    /// The torn write on the durability boundary, if any.
    pub torn: Option<u64>,
}

impl CrashCut {
    /// Whether write `id` is fully durable under this cut.
    pub fn survives(&self, id: u64) -> bool {
        id < self.site as u64 && self.torn != Some(id) && self.lost.binary_search(&id).is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvm::Nvm;
    use crate::stats::NvmWriteKind;

    fn plane_with_writes(specs: &[(Cycle, u64)]) -> (Nvm, FaultPlane) {
        // 1 bank, 400-cycle occupancy: writes serialize on the bank.
        let mut n = Nvm::new(1, 400, 200, 8, 100_000);
        n.enable_fault_plane();
        for &(t, key) in specs {
            n.write(t, key, NvmWriteKind::Data, 64);
        }
        let p = n.take_fault_plane().expect("plane enabled");
        (n, p)
    }

    #[test]
    fn journal_records_every_write_in_issue_order() {
        let (_, p) = plane_with_writes(&[(0, 1), (0, 2), (10, 3)]);
        assert_eq!(p.len(), 3);
        for (i, r) in p.records().iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        assert_eq!(p.records()[0].completion, 400);
        assert_eq!(p.records()[1].completion, 800, "queued behind the first");
    }

    #[test]
    fn accepted_write_past_the_horizon_is_not_durable_after_a_crash() {
        // Satellite: a write *accepted* before the crash but whose
        // completion lies past the crash instant sits in the in-flight
        // window and may be dropped entirely.
        let (_, p) = plane_with_writes(&[(0, 1), (0, 2), (10, 3)]);
        // Crash while issuing write 2 (enqueue time 10). Both earlier
        // writes were accepted at time 0 but complete at 400 and 800 —
        // past the crash instant — so both are in flight.
        assert_eq!(p.in_flight_at(2), vec![0, 1]);
        let cut = p.cut_with_durable_prefix(2, 0, false);
        assert!(!cut.survives(0), "accepted but past the horizon: dropped");
        assert!(!cut.survives(1));
        assert!(!cut.survives(2), "the crashing write never happened");
    }

    #[test]
    fn completed_writes_are_always_durable() {
        let mut n = Nvm::new(1, 400, 200, 8, 100_000);
        n.enable_fault_plane();
        n.write(0, 1, NvmWriteKind::Data, 64); // completes at 400
        n.write(1000, 2, NvmWriteKind::Data, 64); // enqueued at 1000
        let p = n.take_fault_plane().unwrap();
        // Crash while issuing write 1 (t=1000): write 0 completed at 400
        // and is out of the window — durable under every cut.
        assert!(p.in_flight_at(1).is_empty());
        let cut = p.cut_with_durable_prefix(1, 0, false);
        assert!(cut.survives(0));
        assert!(!cut.survives(1));
    }

    #[test]
    fn cuts_are_prefix_closed_in_completion_order() {
        // 4 banks: completions interleave out of issue order.
        let mut n = Nvm::new(4, 400, 200, 8, 100_000);
        n.enable_fault_plane();
        for k in 0..32u64 {
            n.write(k * 3, k, NvmWriteKind::Data, 64);
        }
        let p = n.take_fault_plane().unwrap();
        let mut rng = Rng64::seed_from_u64(42);
        for site in [5usize, 13, 20, 31, 32] {
            for _ in 0..16 {
                let cut = p.crash_cut(site, &mut rng, 0.5);
                let window = p.in_flight_at(site);
                // If a window write survives, every window write with an
                // earlier (completion, id) must survive or be torn-free
                // earlier in the drain order — i.e. survivors form a
                // prefix of the drain order.
                let survivors: Vec<bool> = window.iter().map(|&id| cut.survives(id)).collect();
                let first_dead = survivors.iter().position(|s| !s).unwrap_or(survivors.len());
                assert!(
                    survivors[first_dead..].iter().all(|s| !s),
                    "site {site}: durable subset is not prefix-closed"
                );
                // The torn write, if any, sits exactly on the boundary.
                if let Some(t) = cut.torn {
                    assert_eq!(window.get(first_dead), Some(&t));
                }
            }
        }
    }

    #[test]
    fn annotations_attach_to_the_latest_write() {
        let mut p = FaultPlane::default();
        p.record(0, 400);
        p.annotate_last(PersistPayload::Version {
            line: LineAddr::new(7),
            token: 99,
            epoch: 3,
        });
        p.record(0, 450);
        p.annotate_last(PersistPayload::RecEpochRoot { epoch: 3 });
        assert_eq!(
            p.records()[0].payload,
            Some(PersistPayload::Version {
                line: LineAddr::new(7),
                token: 99,
                epoch: 3
            })
        );
        assert_eq!(
            p.records()[1].payload,
            Some(PersistPayload::RecEpochRoot { epoch: 3 })
        );
    }

    #[test]
    fn crash_cut_is_deterministic_per_seed() {
        let (_, p) = plane_with_writes(&[(0, 1), (0, 2), (0, 3), (5, 4)]);
        let a = p.crash_cut(3, &mut Rng64::seed_from_u64(7), 0.3);
        let b = p.crash_cut(3, &mut Rng64::seed_from_u64(7), 0.3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "beyond the journal")]
    fn site_past_the_journal_is_rejected() {
        let (_, p) = plane_with_writes(&[(0, 1)]);
        let _ = p.in_flight_at(2);
    }
}
