//! The [`MemorySystem`] trait and the deterministic run loop.
//!
//! Every snapshotting scheme — NVOverlay, the five baselines, and the
//! no-snapshot ideal system — implements [`MemorySystem`]. The [`Runner`]
//! replays a [`Trace`] against a system: it always advances the core with
//! the smallest local clock, so any scheme sees the *same* interleaving for
//! the same trace, which is what makes cross-scheme comparisons (Fig 11/12)
//! meaningful.
//!
//! The eight schemes implement [`MemorySystem`] once, through the
//! blanket impl over [`SchemeHooks`]: a scheme owns a [`SchemeCore`]
//! (its hierarchy, NVM device, stats and event buffer) and supplies only
//! what differs — its event handling, epoch commit, finish-time drain
//! and extra metrics.

use crate::addr::{Addr, CoreId, LineAddr, ThreadId, Token};
use crate::clock::{CoreClock, Cycle};
use crate::coherence::{Coherence, LinePolicy};
use crate::linetable::LineTable;
use crate::metrics::Registry;
use crate::nvm::Nvm;
use crate::stats::SystemStats;
use crate::trace::{PackedEvent, PackedTrace, Trace};
use std::fmt;
use std::ops::DerefMut;

/// The runner's load-value oracle: the last token stored to each line.
/// Every access probes it, so it is a page-indexed [`LineTable`] that
/// grows with the lines touched instead of being presized.
pub type Oracle = LineTable<LineAddr, Token>;

/// A memory operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemOp {
    /// A load (read).
    Load,
    /// A store (write).
    Store,
}

/// The result of one access against a [`MemorySystem`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total latency observed by the core, including any persistence stall.
    pub latency: Cycle,
    /// The portion of `latency` that was persistence stall (barriers,
    /// NVM backpressure). Reported separately for overhead decomposition.
    pub persist_stall: Cycle,
    /// The value read (loads) or written (stores). The runner checks load
    /// values against its golden model — a sequentially-consistent
    /// interleaving must return exactly the last token stored to the line.
    pub value: Token,
}

/// A full memory system under test: hierarchy + persistence scheme.
pub trait MemorySystem {
    /// Short scheme name as used in the paper's figures
    /// (e.g. `"NVOverlay"`, `"PiCL"`, `"SW Logging"`).
    fn name(&self) -> &'static str;

    /// Performs one memory access issued by `core` at time `now`.
    fn access(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        token: Token,
        now: Cycle,
    ) -> AccessOutcome;

    /// Handles an explicit epoch boundary requested by `core`'s thread.
    /// Returns any stall the boundary imposes on the requesting core.
    fn epoch_mark(&mut self, core: CoreId, now: Cycle) -> Cycle;

    /// Finishes the run at time `now`: closes the final epoch and drains
    /// dirty state to persistence.
    fn finish(&mut self, now: Cycle);

    /// The scheme's statistics block.
    fn stats(&self) -> &SystemStats;

    /// The scheme's hierarchical metrics tree. The default covers the
    /// common [`SystemStats`] block; schemes with deeper structure
    /// (per-OMC, per-VD state) override this to publish their subtrees.
    fn metrics(&self) -> Registry {
        let mut reg = Registry::new();
        self.stats().metrics_into(&mut reg, "sys");
        reg
    }

    /// Whether the scheme supports island-sharded replay
    /// ([`Runner::run_packed_sharded_prof`]). Schemes whose persistence
    /// mechanism is inherently machine-global (e.g. whole-machine
    /// shadow checkpointing) return `false` and are replayed serially.
    fn shardable(&self) -> bool {
        true
    }

    /// Deposits `token` as the home-memory content of `line` — the
    /// epoch-barrier import of a remote island's write. Applied only if
    /// no cache in this system holds the line (a cached local copy is
    /// newer by the sharded-replay ordering); returns whether the
    /// deposit was applied so the caller can mirror it into its golden
    /// model. The default (no home memory to write) applies nothing.
    fn import_line(&mut self, _line: LineAddr, _token: Token) -> bool {
        false
    }

    /// Applies one window's canonical exchange run in a single batch:
    /// every entry not written by `island` itself is offered to
    /// [`MemorySystem::import_line`] semantics, applied deposits are
    /// mirrored into `golden`, and the applied count is returned. The
    /// default loops `import_line`; schemes with a home memory override
    /// this to hoist the per-line dispatch (cache peeks + DRAM write)
    /// into one pass over the sorted run.
    fn import_lines(
        &mut self,
        entries: &[crate::shard::ExchangeEntry],
        island: u16,
        golden: &mut Oracle,
    ) -> u64 {
        let mut applied = 0;
        for e in entries {
            if e.src != island && self.import_line(e.line, e.token) {
                golden.insert(e.line, e.token);
                applied += 1;
            }
        }
        applied
    }

    /// The scheme's most advanced epoch, published at shard barriers so
    /// islands can Lamport-sync. Schemes without epoch state report 0.
    fn epoch_floor(&self) -> u64 {
        0
    }

    /// Raises every epoch domain to at least `floor` (the barrier's
    /// Lamport sync: a domain observing a newer epoch advances to it).
    /// Returns the stall this imposes on the scheme's cores. The
    /// default (no epoch state) does nothing.
    fn raise_epoch_floor(&mut self, _floor: u64, _now: Cycle) -> Cycle {
        0
    }
}

/// A cache hierarchy a scheme runs on: the [`Coherence`] engine under a
/// line policy, wrapped with the policy's maintenance operations (walks,
/// flushes, drains).
pub trait Machine: DerefMut<Target = Coherence<<Self as Machine>::Policy>> {
    /// The engine's line policy.
    type Policy: LinePolicy;
}

/// The events a scheme's hierarchy reports.
pub type SchemeEvent<S> = <<<S as SchemeHooks>::Hier as Machine>::Policy as LinePolicy>::Event;

/// What every scheme owns: its hierarchy, an NVM device, the stats block,
/// each core's earliest resume time after a global quiesce, and the
/// recycled buffer the per-access drain swaps with the policy's.
pub struct SchemeCore<H: Machine> {
    /// The cache hierarchy.
    pub hier: H,
    /// The scheme's NVM device.
    pub nvm: Nvm,
    /// Statistics; the device counters are copied in at `finish`.
    pub stats: SystemStats,
    core_resume: Vec<Cycle>,
    events: Vec<<H::Policy as LinePolicy>::Event>,
}

impl<H: Machine> SchemeCore<H> {
    /// Wraps `hier` with an NVM device built from its configuration.
    pub fn new(hier: H) -> Self {
        let cfg = hier.config();
        Self {
            nvm: Nvm::new(
                cfg.nvm_banks,
                cfg.nvm_write_latency,
                cfg.nvm_read_latency,
                cfg.nvm_queue_depth,
                cfg.bandwidth_bucket_cycles,
            ),
            stats: SystemStats::new(cfg.bandwidth_bucket_cycles),
            core_resume: vec![0; cfg.cores as usize],
            events: Vec::new(),
            hier,
        }
    }

    /// The cache hierarchy (inspection).
    pub fn hierarchy(&self) -> &H {
        &self.hier
    }

    /// The NVM device (byte and wear accounting).
    pub fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    /// Halts every core until `t` (a global quiesce: a software epoch
    /// flush or a synchronous mapping-table update). Each core pays the
    /// rest of the halt on its next access.
    pub fn stall_all_until(&mut self, t: Cycle) {
        for r in &mut self.core_resume {
            *r = (*r).max(t);
        }
    }
}

/// Implements `Deref`/`DerefMut` from a scheme type to its `core:
/// SchemeCore<$hier>` field, as [`SchemeHooks`] requires.
#[macro_export]
macro_rules! deref_scheme_core {
    ($scheme:ty, $hier:ty) => {
        impl ::std::ops::Deref for $scheme {
            type Target = $crate::memsys::SchemeCore<$hier>;
            fn deref(&self) -> &Self::Target {
                &self.core
            }
        }
        impl ::std::ops::DerefMut for $scheme {
            fn deref_mut(&mut self) -> &mut Self::Target {
                &mut self.core
            }
        }
    };
}

impl<H: Machine + fmt::Debug> fmt::Debug for SchemeCore<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeCore")
            .field("hier", &self.hier)
            .finish()
    }
}

/// What a scheme adds to its [`SchemeCore`]. Every type with these hooks
/// is a [`MemorySystem`] through one blanket impl: one access path, one
/// event drain, one stall sum. Dispatch is static, so each scheme's hooks
/// inline into its own access path. A scheme that persists nothing (the
/// ideal system) keeps the defaults.
pub trait SchemeHooks: DerefMut<Target = SchemeCore<<Self as SchemeHooks>::Hier>> {
    /// The hierarchy the scheme runs on.
    type Hier: Machine;

    /// The scheme's name ([`MemorySystem::name`]).
    fn label(&self) -> &'static str;

    /// Handles a non-empty batch of events, from one access or from a
    /// drain the scheme asked for, at `now`; returns the stall they
    /// impose. The default ignores them.
    fn on_events(&mut self, _events: &[SchemeEvent<Self>], _now: Cycle) -> Cycle {
        0
    }

    /// An explicit epoch boundary requested by `core`'s thread; returns
    /// the stall charged to it. The default does nothing.
    fn on_mark(&mut self, _core: CoreId, _now: Cycle) -> Cycle {
        0
    }

    /// Closes the final epoch and drains dirty state to persistence. The
    /// shell then copies the device counters into the stats block.
    fn on_finish(&mut self, now: Cycle);

    /// [`MemorySystem::shardable`].
    fn can_shard(&self) -> bool {
        true
    }

    /// [`MemorySystem::epoch_floor`].
    fn max_epoch(&self) -> u64 {
        0
    }

    /// [`MemorySystem::raise_epoch_floor`], without the stats update.
    fn raise_epochs_to(&mut self, _floor: u64, _now: Cycle) -> Cycle {
        0
    }

    /// Publishes metrics beyond the `sys` stats block.
    fn extra_metrics(&self, _reg: &mut Registry) {}

    /// Hands the policy's pending events to [`SchemeHooks::on_events`] at
    /// `now` and returns its stall; no events, no call (most L1 hits).
    /// The event buffer is swapped with a recycled one, so the per-access
    /// drain allocates nothing in steady state. Schemes call this, never
    /// override it.
    fn drain_events(&mut self, now: Cycle) -> Cycle {
        if self.hier.policy.events_mut().is_empty() {
            return 0;
        }
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        std::mem::swap(self.hier.policy.events_mut(), &mut events);
        let stall = self.on_events(&events, now);
        self.events = events;
        stall
    }
}

impl<S: SchemeHooks> MemorySystem for S {
    fn name(&self) -> &'static str {
        self.label()
    }

    /// The access path of every scheme: the quiesce this core still owes,
    /// the hierarchy access, then the event drain at the access's
    /// completion time.
    #[inline]
    fn access(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        token: Token,
        now: Cycle,
    ) -> AccessOutcome {
        let quiesce = self.core_resume[core.index()].saturating_sub(now);
        let (lat, hier_stall, value) = self.hier.access(core, op, addr, token);
        let stall = self.drain_events(now + quiesce + lat);
        let persist_stall = quiesce + hier_stall + stall;
        self.stats.persist_stall_cycles += persist_stall;
        AccessOutcome {
            latency: lat + quiesce + stall,
            persist_stall,
            value,
        }
    }

    fn epoch_mark(&mut self, core: CoreId, now: Cycle) -> Cycle {
        let stall = self.on_mark(core, now);
        self.stats.persist_stall_cycles += stall;
        stall
    }

    fn finish(&mut self, now: Cycle) {
        self.on_finish(now);
        let core = &mut **self;
        core.stats.nvm = core.nvm.stats().clone();
        core.stats.nvm_bandwidth = core.nvm.bandwidth().clone();
        core.stats.access = core.hier.counters().clone();
    }

    fn stats(&self) -> &SystemStats {
        &self.stats
    }

    fn metrics(&self) -> Registry {
        let mut reg = Registry::new();
        self.stats.metrics_into(&mut reg, "sys");
        self.extra_metrics(&mut reg);
        reg
    }

    fn shardable(&self) -> bool {
        self.can_shard()
    }

    fn import_line(&mut self, line: LineAddr, token: Token) -> bool {
        self.hier.import_line(line, token)
    }

    fn import_lines(
        &mut self,
        entries: &[crate::shard::ExchangeEntry],
        island: u16,
        golden: &mut Oracle,
    ) -> u64 {
        self.hier.import_lines(entries, island, golden)
    }

    fn epoch_floor(&self) -> u64 {
        self.max_epoch()
    }

    fn raise_epoch_floor(&mut self, floor: u64, now: Cycle) -> Cycle {
        let stall = self.raise_epochs_to(floor, now);
        self.stats.persist_stall_cycles += stall;
        stall
    }
}

/// Summary of one [`Runner::run`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock cycles: the largest core clock when the last access
    /// retired (persistence `finish` work is reported separately, matching
    /// the paper's methodology of overlapping background persistence).
    pub cycles: Cycle,
    /// Sum of persistence stalls over all cores.
    pub stall_cycles: Cycle,
    /// Accesses executed.
    pub accesses: u64,
    /// Loads whose returned value did not match the golden model (must be
    /// zero for a coherent memory system; also debug-asserted).
    pub load_value_mismatches: u64,
    /// The final logical memory image (line → last token stored, in the
    /// executed interleaving order). Used as the golden image for recovery
    /// verification.
    pub golden_image: Oracle,
}

/// Cycles between consecutive memory accesses of one core: the
/// non-memory instructions a recorded access stands for (the paper's
/// cores are 4-way superscalar). 20 cycles puts the ideal system's NVM
/// write density in the regime the paper's Fig 17 bandwidth curves show
/// (averages of a few GB/s against a ~7.7 GB/s device).
pub const GAP_CYCLES: Cycle = 20;

/// Deterministic trace runner. Every core waits [`GAP_CYCLES`] after each
/// access.
#[derive(Clone, Debug, Default)]
pub struct Runner;

impl Runner {
    /// A runner.
    pub fn new() -> Self {
        Self
    }

    /// Replays `trace` against `system`. Thread *i* runs on core *i*.
    ///
    /// Convenience wrapper: packs the trace and delegates to
    /// [`Runner::run_packed`] — identical interleaving and results.
    ///
    /// # Panics
    /// The runner does not check the trace's thread count against the
    /// system's cores. A trace with more threads than cores panics inside
    /// the system, which indexes its per-core state by `CoreId`.
    pub fn run<S: MemorySystem + ?Sized>(&self, system: &mut S, trace: &Trace) -> RunReport {
        self.run_packed(system, &trace.to_packed())
    }

    /// Replays a packed trace against `system`: one run of the replay
    /// loop to the stream ends. The per-thread streams are contiguous
    /// 16-byte [`crate::trace::PackedEvent`]s, so the cursor walk streams
    /// through one flat vector instead of chasing nested `Vec`s.
    ///
    /// Generic over the concrete system type: calling this with a concrete
    /// `S` monomorphizes the loop and inlines the scheme's access path
    /// into it; `&mut dyn MemorySystem` still works for callers that hold
    /// schemes behind a trait object.
    ///
    /// # Panics
    /// See [`Runner::run`].
    pub fn run_packed<S: MemorySystem + ?Sized>(
        &self,
        system: &mut S,
        trace: &PackedTrace,
    ) -> RunReport {
        let mut replay = Replay::new(trace);
        let ends: Vec<usize> = replay.streams.iter().map(|s| s.len()).collect();
        replay.run(system, |i| ends[i]);
        replay.finish(system)
    }

    /// Replays a packed trace sharded across islands (see
    /// [`crate::shard::ShardPlan`]): each island drives its own
    /// sub-machine (built by `factory` from the island configuration)
    /// through the plan's windows, rendezvousing at epoch barriers to
    /// align clocks, Lamport-sync epochs, and import the canonical
    /// cross-island exchange.
    ///
    /// `workers` is purely an execution knob: islands are fixed by the
    /// plan, barriers are max-reductions over all islands, and imports
    /// are trace-derived, so the report is **byte-identical for every
    /// worker count** (the differential tests pin 1 vs 2 vs 4 vs 8).
    /// The physical thread count is capped at the host's available
    /// parallelism — oversubscription cannot help, and the invariance
    /// makes the cap unobservable.
    /// Per-island stats, metrics and golden images are merged on the
    /// calling thread in ascending island order; worker-thread trace
    /// recorders are absorbed into the caller's recorder (per-kind
    /// event counts are worker-invariant, event order is not).
    ///
    /// With `profiled` set, every island accumulates a
    /// [`crate::prof::WindowCell`] per barrier window (events replayed,
    /// simulated arrival/aligned clocks, import tallies, and the
    /// wall-time of its compute / exchange-apply / epoch-sync phases),
    /// every worker accumulates its rendezvous wait, and the caller
    /// times the ascending-island merge; the assembled
    /// [`crate::prof::ShardProfile`] rides back next to the report. The
    /// accumulators are thread-local to the owning worker and read the
    /// monotonic clock only at window granularity, so the profiled path
    /// stays within a few per-window `Instant` reads of the unprofiled
    /// one — and the simulation itself is untouched either way: the
    /// report is byte-identical with and without profiling, and the
    /// profile's structural counters are byte-identical across worker
    /// counts (`nvbench/tests/profile_determinism.rs`).
    ///
    /// Independently of profiling, setting `NVO_PROGRESS` (to a
    /// heartbeat interval in seconds; any non-numeric value means 5)
    /// spawns a watchdog that reports per-shard windows-completed with
    /// an ETA on stderr and flags a barrier that has stopped making
    /// progress instead of letting the run hang silently.
    ///
    /// # Panics
    /// Panics if the plan and trace disagree (wrong thread count) or if
    /// the factory builds a system with fewer cores than an island has
    /// threads.
    pub fn run_packed_sharded_prof<S, F>(
        &self,
        factory: F,
        trace: &PackedTrace,
        plan: &crate::shard::ShardPlan,
        workers: usize,
        profiled: bool,
    ) -> (ShardedRunReport, Option<crate::prof::ShardProfile>)
    where
        S: MemorySystem,
        F: Fn(usize) -> S + Sync,
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{Barrier, Mutex};
        use std::time::Instant;

        let run_t0 = profiled.then(Instant::now);
        let islands = plan.island_count();
        let windows = plan.window_count();
        // Physical threads are additionally capped at the host's
        // parallelism: on an oversubscribed host, extra workers only add
        // context switches and barrier parks. The report is
        // worker-count-invariant by construction — the count only picks
        // which thread replays which island — so the cap is unobservable
        // in the results; the differential tests pin exactly that.
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let nworkers = workers.clamp(1, islands.max(1)).min(host.max(1));
        debug_assert_eq!(
            (0..islands)
                .map(|i| plan.island(i).threads.len())
                .sum::<usize>(),
            trace.thread_count(),
            "plan was derived from a different trace"
        );

        let clock_pub: Vec<AtomicU64> = (0..islands).map(|_| AtomicU64::new(0)).collect();
        let epoch_pub: Vec<AtomicU64> = (0..islands).map(|_| AtomicU64::new(0)).collect();
        let barrier = Barrier::new(nworkers);
        let slots: Vec<Mutex<Option<IslandOutcome>>> =
            (0..islands).map(|_| Mutex::new(None)).collect();
        let trace_cfg = crate::nvtrace::active_config();
        let worker_logs: Vec<Mutex<Option<crate::nvtrace::TraceLog>>> =
            (0..nworkers).map(|_| Mutex::new(None)).collect();
        let worker_profs: Vec<Mutex<Option<crate::prof::WorkerProfile>>> =
            (0..nworkers).map(|_| Mutex::new(None)).collect();
        let watchdog = ProgressWatchdog::from_env(islands, windows as u64);

        std::thread::scope(|scope| {
            for wid in 0..nworkers {
                let factory = &factory;
                let clock_pub = &clock_pub;
                let epoch_pub = &epoch_pub;
                let barrier = &barrier;
                let slots = &slots;
                let worker_logs = &worker_logs;
                let worker_profs = &worker_profs;
                let watchdog = &watchdog;
                scope.spawn(move || {
                    let worker_t0 = profiled.then(Instant::now);
                    // Contiguous lap clock: each boundary charges the
                    // segment since the previous boundary, so the phase
                    // counters tile the worker's lifetime and loop
                    // overhead cannot escape attribution.
                    let mut last = worker_t0;
                    let mut wp = crate::prof::WorkerProfile {
                        worker: wid,
                        ..Default::default()
                    };
                    if let Some(tc) = trace_cfg {
                        crate::nvtrace::install(tc);
                    }
                    // This worker's islands, ascending.
                    let mine: Vec<usize> = (wid..islands).step_by(nworkers).collect();
                    let mut runs: Vec<IslandRun<'_, S>> = mine
                        .iter()
                        .map(|&i| {
                            let t0 = profiled.then(Instant::now);
                            let mut run = IslandRun::new(factory(i), plan, i, profiled);
                            if let (Some(t0), Some(p)) = (t0, run.prof.as_mut()) {
                                p.setup_ns = t0.elapsed().as_nanos() as u64;
                            }
                            run
                        })
                        .collect();
                    wp.compute_ns += lap(&mut last);
                    for w in 0..windows {
                        for run in &mut runs {
                            crate::nvtrace::set_shard(run.island as u16 + 1);
                            run.run_window(plan, w);
                        }
                        if plan.is_rendezvous(w) {
                            for run in &mut runs {
                                clock_pub[run.island]
                                    .store(run.replay.max_clock(), Ordering::Relaxed);
                                epoch_pub[run.island]
                                    .store(run.sys.epoch_floor(), Ordering::Relaxed);
                            }
                            wp.compute_ns += lap(&mut last);
                            // Rendezvous 1: every island's clock and epoch
                            // floor is published. The max-reductions below
                            // are order-independent, so every worker
                            // computes identical barrier targets.
                            barrier.wait();
                            let t_max = clock_pub.iter().map(|c| c.load(Ordering::Relaxed)).max();
                            let e_max = epoch_pub.iter().map(|c| c.load(Ordering::Relaxed)).max();
                            let (t_max, e_max) = (t_max.unwrap_or(0), e_max.unwrap_or(0));
                            // Rendezvous 2: nobody republishes for window
                            // w+1 until everyone has read window w's maxima.
                            barrier.wait();
                            wp.barrier_ns += lap(&mut last);
                            for run in &mut runs {
                                crate::nvtrace::set_shard(run.island as u16 + 1);
                                run.barrier_sync(plan, w, t_max, e_max);
                            }
                            wp.exchange_ns += lap(&mut last);
                        } else {
                            // Silent window: the plan proves this barrier
                            // would move nothing — empty exchange run, no
                            // epoch marks, and lockstep whole-epoch floor
                            // advances — so workers free-run into the
                            // next window.
                            for run in &mut runs {
                                run.mark_silent(plan, w);
                            }
                            wp.compute_ns += lap(&mut last);
                        }
                        if let Some(wd) = watchdog {
                            for run in &runs {
                                wd.board.windows_done[run.island]
                                    .store(w as u64 + 1, Ordering::Relaxed);
                            }
                        }
                    }
                    let mut pkg_ns = 0u64;
                    for run in runs {
                        let island = run.island;
                        let out = run.finish();
                        if let Some(p) = out.prof.as_ref() {
                            pkg_ns += p.package_ns;
                        }
                        *slots[island].lock().expect("island slot") = Some(out);
                    }
                    // The finish laps mix the persistence drain
                    // (compute) with outcome packaging; the islands'
                    // own package_ns splits the segment.
                    let seg = lap(&mut last);
                    let pkg = pkg_ns.min(seg);
                    wp.package_ns += pkg;
                    wp.compute_ns += seg - pkg;
                    crate::nvtrace::set_shard(0);
                    if trace_cfg.is_some() {
                        *worker_logs[wid].lock().expect("log slot") = crate::nvtrace::take();
                    }
                    if let Some(t0) = worker_t0 {
                        wp.elapsed_ns = t0.elapsed().as_nanos() as u64;
                        *worker_profs[wid].lock().expect("prof slot") = Some(wp);
                    }
                });
            }
        });
        if let Some(wd) = watchdog {
            wd.finish();
        }

        // Absorb worker trace logs into the caller's recorder.
        for slot in worker_logs {
            if let Some(log) = slot.into_inner().expect("log slot") {
                crate::nvtrace::absorb(&log);
            }
        }

        // Merge island outcomes in ascending island order — fixed
        // regardless of which worker ran which island.
        let merge_t0 = profiled.then(Instant::now);
        let mut island_profiles: Vec<crate::prof::IslandProfile> = Vec::new();
        let mut report = ShardedRunReport {
            cycles: 0,
            stall_cycles: 0,
            accesses: 0,
            load_value_mismatches: 0,
            imported_lines: 0,
            islands,
            workers: nworkers,
            windows: windows as u64,
            rendezvous_windows: plan.rendezvous_count() as u64,
            stats: SystemStats::default(),
            metrics: crate::metrics::Registry::new(),
            golden_image: Oracle::new(),
        };
        let mut first = true;
        for slot in slots {
            let o = slot
                .into_inner()
                .expect("island slot")
                .expect("every island ran");
            report.cycles = report.cycles.max(o.report.cycles);
            report.stall_cycles += o.report.stall_cycles;
            report.accesses += o.report.accesses;
            report.load_value_mismatches += o.report.load_value_mismatches;
            report.imported_lines += o.imported;
            if first {
                report.stats = o.stats;
                report.metrics = crate::metrics::Registry::from_frozen(o.metrics);
                first = false;
            } else {
                report.stats.merge(&o.stats);
                report
                    .metrics
                    .merge(&crate::metrics::Registry::from_frozen(o.metrics));
            }
            for (line, token) in &o.report.golden_image {
                report.golden_image.insert(line, *token);
            }
            if let Some(p) = o.prof {
                island_profiles.push(p);
            }
        }
        let profile = merge_t0.map(|t0| {
            let merge_ns = t0.elapsed().as_nanos() as u64;
            crate::prof::ShardProfile {
                islands,
                windows,
                workers: nworkers,
                window_stores: plan.window_stores(),
                rendezvous_windows: plan.rendezvous_count() as u64,
                exchange_entries: (0..windows)
                    .map(|w| plan.exchange(w).len() as u64)
                    .collect(),
                island_profiles,
                worker_profiles: worker_profs
                    .into_iter()
                    .map(|s| s.into_inner().expect("prof slot").expect("worker profiled"))
                    .collect(),
                merge_ns,
                plan_build_ns: 0,
                total_ns: run_t0.expect("profiled").elapsed().as_nanos() as u64,
            }
        });
        (report, profile)
    }
}

/// The replay state of one machine: per-core clocks and cursors over
/// its per-thread streams (thread *i* runs on core *i*), the golden
/// load-value oracle, and the access and mismatch counts. Serial replay
/// runs it once to the stream ends; an island runs it window by window.
struct Replay<'t> {
    clocks: Vec<CoreClock>,
    cursors: Vec<usize>,
    streams: Vec<&'t [PackedEvent]>,
    golden: Oracle,
    accesses: u64,
    mismatches: u64,
}

impl<'t> Replay<'t> {
    fn new(trace: &'t PackedTrace) -> Self {
        let n = trace.thread_count();
        Self {
            clocks: (0..n).map(|_| CoreClock::new()).collect(),
            cursors: vec![0; n],
            streams: (0..n).map(|i| trace.thread(ThreadId(i as u16))).collect(),
            golden: Oracle::new(),
            accesses: 0,
            mismatches: 0,
        }
    }

    fn max_clock(&self) -> Cycle {
        self.clocks.iter().map(|c| c.now()).max().unwrap_or(0)
    }

    /// Replays every core `i` up to event `end(i)` of its stream, always
    /// advancing the core with the smallest clock.
    fn run<S: MemorySystem + ?Sized>(&mut self, system: &mut S, end: impl Fn(usize) -> usize) {
        let Self {
            clocks,
            cursors,
            streams,
            golden,
            ..
        } = self;
        // Index reborrowed slices, not the `Vec`s behind `&mut`: indexing
        // through the `Vec`s measured a few percent slower serial replay.
        let (clocks, cursors, streams) = (&mut clocks[..], &mut cursors[..], &streams[..]);
        // Next wake time per core, `Cycle::MAX` once it reaches its end.
        // Core counts are small (≤64), so a linear scan-min beats a
        // binary heap's branchy sift per event; scanning in ascending
        // core order with a strict `<` reproduces the min-heap's
        // (clock, core-id) tie-break exactly.
        let mut wake: Vec<Cycle> = (0..streams.len())
            .map(|i| {
                if cursors[i] < end(i) {
                    clocks[i].now()
                } else {
                    Cycle::MAX
                }
            })
            .collect();
        let (mut accesses, mut mismatches) = (0u64, 0u64);
        loop {
            let mut i = usize::MAX;
            let mut t = Cycle::MAX;
            for (c, &w) in wake.iter().enumerate() {
                if w < t {
                    t = w;
                    i = c;
                }
            }
            if i == usize::MAX {
                break;
            }
            let core = CoreId(i as u16);
            debug_assert_eq!(clocks[i].now(), t);
            let e = streams[i][cursors[i]];
            if !e.is_mark() {
                let (op, addr, token) = (e.op(), e.addr(), e.token());
                let out = system.access(core, op, addr, token, t);
                let lat = out.latency.max(1);
                clocks[i].advance(lat - out.persist_stall.min(lat));
                clocks[i].stall(out.persist_stall.min(lat));
                clocks[i].advance(GAP_CYCLES);
                match op {
                    MemOp::Store => {
                        golden.insert(addr.line(), token);
                    }
                    MemOp::Load => {
                        let expect = golden.get(addr.line()).copied().unwrap_or(0);
                        if out.value != expect {
                            mismatches += 1;
                            debug_assert_eq!(out.value, expect, "stale load of {addr} on {core}");
                        }
                    }
                }
                accesses += 1;
            } else {
                let stall = system.epoch_mark(core, t);
                clocks[i].stall(stall);
                clocks[i].advance(1);
            }
            cursors[i] += 1;
            wake[i] = if cursors[i] < end(i) {
                clocks[i].now()
            } else {
                Cycle::MAX
            };
        }
        self.accesses += accesses;
        self.mismatches += mismatches;
    }

    /// Finishes `system` at the largest core clock and reports the run.
    fn finish<S: MemorySystem + ?Sized>(self, system: &mut S) -> RunReport {
        let cycles = self.max_clock();
        system.finish(cycles);
        RunReport {
            cycles,
            stall_cycles: self.clocks.iter().map(|c| c.stall_cycles()).sum(),
            accesses: self.accesses,
            load_value_mismatches: self.mismatches,
            golden_image: self.golden,
        }
    }
}

/// Advance a contiguous lap clock: charge the segment since the last
/// boundary and move the boundary to now. `None` (unprofiled) charges
/// nothing and reads no clock.
fn lap(last: &mut Option<std::time::Instant>) -> u64 {
    match last {
        Some(t0) => {
            let now = std::time::Instant::now();
            let d = now.duration_since(*t0).as_nanos() as u64;
            *last = Some(now);
            d
        }
        None => 0,
    }
}

/// Shared state between the replay workers and the `NVO_PROGRESS`
/// monitor thread.
struct ProgressBoard {
    /// Per-island windows completed (Relaxed — diagnostic only).
    windows_done: Vec<std::sync::atomic::AtomicU64>,
    stop: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

/// The `NVO_PROGRESS` heartbeat: a monitor thread that reads per-island
/// windows-completed counters on an interval, reports progress with an
/// ETA, and flags a rendezvous that has stopped advancing (a stuck
/// barrier surfaces as a warning naming the laggard islands instead of
/// a silent hang). The monitor is a plain (non-scoped) thread so it can
/// be woken and joined after the replay scope ends.
struct ProgressWatchdog {
    board: std::sync::Arc<ProgressBoard>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressWatchdog {
    /// Arms the watchdog if `NVO_PROGRESS` is set (value = heartbeat
    /// seconds; non-numeric or non-positive values mean 5).
    fn from_env(islands: usize, total_windows: u64) -> Option<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        let interval = std::env::var("NVO_PROGRESS").ok().map(|v| {
            v.trim()
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .unwrap_or(5.0)
        })?;
        let board = std::sync::Arc::new(ProgressBoard {
            windows_done: (0..islands).map(|_| AtomicU64::new(0)).collect(),
            stop: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        });
        let monitor = std::sync::Arc::clone(&board);
        let handle = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            let tick = std::time::Duration::from_secs_f64(interval);
            let mut last_min = 0u64;
            let mut stopped = monitor.stop.lock().expect("watchdog lock");
            loop {
                let (guard, _) = monitor
                    .cv
                    .wait_timeout(stopped, tick)
                    .expect("watchdog wait");
                stopped = guard;
                if *stopped {
                    break;
                }
                let done: Vec<u64> = monitor
                    .windows_done
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect();
                let min = done.iter().copied().min().unwrap_or(0);
                let max = done.iter().copied().max().unwrap_or(0);
                let elapsed = t0.elapsed().as_secs_f64();
                if min == last_min && min < total_windows {
                    let laggards: Vec<usize> = done
                        .iter()
                        .enumerate()
                        .filter(|(_, &d)| d == min)
                        .map(|(i, _)| i)
                        .collect();
                    eprintln!(
                        "NVO_PROGRESS: no window progress in {interval:.1}s — possible stuck \
                         barrier at window {min}/{total_windows}; waiting on islands {laggards:?}"
                    );
                } else {
                    let eta = if min > 0 {
                        format!(
                            "~{:.1}s",
                            (total_windows.saturating_sub(min)) as f64 * elapsed / min as f64
                        )
                    } else {
                        "?".to_string()
                    };
                    eprintln!(
                        "NVO_PROGRESS: windows {min}/{total_windows} complete on every island \
                         (fastest at {max}), elapsed {elapsed:.1}s, eta {eta}"
                    );
                }
                last_min = min;
            }
        });
        Some(Self {
            board,
            handle: Some(handle),
        })
    }

    /// Stops and joins the monitor thread (all islands finished).
    fn finish(mut self) {
        *self.board.stop.lock().expect("watchdog lock") = true;
        self.board.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Summary of one [`Runner::run_packed_sharded_prof`].
#[derive(Clone, Debug)]
pub struct ShardedRunReport {
    /// Wall-clock cycles: the maximum island clock at the final barrier.
    pub cycles: Cycle,
    /// Persistence stalls summed over all islands' cores.
    pub stall_cycles: Cycle,
    /// Accesses executed across all islands.
    pub accesses: u64,
    /// Island-local golden-model mismatches (must be zero).
    pub load_value_mismatches: u64,
    /// Cross-island exchange entries applied (per-run determinism aid).
    pub imported_lines: u64,
    /// Number of islands in the plan.
    pub islands: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Barrier windows in the plan.
    pub windows: u64,
    /// Windows at which islands actually rendezvoused (the plan's
    /// coalesced cadence; ≤ `windows`).
    pub rendezvous_windows: u64,
    /// All islands' stats merged in ascending island order.
    pub stats: SystemStats,
    /// All islands' metrics merged in ascending island order.
    pub metrics: crate::metrics::Registry,
    /// Island golden images merged in ascending island order
    /// (diagnostic; not the serial interleaving's image).
    pub golden_image: Oracle,
}

/// Plain-data result of one island, returned from its worker.
struct IslandOutcome {
    report: RunReport,
    imported: u64,
    stats: SystemStats,
    metrics: crate::metrics::FrozenRegistry,
    prof: Option<crate::prof::IslandProfile>,
}

/// One island mid-replay: its sub-machine plus local runner state.
struct IslandRun<'t, S> {
    sys: S,
    island: usize,
    replay: Replay<'t>,
    imported: u64,
    /// Stall-attribution accumulator, owned by this island's worker
    /// (thread-local by construction — no synchronization needed).
    prof: Option<crate::prof::IslandProfile>,
}

impl<'t, S: MemorySystem> IslandRun<'t, S> {
    fn new(sys: S, plan: &'t crate::shard::ShardPlan, island: usize, profiled: bool) -> Self {
        Self {
            sys,
            island,
            // Stream the plan's pre-split island segment (local thread
            // `l` is the island's core `l`) — contiguous in memory,
            // instead of strided slices of the global trace.
            replay: Replay::new(plan.island_trace(island)),
            imported: 0,
            prof: profiled.then(|| crate::prof::IslandProfile {
                island,
                cells: Vec::with_capacity(plan.window_count()),
                ..Default::default()
            }),
        }
    }

    /// Replays this island's slice of window `w`: the shared replay
    /// loop over the island's local cores, bounded by the plan's window
    /// cuts.
    fn run_window(&mut self, plan: &crate::shard::ShardPlan, w: usize) {
        // Events replayed are counted by cursor-sum delta around the
        // whole window — zero per-event cost, profiled or not.
        let prof_t0 = self.prof.is_some().then(|| {
            (
                std::time::Instant::now(),
                self.replay.cursors.iter().sum::<usize>(),
            )
        });
        let cuts = &plan.island(self.island).cuts;
        self.replay.run(&mut self.sys, |l| cuts[l][w]);
        if let Some((t0, events_before)) = prof_t0 {
            let cell = crate::prof::WindowCell {
                events: (self.replay.cursors.iter().sum::<usize>() - events_before) as u64,
                arrive_clock: self.replay.max_clock(),
                compute_ns: t0.elapsed().as_nanos() as u64,
                ..Default::default()
            };
            self.prof.as_mut().expect("profiled").cells.push(cell);
        }
    }

    /// Applies the barrier's effects: emit the rendezvous event, align
    /// island clocks to the global maximum (idle wait, not stall),
    /// Lamport-sync the epoch floor, and import the window's canonical
    /// cross-island exchange.
    fn barrier_sync(&mut self, plan: &crate::shard::ShardPlan, w: usize, t_max: Cycle, e_max: u64) {
        crate::nvtrace::TraceScope::new(crate::nvtrace::Track::System).emit(
            crate::nvtrace::EventKind::ShardBarrier,
            self.replay.max_clock(),
            w as u64,
            t_max,
        );
        for c in &mut self.replay.clocks {
            let now = c.now();
            if now < t_max {
                c.advance(t_max - now);
            }
        }
        let sync_t0 = self.prof.is_some().then(std::time::Instant::now);
        let stall = self.sys.raise_epoch_floor(e_max, t_max);
        if stall > 0 {
            for c in &mut self.replay.clocks {
                c.stall(stall);
            }
        }
        let exch_t0 = sync_t0.map(|t0| (t0.elapsed().as_nanos() as u64, std::time::Instant::now()));
        let applied = self.sys.import_lines(
            plan.exchange(w),
            self.island as u16,
            &mut self.replay.golden,
        );
        self.imported += applied;
        if let Some((sync_ns, exch_t0)) = exch_t0 {
            let cell = self.prof.as_mut().expect("profiled").cells[w];
            // Every window's cell is pushed by run_window before its
            // barrier_sync, so index w is always present.
            let cell = crate::prof::WindowCell {
                aligned_clock: t_max,
                epoch_floor: e_max,
                sync_stall_cycles: stall,
                imports_applied: applied,
                imports_skipped: plan.exchange(w).len() as u64 - applied,
                sync_ns,
                exchange_ns: exch_t0.elapsed().as_nanos() as u64,
                ..cell
            };
            self.prof.as_mut().expect("profiled").cells[w] = cell;
        }
    }

    /// Completes the profile cell of a silent (coalesced) window: no
    /// alignment happened, so the aligned clock is the island's own
    /// arrival, and the epoch floor simply carries over from the
    /// previous cell. Pure structural bookkeeping, identical for every
    /// worker count.
    ///
    /// Debug builds re-check why the window may be silent: its exchange
    /// run is empty, and this island ran no epoch mark and retired a
    /// whole number of epochs' worth of stores, so its epoch floor moved
    /// in lockstep with every other island's without a sync.
    fn mark_silent(&mut self, plan: &crate::shard::ShardPlan, w: usize) {
        if cfg!(debug_assertions) {
            let cuts = &plan.island(self.island).cuts;
            let (mut marks, mut stores) = (0u64, 0u64);
            for (l, stream) in self.replay.streams.iter().enumerate() {
                let lo = if w == 0 { 0 } else { cuts[l][w - 1] };
                for e in &stream[lo..cuts[l][w]] {
                    marks += u64::from(e.is_mark());
                    stores += u64::from(!e.is_mark() && e.op() == MemOp::Store);
                }
            }
            debug_assert!(
                plan.exchange(w).is_empty()
                    && marks == 0
                    && stores.is_multiple_of(plan.epoch_size_stores()),
                "window {w} is silent but island {} moves state across the barrier \
                 (exchange {}, marks {marks}, stores {stores})",
                self.island,
                plan.exchange(w).len()
            );
        }
        if let Some(p) = self.prof.as_mut() {
            let prev_floor = if w == 0 {
                0
            } else {
                p.cells[w - 1].epoch_floor
            };
            let cell = &mut p.cells[w];
            cell.aligned_clock = cell.arrive_clock;
            cell.epoch_floor = prev_floor;
        }
    }

    fn finish(self) -> IslandOutcome {
        let IslandRun {
            mut sys,
            replay,
            imported,
            mut prof,
            ..
        } = self;
        let finish_t0 = prof.is_some().then(std::time::Instant::now);
        let report = replay.finish(&mut sys);
        if let (Some(t0), Some(p)) = (finish_t0, prof.as_mut()) {
            p.finish_ns = t0.elapsed().as_nanos() as u64;
            p.final_clock = report.cycles;
        }
        let package_t0 = prof.is_some().then(std::time::Instant::now);
        let stats = sys.stats().clone();
        let metrics = sys.metrics().into_frozen();
        // Deallocating the island sub-machine is real per-island wall
        // time (NVOverlay's device maps run to megabytes) — charge it
        // to outcome packaging rather than letting it leak out of the
        // attribution.
        drop(sys);
        if let (Some(t0), Some(p)) = (package_t0, prof.as_mut()) {
            p.package_ns = t0.elapsed().as_nanos() as u64;
        }
        IslandOutcome {
            report,
            imported,
            stats,
            metrics,
            prof,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    /// A trivial memory system: fixed latency, records the order of
    /// accesses it saw.
    struct FixedLatency {
        latency: Cycle,
        seen: Vec<(u16, u64)>,
        stats: SystemStats,
    }

    impl FixedLatency {
        fn new(latency: Cycle) -> Self {
            Self {
                latency,
                seen: Vec::new(),
                stats: SystemStats::default(),
            }
        }
    }

    impl MemorySystem for FixedLatency {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn access(
            &mut self,
            core: CoreId,
            _op: MemOp,
            addr: Addr,
            _token: Token,
            _now: Cycle,
        ) -> AccessOutcome {
            self.seen.push((core.0, addr.raw()));
            AccessOutcome {
                latency: self.latency,
                persist_stall: 0,
                value: _token,
            }
        }
        fn epoch_mark(&mut self, _core: CoreId, _now: Cycle) -> Cycle {
            7
        }
        fn finish(&mut self, _now: Cycle) {}
        fn stats(&self) -> &SystemStats {
            &self.stats
        }
    }

    #[test]
    fn interleaving_is_round_robin_for_equal_latencies() {
        let mut b = TraceBuilder::new(2);
        for i in 0..3 {
            b.store(ThreadId(0), Addr::new(i * 64));
            b.store(ThreadId(1), Addr::new((i + 100) * 64));
        }
        let trace = b.build();
        let mut sys = FixedLatency::new(4);
        let report = Runner::new().run(&mut sys, &trace);
        assert_eq!(report.accesses, 6);
        // Equal clocks tie-break by core id deterministically.
        let cores: Vec<u16> = sys.seen.iter().map(|(c, _)| *c).collect();
        assert_eq!(cores, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(report.cycles, 3 * (4 + 20));
    }

    #[test]
    fn golden_image_reflects_last_store_in_interleaved_order() {
        let mut b = TraceBuilder::new(2);
        let t0 = b.store(ThreadId(0), Addr::new(0));
        let _t1 = b.store(ThreadId(1), Addr::new(64));
        let t2 = b.store(ThreadId(1), Addr::new(0)); // overwrites line 0
        let trace = b.build();
        let mut sys = FixedLatency::new(4);
        let report = Runner::new().run(&mut sys, &trace);
        // Core 1's second access (t2) lands after core 0's first (t0):
        // clocks: c0 access at 0, c1 access at 0, c1 access at 24.
        let _ = t0;
        assert_eq!(report.golden_image.get(LineAddr::new(0)), Some(&t2));
        assert_eq!(report.golden_image.len(), 2);
    }

    #[test]
    fn epoch_marks_charge_the_reported_stall() {
        let mut b = TraceBuilder::new(1);
        b.store(ThreadId(0), Addr::new(0));
        b.epoch_mark(ThreadId(0));
        b.store(ThreadId(0), Addr::new(64));
        let trace = b.build();
        let mut sys = FixedLatency::new(4);
        let report = Runner::new().run(&mut sys, &trace);
        assert_eq!(report.stall_cycles, 7);
        assert_eq!(report.cycles, 24 + 8 + 24);
    }

    #[test]
    fn runs_are_reproducible() {
        let mut b = TraceBuilder::new(4);
        for i in 0..50u64 {
            b.store(ThreadId((i % 4) as u16), Addr::new((i % 13) * 64));
        }
        let trace = b.build();
        let mut s1 = FixedLatency::new(3);
        let mut s2 = FixedLatency::new(3);
        let r1 = Runner::new().run(&mut s1, &trace);
        let r2 = Runner::new().run(&mut s2, &trace);
        assert_eq!(s1.seen, s2.seen);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.golden_image, r2.golden_image);
    }
}
