//! Deterministic serve reports.
//!
//! A [`ServeReport`] holds **only** values that are a pure function of
//! `(mount, plan, config)` — never wall-clock time or the worker count —
//! so two runs of the same seed can be compared with `cmp`, and runs at
//! different worker counts must serialize byte-identically (the CI smoke
//! job and the differential test both rely on this). Throughput numbers
//! live in [`crate::server::ServeOutcome::wall_secs`] and are reported
//! separately (stdout / `BENCH_serve.json`), following the structural /
//! wall-clock segregation the profiler established.

use nvsim::metrics::Registry;

/// Hit/miss/eviction counters of the retired per-shard epoch-table cache.
///
/// Shards now read the OMCs' retained tables directly, so nothing is
/// cached and every counter stays zero. Kept only because the benchmark
/// package reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident table.
    pub hits: u64,
    /// Lookups that had to materialize a table.
    pub misses: u64,
    /// Tables evicted to stay under a capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (1.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-shard slice of a serve run.
#[derive(Debug, Clone, Copy)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Queries this shard answered.
    pub queries: u64,
    /// Epoch tables consulted across all fall-through walks.
    pub fallthrough: u64,
}

/// The deterministic results of one serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scripted sessions.
    pub sessions: usize,
    /// Batches per session.
    pub batches_per_session: usize,
    /// Keys per batch.
    pub batch: usize,
    /// Total serving shards.
    pub shards: usize,
    /// Shards per OMC.
    pub subshards: usize,
    /// Load seed.
    pub seed: u64,
    /// Epoch selection, rendered (`all` / `latest` / `lo..hi`).
    pub epoch_select: String,
    /// Recoverable epoch at mount time.
    pub rec_epoch: u64,
    /// Newest epoch any OMC had seen at mount time.
    pub max_epoch_seen: u64,
    /// `max_epoch_seen - rec_epoch` (persist lag in epochs).
    pub lag: u64,
    /// Epoch the recovered image was rebuilt at.
    pub image_epoch: u64,
    /// Lines in the recovered image (the key universe).
    pub image_lines: u64,
    /// Epochs listed in the directory.
    pub epochs_listed: u64,
    /// Epochs a query may target.
    pub epochs_servable: u64,
    /// Queries flattened to shard queues.
    pub enqueued: u64,
    /// Scripted bad-epoch probe batches.
    pub probes: u64,
    /// Rejected batches by error kind, in
    /// [`crate::server::ERROR_KINDS`] order.
    pub errors: Vec<(String, u64)>,
    /// Queries answered (equals `enqueued` — every accepted query is
    /// answered).
    pub answered: u64,
    /// Answers that found a version.
    pub answers_some: u64,
    /// Answers with no version at or before the epoch.
    pub answers_none: u64,
    /// Always zero: nothing is cached (see [`CacheStats`]).
    pub cache: CacheStats,
    /// Epoch tables consulted across all walks.
    pub fallthrough: u64,
    /// FNV-1a digest over every `(session, batch, epoch, line, answer)`
    /// in canonical order — the cross-worker determinism witness.
    pub digest: u64,
    /// Per-shard breakdown (ascending shard index).
    pub per_shard: Vec<ShardReport>,
}

fn push_kv_u64(out: &mut String, indent: &str, key: &str, v: u64, comma: bool) {
    out.push_str(indent);
    out.push_str(&format!("\"{key}\": {v}"));
    out.push_str(if comma { ",\n" } else { "\n" });
}

impl ServeReport {
    /// Overall cache hit fraction (always 1.0: no lookups are counted).
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Renders the report as deterministic JSON.
    ///
    /// `workload` and `scheme` label the run (the serving layer only
    /// mounts NVOverlay schemes, but the label keeps report files
    /// self-describing alongside the bench JSON artifacts).
    pub fn to_json(&self, workload: &str, scheme: &str) -> String {
        let mut s = String::with_capacity(2048 + self.per_shard.len() * 160);
        s.push_str("{\n");
        s.push_str(&format!("  \"workload\": \"{workload}\",\n"));
        s.push_str(&format!("  \"scheme\": \"{scheme}\",\n"));
        s.push_str("  \"config\": {\n");
        push_kv_u64(&mut s, "    ", "sessions", self.sessions as u64, true);
        push_kv_u64(
            &mut s,
            "    ",
            "batches_per_session",
            self.batches_per_session as u64,
            true,
        );
        push_kv_u64(&mut s, "    ", "batch", self.batch as u64, true);
        push_kv_u64(&mut s, "    ", "shards", self.shards as u64, true);
        push_kv_u64(&mut s, "    ", "subshards", self.subshards as u64, true);
        push_kv_u64(&mut s, "    ", "seed", self.seed, true);
        s.push_str(&format!("    \"epochs\": \"{}\"\n", self.epoch_select));
        s.push_str("  },\n");
        s.push_str("  \"mount\": {\n");
        push_kv_u64(&mut s, "    ", "rec_epoch", self.rec_epoch, true);
        push_kv_u64(&mut s, "    ", "max_epoch_seen", self.max_epoch_seen, true);
        push_kv_u64(&mut s, "    ", "lag", self.lag, true);
        push_kv_u64(&mut s, "    ", "image_epoch", self.image_epoch, true);
        push_kv_u64(&mut s, "    ", "image_lines", self.image_lines, true);
        push_kv_u64(&mut s, "    ", "epochs_listed", self.epochs_listed, true);
        push_kv_u64(
            &mut s,
            "    ",
            "epochs_servable",
            self.epochs_servable,
            false,
        );
        s.push_str("  },\n");
        s.push_str("  \"queries\": {\n");
        push_kv_u64(&mut s, "    ", "enqueued", self.enqueued, true);
        push_kv_u64(&mut s, "    ", "answered", self.answered, true);
        push_kv_u64(&mut s, "    ", "some", self.answers_some, true);
        push_kv_u64(&mut s, "    ", "none", self.answers_none, true);
        push_kv_u64(&mut s, "    ", "probes", self.probes, true);
        push_kv_u64(&mut s, "    ", "fallthrough", self.fallthrough, false);
        s.push_str("  },\n");
        s.push_str("  \"errors\": {\n");
        for (i, (k, v)) in self.errors.iter().enumerate() {
            push_kv_u64(&mut s, "    ", k, *v, i + 1 < self.errors.len());
        }
        s.push_str("  },\n");
        s.push_str(&format!("  \"digest\": \"{:016x}\",\n", self.digest));
        s.push_str("  \"per_shard\": [\n");
        for (i, sh) in self.per_shard.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"shard\": {}, \"queries\": {}, \"fallthrough\": {}}}{}\n",
                sh.shard,
                sh.queries,
                sh.fallthrough,
                if i + 1 < self.per_shard.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Publishes the report's counters into a metrics registry under
    /// `prefix` (e.g. `serve`), alongside the simulator's own counters.
    pub fn metrics_into(&self, reg: &mut Registry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.queries.enqueued"), self.enqueued);
        reg.set_counter(&format!("{prefix}.queries.answered"), self.answered);
        reg.set_counter(&format!("{prefix}.queries.some"), self.answers_some);
        reg.set_counter(&format!("{prefix}.queries.none"), self.answers_none);
        reg.set_counter(&format!("{prefix}.queries.fallthrough"), self.fallthrough);
        reg.set_counter(&format!("{prefix}.mount.rec_epoch"), self.rec_epoch);
        reg.set_counter(&format!("{prefix}.mount.lag"), self.lag);
        for (k, v) in &self.errors {
            reg.set_counter(&format!("{prefix}.errors.{k}"), *v);
        }
        for sh in &self.per_shard {
            let p = format!("{prefix}.shard.{:03}", sh.shard);
            reg.set_counter(&format!("{p}.queries"), sh.queries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        ServeReport {
            sessions: 2,
            batches_per_session: 3,
            batch: 4,
            shards: 2,
            subshards: 1,
            seed: 42,
            epoch_select: "all".to_string(),
            rec_epoch: 9,
            max_epoch_seen: 11,
            lag: 2,
            image_epoch: 9,
            image_lines: 100,
            epochs_listed: 9,
            epochs_servable: 9,
            enqueued: 20,
            probes: 1,
            errors: vec![
                ("epoch_zero".to_string(), 1),
                ("not_yet_recoverable".to_string(), 0),
                ("not_retained".to_string(), 0),
                ("wrapped".to_string(), 0),
            ],
            answered: 20,
            answers_some: 18,
            answers_none: 2,
            cache: CacheStats::default(),
            fallthrough: 40,
            digest: 0xdead_beef,
            per_shard: vec![
                ShardReport {
                    shard: 0,
                    queries: 12,
                    fallthrough: 22,
                },
                ShardReport {
                    shard: 1,
                    queries: 8,
                    fallthrough: 18,
                },
            ],
        }
    }

    #[test]
    fn json_is_stable_and_parsable_shape() {
        let a = sample().to_json("btree", "nvoverlay");
        let b = sample().to_json("btree", "nvoverlay");
        assert_eq!(a, b);
        assert!(a.starts_with("{\n"));
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"fallthrough\": 40\n"));
        assert!(a.contains("\"digest\": \"00000000deadbeef\""));
        assert!(a.contains("\"epoch_zero\": 1,"));
        assert!(!a.contains("cache"), "nothing is cached, so no cache block");
        // Balanced braces/brackets.
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn metrics_publishes_query_counters() {
        let mut reg = Registry::new();
        sample().metrics_into(&mut reg, "serve");
        assert_eq!(reg.counter("serve.queries.fallthrough"), Some(40));
        assert_eq!(reg.counter("serve.cache.hits"), None);
        assert_eq!(reg.counter("serve.errors.epoch_zero"), Some(1));
        assert_eq!(reg.counter("serve.shard.001.queries"), Some(8));
    }

    #[test]
    fn hit_rate_reads_one_without_lookups() {
        assert_eq!(sample().hit_rate(), 1.0);
        let mixed = CacheStats {
            hits: 1,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(mixed.hit_rate(), 0.5);
    }
}
