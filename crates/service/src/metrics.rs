//! Service-level accounting: throughput, latency percentiles, cache
//! effectiveness, and the engine work re-exported from each
//! [`dsa_core::dist::SpannerRun`].
//!
//! Counter semantics — every call to [`crate::Service::submit`] is
//! classified exactly once:
//!
//! * **cache hit** — served without an engine run, either from the
//!   in-memory LRU or from the persistent disk store (`disk_hits`
//!   counts the disk-served subset, so `disk_hits <= cache_hits`);
//! * **cache miss** — a fresh engine run was scheduled;
//! * **coalesced** — an identical job was already in flight, the
//!   submission joined it;
//! * **shed** — admission control rejected the job (queue depth or
//!   byte budget exhausted); the caller was told to retry later, no
//!   engine work was scheduled.
//!
//! So `submitted == cache_hits + cache_misses + coalesced + shed`
//! always — and not just eventually: the submitted count and its class
//! advance *together* under one lock, and [`ServiceMetrics::snapshot`]
//! reads the five counters under the same lock, so the identity holds
//! at every observation point (the `/v1/metrics` HTTP endpoint and the
//! TCP `stats` command both serve such coherent snapshots). With
//! coalescing and shedding idle the identity reads `jobs == hits +
//! misses`. Latency percentile math reuses
//! [`dsa_runtime::LatencyRecorder`] rather than duplicating it.

use dsa_runtime::sync::OrderedMutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dsa_runtime::LatencyRecorder;

/// The classification counters, advanced and snapshotted as one unit
/// so `submitted == cache_hits + cache_misses + coalesced + shed` can
/// never be observed mid-update.
#[derive(Clone, Copy, Debug, Default)]
struct Classified {
    submitted: u64,
    cache_hits: u64,
    cache_misses: u64,
    coalesced: u64,
    shed: u64,
    /// Subset of `cache_hits` answered from the persistent store
    /// (advanced under the same lock so `disk_hits <= cache_hits` is
    /// also never observed mid-update).
    disk_hits: u64,
}

/// Interior-mutable counters shared by the service, its workers, and
/// the wire/HTTP frontends.
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    started: Instant,
    classified: OrderedMutex<Classified>,
    completed: AtomicU64,
    skipped: AtomicU64,
    aborted: AtomicU64,
    panicked: AtomicU64,
    cancelled: AtomicU64,
    timed_out: AtomicU64,
    invalid: AtomicU64,
    engine_iterations: AtomicU64,
    engine_local_rounds: AtomicU64,
    /// Gauge: 1 once the persistent store has been demoted to
    /// memory-only after an append failure (ENOSPC, injected fault);
    /// the service keeps serving correct bytes, it just stops
    /// persisting. Never resets within a process lifetime.
    store_degraded: AtomicU64,
    /// Connections closed because a request or frame read exceeded its
    /// deadline (slow-loris defense).
    connections_timed_out: AtomicU64,
    /// Gauge: distinct results currently in the persistent store (0
    /// when no store is configured). Set at open, advanced on append.
    store_records: AtomicU64,
    /// Records dropped by corruption recovery when the store was
    /// opened (a counter per process lifetime; recovery happens once,
    /// at open).
    store_records_dropped: AtomicU64,
    /// Cumulative store I/O wall time, in microseconds.
    store_read_us: AtomicU64,
    store_write_us: AtomicU64,
    /// Wall time of the open-time recovery scan (log walk + warm
    /// decode), set once at open.
    store_recovery_us: AtomicU64,
    /// Gauge: named graphs currently registered (set at open from the
    /// replayed log, advanced on create/delete).
    graphs_live: AtomicU64,
    latency: OrderedMutex<LatencyRecorder>,
    hist: OrderedMutex<Histogram>,
}

/// Upper bounds (µs) of the fixed engine-run latency buckets; the
/// overflow (`+Inf`) bucket is implicit. Fixed bounds make scraped
/// histograms comparable across processes and restarts, unlike the
/// sliding p50/p95 window next to them.
pub const LATENCY_BUCKETS_US: [u64; 8] = [100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000];

/// Cumulative-friendly fixed-bucket latency histogram. Kept behind its
/// own mutex: one bucket increment per executed run.
#[derive(Clone, Copy, Debug, Default)]
struct Histogram {
    /// Per-bucket (non-cumulative) counts; the last slot is `+Inf`.
    counts: [u64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: u64,
    total: u64,
}

impl Histogram {
    fn record_micros(&mut self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.counts[idx] += 1;
        self.sum_us += us;
        self.total += 1;
    }
}

/// Latency samples retained for percentile queries. Bounding the
/// window keeps a serve-until-killed daemon's memory and per-snapshot
/// cost independent of lifetime job count; 4096 recent engine runs is
/// plenty for stable p50/p95.
const LATENCY_WINDOW: usize = 4096;

impl ServiceMetrics {
    pub fn new() -> Self {
        ServiceMetrics {
            started: Instant::now(),
            classified: OrderedMutex::new("metrics_classified", 90, Classified::default()),
            completed: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            engine_iterations: AtomicU64::new(0),
            engine_local_rounds: AtomicU64::new(0),
            store_degraded: AtomicU64::new(0),
            connections_timed_out: AtomicU64::new(0),
            store_records: AtomicU64::new(0),
            store_records_dropped: AtomicU64::new(0),
            store_read_us: AtomicU64::new(0),
            store_write_us: AtomicU64::new(0),
            store_recovery_us: AtomicU64::new(0),
            graphs_live: AtomicU64::new(0),
            latency: OrderedMutex::new(
                "metrics_latency",
                92,
                LatencyRecorder::bounded(LATENCY_WINDOW),
            ),
            hist: OrderedMutex::new("metrics_hist", 94, Histogram::default()),
        }
    }

    /// Classifying a submission counts it: `submitted` and the class
    /// advance under one lock, so the `submitted == hits + misses +
    /// coalesced` identity holds at every instant a snapshot can
    /// observe.
    pub fn on_cache_hit(&self) {
        let mut c = self.classified.lock();
        c.submitted += 1;
        c.cache_hits += 1;
    }

    pub fn on_cache_miss(&self) {
        let mut c = self.classified.lock();
        c.submitted += 1;
        c.cache_misses += 1;
    }

    /// A disk hit is a cache hit (no engine run) that was answered
    /// from the persistent store: `submitted`, `cache_hits`, and
    /// `disk_hits` advance as one unit, so the classification
    /// invariant extends coherently (`disk_hits` is a subset counter,
    /// not a fourth class).
    pub fn on_disk_hit(&self) {
        let mut c = self.classified.lock();
        c.submitted += 1;
        c.cache_hits += 1;
        c.disk_hits += 1;
    }

    pub fn on_coalesced(&self) {
        let mut c = self.classified.lock();
        c.submitted += 1;
        c.coalesced += 1;
    }

    /// Admission control rejected the job: it still counts as
    /// submitted (the caller's request was valid and classified), with
    /// class `shed`, so the classification identity extends to
    /// `submitted == hits + misses + coalesced + shed`.
    pub fn on_shed(&self) {
        let mut c = self.classified.lock();
        c.submitted += 1;
        c.shed += 1;
    }

    /// Marks the persistent store demoted to memory-only caching (an
    /// append failed; results are still correct, just not persisted).
    pub fn set_store_degraded(&self) {
        self.store_degraded.store(1, Ordering::Relaxed);
    }

    /// A connection was closed because a request/frame read exceeded
    /// its deadline (slow-loris defense).
    pub fn on_connection_timed_out(&self) {
        self.connections_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// The current 95th-percentile engine-run latency in microseconds
    /// (0 with no samples yet) — the basis of `Retry-After` hints on
    /// shed jobs.
    pub fn p95_us(&self) -> u64 {
        self.latency.lock().p95().unwrap_or(0)
    }

    /// Updates the persistent-store size gauge (records currently
    /// servable from disk).
    pub fn set_store_records(&self, records: u64) {
        self.store_records.store(records, Ordering::Relaxed);
    }

    /// Records how many corrupt records open-time recovery dropped —
    /// previously only a startup log line, now a scrapeable counter so
    /// silent data loss shows up on dashboards.
    pub fn set_store_dropped(&self, dropped: u64) {
        self.store_records_dropped.store(dropped, Ordering::Relaxed);
    }

    /// Wall time of the store open (log recovery walk + warm decode).
    pub fn set_store_recovery(&self, elapsed: Duration) {
        self.store_recovery_us
            .store(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Adds one store read (verified disk-hit lookup) to the
    /// cumulative read-time counter.
    pub fn on_store_read(&self, elapsed: Duration) {
        self.store_read_us
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Adds one store append to the cumulative write-time counter.
    pub fn on_store_write(&self, elapsed: Duration) {
        self.store_write_us
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Updates the live named-graph gauge (registered graphs that have
    /// not been deleted).
    pub fn set_graphs_live(&self, n: u64) {
        self.graphs_live.store(n, Ordering::Relaxed);
    }

    /// A response actually reached a waiting caller — the only place
    /// `jobs_completed` advances, so waiters that cancel or time out
    /// are never counted as answered.
    pub fn on_delivered(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_invalid(&self) {
        self.invalid.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_skipped(&self) {
        self.skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// An engine run that had already started was abandoned mid-flight
    /// via the in-engine cancellation flag (every waiter cancelled).
    pub fn on_aborted(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// An engine run panicked; its waiters got an error and its worker
    /// went on to the next job.
    pub fn on_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_executed(&self, iterations: u64, local_rounds: u64, latency: Duration) {
        self.engine_iterations
            .fetch_add(iterations, Ordering::Relaxed);
        self.engine_local_rounds
            .fetch_add(local_rounds, Ordering::Relaxed);
        let us = latency.as_micros() as u64;
        self.latency.lock().record_micros(us);
        self.hist.lock().record_micros(us);
    }

    /// A point-in-time view. The classification counters are copied
    /// under their shared lock, so `jobs_submitted == cache_hits +
    /// cache_misses + coalesced` holds in *every* snapshot, including
    /// ones taken while submissions race; the remaining counters are
    /// advisory (read individually).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency = self.latency.lock().clone();
        let hist = *self.hist.lock();
        let c = *self.classified.lock();
        let completed = self.completed.load(Ordering::Relaxed);
        let uptime = self.started.elapsed();
        let classified = c.cache_hits + c.cache_misses;
        MetricsSnapshot {
            jobs_submitted: c.submitted,
            jobs_completed: completed,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            coalesced: c.coalesced,
            shed: c.shed,
            disk_hits: c.disk_hits,
            store_records: self.store_records.load(Ordering::Relaxed),
            store_degraded: self.store_degraded.load(Ordering::Relaxed),
            connections_timed_out: self.connections_timed_out.load(Ordering::Relaxed),
            store_records_dropped: self.store_records_dropped.load(Ordering::Relaxed),
            store_read_us: self.store_read_us.load(Ordering::Relaxed),
            store_write_us: self.store_write_us.load(Ordering::Relaxed),
            store_recovery_us: self.store_recovery_us.load(Ordering::Relaxed),
            graphs_live: self.graphs_live.load(Ordering::Relaxed),
            graph_deltas_commuted: 0,
            graph_deltas_repaired: 0,
            graph_deltas_recomputed: 0,
            // Gauges sampled by the owner of the queue/inflight state:
            // `Service::metrics` fills them in after this snapshot.
            queue_depth: 0,
            in_flight: 0,
            latency_bucket_counts: hist.counts,
            latency_hist_sum_us: hist.sum_us,
            latency_hist_count: hist.total,
            skipped: self.skipped.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            cache_hit_rate: if classified == 0 {
                0.0
            } else {
                c.cache_hits as f64 / classified as f64
            },
            throughput_jobs_per_sec: if uptime.as_secs_f64() > 0.0 {
                completed as f64 / uptime.as_secs_f64()
            } else {
                0.0
            },
            p50_latency_us: latency.p50().unwrap_or(0),
            p95_latency_us: latency.p95().unwrap_or(0),
            mean_latency_us: latency.mean_micros(),
            engine_iterations: self.engine_iterations.load(Ordering::Relaxed),
            engine_local_rounds: self.engine_local_rounds.load(Ordering::Relaxed),
            uptime,
        }
    }
}

/// A point-in-time copy of the service counters, plus derived rates.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Jobs submitted (accepted specs; invalid ones don't count).
    pub jobs_submitted: u64,
    /// Responses actually delivered to waiting callers. Waiters that
    /// cancelled or timed out never count, so this can trail
    /// `jobs_submitted` even when every engine run finished.
    pub jobs_completed: u64,
    /// Submissions served straight from the result cache.
    pub cache_hits: u64,
    /// Submissions that scheduled a fresh engine run.
    pub cache_misses: u64,
    /// Submissions that joined an identical in-flight run.
    pub coalesced: u64,
    /// Submissions rejected by admission control (queue depth or byte
    /// budget exhausted); `jobs_submitted == cache_hits + cache_misses
    /// + coalesced + shed` in every snapshot.
    pub shed: u64,
    /// Subset of `cache_hits` served from the persistent disk store
    /// (verified against the canonical instance, then promoted into
    /// the in-memory LRU). Always 0 without a configured store.
    pub disk_hits: u64,
    /// Distinct results currently servable from the persistent store
    /// (a gauge, not a counter); 0 without a configured store.
    pub store_records: u64,
    /// Corrupt records dropped by the store's open-time recovery scan.
    /// Non-zero means the log was damaged and silently healed — the
    /// dashboards should see that, not just the startup stderr.
    pub store_records_dropped: u64,
    /// 1 once the persistent store was demoted to memory-only caching
    /// after an append failure; 0 while healthy (or with no store).
    pub store_degraded: u64,
    /// Connections closed because a request/frame read exceeded its
    /// deadline (slow-loris defense).
    pub connections_timed_out: u64,
    /// Cumulative wall time spent reading results from the store, µs.
    pub store_read_us: u64,
    /// Cumulative wall time spent appending results to the store, µs.
    pub store_write_us: u64,
    /// Wall time of the open-time recovery scan (log walk + warm
    /// decode), µs.
    pub store_recovery_us: u64,
    /// Named graphs currently registered (a gauge; created minus
    /// deleted, seeded from the replayed graph log at open).
    pub graphs_live: u64,
    /// Deprecated: graph PATCH ops are no longer classified. Kept, with
    /// its JSON key and Prometheus series, for one release; reads 0.
    pub graph_deltas_commuted: u64,
    /// Deprecated; reads 0 (see `graph_deltas_commuted`).
    pub graph_deltas_repaired: u64,
    /// Deprecated; reads 0 (see `graph_deltas_commuted`).
    pub graph_deltas_recomputed: u64,
    /// Jobs waiting in the worker-pool queue (a gauge sampled at
    /// snapshot time).
    pub queue_depth: u64,
    /// Jobs currently executing or awaiting pickup in the in-flight
    /// table (a gauge sampled at snapshot time).
    pub in_flight: u64,
    /// Engine-run latency counts per fixed bucket
    /// ([`LATENCY_BUCKETS_US`]); the last slot is the `+Inf` overflow.
    /// Non-cumulative; the Prometheus rendering accumulates.
    pub latency_bucket_counts: [u64; LATENCY_BUCKETS_US.len() + 1],
    /// Sum of all engine-run latencies ever recorded, µs (unlike the
    /// windowed mean, this never forgets).
    pub latency_hist_sum_us: u64,
    /// Engine runs recorded into the histogram.
    pub latency_hist_count: u64,
    /// Scheduled runs skipped because every waiter left (cancelled or
    /// timed out) before the run started.
    pub skipped: u64,
    /// Started engine runs abandoned mid-flight after every waiter
    /// cancelled (cooperative in-engine cancellation; nothing is
    /// cached).
    pub aborted: u64,
    /// Engine runs that panicked: their waiters got
    /// [`crate::JobError::Panicked`], nothing was cached, and the
    /// worker went on serving.
    pub panicked: u64,
    /// Handle cancellations.
    pub cancelled: u64,
    /// Waits that hit their deadline.
    pub timed_out: u64,
    /// Specs rejected by validation.
    pub invalid: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when nothing was
    /// classified yet.
    pub cache_hit_rate: f64,
    /// `jobs_completed / uptime`.
    pub throughput_jobs_per_sec: f64,
    /// Median engine-run latency over the most recent window (cache
    /// hits don't contribute).
    pub p50_latency_us: u64,
    /// 95th-percentile engine-run latency over the most recent window.
    pub p95_latency_us: u64,
    /// Mean engine-run latency over the most recent window.
    pub mean_latency_us: f64,
    /// Total engine iterations across executed runs.
    pub engine_iterations: u64,
    /// Total LOCAL rounds across executed runs
    /// ([`dsa_core::dist::SpannerRun::local_rounds`]).
    pub engine_local_rounds: u64,
    /// Time since the service started.
    pub uptime: Duration,
}

impl MetricsSnapshot {
    /// One-line JSON rendering (keys stable, no external dependency).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .latency_bucket_counts
            .iter()
            .map(|c| c.to_string())
            .collect();
        format!(
            concat!(
                "{{\"jobs_submitted\":{},\"jobs_completed\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"coalesced\":{},\"jobs_shed\":{},",
                "\"disk_hits\":{},\"store_records\":{},\"store_records_dropped\":{},",
                "\"store_degraded\":{},\"connections_timed_out\":{},",
                "\"skipped\":{},\"aborted\":{},\"panicked\":{},\"cancelled\":{},",
                "\"timed_out\":{},\"invalid\":{},",
                "\"cache_hit_rate\":{:.6},\"throughput_jobs_per_sec\":{:.3},",
                "\"p50_latency_us\":{},\"p95_latency_us\":{},\"mean_latency_us\":{:.1},",
                "\"latency_bucket_counts\":[{}],\"latency_hist_sum_us\":{},",
                "\"latency_hist_count\":{},",
                "\"queue_depth\":{},\"in_flight\":{},",
                "\"store_read_us\":{},\"store_write_us\":{},\"store_recovery_us\":{},",
                "\"graphs_live\":{},\"graph_deltas_commuted\":{},",
                "\"graph_deltas_repaired\":{},\"graph_deltas_recomputed\":{},",
                "\"engine_iterations\":{},\"engine_local_rounds\":{},",
                "\"uptime_secs\":{:.3}}}"
            ),
            self.jobs_submitted,
            self.jobs_completed,
            self.cache_hits,
            self.cache_misses,
            self.coalesced,
            self.shed,
            self.disk_hits,
            self.store_records,
            self.store_records_dropped,
            self.store_degraded,
            self.connections_timed_out,
            self.skipped,
            self.aborted,
            self.panicked,
            self.cancelled,
            self.timed_out,
            self.invalid,
            self.cache_hit_rate,
            self.throughput_jobs_per_sec,
            self.p50_latency_us,
            self.p95_latency_us,
            self.mean_latency_us,
            buckets.join(","),
            self.latency_hist_sum_us,
            self.latency_hist_count,
            self.queue_depth,
            self.in_flight,
            self.store_read_us,
            self.store_write_us,
            self.store_recovery_us,
            self.graphs_live,
            self.graph_deltas_commuted,
            self.graph_deltas_repaired,
            self.graph_deltas_recomputed,
            self.engine_iterations,
            self.engine_local_rounds,
            self.uptime.as_secs_f64(),
        )
    }

    /// Prometheus text exposition (format version 0.0.4).
    ///
    /// The rendering is a pure function of the snapshot — metric
    /// order, label order, and number formatting are all fixed — so a
    /// fixed metrics state always serializes to the same bytes
    /// (scrapers and the golden test both rely on that).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut metric = |name: &str, kind: &str, help: &str, samples: &[(String, String)]| {
            out.push_str("# HELP spanner_");
            out.push_str(name);
            out.push(' ');
            out.push_str(help);
            out.push_str("\n# TYPE spanner_");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            for (labels, value) in samples {
                out.push_str("spanner_");
                out.push_str(name);
                out.push_str(labels);
                out.push(' ');
                out.push_str(value);
                out.push('\n');
            }
        };
        let plain = |v: u64| vec![(String::new(), v.to_string())];
        let secs6 = |us: u64| format!("{:.6}", us as f64 / 1e6);

        metric(
            "build_info",
            "gauge",
            "Constant 1, labeled with the serving crate and version.",
            &[(
                format!(
                    "{{crate=\"{}\",version=\"{}\"}}",
                    escape_label_value("dsa-service"),
                    escape_label_value(env!("CARGO_PKG_VERSION")),
                ),
                "1".to_string(),
            )],
        );
        metric(
            "jobs_total",
            "counter",
            "Jobs accepted by the service (invalid specs excluded).",
            &plain(self.jobs_submitted),
        );
        metric(
            "jobs_by_class_total",
            "counter",
            "Accepted jobs by cache classification; the classes sum to spanner_jobs_total.",
            &[
                (
                    "{class=\"cache_hit\"}".to_string(),
                    self.cache_hits.to_string(),
                ),
                (
                    "{class=\"cache_miss\"}".to_string(),
                    self.cache_misses.to_string(),
                ),
                (
                    "{class=\"coalesced\"}".to_string(),
                    self.coalesced.to_string(),
                ),
                ("{class=\"shed\"}".to_string(), self.shed.to_string()),
            ],
        );
        metric(
            "disk_hits_total",
            "counter",
            "Cache hits served from the persistent store (subset of class cache_hit).",
            &plain(self.disk_hits),
        );
        metric(
            "jobs_completed_total",
            "counter",
            "Responses delivered to waiting callers.",
            &plain(self.jobs_completed),
        );
        metric(
            "jobs_skipped_total",
            "counter",
            "Scheduled runs skipped because every waiter left first.",
            &plain(self.skipped),
        );
        metric(
            "jobs_aborted_total",
            "counter",
            "Started engine runs abandoned mid-flight after every waiter cancelled.",
            &plain(self.aborted),
        );
        metric(
            "jobs_panicked_total",
            "counter",
            "Engine runs that panicked; their waiters got an error and the worker served on.",
            &plain(self.panicked),
        );
        metric(
            "jobs_cancelled_total",
            "counter",
            "Handle cancellations.",
            &plain(self.cancelled),
        );
        metric(
            "jobs_timed_out_total",
            "counter",
            "Waits that hit their deadline.",
            &plain(self.timed_out),
        );
        metric(
            "jobs_invalid_total",
            "counter",
            "Specs rejected by validation.",
            &plain(self.invalid),
        );
        metric(
            "cache_hit_ratio",
            "gauge",
            "cache_hits / (cache_hits + cache_misses).",
            &[(String::new(), format!("{:.6}", self.cache_hit_rate))],
        );
        metric(
            "queue_depth",
            "gauge",
            "Jobs waiting in the worker-pool queue.",
            &plain(self.queue_depth),
        );
        metric(
            "inflight_jobs",
            "gauge",
            "Jobs executing or awaiting pickup in the in-flight table.",
            &plain(self.in_flight),
        );
        metric(
            "connections_timed_out_total",
            "counter",
            "Connections closed because a request read exceeded its deadline.",
            &plain(self.connections_timed_out),
        );
        metric(
            "store_records",
            "gauge",
            "Distinct results currently servable from the persistent store.",
            &plain(self.store_records),
        );
        metric(
            "store_records_dropped_total",
            "counter",
            "Corrupt records dropped by the store's open-time recovery.",
            &plain(self.store_records_dropped),
        );
        metric(
            "store_degraded",
            "gauge",
            "Set once the store is demoted to memory-only caching after an append failure.",
            &plain(self.store_degraded),
        );
        metric(
            "store_read_seconds_total",
            "counter",
            "Cumulative wall time reading results from the store.",
            &[(String::new(), secs6(self.store_read_us))],
        );
        metric(
            "store_write_seconds_total",
            "counter",
            "Cumulative wall time appending results to the store.",
            &[(String::new(), secs6(self.store_write_us))],
        );
        metric(
            "store_recovery_seconds_total",
            "counter",
            "Wall time of the store's open-time recovery scan.",
            &[(String::new(), secs6(self.store_recovery_us))],
        );
        metric(
            "graphs_live",
            "gauge",
            "Named graphs currently registered (created minus deleted).",
            &plain(self.graphs_live),
        );
        metric(
            "graph_deltas_by_class_total",
            "counter",
            "Deprecated: graph PATCH ops are no longer classified; every class reads 0.",
            &[
                (
                    "{class=\"commuted\"}".to_string(),
                    self.graph_deltas_commuted.to_string(),
                ),
                (
                    "{class=\"repaired\"}".to_string(),
                    self.graph_deltas_repaired.to_string(),
                ),
                (
                    "{class=\"recomputed\"}".to_string(),
                    self.graph_deltas_recomputed.to_string(),
                ),
            ],
        );
        metric(
            "engine_iterations_total",
            "counter",
            "Engine iterations across executed runs.",
            &plain(self.engine_iterations),
        );
        metric(
            "engine_local_rounds_total",
            "counter",
            "LOCAL rounds across executed runs.",
            &plain(self.engine_local_rounds),
        );

        // Histogram: cumulative buckets over the fixed bounds, then
        // +Inf, _sum, and _count — the standard exposition shape.
        let mut hist_samples: Vec<(String, String)> = Vec::new();
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.latency_bucket_counts[i];
            hist_samples.push((
                format!("_bucket{{le=\"{}\"}}", bound as f64 / 1e6),
                cumulative.to_string(),
            ));
        }
        hist_samples.push((
            "_bucket{le=\"+Inf\"}".to_string(),
            self.latency_hist_count.to_string(),
        ));
        hist_samples.push(("_sum".to_string(), secs6(self.latency_hist_sum_us)));
        hist_samples.push(("_count".to_string(), self.latency_hist_count.to_string()));
        metric(
            "engine_run_seconds",
            "histogram",
            "Engine-run latency over fixed buckets (cache hits excluded).",
            &hist_samples,
        );

        metric(
            "engine_run_p50_seconds",
            "gauge",
            "Median engine-run latency over the recent window.",
            &[(String::new(), secs6(self.p50_latency_us))],
        );
        metric(
            "engine_run_p95_seconds",
            "gauge",
            "95th-percentile engine-run latency over the recent window.",
            &[(String::new(), secs6(self.p95_latency_us))],
        );
        metric(
            "uptime_seconds",
            "gauge",
            "Time since the service started.",
            &[(String::new(), format!("{:.3}", self.uptime.as_secs_f64()))],
        );
        out
    }
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline must be backslash-escaped per the text exposition format.
pub(crate) fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up() {
        let m = ServiceMetrics::new();
        m.on_cache_miss();
        m.on_executed(10, 70, Duration::from_micros(1_000));
        m.on_cache_hit();
        m.on_disk_hit();
        m.on_coalesced();
        m.on_cache_miss();
        m.on_executed(6, 42, Duration::from_micros(3_000));
        m.on_shed();
        m.set_store_records(2);
        // Four of the five admitted waiters collected their response;
        // the fifth (say the coalesced one) timed out first, and the
        // shed submission never got a handle at all.
        for _ in 0..4 {
            m.on_delivered();
        }
        m.on_timed_out();
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 6);
        assert_eq!(
            s.jobs_submitted,
            s.cache_hits + s.cache_misses + s.coalesced + s.shed,
            "a disk hit is a cache hit, not a fifth class"
        );
        assert_eq!(s.shed, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.store_records, 2);
        assert_eq!(s.jobs_completed, 4);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.cache_hit_rate, 0.5);
        assert_eq!(s.engine_iterations, 16);
        assert_eq!(s.engine_local_rounds, 112);
        assert_eq!(s.p50_latency_us, 1_000);
        assert_eq!(s.p95_latency_us, 3_000);
    }

    #[test]
    fn snapshot_is_coherent_under_concurrent_classification() {
        // Regression test for the snapshot race: before classification
        // moved under one lock, a snapshot could land between the
        // submitted increment and the class increment and observe
        // `jobs != hits + misses + coalesced`. Hammer the three
        // classification paths from three threads while a reader
        // asserts the identity on every snapshot.
        let m = ServiceMetrics::new();
        std::thread::scope(|scope| {
            scope.spawn(|| (0..2_000).for_each(|_| m.on_cache_hit()));
            scope.spawn(|| (0..2_000).for_each(|_| m.on_cache_miss()));
            scope.spawn(|| (0..2_000).for_each(|_| m.on_coalesced()));
            scope.spawn(|| (0..2_000).for_each(|_| m.on_disk_hit()));
            scope.spawn(|| (0..2_000).for_each(|_| m.on_shed()));
            for _ in 0..500 {
                let s = m.snapshot();
                assert_eq!(
                    s.jobs_submitted,
                    s.cache_hits + s.cache_misses + s.coalesced + s.shed,
                    "snapshot observed a mid-update classification"
                );
                assert!(
                    s.disk_hits <= s.cache_hits,
                    "snapshot observed a mid-update disk hit"
                );
            }
        });
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 10_000);
        assert_eq!(s.cache_hits + s.cache_misses + s.coalesced + s.shed, 10_000);
        assert_eq!(s.disk_hits, 2_000);
        assert_eq!(s.shed, 2_000);
    }

    #[test]
    fn json_snapshot_is_wellformed_enough() {
        let m = ServiceMetrics::new();
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache_hit_rate\":0.000000"));
        assert!(json.contains("\"jobs_submitted\":0"));
    }

    #[test]
    fn label_values_escape_per_exposition_format() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
    }

    #[test]
    fn latency_histogram_buckets_count_correctly() {
        let m = ServiceMetrics::new();
        // One sample inside the first bucket, one on a bucket boundary
        // (le is inclusive), one past every bound (the +Inf slot).
        m.on_executed(1, 1, Duration::from_micros(50));
        m.on_executed(1, 1, Duration::from_micros(500));
        m.on_executed(1, 1, Duration::from_micros(900_000));
        let s = m.snapshot();
        assert_eq!(s.latency_hist_count, 3);
        assert_eq!(s.latency_hist_sum_us, 50 + 500 + 900_000);
        assert_eq!(s.latency_bucket_counts[0], 1, "50us <= 100us");
        assert_eq!(
            s.latency_bucket_counts[1], 1,
            "500us lands ON the 500us bound"
        );
        assert_eq!(
            s.latency_bucket_counts[LATENCY_BUCKETS_US.len()],
            1,
            "900ms overflows to +Inf"
        );
        assert_eq!(s.latency_bucket_counts.iter().sum::<u64>(), 3);
    }

    /// The golden-format test: structure, ordering, escaping, and
    /// byte-determinism of the Prometheus exposition.
    #[test]
    fn prometheus_exposition_is_wellformed_and_deterministic() {
        let m = ServiceMetrics::new();
        m.on_cache_miss();
        m.on_executed(10, 70, Duration::from_micros(1_000));
        m.on_cache_hit();
        m.on_coalesced();
        m.on_shed();
        m.on_delivered();
        m.on_panicked();
        m.on_connection_timed_out();
        m.set_store_records(1);
        m.set_store_dropped(2);
        m.set_store_degraded();
        m.set_graphs_live(3);
        let mut snap = m.snapshot();
        // Pin the wall-clock-dependent fields so repeated renderings
        // must agree byte-for-byte.
        snap.uptime = Duration::from_millis(1_500);
        snap.throughput_jobs_per_sec = 0.0;
        let text = snap.to_prometheus();
        assert_eq!(
            text,
            snap.to_prometheus(),
            "exposition must be deterministic"
        );

        // Every sample line's metric has HELP and TYPE lines, and they
        // precede it.
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                continue;
            }
            let name = line
                .split(['{', ' '])
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            let help_at = text.find(&format!("# HELP {name} "));
            let type_at = text.find(&format!("# TYPE {name} "));
            let sample_at = text.find(line).unwrap();
            assert!(
                help_at.is_some_and(|h| h < sample_at),
                "no HELP before {line}"
            );
            assert!(
                type_at.is_some_and(|t| t < sample_at),
                "no TYPE before {line}"
            );
        }

        // Fixed emission order: jobs total before class split, class
        // labels in hit/miss/coalesced order, histogram before p50.
        let pos = |needle: &str| {
            text.find(needle)
                .unwrap_or_else(|| panic!("missing {needle}"))
        };
        assert!(pos("spanner_jobs_total ") < pos("class=\"cache_hit\""));
        assert!(pos("class=\"cache_hit\"") < pos("class=\"cache_miss\""));
        assert!(pos("class=\"cache_miss\"") < pos("class=\"coalesced\""));
        assert!(pos("class=\"coalesced\"") < pos("class=\"shed\""));
        assert!(pos("spanner_engine_run_seconds_bucket") < pos("spanner_engine_run_p50_seconds"));
        assert!(text.contains("spanner_store_records_dropped_total 2\n"));
        assert!(text.contains("spanner_store_degraded 1\n"));
        assert!(text.contains("spanner_connections_timed_out_total 1\n"));
        assert!(text.contains("spanner_jobs_panicked_total 1\n"));
        assert!(text.contains("le=\"+Inf\""));

        // Graph metrics: the live gauge precedes the deprecated
        // per-class delta counter, whose labels land in
        // commuted/repaired/recomputed order between the store section
        // and the engine totals, and all read 0.
        assert!(text.contains("spanner_graphs_live 3\n"));
        assert!(pos("spanner_graphs_live 3") < pos("class=\"commuted\""));
        assert!(pos("spanner_store_recovery_seconds_total") < pos("spanner_graphs_live 3"));
        assert!(pos("class=\"commuted\"") < pos("class=\"repaired\""));
        assert!(pos("class=\"repaired\"") < pos("class=\"recomputed\""));
        assert!(pos("class=\"recomputed\"") < pos("spanner_engine_iterations_total"));
        for class in ["commuted", "repaired", "recomputed"] {
            let line = format!("spanner_graph_deltas_by_class_total{{class=\"{class}\"}} 0\n");
            assert!(text.contains(&line), "missing {line}");
        }

        // The class series sum back to the total — the same invariant
        // the JSON body guarantees.
        let value = |prefix: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no sample for {prefix}"))
        };
        let class_sum: u64 = ["cache_hit", "cache_miss", "coalesced", "shed"]
            .iter()
            .map(|c| value(&format!("spanner_jobs_by_class_total{{class=\"{c}\"}}")))
            .sum();
        assert_eq!(value("spanner_jobs_total "), class_sum);

        // Histogram buckets are cumulative and end at the count.
        let bucket_values: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("spanner_engine_run_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(bucket_values.len(), LATENCY_BUCKETS_US.len() + 1);
        assert!(bucket_values.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            *bucket_values.last().unwrap(),
            value("spanner_engine_run_seconds_count")
        );
    }
}
