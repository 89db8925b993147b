//! The in-process serving core: canonicalize → cache → coalesce →
//! schedule on the worker pool.
//!
//! Life of a submission:
//!
//! 1. the job arrives in canonical form — sorted edge keys, decoded
//!    straight from request bytes by the HTTP and TCP frontends, or
//!    derived from a [`JobSpec`] by [`Service::submit`] — with its
//!    64-bit job key ([`crate::job`]); the engine's graph is built from
//!    the keys only if the job runs (step 5);
//! 2. under the cache lock, a key already computed is answered
//!    immediately (**cache hit** — no engine work, no queueing);
//! 3. still under the cache lock, a configured persistent store
//!    ([`ServiceConfig::cache_dir`]) is consulted: a record whose
//!    verification bytes equal the canonical job's is a **disk hit** —
//!    also a cache hit, additionally counted in
//!    [`MetricsSnapshot::disk_hits`] — and is promoted into the LRU;
//! 4. under the in-flight lock, a key currently executing is joined
//!    (**coalesced** — N concurrent identical submissions run the
//!    engine once and all receive the same run);
//! 5. otherwise admission control charges the run against the worker
//!    queue's depth and byte budgets: an exhausted budget **sheds**
//!    the job — [`JobError::Busy`] with a retry hint derived from the
//!    observed p95 latency, never a silently growing backlog — while
//!    an admitted run registers a fresh in-flight entry and enqueues
//!    on the bounded worker pool (**cache miss**). A completed (never
//!    aborted) run is appended to the store before its waiters are
//!    released; a *failed* append demotes the store to memory-only
//!    caching (`store_degraded` gauge) instead of failing the job.
//!
//! Persistence inherits the wire protocol's byte-identity contract: a
//! disk hit reconstructs the same canonical [`SpannerRun`] the cold
//! computation produced, so responses are byte-identical across
//! restarts; and since disk records are verified against the full
//! canonical instance (never trusted on the 64-bit hash alone), the
//! FNV-collision guard survives restarts too. On startup the store's
//! most recent records are replayed into the in-memory LRU (**warm
//! start**), with corrupt log tails dropped and counted rather than
//! failing the open.
//!
//! Determinism: the engine is deterministic per seed and every run
//! executes on the *canonical* instance, so the spanner a spec maps to
//! is a pure function of the spec — independent of worker count,
//! scheduling order, and whether the answer came from a cold run, the
//! cache, or coalescing.
//!
//! Cancellation and timeouts are waiter-side: a handle that cancels or
//! times out stops waiting immediately, and an engine run whose every
//! waiter left (cancelled *or* timed out) before a worker picked it up
//! is skipped entirely. Once a run has *started*, only explicit
//! cancellation interrupts it: when the last waiter cancels, the
//! in-engine cooperative flag
//! ([`dsa_core::dist::EngineConfig::cancel`]) is raised and the run
//! aborts between iterations — its partial result is discarded, never
//! cached. A started run whose last waiter merely *timed out* still
//! completes and populates the cache for future submissions (a
//! deadline is not a cancellation).
//!
//! Engine panics: a run that panics is caught on its worker. Its
//! waiters get [`JobError::Panicked`], its in-flight entry is retired,
//! nothing is cached or stored, and the worker takes the next job.
//!
//! Sharded execution: [`ServiceConfig::engine_shards`] lets the
//! operator override [`dsa_core::dist::EngineConfig::num_shards`] for
//! every executed run. This is legal precisely because the engine's
//! result is bit-identical for every shard count — execution policy
//! never leaks into cached bytes.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use dsa_core::dist::{run_variant_timed, EngineConfig, SpannerRun, VariantKind};
use dsa_graphs::EdgeId;
use dsa_runtime::obs;
use dsa_runtime::sync::OrderedMutex;
use dsa_runtime::{FaultInjector, FlightRecorder};

use crate::cache::LruCache;
use crate::graphs::{
    DeltaOp, GraphCreated, GraphError, GraphMeta, GraphPatched, GraphRegistry, GraphSpannerResult,
    GraphSpec,
};
use crate::job::{
    canonicalize_job, validate_config, CanonicalInstance, CanonicalJob, JobError, JobResponse,
    JobSpec,
};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::pool::Pool;
use crate::store::{verification_bytes, Store, RESULT_VERSION};

/// Tunables of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing engine runs.
    pub workers: usize,
    /// Bound on queued (not yet started) runs; a fresh submission that
    /// would exceed it is *shed* — rejected with
    /// [`JobError::Busy`] and a retry hint — never silently backlogged.
    pub queue_capacity: usize,
    /// Bound on the summed size estimates (bytes) of queued runs; a
    /// fresh submission that would exceed it is shed like a depth
    /// overflow. An empty queue always admits, so one oversized job
    /// is still servable.
    pub queue_byte_budget: usize,
    /// LRU result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Deadline applied by [`JobHandle::wait`] when the spec carries
    /// none; `None` waits indefinitely.
    pub default_timeout: Option<Duration>,
    /// When `Some(k)`, every executed run uses `k` engine shards
    /// (`0` = one per core), overriding whatever the spec requested —
    /// the operator's resource knob. `None` respects the per-job
    /// request. Either way the response bytes are unchanged: shard
    /// count cannot affect engine results.
    pub engine_shards: Option<usize>,
    /// Directory of the persistent result store ([`crate::store`]).
    /// `None` (the default) keeps results in memory only; `Some(dir)`
    /// appends every completed run to `dir/results.log`, consults the
    /// log on LRU misses, and replays its most recent records into
    /// the LRU at startup, so a restarted service answers prior
    /// instances byte-identically without re-running the engine.
    pub cache_dir: Option<PathBuf>,
    /// Deterministic fault injector for chaos testing
    /// ([`dsa_runtime::fault`]). `None` (the default) never faults.
    /// Injection can delay, abort or panic engine runs, fail store I/O,
    /// and drop connections — it can never change response bytes.
    pub fault: Option<Arc<FaultInjector>>,
    /// Per-connection read deadline applied by the TCP and HTTP
    /// frontends: once the first byte of a request (or frame) has
    /// arrived, the rest must arrive within this budget or the
    /// connection is closed and counted
    /// ([`MetricsSnapshot::connections_timed_out`]) — the slow-loris
    /// defense. Idle keep-alive connections are unaffected.
    pub read_budget: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            queue_byte_budget: 64 << 20,
            cache_capacity: 256,
            default_timeout: None,
            engine_shards: None,
            cache_dir: None,
            fault: None,
            read_budget: Duration::from_secs(30),
        }
    }
}

/// The result-relevant engine-config fields: (seed, accept
/// denominator, monotone stars, round densities, max iterations).
/// `num_shards` and `cancel` are deliberately absent — they control
/// *how* a run executes, never what it computes, so jobs differing
/// only in them share cache entries and coalesce.
type ConfigSig = (u64, u64, bool, bool, u64);

fn config_sig(cfg: &EngineConfig) -> ConfigSig {
    (
        cfg.seed,
        cfg.accept_denominator,
        cfg.monotone_stars,
        cfg.round_densities,
        cfg.max_iterations,
    )
}

/// Rough in-memory footprint of a queued run, charged against the
/// admission byte budget ([`ServiceConfig::queue_byte_budget`]): the
/// canonical instance (CSR adjacency + per-edge payload) dominates a
/// queued closure's retained memory.
fn job_cost(instance: &CanonicalInstance) -> usize {
    let edges = instance.edges();
    256 + edges.num_vertices() * 8 + edges.num_edges() * 24
}

/// One in-flight engine run, shared by every coalesced waiter.
///
/// The canonical instance and config signature live here both so the
/// worker can execute the run (building the engine's graph from the
/// keys only then) and so joins can *verify* identity: the 64-bit key
/// is a hash, and an (adversarially constructible) FNV collision must
/// degrade to a duplicate computation, never to another job's result.
struct Inflight {
    instance: Arc<CanonicalInstance>,
    config_sig: ConfigSig,
    state: OrderedMutex<InflightState>,
    done: Condvar,
    /// Handles still interested in the result; when it reaches zero
    /// before a worker starts the run, the run is skipped.
    waiters: AtomicUsize,
    /// Raised (under the in-flight lock) when the last waiter
    /// *cancels*; plumbed into the engine as its cooperative
    /// cancellation flag so a started run aborts between iterations.
    /// An aborted or abort-pending entry is never joined — a fresh
    /// submission of the same key displaces it instead.
    abort: Arc<AtomicBool>,
}

#[derive(Default)]
struct InflightState {
    result: Option<Arc<SpannerRun>>,
    skipped: bool,
    /// The panic message of a run that panicked.
    panicked: Option<String>,
}

/// A cached result together with the job identity it answers, checked
/// on every hit (see [`Inflight`] on why the hash alone is not
/// identity).
struct CachedResult {
    instance: Arc<CanonicalInstance>,
    config_sig: ConfigSig,
    run: Arc<SpannerRun>,
}

struct Shared {
    cache: OrderedMutex<LruCache<CachedResult>>,
    /// The persistent tier behind the LRU; locked after `cache` and
    /// never while `inflight` is held.
    store: Option<OrderedMutex<Store>>,
    /// Cleared when a store append fails (real ENOSPC or injected
    /// fault): the service demotes itself to memory-only caching —
    /// the store is neither read nor written again — instead of
    /// failing requests or serving unverified bytes.
    store_ok: AtomicBool,
    inflight: OrderedMutex<HashMap<u64, Arc<Inflight>>>,
    metrics: ServiceMetrics,
    /// Lifecycle span/event ring: every submission gets a trace id and
    /// leaves a submitted → classified → executed → delivered trail
    /// here, exportable as JSONL (`spanner-serve --trace-dir`).
    flight: FlightRecorder,
}

/// The in-process spanner-serving subsystem. See the module docs for
/// the submission life cycle; [`crate::server`] exposes the same
/// object over TCP.
pub struct Service {
    shared: Arc<Shared>,
    default_timeout: Option<Duration>,
    engine_shards: Option<usize>,
    workers: usize,
    fault: Arc<FaultInjector>,
    read_budget: Duration,
    /// The named-graph registry ([`crate::graphs`]), shared by the TCP
    /// and HTTP frontends. Its solves go through [`Service::run`], so
    /// graph reads hit the same cache/store/coalescing as one-shot
    /// jobs.
    graphs: GraphRegistry,
    /// Dropped last (declaration order): pool teardown drains queued
    /// runs, and those workers still need `shared`.
    pool: Pool,
}

impl Service {
    /// Starts a service with the given tunables.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_capacity` is zero, or if
    /// [`ServiceConfig::cache_dir`] is set and the store cannot be
    /// opened (use [`Service::open`] to handle that error instead; a
    /// *corrupt* store never fails — bad records are dropped and
    /// counted, only real IO errors do).
    pub fn new(cfg: &ServiceConfig) -> Self {
        Service::open(cfg).expect("open persistent store") // dsa-lint: allow(DSA-P001, reason="documented startup-only panic, Service::open is the non-panicking path")
    }

    /// Starts a service, propagating persistent-store IO errors (an
    /// unwritable `cache_dir`, say) instead of panicking. With
    /// `cache_dir: None` this never fails.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_capacity` is zero.
    pub fn open(cfg: &ServiceConfig) -> std::io::Result<Self> {
        let mut cache = LruCache::new(cfg.cache_capacity);
        let metrics = ServiceMetrics::new();
        let fault = cfg
            .fault
            .clone()
            .unwrap_or_else(|| Arc::new(FaultInjector::disabled()));
        let store = match &cfg.cache_dir {
            None => None,
            Some(dir) => {
                let t_recovery = Instant::now();
                let mut store = Store::open_with(dir, Arc::clone(&fault))?;
                if store.started_fresh() {
                    let dir = dir.display();
                    obs::warn(
                        "dsa-service",
                        "store format or result version changed; starting fresh",
                        &[("result_version", &RESULT_VERSION), ("dir", &dir)],
                    );
                } else if store.dropped() > 0 {
                    let dropped = store.dropped();
                    let dir = dir.display();
                    obs::warn(
                        "dsa-service",
                        "store recovery dropped corrupt records",
                        &[("dropped", &dropped), ("dir", &dir)],
                    );
                }
                metrics.set_store_dropped(store.dropped());
                // Warm start: replay the most recent records into the
                // LRU (oldest first, so recency matches log order).
                for record in store.warm_records(cfg.cache_capacity) {
                    cache.insert(
                        record.key,
                        CachedResult {
                            instance: record.instance,
                            config_sig: config_sig(&record.config),
                            run: record.run,
                        },
                    );
                }
                metrics.set_store_records(store.records());
                metrics.set_store_recovery(t_recovery.elapsed());
                Some(OrderedMutex::new("store", 50, store))
            }
        };
        // The graph registry opens *after* the store: the store's
        // advisory single-writer lock covers the whole cache dir,
        // including the graph delta log.
        let (graphs, replay) = GraphRegistry::open(cfg.cache_dir.as_deref(), Arc::clone(&fault))?;
        if replay.dropped > 0 || replay.skipped > 0 {
            let (dropped, skipped) = (replay.dropped, replay.skipped);
            obs::warn(
                "dsa-service",
                "graph log replay dropped or skipped records",
                &[("dropped", &dropped), ("skipped", &skipped)],
            );
        }
        metrics.set_graphs_live(replay.graphs as u64);
        Ok(Service {
            shared: Arc::new(Shared {
                cache: OrderedMutex::new("cache", 40, cache),
                store,
                store_ok: AtomicBool::new(true),
                inflight: OrderedMutex::new("inflight", 60, HashMap::new()),
                metrics,
                flight: FlightRecorder::new(obs::DEFAULT_FLIGHT_CAPACITY),
            }),
            default_timeout: cfg.default_timeout,
            engine_shards: cfg.engine_shards,
            workers: cfg.workers,
            fault,
            read_budget: cfg.read_budget,
            graphs,
            pool: Pool::new(cfg.workers, cfg.queue_capacity, cfg.queue_byte_budget),
        })
    }

    /// Creates (or idempotently re-creates) a named graph, solving its
    /// baseline spanner eagerly. The `PUT /v1/graphs/{id}` and
    /// `graph-create v2` surface.
    pub fn graph_create(&self, spec: GraphSpec) -> Result<GraphCreated, GraphError> {
        let id = spec.id.clone();
        let (created, degraded) = self.graphs.create(spec, |s| self.run(&s))?;
        if degraded {
            self.shared.metrics.set_store_degraded();
        }
        if !created.existed {
            self.shared
                .metrics
                .set_graphs_live(self.graphs.live() as u64);
            self.shared.flight.event(
                obs::next_trace_id(),
                "graph.created",
                vec![
                    ("graph".to_string(), id),
                    ("edges".to_string(), created.edges.to_string()),
                    ("spanner_size".to_string(), created.spanner_size.to_string()),
                ],
            );
        }
        Ok(created)
    }

    /// Applies edge deltas to a named graph: validate, log, apply. The
    /// engine never runs here; the next spanner read solves. The
    /// `PATCH /v1/graphs/{id}` and `graph-patch v2` surface.
    pub fn graph_patch(&self, id: &str, ops: &[DeltaOp]) -> Result<GraphPatched, GraphError> {
        let (patched, degraded) = self.graphs.patch(id, ops)?;
        if degraded {
            self.shared.metrics.set_store_degraded();
        }
        self.shared.flight.event(
            obs::next_trace_id(),
            "graph.patched",
            vec![
                ("graph".to_string(), id.to_string()),
                ("applied".to_string(), patched.applied.to_string()),
            ],
        );
        Ok(patched)
    }

    /// A named graph's metadata/stats. The `GET /v1/graphs/{id}` and
    /// `graph-get v2` surface.
    pub fn graph_meta(&self, id: &str) -> Result<GraphMeta, GraphError> {
        self.graphs.meta(id)
    }

    /// A named graph's maintained spanner: always the solve of the
    /// current live edge set (byte-deterministic for a given delta
    /// history), served through the same cache/store/coalescing
    /// pipeline as one-shot jobs. The `GET /v1/graphs/{id}/spanner`
    /// and `graph-spanner v2` surface.
    pub fn graph_spanner(&self, id: &str) -> Result<GraphSpannerResult, GraphError> {
        self.graphs.spanner(id, |s| self.run(&s))
    }

    /// Retires a named graph. The `DELETE /v1/graphs/{id}` and
    /// `graph-delete v2` surface.
    pub fn graph_delete(&self, id: &str) -> Result<(), GraphError> {
        let degraded = self.graphs.delete(id)?;
        if degraded {
            self.shared.metrics.set_store_degraded();
        }
        self.shared
            .metrics
            .set_graphs_live(self.graphs.live() as u64);
        self.shared.flight.event(
            obs::next_trace_id(),
            "graph.deleted",
            vec![("graph".to_string(), id.to_string())],
        );
        Ok(())
    }

    /// Number of live named graphs.
    pub fn graphs_live(&self) -> usize {
        self.graphs.live()
    }

    /// Whether the graph delta log is still persisting creates and
    /// patches (false after an append failure demoted the registry to
    /// memory-only serving; trivially true without a cache directory).
    pub fn graphs_log_healthy(&self) -> bool {
        self.graphs.log_healthy()
    }

    /// Submits a job and returns a handle to its (possibly shared)
    /// result.
    pub fn submit(&self, spec: &JobSpec) -> Result<JobHandle, JobError> {
        match canonicalize_job(spec) {
            Ok(job) => self.submit_canonical(job),
            Err(e) => {
                self.shared.metrics.on_invalid();
                Err(e)
            }
        }
    }

    /// Submits a job already in canonical form: the path both servers
    /// take straight from request bytes.
    pub(crate) fn submit_canonical(&self, job: CanonicalJob) -> Result<JobHandle, JobError> {
        if let Err(e) = validate_config(&job.config) {
            self.shared.metrics.on_invalid();
            return Err(e);
        }
        let CanonicalJob {
            key,
            instance,
            config,
            from_canonical,
            timeout,
        } = job;
        let kind = instance.kind();
        let trace_id = obs::next_trace_id();
        self.shared.flight.event(
            trace_id,
            "job.submitted",
            vec![
                ("key".to_string(), format!("{key:016x}")),
                ("kind".to_string(), kind.to_string()),
            ],
        );
        let handle_base = |source| JobHandle {
            key,
            kind,
            from_canonical,
            timeout: timeout.or(self.default_timeout),
            shared: Arc::clone(&self.shared),
            trace_id,
            source,
        };

        // Classification happens with the cache lock held and the
        // in-flight lock nested inside it; the completion path takes
        // the two locks in the same order, so hit-or-join is atomic:
        // a key is never both evicted from in-flight and absent from
        // the cache. Every hash-keyed lookup is verified against the
        // canonical instance + config, so a 64-bit key collision costs
        // a duplicate computation instead of cross-serving results.
        let sig = config_sig(&config);
        let mut cache = self.shared.cache.lock();
        if let Some(v) = cache.get(key) {
            if v.instance == instance && v.config_sig == sig {
                self.shared.metrics.on_cache_hit();
                self.shared.flight.event(trace_id, "job.cache_hit", vec![]);
                return Ok(handle_base(HandleSource::Ready(Arc::clone(&v.run))));
            }
            // Collision: fall through and recompute; the completion
            // overwrites the slot and hits stay verified either way.
        }
        // Second tier: the persistent store. Looked up under the cache
        // lock (same atomicity argument as the LRU), verified against
        // the canonical identity bytes — a stale or colliding record
        // degrades to a recompute, never to another job's result. A
        // verified disk hit is promoted into the LRU so repeats stay
        // off the disk. The index is consulted *before* the identity
        // bytes are rendered, so a stream of novel jobs never pays an
        // O(instance) serialization for a guaranteed miss.
        if let Some(store) = self
            .shared
            .store
            .as_ref()
            .filter(|_| self.shared.store_ok.load(Ordering::SeqCst))
        {
            let mut store = store.lock();
            let hit = if store.contains(key) {
                let t_read = Instant::now();
                let verification = verification_bytes(&instance, &config);
                let hit = store.get(key, &verification);
                self.shared.metrics.on_store_read(t_read.elapsed());
                hit
            } else {
                None
            };
            drop(store);
            if let Some(run) = hit {
                let run = Arc::new(run);
                cache.insert(
                    key,
                    CachedResult {
                        instance: Arc::clone(&instance),
                        config_sig: sig,
                        run: Arc::clone(&run),
                    },
                );
                self.shared.metrics.on_disk_hit();
                self.shared.flight.event(trace_id, "job.disk_hit", vec![]);
                return Ok(handle_base(HandleSource::Ready(run)));
            }
        }
        let mut inflight = self.shared.inflight.lock();
        // A colliding in-flight entry cannot be joined *or* displaced;
        // the new run proceeds untracked (no dedup for the collider).
        // An *abort-pending* identical entry (last waiter cancelled,
        // run doomed) cannot be joined either — the fresh entry
        // displaces it in the map, and the doomed run's retirement is
        // pointer-checked so it never removes its successor.
        let mut tracked = true;
        if let Some(entry) = inflight.get(&key).cloned() {
            if entry.instance == instance && entry.config_sig == sig {
                if !entry.abort.load(Ordering::SeqCst) {
                    entry.waiters.fetch_add(1, Ordering::SeqCst);
                    self.shared.metrics.on_coalesced();
                    self.shared.flight.event(trace_id, "job.coalesced", vec![]);
                    return Ok(handle_base(HandleSource::Waiting(entry)));
                }
            } else {
                tracked = false;
            }
        }
        let entry = Arc::new(Inflight {
            instance,
            config_sig: sig,
            state: OrderedMutex::new("inflight_state", 70, InflightState::default()),
            done: Condvar::new(),
            waiters: AtomicUsize::new(1),
            abort: Arc::new(AtomicBool::new(false)),
        });
        let shared = Arc::clone(&self.shared);
        let fault = Arc::clone(&self.fault);
        let mut config = config;
        // Execution policy: the run aborts cooperatively when the
        // entry's abort flag is raised, and the operator's shard
        // override (if any) replaces the spec's request. Neither field
        // is result-relevant, so the cached bytes are unaffected.
        config.cancel = Some(Arc::clone(&entry.abort));
        if let Some(shards) = self.engine_shards {
            config.num_shards = shards;
        }
        // Retiring must be pointer-checked: an aborted entry may have
        // been displaced in the map by a fresh submission of the same
        // key, which this run must not remove.
        let retire = {
            let entry = Arc::clone(&entry);
            move |inflight: &mut HashMap<u64, Arc<Inflight>>| {
                if tracked
                    && inflight
                        .get(&key)
                        .is_some_and(|cur| Arc::ptr_eq(cur, &entry))
                {
                    inflight.remove(&key);
                }
            }
        };
        let worker = {
            let entry = Arc::clone(&entry);
            Box::new(move || {
                // Skip the run when every waiter gave up before it began.
                // The waiter count is read under the in-flight lock — the
                // same lock a coalescing submit increments it under — so a
                // submission can never join an entry this closure is about
                // to retire as skipped.
                {
                    let mut inflight = shared.inflight.lock();
                    if entry.waiters.load(Ordering::SeqCst) == 0 {
                        retire(&mut inflight);
                        drop(inflight);
                        let mut state = entry.state.lock();
                        state.skipped = true;
                        drop(state);
                        entry.done.notify_all();
                        shared.metrics.on_skipped();
                        shared.flight.event(trace_id, "job.skipped", vec![]);
                        return;
                    }
                }
                // Chaos hooks: injected latency perturbs scheduling, an
                // injected abort exercises the cooperative-cancellation
                // path (waiters see `Cancelled` and retry). Neither can
                // change the bytes a spec maps to.
                if let Some(delay) = fault.latency("engine.latency_ms") {
                    std::thread::sleep(delay);
                }
                if fault.fire("engine.abort") {
                    entry.abort.store(true, Ordering::SeqCst);
                }
                // A miss is the one place the engine's graph is built.
                // A panic in the build or the run costs this job, not
                // the worker: its waiters get the panic as an error,
                // nothing is cached or stored, and the in-flight entry
                // is retired, so a resubmission runs afresh instead of
                // joining a run that will never finish.
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    let instance = entry.instance.instance();
                    if fault.fire("engine.panic") {
                        panic!("injected fault: engine.panic"); // dsa-lint: allow(DSA-P002, reason="chaos fault point, raised inside the unwind guard it exercises")
                    }
                    let t0 = Instant::now();
                    let (run, phases) = run_variant_timed(&instance, &config);
                    (run, phases, t0)
                }));
                let (run, phases, t0) = match outcome {
                    Ok(done) => done,
                    Err(payload) => {
                        // Counted and logged before the waiters wake,
                        // so a caller that saw the error sees the count.
                        let message = obs::panic_message(payload.as_ref());
                        retire(&mut shared.inflight.lock());
                        shared.metrics.on_panicked();
                        let key = format!("{key:016x}");
                        obs::error(
                            "dsa-service",
                            "engine run panicked; the job failed and the worker serves on",
                            &[("key", &key), ("panic", &message)],
                        );
                        shared.flight.event(
                            trace_id,
                            "job.panicked",
                            vec![("panic".to_string(), message.clone())],
                        );
                        let mut state = entry.state.lock();
                        state.panicked = Some(message);
                        drop(state);
                        entry.done.notify_all();
                        return;
                    }
                };
                let run = Arc::new(run);
                if run.cancelled {
                    // Mid-flight abort: every waiter is gone (the flag is
                    // only raised by the last cancel), and the partial
                    // spanner must never reach the cache.
                    let mut inflight = shared.inflight.lock();
                    retire(&mut inflight);
                    drop(inflight);
                    let mut state = entry.state.lock();
                    state.skipped = true;
                    drop(state);
                    entry.done.notify_all();
                    shared.metrics.on_aborted();
                    shared.flight.event(trace_id, "job.aborted", vec![]);
                    return;
                }
                let elapsed = t0.elapsed();
                shared
                    .metrics
                    .on_executed(run.iterations, run.local_rounds(), elapsed);
                shared.flight.span(
                    trace_id,
                    "engine.run",
                    elapsed,
                    vec![
                        ("iterations".to_string(), run.iterations.to_string()),
                        ("step1_us".to_string(), phases.step1.as_micros().to_string()),
                        ("step3_us".to_string(), phases.step3.as_micros().to_string()),
                        ("step4_us".to_string(), phases.step4.as_micros().to_string()),
                        (
                            "coverage_us".to_string(),
                            phases.coverage.as_micros().to_string(),
                        ),
                    ],
                );
                // Same lock order as classification: publish to the cache
                // *before* retiring the in-flight entry.
                let mut cache = shared.cache.lock();
                cache.insert(
                    key,
                    CachedResult {
                        instance: Arc::clone(&entry.instance),
                        config_sig: entry.config_sig,
                        run: Arc::clone(&run),
                    },
                );
                retire(&mut shared.inflight.lock());
                drop(cache);
                // Persist the completed run (aborted runs returned above
                // and never reach this point) — *outside* the cache lock:
                // the LRU insert above already guarantees a racing
                // submission finds the result, so the O(instance)
                // serialization and the disk write need not block other
                // submissions. (With the LRU disabled a racer landing in
                // this window recomputes once; duplicate work, never
                // wrong bytes.)
                if let Some(store) = shared
                    .store
                    .as_ref()
                    .filter(|_| shared.store_ok.load(Ordering::SeqCst))
                {
                    let t_write = Instant::now();
                    let verification = verification_bytes(&entry.instance, &config);
                    let mut store = store.lock();
                    match store.append(key, &verification, &run) {
                        Ok(()) => {
                            shared.metrics.set_store_records(store.records());
                            shared.metrics.on_store_write(t_write.elapsed());
                        }
                        Err(e) => {
                            // Degrade, never fail: the result was already
                            // published to the cache with verified bytes;
                            // only persistence is lost. Demote the store so
                            // no later submission reads from (or writes to)
                            // a file in an unknown state.
                            drop(store);
                            shared.store_ok.store(false, Ordering::SeqCst);
                            shared.metrics.set_store_degraded();
                            let err = e.to_string();
                            obs::error(
                                "dsa-service",
                                "store append failed; demoting to memory-only caching",
                                &[("error", &err)],
                            );
                        }
                    }
                }
                let mut state = entry.state.lock();
                state.result = Some(run);
                drop(state);
                entry.done.notify_all();
            })
        };
        // Admission control, decided with both locks still held (the
        // pool lock is a leaf): a fresh run must win a queue slot
        // before the entry is published to the in-flight map, so a
        // shed job leaves nothing behind for later submissions to
        // coalesce onto — and `shed` classification is as atomic as
        // the other three classes.
        if !self.pool.try_submit(worker, job_cost(&entry.instance)) {
            let retry_after_ms = self.retry_after_hint_ms();
            self.shared.metrics.on_shed();
            self.shared.flight.event(
                trace_id,
                "job.shed",
                vec![("retry_after_ms".to_string(), retry_after_ms.to_string())],
            );
            return Err(JobError::Busy { retry_after_ms });
        }
        if tracked {
            inflight.insert(key, Arc::clone(&entry));
        }
        self.shared.metrics.on_cache_miss();
        self.shared.flight.event(trace_id, "job.queued", vec![]);
        drop(inflight);
        drop(cache);
        Ok(handle_base(HandleSource::Waiting(entry)))
    }

    /// How long a shed caller should wait before retrying, derived
    /// from the observed p95 engine latency and the backlog per
    /// worker. Clamped to [10ms, 30s]; with no latency samples yet the
    /// floor applies.
    fn retry_after_hint_ms(&self) -> u64 {
        let p95_ms = (self.shared.metrics.p95_us() / 1_000).max(1);
        let pending = self.pool.queued() as u64 + 1;
        let per_worker = pending.div_ceil(self.workers.max(1) as u64);
        (p95_ms * per_worker).clamp(10, 30_000)
    }

    /// Submit-and-wait convenience.
    pub fn run(&self, spec: &JobSpec) -> Result<JobResponse, JobError> {
        self.submit(spec)?.wait()
    }

    /// [`Service::run`] for a job already in canonical form.
    pub(crate) fn run_canonical(&self, job: CanonicalJob) -> Result<JobResponse, JobError> {
        self.submit_canonical(job)?.wait()
    }

    /// A point-in-time view of the service counters, with the queue
    /// and in-flight gauges sampled at the same moment.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.shared.metrics.snapshot();
        snapshot.queue_depth = self.pool.queued() as u64;
        snapshot.in_flight = self.shared.inflight.lock().len() as u64;
        snapshot
    }

    /// The service's lifecycle span/event ring (`spanner-serve
    /// --trace-dir` drains it to JSONL).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// Entries currently in the result cache.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.lock().len()
    }

    /// The service's fault injector (never fires unless
    /// [`ServiceConfig::fault`] was set); the TCP/HTTP frontends
    /// consult it for connection-level fault points.
    pub fn fault(&self) -> &Arc<FaultInjector> {
        &self.fault
    }

    /// The per-connection read budget the frontends enforce
    /// ([`ServiceConfig::read_budget`]).
    pub(crate) fn read_budget(&self) -> Duration {
        self.read_budget
    }

    /// Records a connection closed for exceeding its read budget.
    pub(crate) fn on_connection_timed_out(&self) {
        self.shared.metrics.on_connection_timed_out();
    }

    /// Waits until the worker queue and the in-flight table are both
    /// empty, or until `timeout` passes; returns whether the service
    /// fully drained. Graceful-shutdown callers stop accepting new
    /// submissions first, then drain, then drop the service (which
    /// joins the workers).
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let idle = self.pool.queued() == 0 && self.shared.inflight.lock().is_empty();
            if idle {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

enum HandleSource {
    /// Served from cache at submission time.
    Ready(Arc<SpannerRun>),
    /// Waiting on an in-flight (possibly shared) engine run.
    Waiting(Arc<Inflight>),
}

/// A claim on one submitted job's result.
///
/// Obtain the response with [`JobHandle::wait`] (or
/// [`JobHandle::wait_for`] with an explicit deadline), or abandon it
/// with [`JobHandle::cancel`].
pub struct JobHandle {
    key: u64,
    kind: VariantKind,
    from_canonical: Vec<EdgeId>,
    timeout: Option<Duration>,
    shared: Arc<Shared>,
    trace_id: u64,
    source: HandleSource,
}

impl JobHandle {
    /// The canonical job key (also the cache key).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Waits using the spec's timeout, or the service default, or
    /// forever.
    pub fn wait(self) -> Result<JobResponse, JobError> {
        let timeout = self.timeout;
        self.wait_for(timeout)
    }

    /// Waits at most `timeout` (`None` waits forever).
    pub fn wait_for(self, timeout: Option<Duration>) -> Result<JobResponse, JobError> {
        let run = match &self.source {
            HandleSource::Ready(run) => Arc::clone(run),
            HandleSource::Waiting(entry) => {
                let deadline = timeout.map(|t| Instant::now() + t);
                let mut state = entry.state.lock();
                loop {
                    if let Some(run) = &state.result {
                        break Arc::clone(run);
                    }
                    if state.skipped {
                        // Only reachable through cancel-then-wait
                        // misuse of a cloned key; a live waiter keeps
                        // the run scheduled.
                        return Err(JobError::Cancelled);
                    }
                    if let Some(message) = &state.panicked {
                        return Err(JobError::Panicked(message.clone()));
                    }
                    match deadline {
                        None => state = state.wait_on(&entry.done),
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                entry.waiters.fetch_sub(1, Ordering::SeqCst);
                                self.shared.metrics.on_timed_out();
                                self.shared
                                    .flight
                                    .event(self.trace_id, "job.timed_out", vec![]);
                                return Err(JobError::TimedOut);
                            }
                            let (s, _) = state.wait_timeout_on(&entry.done, d - now);
                            state = s;
                        }
                    }
                }
            }
        };
        self.shared.metrics.on_delivered();
        self.shared
            .flight
            .event(self.trace_id, "job.delivered", vec![]);
        Ok(JobResponse::from_run(
            self.key,
            self.kind,
            &run,
            &self.from_canonical,
        ))
    }

    /// Abandons the result. A run no handle is waiting on anymore is
    /// skipped if it has not started yet; if it already started, the
    /// last cancel raises the engine's cooperative flag and the run
    /// aborts between iterations (its partial result is discarded).
    pub fn cancel(self) {
        if let HandleSource::Waiting(entry) = &self.source {
            // The decrement-and-abort pair runs under the in-flight
            // lock — the lock coalescing joins hold — so a join can
            // never slip between "last waiter left" and "abort
            // raised" and latch onto a doomed run.
            let _inflight = self.shared.inflight.lock();
            if entry.waiters.fetch_sub(1, Ordering::SeqCst) == 1 {
                entry.abort.store(true, Ordering::SeqCst);
            }
        }
        self.shared.metrics.on_cancelled();
        self.shared
            .flight
            .event(self.trace_id, "job.cancelled", vec![]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::dist::VariantInstance;
    use dsa_graphs::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn undirected_spec(n: usize, p: f64, graph_seed: u64, engine_seed: u64) -> JobSpec {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        JobSpec::new(
            VariantInstance::Undirected {
                graph: gen::gnp_connected(n, p, &mut rng),
            },
            engine_seed,
        )
    }

    #[test]
    fn hit_miss_and_coalesce_classification() {
        let service = Service::new(&ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let spec = undirected_spec(24, 0.25, 1, 7);
        let a = service.run(&spec).unwrap();
        let b = service.run(&spec).unwrap();
        assert_eq!(a, b);
        let m = service.metrics();
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(
            m.jobs_submitted,
            m.cache_hits + m.cache_misses + m.coalesced
        );
        assert_eq!(service.cache_len(), 1);
    }

    #[test]
    fn different_seeds_are_different_jobs() {
        let service = Service::new(&ServiceConfig::default());
        let a = service.run(&undirected_spec(20, 0.3, 2, 1)).unwrap();
        let b = service.run(&undirected_spec(20, 0.3, 2, 2)).unwrap();
        assert_ne!(a.key, b.key);
        assert_eq!(service.metrics().cache_misses, 2);
    }

    #[test]
    fn responses_are_in_submitted_id_space() {
        // Submit the same graph under two edge orders: the canonical
        // runs coincide (one cache entry), but each response speaks
        // its caller's ids.
        use dsa_core::verify::is_k_spanner;
        use dsa_graphs::{EdgeSet, Graph};
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)];
        let g1 = Graph::from_edges(4, edges);
        let mut rev = edges;
        rev.reverse();
        let g2 = Graph::from_edges(4, rev);
        let service = Service::new(&ServiceConfig::default());
        let r1 = service
            .run(&JobSpec::new(
                VariantInstance::Undirected { graph: g1.clone() },
                5,
            ))
            .unwrap();
        let r2 = service
            .run(&JobSpec::new(
                VariantInstance::Undirected { graph: g2.clone() },
                5,
            ))
            .unwrap();
        assert_eq!(r1.key, r2.key, "same edge set, same job");
        assert_eq!(service.metrics().cache_hits, 1);
        let s1 = EdgeSet::from_iter(g1.num_edges(), r1.spanner.iter().copied());
        let s2 = EdgeSet::from_iter(g2.num_edges(), r2.spanner.iter().copied());
        assert!(is_k_spanner(&g1, &s1, 2));
        assert!(is_k_spanner(&g2, &s2, 2));
        // Same spanner as an edge *pair* set, despite different ids.
        let pairs = |g: &Graph, ids: &[usize]| {
            let mut p: Vec<_> = ids.iter().map(|&e| g.endpoints(e)).collect();
            p.sort_unstable();
            p
        };
        assert_eq!(pairs(&g1, &r1.spanner), pairs(&g2, &r2.spanner));
    }

    #[test]
    fn invalid_spec_counts_and_rejects() {
        use dsa_graphs::{EdgeWeights, Graph};
        let service = Service::new(&ServiceConfig::default());
        let bad = JobSpec::new(
            VariantInstance::Weighted {
                graph: Graph::from_edges(3, [(0, 1), (1, 2)]),
                weights: EdgeWeights::constant(1, 1),
            },
            0,
        );
        assert!(matches!(service.submit(&bad), Err(JobError::Invalid(_))));
        assert_eq!(service.metrics().invalid, 1);
        assert_eq!(service.metrics().jobs_submitted, 0);
    }

    #[test]
    fn heavy_weighted_edge_is_served_and_worker_survives() {
        // Heavy edges beside unit-weight edges: one edge of weight 2^30,
        // and a triangle of 2^63 edges hanging off a unit K4. The flow
        // oracle's capacities must stay within its overflow guard, and
        // the engine's rounded density keys within pow2_ratio's range:
        // a panic in either would kill the only worker, and every
        // later job would time out.
        use dsa_core::verify::is_k_spanner;
        use dsa_graphs::{EdgeSet, EdgeWeights, Graph};
        let service = Service::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        // A dead worker never answers; the generous deadline turns that
        // into a failure instead of a hang. Healthy runs take microseconds.
        let deadline = Some(Duration::from_secs(60));
        let k4_and_triangle = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (4, 6),
            (5, 6),
        ];
        let huge = 1u64 << 63;
        for (graph, weights) in [
            (
                Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
                vec![1, 1, 1, 1 << 30],
            ),
            (
                Graph::from_edges(7, k4_and_triangle),
                vec![1, 1, 1, 1, 1, 1, 1, huge, huge, huge],
            ),
        ] {
            let mut heavy = JobSpec::new(
                VariantInstance::Weighted {
                    graph: graph.clone(),
                    weights: EdgeWeights::from_vec(weights),
                },
                1,
            );
            heavy.timeout = deadline;
            let resp = service.run(&heavy).unwrap();
            assert!(resp.converged);
            let h = EdgeSet::from_iter(graph.num_edges(), resp.spanner.iter().copied());
            assert!(is_k_spanner(&graph, &h, 2));
        }
        // The worker is still alive: the next, unrelated job is served.
        let mut next = undirected_spec(10, 0.5, 9, 1);
        next.timeout = deadline;
        assert!(service.run(&next).unwrap().converged);
        assert_eq!(service.metrics().jobs_completed, 3);
    }

    #[test]
    fn engine_panic_costs_one_job_not_the_worker() {
        // A plan whose `engine.panic` point fires on the first run only:
        // decisions are a pure function of (seed, point, arrival), so a
        // probe injector on the same plan finds such a seed.
        let plan = |seed: u64| {
            dsa_runtime::FaultPlan::parse(&format!("seed={seed};engine.panic=0.2")).unwrap()
        };
        let seed = (0..)
            .find(|&seed| {
                let probe = FaultInjector::new(plan(seed));
                probe.fire("engine.panic") && (0..8).all(|_| !probe.fire("engine.panic"))
            })
            .unwrap();
        let service = Service::new(&ServiceConfig {
            workers: 1,
            fault: Some(Arc::new(FaultInjector::new(plan(seed)))),
            ..ServiceConfig::default()
        });
        // A dead worker never answers; the deadline turns that into a
        // failure instead of a hang.
        let deadline = Some(Duration::from_secs(60));
        let mut faulted = undirected_spec(24, 0.25, 30, 1);
        faulted.timeout = deadline;
        let mut unrelated = undirected_spec(10, 0.5, 9, 1);
        unrelated.timeout = deadline;

        match service.run(&faulted) {
            Err(JobError::Panicked(message)) => {
                assert!(message.contains("engine.panic"), "{message}")
            }
            other => panic!("expected the injected panic, got {other:?}"),
        }
        // The worker survived and nothing was cached or left in flight:
        // the same job runs afresh, and both it and an unrelated job
        // are served byte-identically to a fault-free service.
        let reference = Service::new(&ServiceConfig::default());
        for spec in [&faulted, &unrelated] {
            let served = service.run(spec).unwrap();
            let expected = reference.run(spec).unwrap();
            assert_eq!(
                crate::wire::encode_run_response(&served),
                crate::wire::encode_run_response(&expected)
            );
        }
        let m = service.metrics();
        assert_eq!(m.panicked, 1);
        assert_eq!((m.cache_misses, m.cache_hits, m.coalesced), (3, 0, 0));
        assert_eq!(
            m.jobs_submitted,
            m.cache_hits + m.cache_misses + m.coalesced + m.shed
        );
        assert_eq!(m.jobs_completed, 2);
        assert_eq!(m.timed_out, 0);
        assert_eq!(m.in_flight, 0);
    }

    #[test]
    fn zero_timeout_times_out() {
        let service = Service::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut spec = undirected_spec(40, 0.2, 3, 1);
        spec.timeout = Some(Duration::from_nanos(0));
        // Either the worker wins the race (fine) or we time out; both
        // are legal, but the error must be TimedOut, never a hang.
        match service.submit(&spec).unwrap().wait() {
            Ok(resp) => assert!(resp.converged),
            Err(e) => assert_eq!(e, JobError::TimedOut),
        }
    }

    #[test]
    fn sharded_execution_serves_identical_bytes() {
        // The operator's shard override may never change a response:
        // the same spec through an unsharded and a 4-shard service
        // must produce equal JobResponses (and both still verify).
        let spec = undirected_spec(30, 0.25, 11, 5);
        let plain = Service::new(&ServiceConfig::default());
        let sharded = Service::new(&ServiceConfig {
            engine_shards: Some(4),
            ..ServiceConfig::default()
        });
        let a = plain.run(&spec).unwrap();
        let b = sharded.run(&spec).unwrap();
        assert_eq!(a, b);
        // A spec *requesting* shards maps to the same cache key, so it
        // is a hit on the sharded service's existing entry.
        let mut requesting = spec.clone();
        requesting.config.num_shards = 8;
        assert_eq!(sharded.run(&requesting).unwrap(), b);
        assert_eq!(sharded.metrics().cache_hits, 1);
    }

    /// Opens a one-worker service whose every run first sleeps in the
    /// `engine.latency_ms` fault point, submits a job, and cancels it
    /// once that fault has fired. The worker is then past the skip
    /// check, so the run has started and the cancel must abort it —
    /// before its first iteration, however fast the engine is. Returns
    /// the service after a quiescence job: with one worker, that job
    /// completes only after the aborted run returned.
    fn cancel_a_started_run(cache_dir: Option<PathBuf>) -> Service {
        let plan = dsa_runtime::FaultPlan::parse("seed=1;engine.latency_ms=300@1.0").unwrap();
        let fault = Arc::new(FaultInjector::new(plan));
        let service = Service::new(&ServiceConfig {
            workers: 1,
            cache_dir,
            fault: Some(Arc::clone(&fault)),
            ..ServiceConfig::default()
        });
        let handle = service.submit(&undirected_spec(60, 0.15, 8, 1)).unwrap();
        while fault.fired() == 0 {
            std::thread::yield_now();
        }
        handle.cancel();
        service.run(&undirected_spec(10, 0.5, 9, 1)).unwrap();
        service
    }

    #[test]
    fn cancel_after_start_aborts_the_engine_mid_flight() {
        let service = cancel_a_started_run(None);
        let m = service.metrics();
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.aborted, 1, "started run must abort, not complete");
        assert_eq!(m.skipped, 0);
        // The partial spanner never reached the cache; only the small
        // quiescence job is cached, and resubmitting the cancelled
        // spec classifies as a fresh miss.
        assert_eq!(service.cache_len(), 1);
        assert_eq!(m.jobs_completed, 1);
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dsa-service-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn restart_serves_byte_identical_results_from_disk() {
        let dir = store_dir("restart");
        let specs: Vec<JobSpec> = (0..4)
            .map(|i| undirected_spec(20, 0.3, 40 + i, i))
            .collect();
        let cold: Vec<JobResponse> = {
            let service = Service::new(&ServiceConfig {
                cache_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            });
            let cold = specs.iter().map(|s| service.run(s).unwrap()).collect();
            assert_eq!(service.metrics().store_records, 4);
            cold
        };
        // Restart with an LRU too small to warm-hold everything: the
        // overflow must come back as verified *disk* hits, and every
        // response must equal its cold computation exactly.
        let service = Service::new(&ServiceConfig {
            cache_dir: Some(dir.clone()),
            cache_capacity: 2,
            ..ServiceConfig::default()
        });
        for (spec, cold) in specs.iter().zip(&cold) {
            assert_eq!(&service.run(spec).unwrap(), cold);
        }
        let m = service.metrics();
        assert_eq!(m.cache_misses, 0, "no engine re-runs after restart");
        assert_eq!(m.cache_hits, 4);
        assert!(m.disk_hits > 0, "small LRU must fall through to disk");
        assert_eq!(
            m.jobs_submitted,
            m.cache_hits + m.cache_misses + m.coalesced
        );
        assert_eq!(m.store_records, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_fills_the_lru() {
        let dir = store_dir("warm");
        let spec = undirected_spec(18, 0.3, 50, 1);
        {
            let service = Service::new(&ServiceConfig {
                cache_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            });
            service.run(&spec).unwrap();
        }
        let service = Service::new(&ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        assert_eq!(service.cache_len(), 1, "warm start replays into the LRU");
        service.run(&spec).unwrap();
        let m = service.metrics();
        // Ample LRU: the replayed record answers from memory.
        assert_eq!((m.cache_hits, m.disk_hits, m.cache_misses), (1, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_disabled_lru_still_serves_disk() {
        // cache_capacity 0 disables the in-memory tier entirely; the
        // persistent tier must still dedup across and within runs.
        let dir = store_dir("no-lru");
        let spec = undirected_spec(16, 0.35, 60, 2);
        let cfg = ServiceConfig {
            cache_dir: Some(dir.clone()),
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let a = {
            let service = Service::new(&cfg);
            let a = service.run(&spec).unwrap();
            assert_eq!(service.run(&spec).unwrap(), a);
            let m = service.metrics();
            assert_eq!((m.cache_misses, m.disk_hits), (1, 1));
            a
        };
        let service = Service::new(&cfg);
        assert_eq!(service.run(&spec).unwrap(), a);
        assert_eq!(service.metrics().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_runs_are_never_persisted() {
        let dir = store_dir("abort");
        let service = cancel_a_started_run(Some(dir.clone()));
        let m = service.metrics();
        assert_eq!(m.aborted, 1);
        assert_eq!(m.store_records, 1, "only the completed run is on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_propagates_store_io_errors() {
        // A cache_dir that collides with an existing *file* cannot be
        // created; Service::open reports it instead of panicking.
        let dir = store_dir("io-error");
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        std::fs::write(&dir, b"in the way").unwrap();
        let result = Service::open(&ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        assert!(result.is_err());
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn cancel_before_start_skips_the_run() {
        // One worker pinned by a slow job; a second job cancelled
        // while queued must be skipped, not executed.
        let service = Service::new(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let slow = service.submit(&undirected_spec(70, 0.2, 4, 1)).unwrap();
        let doomed = service.submit(&undirected_spec(30, 0.3, 5, 1)).unwrap();
        doomed.cancel();
        slow.wait().unwrap();
        // Submit one more so the worker definitely reached the
        // cancelled entry before we read the counters.
        service.run(&undirected_spec(10, 0.5, 6, 1)).unwrap();
        let m = service.metrics();
        assert_eq!(m.cancelled, 1);
        assert_eq!(m.skipped, 1);
        // The skipped job never executed: only the two live runs did.
        assert_eq!(m.jobs_completed, 2);
    }

    #[test]
    fn overload_sheds_with_busy_and_exact_accounting() {
        // One worker held by an injected delay, a depth-1 queue: the
        // third concurrent distinct submission must shed.
        let plan = dsa_runtime::FaultPlan::parse("seed=1;engine.latency_ms=300@1.0").unwrap();
        let service = Service::new(&ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            fault: Some(Arc::new(FaultInjector::new(plan))),
            ..ServiceConfig::default()
        });
        let running = service.submit(&undirected_spec(20, 0.3, 10, 1)).unwrap();
        // Wait for the worker to dequeue the first job so the single
        // queue slot is free for the second — otherwise this test
        // races the worker thread's pickup.
        while service.metrics().queue_depth > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let queued = service.submit(&undirected_spec(20, 0.3, 11, 1)).unwrap();
        let shed = service.submit(&undirected_spec(20, 0.3, 12, 1)).map(|_| ());
        let Err(JobError::Busy { retry_after_ms }) = shed else {
            panic!("expected Busy, got {shed:?}");
        };
        assert!((10..=30_000).contains(&retry_after_ms));
        running.wait().unwrap();
        queued.wait().unwrap();
        let m = service.metrics();
        assert_eq!(m.shed, 1);
        assert_eq!(
            m.jobs_submitted,
            m.cache_hits + m.cache_misses + m.coalesced + m.shed
        );
        // A shed job left nothing to coalesce onto: resubmitting it
        // now is a plain miss that runs to completion.
        service.run(&undirected_spec(20, 0.3, 12, 1)).unwrap();
        assert_eq!(service.metrics().coalesced, 0);
    }

    #[test]
    fn injected_store_failure_degrades_to_memory_only() {
        // Every append fails: the first completed run demotes the
        // store, yet every job still returns correct (byte-identical)
        // results from the in-memory path.
        let plan = dsa_runtime::FaultPlan::parse("seed=2;store.append.err=1.0").unwrap();
        let dir = store_dir("degrade");
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::open(&ServiceConfig {
            cache_dir: Some(dir.clone()),
            fault: Some(Arc::new(FaultInjector::new(plan))),
            ..ServiceConfig::default()
        })
        .unwrap();
        let spec = undirected_spec(24, 0.25, 20, 1);
        let a = service.run(&spec).unwrap();
        let b = service.run(&spec).unwrap();
        assert_eq!(a, b, "degraded service still serves identical bytes");
        service.run(&undirected_spec(24, 0.25, 21, 1)).unwrap();
        let m = service.metrics();
        assert_eq!(m.store_degraded, 1);
        assert_eq!(m.store_records, 0, "no record survived the failed appends");
        assert_eq!(
            m.jobs_submitted,
            m.cache_hits + m.cache_misses + m.coalesced + m.shed
        );
        drop(service);
        // The degraded store never poisoned the directory: a healthy
        // reopen starts clean.
        let reopened = Service::open(&ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        reopened.run(&spec).unwrap();
        assert_eq!(reopened.metrics().store_records, 1);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
