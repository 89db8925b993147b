//! What the four workloads share: seeded inputs, scratch directories,
//! the loopback service set-up, the closed-loop callers, process
//! counters and the layer metrics read from the service.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use dsa_core::dist::{run_variant, VariantInstance, VariantKind};
use dsa_core::verify;
use dsa_graphs::canon::Fnv1a;
use dsa_graphs::{canon, gen, EdgeId, EdgeSet, EdgeWeights};
use dsa_runtime::TraceEvent;
use dsa_service::wire::{read_frame, write_frame};
use dsa_service::{JobResponse, JobSpec, MetricsSnapshot, Server, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::metrics::{metrics, Metrics, SPAN_LAYERS};
use crate::stats::{median, share};
use crate::trace::SpanBuf;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The four engine variants, in the order jobs cycle through them.
pub const VARIANTS: [VariantKind; 4] = [
    VariantKind::Undirected,
    VariantKind::Directed,
    VariantKind::Weighted,
    VariantKind::ClientServer,
];

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop callers: one. The process runs on a single CPU (see
/// `main`), where a second caller would only queue behind the first.
pub fn callers() -> usize {
    1
}

/// A random stream derived from the run seed and a domain name, so
/// each input family draws independently of the others.
pub fn rng(seed: u64, domain: &str) -> StdRng {
    let mut h = Fnv1a::new();
    h.write_bytes(domain.as_bytes());
    h.write_u64(seed);
    StdRng::seed_from_u64(h.finish())
}

/// A random instance of `kind` with `n` vertices and average degree
/// about `degree`.
pub fn instance(kind: VariantKind, n: usize, degree: f64, rng: &mut StdRng) -> VariantInstance {
    let p = (degree / n as f64).min(1.0);
    match kind {
        VariantKind::Undirected => VariantInstance::Undirected {
            graph: gen::gnp_connected(n, p, rng),
        },
        VariantKind::Directed => VariantInstance::Directed {
            graph: gen::random_digraph_connected(n, p / 2.0, rng),
        },
        VariantKind::Weighted => {
            let graph = gen::gnp_connected(n, p, rng);
            let weights = gen::random_weights(graph.num_edges(), 1, 9, rng);
            VariantInstance::Weighted { graph, weights }
        }
        VariantKind::ClientServer => {
            let graph = gen::gnp_connected(n, p, rng);
            let (clients, servers) = gen::client_server_split(&graph, 0.6, 0.6, rng);
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            }
        }
    }
}

/// `count` distinct jobs cycling through the four variants, in an
/// order shuffled by `rng`. Every variant gets the same grid of sizes:
/// vertex counts evenly spaced on a log scale over `vertices`, paired
/// with degrees over `degree` along a golden-ratio lattice. Each run
/// thus covers the same continuous size mix, and only the random graphs
/// and the order depend on the seed.
pub fn stratified_jobs(
    count: usize,
    vertices: (usize, usize),
    degree: (f64, f64),
    rng: &mut StdRng,
) -> Vec<JobSpec> {
    const GOLDEN: f64 = 0.618_033_988_749_895;
    let per_variant = count.div_ceil(VARIANTS.len());
    let (lo, hi) = (vertices.0 as f64, vertices.1 as f64);
    let mut jobs: Vec<JobSpec> = (0..count)
        .map(|i| {
            let j = (i / VARIANTS.len()) as f64 + 0.5;
            let n = (lo * (hi / lo).powf(j / per_variant as f64)) as usize;
            let d = degree.0 + (j * GOLDEN).fract() * (degree.1 - degree.0);
            let instance = instance(VARIANTS[i % VARIANTS.len()], n, d, rng);
            JobSpec::new(instance, rng.gen::<u32>() as u64)
        })
        .collect();
    jobs.shuffle(rng);
    jobs
}

/// Whether `spanner` (edge ids of the submitted instance) passes the
/// variant's verifier in `dsa_core::verify`.
pub fn verify_spanner(instance: &VariantInstance, spanner: &[EdgeId]) -> bool {
    let h = EdgeSet::from_iter(instance.num_edges(), spanner.iter().copied());
    match instance {
        VariantInstance::Undirected { graph } | VariantInstance::Weighted { graph, .. } => {
            verify::is_k_spanner(graph, &h, 2)
        }
        VariantInstance::Directed { graph } => verify::is_k_spanner_directed(graph, &h, 2),
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => verify::is_client_server_2_spanner(graph, clients, servers, &h),
    }
}

/// The response a direct engine call gives for `spec`: `run_variant`
/// on the instance in canonical edge order (the order the service
/// solves in), mapped back to the submitted edge ids. The key is taken
/// from `key`, since only the service derives it.
pub fn direct_response(spec: &JobSpec, key: u64) -> JobResponse {
    let remap = |set: &EdgeSet, to: &[EdgeId]| {
        EdgeSet::from_iter(set.universe(), set.iter().map(|e| to[e]))
    };
    let (instance, from_canonical) = match &spec.instance {
        VariantInstance::Undirected { graph } => {
            let c = canon::canonicalize(graph);
            (
                VariantInstance::Undirected { graph: c.graph },
                c.from_canonical,
            )
        }
        VariantInstance::Directed { graph } => {
            let c = canon::canonicalize_digraph(graph);
            (
                VariantInstance::Directed { graph: c.graph },
                c.from_canonical,
            )
        }
        VariantInstance::Weighted { graph, weights } => {
            let c = canon::canonicalize(graph);
            let weights =
                EdgeWeights::from_fn(graph.num_edges(), |e| weights.get(c.from_canonical[e]));
            (
                VariantInstance::Weighted {
                    graph: c.graph,
                    weights,
                },
                c.from_canonical,
            )
        }
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => {
            let c = canon::canonicalize(graph);
            let instance = VariantInstance::ClientServer {
                graph: c.graph,
                clients: remap(clients, &c.to_canonical),
                servers: remap(servers, &c.to_canonical),
            };
            (instance, c.from_canonical)
        }
    };
    let run = run_variant(&instance, &spec.config);
    let mut spanner: Vec<EdgeId> = run.spanner.iter().map(|e| from_canonical[e]).collect();
    spanner.sort_unstable();
    JobResponse {
        key,
        kind: spec.instance.kind(),
        spanner,
        iterations: run.iterations,
        local_rounds: run.local_rounds(),
        converged: run.converged,
        star_fallbacks: run.star_fallbacks,
    }
}

/// The canonicalization the service performs per request, called from
/// outside: canonical edge order plus the graph hash.
pub fn canonicalize(instance: &VariantInstance) -> u64 {
    match instance {
        VariantInstance::Undirected { graph } | VariantInstance::ClientServer { graph, .. } => {
            canon::graph_hash(&canon::canonicalize(graph).graph)
        }
        VariantInstance::Directed { graph } => {
            canon::digraph_hash(&canon::canonicalize_digraph(graph).graph)
        }
        VariantInstance::Weighted { graph, weights } => {
            let c = canon::canonicalize(graph);
            let weights =
                EdgeWeights::from_fn(graph.num_edges(), |e| weights.get(c.from_canonical[e]));
            canon::weighted_graph_hash(&c.graph, &weights)
        }
    }
}

/// Scratch space under `.perfbench/` in the working directory, removed
/// when dropped.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `.perfbench/run-<pid>`.
    pub fn new() -> std::io::Result<Scratch> {
        let root = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// An empty directory `name` inside the scratch space.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A fresh copy of the fixture store in a new directory `name`.
pub fn copy_store(scratch: &Scratch, fixture: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = scratch.fresh(name)?;
    std::fs::copy(fixture.join("results.log"), dir.join("results.log"))?;
    Ok(dir)
}

/// The service configuration every workload serves with.
pub fn service_config(cache_dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        workers: nproc(),
        cache_dir,
        ..ServiceConfig::default()
    }
}

/// Opens a service, panicking with the reason on an IO error.
pub fn open_service(cache_dir: Option<PathBuf>) -> Arc<Service> {
    Arc::new(Service::open(&service_config(cache_dir)).expect("open the service store"))
}

/// A loopback wire-protocol frontend over a service, with one
/// connected stream per caller.
pub struct TcpEnv {
    /// The service behind the listener.
    pub service: Arc<Service>,
    server: Server,
    clients: Vec<TcpStream>,
}

impl TcpEnv {
    /// Binds the TCP listener over `service` and connects the callers.
    pub fn start(service: Arc<Service>) -> TcpEnv {
        let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind TCP");
        let clients = (0..callers())
            .map(|_| {
                let s = TcpStream::connect(server.addr()).expect("connect TCP");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s
            })
            .collect();
        TcpEnv {
            service,
            server,
            clients,
        }
    }

    /// Sends `frames[i]` for every op `i` of `feed` over the callers'
    /// connections, one frame out and one back per op, inside a
    /// `wire.roundtrip` span.
    pub fn pass(
        &mut self,
        feed: &Feed,
        frames: &[Vec<u8>],
        traced: bool,
    ) -> Pass<(), Result<Vec<u8>, String>> {
        let clients = std::mem::take(&mut self.clients);
        let mut pass = closed_loop(clients, feed, traced, |s: &mut TcpStream, spans, i| {
            spans.time("wire.roundtrip", i, None, || roundtrip(s, &frames[i]))
        });
        self.clients = std::mem::take(&mut pass.callers);
        Pass {
            callers: Vec::new(),
            ops: pass.ops,
            spans: pass.spans,
            seconds: pass.seconds,
        }
    }

    /// Closes the connections, stops the listener and drops the service.
    pub fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
        drop(self.service);
    }
}

/// One frame out, one frame back.
fn roundtrip(stream: &mut TcpStream, frame: &[u8]) -> Result<Vec<u8>, String> {
    write_frame(stream, frame).map_err(|e| e.to_string())?;
    read_frame(stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection".to_string())
}

/// Runs `setup` [`SETUP_REPEATS`] times, each after tearing down the
/// previous environment and an untimed `prepare`, and returns the last
/// environment with the median set-up time in seconds. Only one
/// environment is alive at a time, so the peak resident set does not
/// depend on how two of them happen to overlap.
pub fn timed_setups<P, E>(
    mut prepare: impl FnMut(usize) -> P,
    mut setup: impl FnMut(P) -> E,
    mut teardown: impl FnMut(E),
) -> (E, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let prepared = prepare(k);
        let t0 = Instant::now();
        last = Some(setup(prepared));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// One op as its caller saw it.
pub struct OpRecord<T> {
    /// Index of the op in the workload's op list.
    pub op: usize,
    /// Start, in nanoseconds since the window opened.
    pub start_ns: u64,
    /// End, in nanoseconds since the window opened.
    pub end_ns: u64,
    /// What the op returned.
    pub out: T,
}

impl<T> OpRecord<T> {
    /// Latency in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// How callers get their ops.
pub enum Feed {
    /// All callers pull from one shared list of this many ops.
    Shared(usize),
    /// Caller `c` runs `scripts[c]` in order.
    Scripts(Vec<Vec<usize>>),
}

/// What a closed-loop pass produced.
pub struct Pass<C, T> {
    /// The callers' states, handed back.
    pub callers: Vec<C>,
    /// Every op, grouped by caller.
    pub ops: Vec<Vec<OpRecord<T>>>,
    /// Each caller's spans.
    pub spans: Vec<SpanBuf>,
    /// Window length: from the common start to the last op's end.
    pub seconds: f64,
}

impl<C, T> Pass<C, T> {
    /// Every op, in no particular order.
    pub fn records(&self) -> impl Iterator<Item = &OpRecord<T>> {
        self.ops.iter().flatten()
    }

    /// Number of ops run.
    pub fn count(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }
}

/// Runs `op` for every op of `feed`, one closed-loop thread per caller
/// state: a caller sends its next op only when the previous returned.
/// With `traced`, each caller records its spans into its own buffer.
pub fn closed_loop<C, T, F>(callers: Vec<C>, feed: &Feed, traced: bool, op: F) -> Pass<C, T>
where
    C: Send,
    T: Send,
    F: Fn(&mut C, &mut SpanBuf, usize) -> T + Sync,
{
    let n = callers.len();
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(n + 1);
    let epoch = Instant::now();
    let mut results: Vec<(C, Vec<OpRecord<T>>, SpanBuf)> = Vec::with_capacity(n);
    let mut start_ns = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(c, mut state)| {
                let (next, barrier, op) = (&next, &barrier, &op);
                scope.spawn(move || {
                    let mut spans = SpanBuf::new(epoch, traced);
                    let mut records = Vec::new();
                    let mut cursor = 0;
                    barrier.wait();
                    loop {
                        let i = match feed {
                            Feed::Shared(total) => {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= *total {
                                    break;
                                }
                                i
                            }
                            Feed::Scripts(scripts) => match scripts[c].get(cursor) {
                                Some(&i) => i,
                                None => break,
                            },
                        };
                        cursor += 1;
                        let start = epoch.elapsed().as_nanos() as u64;
                        let out = op(&mut state, &mut spans, i);
                        let end = epoch.elapsed().as_nanos() as u64;
                        records.push(OpRecord {
                            op: i,
                            start_ns: start,
                            end_ns: end,
                            out,
                        });
                    }
                    (state, records, spans)
                })
            })
            .collect();
        barrier.wait();
        start_ns = epoch.elapsed().as_nanos() as u64;
        for h in handles {
            results.push(h.join().expect("caller thread panicked"));
        }
    });
    let mut pass = Pass {
        callers: Vec::with_capacity(n),
        ops: Vec::with_capacity(n),
        spans: Vec::with_capacity(n),
        seconds: 0.0,
    };
    let mut last_end = start_ns;
    for (state, mut records, spans) in results {
        for r in &mut records {
            // Report times from the window start.
            r.start_ns = r.start_ns.saturating_sub(start_ns);
            r.end_ns = r.end_ns.saturating_sub(start_ns);
            last_end = last_end.max(r.end_ns + start_ns);
        }
        pass.callers.push(state);
        pass.ops.push(records);
        pass.spans.push(spans);
    }
    pass.seconds = (last_end - start_ns) as f64 / 1e9;
    pass
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, through `/proc/self/clear_refs`. Called once the
/// inputs are built, so `peak_rss_mb` covers the set-ups and the window
/// and not the benchmark's own input generation. Without the file the
/// peak simply keeps counting from the start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process, in seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Cumulative `(steal, total)` clock ticks of all CPUs, from
/// `/proc/stat`. On a virtual machine, steal is time the host ran
/// something else while this guest had work.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Drains a service's flight recorder on a background thread often
/// enough that the ring never overflows, keeping every event.
pub struct FlightLog {
    stop: Arc<AtomicBool>,
    events: Arc<Mutex<Vec<TraceEvent>>>,
    thread: Option<std::thread::JoinHandle<()>>,
    service: Arc<Service>,
}

impl FlightLog {
    /// Starts draining `service`'s recorder, dropping what it already holds.
    pub fn start(service: &Arc<Service>) -> FlightLog {
        service.flight_recorder().drain();
        let stop = Arc::new(AtomicBool::new(false));
        let events = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, events, service) =
                (Arc::clone(&stop), Arc::clone(&events), Arc::clone(service));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let batch = service.flight_recorder().drain();
                    events.lock().expect("flight log lock").extend(batch);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        FlightLog {
            stop,
            events,
            thread: Some(thread),
            service: Arc::clone(service),
        }
    }

    /// Stops draining and returns every event. Events the ring dropped
    /// before a drain would leave the trace incomplete, so they are
    /// reported in `errors`.
    pub fn finish(mut self, errors: &mut Vec<String>) -> Vec<TraceEvent> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("flight drainer panicked");
        }
        let mut events = std::mem::take(&mut *self.events.lock().expect("flight log lock"));
        events.extend(self.service.flight_recorder().drain());
        let dropped = self.service.flight_recorder().dropped();
        if dropped > 0 {
            errors.push(format!("the flight recorder dropped {dropped} events"));
        }
        events
    }
}

fn field<'a>(e: &'a TraceEvent, name: &str) -> Option<&'a str> {
    e.fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn field_ms(e: &TraceEvent, name: &str) -> f64 {
    field(e, name)
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
        / 1e3
}

/// Engine-layer metrics from the recorder's `engine.run` spans, and the
/// pool's queue wait (`job.queued` to the start of `engine.run`).
pub fn engine_metrics(events: &[TraceEvent]) -> Metrics {
    let runs: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "engine.run").collect();
    let solve: Vec<f64> = runs
        .iter()
        .map(|e| e.dur_us.unwrap_or(0) as f64 / 1e3)
        .collect();
    let step = |name: &str| -> Vec<f64> { runs.iter().map(|e| field_ms(e, name)).collect() };
    let (step1, step3, step4, coverage) = (
        step("step1_us"),
        step("step3_us"),
        step("step4_us"),
        step("coverage_us"),
    );
    let queued: std::collections::HashMap<u64, u64> = events
        .iter()
        .filter(|e| e.name == "job.queued")
        .map(|e| (e.trace_id, e.at_us))
        .collect();
    let waits: Vec<f64> = runs
        .iter()
        .filter_map(|e| {
            queued
                .get(&e.trace_id)
                .map(|&q| e.at_us.saturating_sub(q) as f64 / 1e3)
        })
        .collect();
    metrics(&[
        ("engine.solve_ms", median(&solve)),
        ("engine.step1_ms", median(&step1)),
        ("engine.step3_ms", median(&step3)),
        ("engine.step4_ms", median(&step4)),
        ("engine.coverage_ms", median(&coverage)),
        (
            "engine.step1_share",
            share(step1.iter().sum(), solve.iter().sum()),
        ),
        ("pool.queue_wait_ms", median(&waits)),
    ])
}

/// Which cache tier answered each submission, by trace id, plus the
/// submissions of each job key in time order — enough to classify an
/// op whose key and recorder-clock interval are known.
pub struct HitLog {
    tiers: std::collections::HashMap<u64, &'static str>,
    submitted: std::collections::HashMap<String, Vec<(u64, u64)>>,
}

impl HitLog {
    /// Indexes `events`.
    pub fn new(events: &[TraceEvent]) -> HitLog {
        let mut tiers = std::collections::HashMap::new();
        let mut submitted: std::collections::HashMap<String, Vec<(u64, u64)>> = Default::default();
        for e in events {
            match e.name.as_str() {
                "job.cache_hit" => {
                    tiers.insert(e.trace_id, "lru_hit");
                }
                "job.disk_hit" => {
                    tiers.insert(e.trace_id, "disk_hit");
                }
                "job.queued" => {
                    tiers.insert(e.trace_id, "miss");
                }
                "job.submitted" => {
                    if let Some(key) = field(e, "key") {
                        submitted
                            .entry(key.to_string())
                            .or_default()
                            .push((e.at_us, e.trace_id));
                    }
                }
                _ => {}
            }
        }
        HitLog { tiers, submitted }
    }

    /// The tier that answered the submission of `key` made within
    /// `[from_us, to_us]` on the recorder clock.
    pub fn tier(&mut self, key: u64, from_us: u64, to_us: u64) -> Option<&'static str> {
        let list = self.submitted.get_mut(&format!("{key:016x}"))?;
        let pos = list
            .iter()
            .position(|&(at, _)| at >= from_us && at <= to_us)?;
        let (_, trace) = list.remove(pos);
        self.tiers.get(&trace).copied()
    }
}

/// Service-layer metrics from two snapshots taken around a window.
pub fn service_metrics(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Metrics {
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let hits = d(|m| m.cache_hits);
    let disk = d(|m| m.disk_hits);
    metrics(&[
        ("engine.runs", d(|m| m.latency_hist_count)),
        ("engine.iterations", d(|m| m.engine_iterations)),
        ("cache.misses", d(|m| m.cache_misses)),
        ("cache.hit_ratio", share(hits, d(|m| m.jobs_submitted))),
        ("cache.disk_hit_share", share(disk, hits)),
        ("pool.shed", d(|m| m.shed)),
        ("store.recovery_ms", after.store_recovery_us as f64 / 1e3),
        ("store.read_us_per_hit", share(d(|m| m.store_read_us), disk)),
        (
            "store.write_us_per_append",
            share(d(|m| m.store_write_us), d(|m| m.store_records)),
        ),
        ("graphs.commuted", d(|m| m.graph_deltas_commuted)),
        ("graphs.repaired", d(|m| m.graph_deltas_repaired)),
        ("graphs.recomputed", d(|m| m.graph_deltas_recomputed)),
    ])
}

/// Per-layer metrics of span-timed calls: for every call name of
/// [`SPAN_LAYERS`] that was recorded, the median self time under the
/// layer metric's name, plus `<call>.calls` and `<call>.self_ms`
/// (summed self time).
pub fn span_metrics(bufs: &[SpanBuf]) -> Metrics {
    let stats = crate::trace::layer_stats(bufs);
    let mut out = Vec::new();
    for &(span, metric, unit) in SPAN_LAYERS {
        if let Some(s) = stats.get(span) {
            let per_call = if unit == "us" {
                s.median_us()
            } else {
                s.median_us() / 1e3
            };
            out.push((metric.to_string(), per_call));
            out.push((format!("{span}.calls"), s.calls() as f64));
            out.push((format!("{span}.self_ms"), s.total_ms()));
        }
    }
    out
}

/// Share and median latency (ms) of each op type, from `(type,
/// latency)` pairs.
pub fn op_type_metrics(types: &[(&'static str, f64)]) -> Metrics {
    let total = types.len() as f64;
    let mut names: Vec<&'static str> = types.iter().map(|&(t, _)| t).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = Vec::new();
    for name in names {
        let ms: Vec<f64> = types
            .iter()
            .filter(|&&(t, _)| t == name)
            .map(|&(_, ms)| ms)
            .collect();
        out.push((format!("op.{name}.share"), ms.len() as f64 / total));
        out.push((format!("op.{name}.p50_ms"), median(&ms)));
    }
    out
}

/// Median over ops of the socket round trip minus the time the direct
/// pass spent, for the same op, in the calls a connection thread makes
/// (`calls`): what the network path and the frontend add.
pub fn residual_ms<C, T>(socket: &Pass<C, T>, direct: &[SpanBuf], calls: &[&str]) -> f64 {
    let mut in_process: std::collections::HashMap<usize, u64> = Default::default();
    for buf in direct {
        for s in buf.spans().iter().filter(|s| calls.contains(&s.name)) {
            *in_process.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
    }
    let diffs: Vec<f64> = socket
        .records()
        .filter_map(|r| in_process.get(&r.op).map(|&ns| r.ms() - ns as f64 / 1e6))
        .collect();
    median(&diffs)
}
