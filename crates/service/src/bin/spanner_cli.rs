//! `spanner-cli` — command-line client for `spanner-serve`.
//!
//! ```text
//! spanner-cli [--addr HOST:PORT] [--http] ping
//! spanner-cli [--addr HOST:PORT] [--http] stats
//! spanner-cli [--addr HOST:PORT] [--http] run --variant KIND --seed N
//!             [--input FILE|-] [--clients "IDS"] [--servers "IDS"]
//!             [--timeout-ms N] [--accept-denominator N]
//!             [--shards N] [--no-monotone] [--no-rounding] [--ids]
//!             [--retries N] [--retry-base-ms MS]
//! spanner-cli [--addr HOST:PORT] [--http] graph create --id ID
//!             --variant KIND --seed N [--input FILE|-]
//!             [--clients "IDS"] [--servers "IDS"]
//!             [--accept-denominator N] [--no-monotone] [--no-rounding]
//! spanner-cli [--addr HOST:PORT] [--http] graph patch --id ID [--input FILE|-]
//! spanner-cli [--addr HOST:PORT] [--http] graph <get|spanner|delete> --id ID
//! ```
//!
//! `graph` drives the named long-lived graphs API: `create` reads the
//! initial edge list (same formats as `run`), `patch` reads delta-op
//! lines — `+ u v` / `+ u v WEIGHT` / `+ u v client|server|both`
//! inserts, `- u v` deletes, blank lines and `#` comments skipped —
//! and `spanner` prints the maintained spanner as `u v` lines, a pure
//! function of the graph's delta history; see the README's Graphs API
//! section. The `commuted`/`repaired`/`recomputed`, `cover` and `debt`
//! columns of `patch` and `get` are deprecated and always read 0 or
//! `none`.
//!
//! `--retries N` retries a `run` up to `N` times when the server sheds
//! it (HTTP 429 / wire `busy`, honoring the server's retry hint),
//! cancels it, or drops the connection — with capped jittered
//! exponential backoff starting at `--retry-base-ms MS` (default 50).
//! Safe to use blindly: a job response is a pure function of the spec,
//! so a retried submission can only return the same bytes.
//!
//! `--http` speaks the HTTP/JSON facade instead of the TCP wire
//! protocol — `run` becomes `POST /v1/jobs`, `stats` becomes
//! `GET /v1/metrics`, and `ping` becomes `GET /healthz` — against the
//! port given to `spanner-serve --http-port`. Either way the response
//! is the same: both surfaces serve one cache.
//!
//! `--shards N` asks the server to run the engine with `N`
//! in-iteration shards (`0` = one per core); the spanner is identical
//! whatever the value (and the server may override it).
//!
//! `--log-level LEVEL` (error/warn/info/debug/trace, default `info`)
//! sets the threshold for structured stderr log lines; errors are
//! reported through the same [`dsa_runtime::obs`] format the server
//! uses, so mixed client/server logs grep uniformly.
//!
//! `run` reads a [`dsa_graphs::io`] edge list from `--input` (default
//! stdin; weighted lines `u v w` for the weighted variant, tail/head
//! lines for directed), submits it, and prints a summary plus the
//! spanner as `u v` lines (or raw edge ids with `--ids`). For the
//! client-server variant, `--clients`/`--servers` take
//! whitespace-separated edge ids of the input edge list.

#![forbid(unsafe_code)]

use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

use dsa_core::dist::{VariantInstance, VariantKind};
use dsa_graphs::io as gio;
use dsa_graphs::EdgeSet;
use dsa_service::{
    Client, DeltaOp, GraphCreated, GraphMeta, GraphPatched, GraphSpannerResult, GraphSpec,
    HttpClient, JobError, JobResponse, JobSpec, RetryPolicy,
};

const USAGE: &str =
    "usage: spanner-cli [--addr HOST:PORT] [--http] [--log-level LEVEL] <ping|stats|run|graph> [options]\n\
     run options: --variant <undirected|directed|weighted|client-server> --seed N\n\
     \x20            [--input FILE|-] [--clients \"IDS\"] [--servers \"IDS\"]\n\
     \x20            [--timeout-ms N] [--accept-denominator N] [--shards N]\n\
     \x20            [--no-monotone] [--no-rounding] [--ids]\n\
     \x20            [--retries N] [--retry-base-ms MS]\n\
     graph subcommands: create --id ID --variant KIND --seed N [--input FILE|-]\n\
     \x20                    [--clients \"IDS\"] [--servers \"IDS\"]\n\
     \x20                    [--accept-denominator N] [--no-monotone] [--no-rounding]\n\
     \x20                  patch --id ID [--input FILE|-]   (op lines: `+ u v [w|role]`, `- u v`)\n\
     \x20                  get|spanner|delete --id ID";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Explicit `--help` is a successful invocation, unlike bad usage.
fn help() -> ! {
    println!("{USAGE}");
    std::process::exit(0);
}

fn fail(msg: &str) -> ! {
    dsa_runtime::obs::error("spanner-cli", msg, &[]);
    std::process::exit(1);
}

struct RunArgs {
    id: Option<String>,
    variant: Option<VariantKind>,
    seed: Option<u64>,
    input: String,
    clients: Option<String>,
    servers: Option<String>,
    timeout_ms: Option<u64>,
    accept_denominator: Option<u64>,
    shards: Option<u64>,
    monotone: bool,
    rounding: bool,
    print_ids: bool,
    retries: u32,
    retry_base_ms: u64,
}

/// The transport behind every CLI command: the TCP wire protocol or
/// the HTTP/JSON facade. Both answer with the same [`JobResponse`]
/// bytes-for-bytes semantics, so the rest of the CLI is agnostic.
enum Transport {
    Tcp(Client),
    Http(HttpClient),
}

impl Transport {
    fn run(
        &mut self,
        spec: &JobSpec,
        policy: Option<&RetryPolicy>,
    ) -> Result<JobResponse, JobError> {
        match (self, policy) {
            (Transport::Tcp(c), None) => c.run(spec),
            (Transport::Tcp(c), Some(p)) => c.run_with_retry(spec, p),
            (Transport::Http(c), None) => c.run(spec),
            (Transport::Http(c), Some(p)) => c.run_with_retry(spec, p),
        }
    }

    fn stats_json(&mut self) -> Result<String, JobError> {
        match self {
            Transport::Tcp(c) => c.stats_json(),
            Transport::Http(c) => c.metrics_json(),
        }
    }

    fn ping(&mut self) -> Result<(), JobError> {
        match self {
            Transport::Tcp(c) => c.ping(),
            Transport::Http(c) => c.healthz(),
        }
    }

    fn graph_create(&mut self, spec: &GraphSpec) -> Result<GraphCreated, JobError> {
        match self {
            Transport::Tcp(c) => c.graph_create(spec),
            Transport::Http(c) => c.graph_create(spec),
        }
    }

    fn graph_patch(&mut self, id: &str, ops: &[DeltaOp]) -> Result<GraphPatched, JobError> {
        match self {
            Transport::Tcp(c) => c.graph_patch(id, ops),
            Transport::Http(c) => c.graph_patch(id, ops),
        }
    }

    fn graph_get(&mut self, id: &str) -> Result<GraphMeta, JobError> {
        match self {
            Transport::Tcp(c) => c.graph_get(id),
            Transport::Http(c) => c.graph_get(id),
        }
    }

    fn graph_spanner(&mut self, id: &str) -> Result<GraphSpannerResult, JobError> {
        match self {
            Transport::Tcp(c) => c.graph_spanner(id),
            Transport::Http(c) => c.graph_spanner(id),
        }
    }

    fn graph_delete(&mut self, id: &str) -> Result<(), JobError> {
        match self {
            Transport::Tcp(c) => c.graph_delete(id),
            Transport::Http(c) => c.graph_delete(id),
        }
    }
}

fn main() -> ExitCode {
    dsa_runtime::obs::install_panic_hook();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7071".to_string();
    let mut http = false;
    let mut rest = &argv[..];
    loop {
        match rest.first().map(String::as_str) {
            Some("--addr") => {
                if rest.len() < 2 {
                    usage();
                }
                addr = rest[1].clone();
                rest = &rest[2..];
            }
            Some("--http") => {
                http = true;
                rest = &rest[1..];
            }
            Some("--log-level") => {
                if rest.len() < 2 {
                    usage();
                }
                match rest[1].parse() {
                    Ok(level) => dsa_runtime::obs::set_log_level(level),
                    Err(_) => fail(&format!(
                        "invalid value `{}` for --log-level (expected error/warn/info/debug/trace)",
                        rest[1]
                    )),
                }
                rest = &rest[2..];
            }
            _ => break,
        }
    }
    let Some(command) = rest.first() else { usage() };
    let connect = || -> Transport {
        if http {
            Transport::Http(
                HttpClient::connect(addr.as_str())
                    .unwrap_or_else(|e| fail(&format!("cannot connect to http://{addr}: {e}"))),
            )
        } else {
            Transport::Tcp(
                Client::connect(addr.as_str())
                    .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}"))),
            )
        }
    };
    match command.as_str() {
        "--help" | "-h" => help(),
        "ping" => {
            let mut client = connect();
            match client.ping() {
                Ok(()) => {
                    println!("pong from {addr}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("ping: {e}")),
            }
        }
        "stats" => {
            let mut client = connect();
            match client.stats_json() {
                Ok(json) => {
                    println!("{json}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("stats: {e}")),
            }
        }
        "run" => run_command(&rest[1..], connect),
        "graph" => graph_command(&rest[1..], connect),
        other => {
            dsa_runtime::obs::error("spanner-cli", "unknown command", &[("command", &other)]);
            usage()
        }
    }
}

fn run_command(args: &[String], connect: impl FnOnce() -> Transport) -> ExitCode {
    let args = parse_run_args(args);
    let variant = args
        .variant
        .unwrap_or_else(|| fail("--variant is required"));
    let seed = args.seed.unwrap_or_else(|| fail("--seed is required"));
    let text = read_input(&args.input);
    let instance = build_instance(variant, &text, &args);

    let mut spec = JobSpec::new(instance, seed);
    if let Some(d) = args.accept_denominator {
        spec.config.accept_denominator = d;
    }
    if let Some(s) = args.shards {
        spec.config.num_shards = s as usize;
    }
    spec.config.monotone_stars = args.monotone;
    spec.config.round_densities = args.rounding;
    spec.timeout = args.timeout_ms.map(Duration::from_millis);

    let policy = (args.retries > 0).then(|| RetryPolicy {
        base: Duration::from_millis(args.retry_base_ms),
        // Jitter from the job seed: concurrent CLI invocations across
        // a fleet naturally de-synchronize, one invocation replays.
        seed,
        ..RetryPolicy::new(args.retries)
    });
    let mut client = connect();
    let resp = client
        .run(&spec, policy.as_ref())
        .unwrap_or_else(|e| fail(&format!("run: {e}")));
    println!(
        "variant {} key {:016x} converged {} iterations {} local-rounds {} spanner {} edges",
        resp.kind,
        resp.key,
        resp.converged,
        resp.iterations,
        resp.local_rounds,
        resp.spanner.len(),
    );
    if args.print_ids {
        println!(
            "{}",
            resp.spanner
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
    } else {
        // Echo spanner edges as endpoint pairs of the *input* graph.
        let endpoints = endpoints_of(&spec.instance);
        for &e in &resp.spanner {
            let (u, v) = endpoints[e];
            println!("{u} {v}");
        }
    }
    ExitCode::SUCCESS
}

fn graph_command(args: &[String], connect: impl FnOnce() -> Transport) -> ExitCode {
    let Some(op) = args.first() else {
        fail("graph needs a subcommand: create|patch|get|spanner|delete")
    };
    let args = parse_run_args(&args[1..]);
    let id = args
        .id
        .clone()
        .unwrap_or_else(|| fail("--id is required for graph subcommands"));
    let mut client = connect();
    match op.as_str() {
        "create" => {
            let variant = args
                .variant
                .unwrap_or_else(|| fail("--variant is required"));
            let seed = args.seed.unwrap_or_else(|| fail("--seed is required"));
            if args.timeout_ms.is_some() || args.shards.is_some() {
                fail("graph create does not take --timeout-ms or --shards (execution policy is per-read, not graph identity)");
            }
            let text = read_input(&args.input);
            let instance = build_instance(variant, &text, &args);
            // Same seeded default config a `run` job starts from; the
            // per-read knobs (timeout, shards) are rejected above.
            let mut spec = GraphSpec {
                id,
                instance,
                config: dsa_core::dist::EngineConfig::seeded(seed),
            };
            if let Some(d) = args.accept_denominator {
                spec.config.accept_denominator = d;
            }
            spec.config.monotone_stars = args.monotone;
            spec.config.round_densities = args.rounding;
            let created = client
                .graph_create(&spec)
                .unwrap_or_else(|e| fail(&format!("graph create: {e}")));
            println!(
                "graph {} {} version {} edges {} spanner {} edges",
                created.id,
                if created.existed {
                    "existed"
                } else {
                    "created"
                },
                created.version,
                created.edges,
                created.spanner_size,
            );
        }
        "patch" => {
            let text = read_input(&args.input);
            let ops = dsa_service::wire::parse_delta_ops(&text)
                .unwrap_or_else(|e| fail(&format!("bad delta ops: {e}")));
            let patched = client
                .graph_patch(&id, &ops)
                .unwrap_or_else(|e| fail(&format!("graph patch: {e}")));
            println!(
                "graph {} version {} applied {} commuted {} repaired {} recomputed {} edges {}",
                patched.id,
                patched.version,
                patched.applied,
                patched.classes.commuted,
                patched.classes.repaired,
                patched.classes.recomputed,
                patched.edges,
            );
        }
        "get" => {
            let meta = client
                .graph_get(&id)
                .unwrap_or_else(|e| fail(&format!("graph get: {e}")));
            println!(
                "graph {} variant {} version {} vertices {} edges {} seed {} cover {} debt {} commuted {} repaired {} recomputed {}",
                meta.id,
                meta.kind,
                meta.version,
                meta.vertices,
                meta.edges,
                meta.seed,
                meta.cover_size
                    .map_or_else(|| "none".to_string(), |n| n.to_string()),
                meta.debt,
                meta.classes.commuted,
                meta.classes.repaired,
                meta.classes.recomputed,
            );
        }
        "spanner" => {
            let s = client
                .graph_spanner(&id)
                .unwrap_or_else(|e| fail(&format!("graph spanner: {e}")));
            println!(
                "graph {} version {} key {:016x} variant {} converged {} iterations {} local-rounds {} spanner {} edges",
                s.id,
                s.version,
                s.key,
                s.kind,
                s.converged,
                s.iterations,
                s.local_rounds,
                s.edges.len(),
            );
            for &(u, v) in &s.edges {
                println!("{u} {v}");
            }
        }
        "delete" => {
            client
                .graph_delete(&id)
                .unwrap_or_else(|e| fail(&format!("graph delete: {e}")));
            println!("graph {id} deleted");
        }
        other => fail(&format!(
            "unknown graph subcommand `{other}` (expected create|patch|get|spanner|delete)"
        )),
    }
    ExitCode::SUCCESS
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut out = RunArgs {
        id: None,
        variant: None,
        seed: None,
        input: "-".to_string(),
        clients: None,
        servers: None,
        timeout_ms: None,
        accept_denominator: None,
        shards: None,
        monotone: true,
        rounding: true,
        print_ids: false,
        retries: 0,
        retry_base_ms: 50,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--id" => out.id = Some(value("--id")),
            "--variant" => {
                out.variant = Some(
                    value("--variant")
                        .parse()
                        .unwrap_or_else(|e: String| fail(&e)),
                )
            }
            "--seed" => out.seed = Some(parse_num(&value("--seed"), "--seed")),
            "--input" => out.input = value("--input"),
            "--clients" => out.clients = Some(value("--clients")),
            "--servers" => out.servers = Some(value("--servers")),
            "--timeout-ms" => {
                out.timeout_ms = Some(parse_num(&value("--timeout-ms"), "--timeout-ms"))
            }
            "--accept-denominator" => {
                out.accept_denominator = Some(parse_num(
                    &value("--accept-denominator"),
                    "--accept-denominator",
                ))
            }
            "--shards" => out.shards = Some(parse_num(&value("--shards"), "--shards")),
            "--no-monotone" => out.monotone = false,
            "--no-rounding" => out.rounding = false,
            "--ids" => out.print_ids = true,
            "--retries" => out.retries = parse_num(&value("--retries"), "--retries") as u32,
            "--retry-base-ms" => {
                out.retry_base_ms = parse_num(&value("--retry-base-ms"), "--retry-base-ms")
            }
            other => fail(&format!("unknown run option {other}")),
        }
    }
    out
}

fn parse_num(value: &str, flag: &str) -> u64 {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("invalid value `{value}` for {flag}")))
}

fn read_input(path: &str) -> String {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .unwrap_or_else(|e| fail(&format!("reading stdin: {e}")));
        text
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")))
    }
}

fn parse_ids(text: &str, universe: usize, what: &str) -> EdgeSet {
    // Same validator the server runs, so CLI and wire never drift.
    dsa_service::wire::parse_id_list(text, universe, what).unwrap_or_else(|e| fail(&e.to_string()))
}

fn build_instance(variant: VariantKind, text: &str, args: &RunArgs) -> VariantInstance {
    match variant {
        VariantKind::Undirected => {
            let (graph, w) =
                gio::parse_edge_list(text).unwrap_or_else(|e| fail(&format!("bad input: {e}")));
            if w.is_some() {
                fail("undirected variant takes an unweighted edge list");
            }
            VariantInstance::Undirected { graph }
        }
        VariantKind::Weighted => {
            let (graph, w) =
                gio::parse_edge_list(text).unwrap_or_else(|e| fail(&format!("bad input: {e}")));
            let weights = w.unwrap_or_else(|| fail("weighted variant needs `u v w` edge lines"));
            VariantInstance::Weighted { graph, weights }
        }
        VariantKind::Directed => {
            let graph = gio::parse_directed_edge_list(text)
                .unwrap_or_else(|e| fail(&format!("bad input: {e}")));
            VariantInstance::Directed { graph }
        }
        VariantKind::ClientServer => {
            let (graph, w) =
                gio::parse_edge_list(text).unwrap_or_else(|e| fail(&format!("bad input: {e}")));
            if w.is_some() {
                fail("client-server variant takes an unweighted edge list");
            }
            let m = graph.num_edges();
            let clients = parse_ids(
                args.clients
                    .as_deref()
                    .unwrap_or_else(|| fail("--clients is required for client-server")),
                m,
                "client",
            );
            let servers = parse_ids(
                args.servers
                    .as_deref()
                    .unwrap_or_else(|| fail("--servers is required for client-server")),
                m,
                "server",
            );
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            }
        }
    }
}

fn endpoints_of(instance: &VariantInstance) -> Vec<(usize, usize)> {
    match instance {
        VariantInstance::Undirected { graph }
        | VariantInstance::Weighted { graph, .. }
        | VariantInstance::ClientServer { graph, .. } => {
            graph.edges().map(|(_, u, v)| (u, v)).collect()
        }
        VariantInstance::Directed { graph } => graph.edges().map(|(_, u, v)| (u, v)).collect(),
    }
}
