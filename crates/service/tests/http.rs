//! Integration and property tests for the HTTP/JSON facade: all four
//! variants end to end, cache byte-identity over response bodies, one
//! cache shared between the TCP and HTTP frontends, and — the
//! malformed-input contract — oversized bodies, truncated requests,
//! bad JSON, unknown routes, and wrong methods each mapping to the
//! right status code without wedging the connection thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsa_core::dist::VariantInstance;
use dsa_graphs::gen;
use dsa_runtime::json::Json;
use dsa_service::http::{self, HttpClient, MAX_BODY};
use dsa_service::{HttpServer, JobError, JobSpec, RetryPolicy, Server, Service, ServiceConfig};

fn start_server() -> HttpServer {
    HttpServer::start("127.0.0.1:0", &ServiceConfig::default()).expect("bind http server")
}

fn undirected_spec(n: usize, p: f64, graph_seed: u64, engine_seed: u64) -> JobSpec {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    JobSpec::new(
        VariantInstance::Undirected {
            graph: gen::gnp_connected(n, p, &mut rng),
        },
        engine_seed,
    )
}

fn all_variant_specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(18, 0.3, &mut rng);
    let d = gen::random_digraph_connected(14, 0.14, &mut rng);
    let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
    vec![
        JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, 1),
        JobSpec::new(VariantInstance::Directed { graph: d }, 2),
        JobSpec::new(
            VariantInstance::Weighted {
                graph: g.clone(),
                weights: w,
            },
            3,
        ),
        JobSpec::new(
            VariantInstance::ClientServer {
                graph: g,
                clients,
                servers,
            },
            4,
        ),
    ]
}

/// Sends raw bytes on a fresh connection and reads one HTTP response,
/// returning (status, head text, body). Panics on malformed responses.
fn raw_roundtrip(addr: std::net::SocketAddr, request: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("write");
    stream.flush().expect("flush");
    read_one_response(&mut stream)
}

fn read_one_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let k = stream.read(&mut chunk).expect("read response");
        assert!(k > 0, "connection closed before a full response head");
        buf.extend_from_slice(&chunk[..k]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("head utf8");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("Content-Length header");
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let k = stream.read(&mut chunk).expect("read body");
        assert!(k > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..k]);
    }
    body.truncate(content_length);
    (status, head, body)
}

#[test]
fn serves_all_variants_with_cache_byte_identity() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    client.healthz().expect("healthz");
    for spec in &all_variant_specs(2018) {
        let (cold_status, cold) = client.run_raw(spec).expect("cold run");
        assert_eq!(cold_status, 200, "{}", String::from_utf8_lossy(&cold));
        let resp = http::decode_job_response(&cold).expect("decode");
        assert!(resp.converged);
        // The repeat is a cache hit and must be byte-identical.
        let (warm_status, warm) = client.run_raw(spec).expect("warm run");
        assert_eq!(warm_status, 200);
        assert_eq!(cold, warm, "cache hit bytes differ from cold run");
    }
    let m = server.service().metrics();
    assert_eq!(m.cache_misses, 4);
    assert_eq!(m.cache_hits, 4);
    assert_eq!(
        m.jobs_submitted,
        m.cache_hits + m.cache_misses + m.coalesced
    );
}

#[test]
fn tcp_and_http_share_one_cache() {
    // One Service behind both frontends, exactly as `spanner-serve
    // --http-port` wires them: a job computed via TCP is a cache hit
    // via HTTP (and vice versa), with identical decoded responses.
    let service = Arc::new(Service::new(&ServiceConfig::default()));
    let tcp = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("tcp server");
    let http_srv = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("http");
    let mut wire_client = dsa_service::Client::connect(tcp.addr()).expect("tcp connect");
    let mut http_client = HttpClient::connect(http_srv.addr()).expect("http connect");

    let spec = undirected_spec(22, 0.25, 5, 11);
    let via_tcp = wire_client.run(&spec).expect("tcp run");
    let via_http = http_client.run(&spec).expect("http run");
    assert_eq!(via_tcp, via_http, "frontends disagree on one spec");
    let m = service.metrics();
    assert_eq!(
        (m.cache_misses, m.cache_hits),
        (1, 1),
        "the two submissions did not share one cache entry"
    );

    // And the other direction: HTTP computes, TCP hits.
    let spec2 = undirected_spec(20, 0.3, 6, 12);
    let first = http_client.run(&spec2).expect("http run");
    let second = wire_client.run(&spec2).expect("tcp run");
    assert_eq!(first, second);
    let m = service.metrics();
    assert_eq!((m.cache_misses, m.cache_hits), (2, 2));
    assert_eq!(
        m.jobs_submitted,
        m.cache_hits + m.cache_misses + m.coalesced
    );
}

#[test]
fn metrics_route_serves_a_coherent_snapshot() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    client.run(&undirected_spec(16, 0.3, 1, 1)).expect("run");
    client.run(&undirected_spec(16, 0.3, 1, 1)).expect("rerun");
    let parsed = Json::parse(&client.metrics_json().expect("metrics")).expect("json");
    let field = |k: &str| parsed.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!(field("jobs_submitted"), 2);
    assert_eq!(
        field("jobs_submitted"),
        field("cache_hits") + field("cache_misses") + field("coalesced")
    );
    assert!(parsed.get("p50_latency_us").is_some());
    assert!(parsed.get("p95_latency_us").is_some());
    assert!(parsed.get("latency_hist_count").is_some());
    assert!(parsed.get("queue_depth").is_some());
    assert!(parsed.get("store_records_dropped").is_some());
}

/// Parses the `spanner_jobs_total` sample and the sum of the
/// `spanner_jobs_by_class_total` series out of a text exposition.
fn prometheus_jobs_and_class_sum(text: &str) -> (u64, u64) {
    let sample = |line: &str| -> u64 { line.rsplit(' ').next().unwrap().parse().unwrap() };
    let mut jobs = None;
    let mut class_sum = 0;
    for line in text.lines() {
        if line.starts_with("spanner_jobs_total ") {
            jobs = Some(sample(line));
        } else if line.starts_with("spanner_jobs_by_class_total{") {
            class_sum += sample(line);
        }
    }
    (jobs.expect("spanner_jobs_total sample"), class_sum)
}

#[test]
fn prometheus_format_negotiation_and_content_type() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    client.run(&undirected_spec(16, 0.3, 1, 1)).expect("run");
    client.run(&undirected_spec(16, 0.3, 1, 1)).expect("rerun");

    // The text exposition is served with the Prometheus content type.
    let (status, head, body) = raw_roundtrip(
        server.addr(),
        b"GET /v1/metrics?format=prometheus HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "head: {head}"
    );
    let text = String::from_utf8(body).expect("exposition utf8");
    assert!(
        text.starts_with("# HELP "),
        "starts: {:?}",
        text.lines().next()
    );
    let (jobs, class_sum) = prometheus_jobs_and_class_sum(&text);
    assert_eq!(jobs, 2);
    assert_eq!(jobs, class_sum, "scraped snapshot violates the invariant");

    // `format=json` and no query both answer JSON.
    for path in ["/v1/metrics", "/v1/metrics?format=json"] {
        let (status, body) = client.request("GET", path, None).expect("json metrics");
        assert_eq!(status, 200);
        assert!(Json::parse(std::str::from_utf8(&body).unwrap()).is_ok());
    }
    // Anything else is a 400, not a silent fallback.
    let (status, _) = client
        .request("GET", "/v1/metrics?format=xml", None)
        .expect("bad format");
    assert_eq!(status, 400);
}

#[test]
fn concurrent_prometheus_scrapes_under_load_stay_coherent() {
    // The hammer test: writers push a mix of fresh and duplicate jobs
    // through the facade while scrapers pull both metric formats.
    // Every scraped snapshot — JSON and Prometheus alike — must
    // satisfy `jobs = hits + misses + coalesced`, mid-load included.
    let server = start_server();
    let addr = server.addr();
    std::thread::scope(|scope| {
        for w in 0..3u64 {
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("writer connect");
                for i in 0..6u64 {
                    // Seed reuse across writers makes cache hits and
                    // coalesced submissions likely, not just misses.
                    let spec = undirected_spec(14, 0.3, i % 3, w % 2);
                    client.run(&spec).expect("writer run");
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("scraper connect");
                for _ in 0..10 {
                    let json = client.metrics_json().expect("scrape json");
                    let parsed = Json::parse(&json).expect("metrics json");
                    let field = |k: &str| parsed.get(k).and_then(Json::as_u64).expect(k);
                    assert_eq!(
                        field("jobs_submitted"),
                        field("cache_hits") + field("cache_misses") + field("coalesced"),
                        "JSON snapshot violated the invariant mid-load"
                    );
                    let text = client.metrics_prometheus().expect("scrape prometheus");
                    let (jobs, class_sum) = prometheus_jobs_and_class_sum(&text);
                    assert_eq!(
                        jobs, class_sum,
                        "Prometheus snapshot violated the invariant mid-load"
                    );
                }
            });
        }
    });
    let m = server.service().metrics();
    assert_eq!(m.jobs_submitted, 18);
    assert_eq!(
        m.jobs_submitted,
        m.cache_hits + m.cache_misses + m.coalesced
    );
}

#[test]
fn bad_json_is_400_and_the_connection_stays_usable() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    for bad in ["{not json", "", "[]", r#"{"variant":"undirected"}"#] {
        let (status, body) = client.request("POST", "/v1/jobs", Some(bad)).expect("post");
        assert_eq!(status, 400, "body {bad:?}");
        let parsed = Json::parse(std::str::from_utf8(&body).unwrap()).expect("error body json");
        assert!(parsed.get("error").is_some());
    }
    // Same keep-alive connection still serves real work.
    let resp = client
        .run(&undirected_spec(14, 0.3, 3, 3))
        .expect("run after errors");
    assert!(resp.converged);
}

#[test]
fn unknown_routes_and_wrong_methods_map_cleanly() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let (status, _) = client.request("GET", "/nope", None).expect("404 route");
    assert_eq!(status, 404);
    let (status, _) = client
        .request("POST", "/v1/jobs/extra", None)
        .expect("deep route");
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/v1/jobs", None).expect("405 route");
    assert_eq!(status, 405);
    let (status, _) = client
        .request("POST", "/healthz", None)
        .expect("405 healthz");
    assert_eq!(status, 405);
    let (status, _) = client
        .request("DELETE", "/v1/metrics", None)
        .expect("405 metrics");
    assert_eq!(status, 405);
    // The Allow header names the right method.
    let (status, head, _) =
        raw_roundtrip(server.addr(), b"GET /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"), "head: {head}");
    // Query strings do not defeat routing.
    let (status, _) = client
        .request("GET", "/healthz?probe=1", None)
        .expect("query");
    assert_eq!(status, 200);
    client.healthz().expect("healthz after error parade");
}

#[test]
fn invalid_spec_is_422_not_400() {
    // Decodes fine (schema-valid) but fails service validation: the
    // distinction between "can't parse you" and "won't run you".
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let body = r#"{"variant":"undirected","seed":1,"graph":{"n":3,"edges":[[0,1],[1,2]]},"accept_denominator":0}"#;
    let (status, resp) = client
        .request("POST", "/v1/jobs", Some(body))
        .expect("post");
    assert_eq!(status, 422, "{}", String::from_utf8_lossy(&resp));
    assert_eq!(server.service().metrics().invalid, 1);
    client.healthz().expect("healthz after 422");
}

#[test]
fn oversized_bodies_are_413_before_any_allocation() {
    let server = start_server();
    let request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    // The server must answer from the *head alone* — the body is never
    // sent — and close the connection (the stream is unsynchronized).
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(request.as_bytes()).expect("write");
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 413);
    assert!(head.contains("Connection: close"), "head: {head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to end");
    assert!(rest.is_empty(), "server kept the connection open after 413");
    // The server is still alive for the next connection.
    HttpClient::connect(server.addr())
        .expect("reconnect")
        .healthz()
        .expect("healthz after 413");
}

#[test]
fn oversized_heads_are_431() {
    let server = start_server();
    let mut request = String::from("GET /healthz HTTP/1.1\r\n");
    while request.len() < 40 << 10 {
        request.push_str("X-Padding: yadda yadda yadda\r\n");
    }
    // No terminator yet — the head alone overflows the bound.
    let (status, _, _) = raw_roundtrip(server.addr(), request.as_bytes());
    assert_eq!(status, 431);
}

#[test]
fn truncated_requests_do_not_wedge_the_server() {
    let server = start_server();
    // Truncated mid-head: client gives up before the blank line.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Le")
            .expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read");
        assert!(rest.is_empty(), "no response owed to a truncated head");
    }
    // Truncated mid-body: Content-Length promises more than is sent.
    {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"variant\":")
            .expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read");
        assert!(rest.is_empty(), "no response owed to a truncated body");
    }
    // Both connection threads exited cleanly; the server still serves.
    HttpClient::connect(server.addr())
        .expect("reconnect")
        .healthz()
        .expect("healthz after truncations");
}

#[test]
fn unsupported_protocol_shapes_are_rejected() {
    let server = start_server();
    let (status, _, _) = raw_roundtrip(server.addr(), b"GARBAGE\r\n\r\n");
    assert_eq!(status, 400, "malformed request line");
    let (status, _, _) = raw_roundtrip(server.addr(), b"GET /healthz HTTP/2\r\n\r\n");
    assert_eq!(status, 505, "unsupported version");
    let (status, _, _) = raw_roundtrip(
        server.addr(),
        b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert_eq!(status, 501, "chunked bodies unsupported");
    let (status, _, _) = raw_roundtrip(
        server.addr(),
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx",
    );
    assert_eq!(status, 400, "conflicting lengths");
}

#[test]
fn expect_continue_is_acknowledged() {
    let server = start_server();
    let body = r#"{"variant":"undirected","seed":5,"graph":{"n":3,"edges":[[0,1],[1,2]]}}"#;
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(
            format!(
                "POST /v1/jobs HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write head");
    // The interim response arrives before any body byte is sent.
    let mut interim = [0u8; 25];
    stream.read_exact(&mut interim).expect("read 100");
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body.as_bytes()).expect("write body");
    let (status, _, resp) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
}

#[test]
fn connection_close_is_honored() {
    let server = start_server();
    let (status, head, _) = raw_roundtrip(
        server.addr(),
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "head: {head}");
    // HTTP/1.0 defaults to close too.
    let (status, head, _) = raw_roundtrip(server.addr(), b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "head: {head}");
}

#[test]
fn fuzzed_bodies_never_kill_the_connection_thread() {
    // Random garbage POSTed at /v1/jobs must always produce a clean
    // 4xx — never a panic, never a wedged thread — and the server
    // must keep answering afterwards.
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let mut rng = StdRng::seed_from_u64(77);
    for round in 0..60 {
        let len = rng.gen_range(0..400);
        let body: String = (0..len)
            .map(|_| {
                // Printable-ish ASCII skewed toward JSON punctuation.
                let choices = b"{}[]\",:0123456789.eE+-truefalsnl \t";
                choices[rng.gen_range(0..choices.len())] as char
            })
            .collect();
        let (status, _) = client
            .request("POST", "/v1/jobs", Some(&body))
            .expect("fuzz post");
        assert!(
            status == 400 || status == 422,
            "round {round}: fuzz body {body:?} yielded HTTP {status}"
        );
    }
    client.healthz().expect("healthz after fuzzing");
}

fn arb_instance() -> impl Strategy<Value = (VariantInstance, u64)> {
    (3usize..24, 0u64..500, 1u32..4, 0u64..64).prop_map(|(n, seed, d, engine_seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnp_connected(n, 0.1 * d as f64, &mut rng);
        let instance = match seed % 4 {
            0 => VariantInstance::Undirected { graph: g },
            1 => VariantInstance::Directed {
                graph: gen::random_digraph_connected(n, 0.15, &mut rng),
            },
            2 => {
                let weights = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
                VariantInstance::Weighted { graph: g, weights }
            }
            _ => {
                let (clients, servers) = gen::client_server_split(&g, 0.7, 0.7, &mut rng);
                VariantInstance::ClientServer {
                    graph: g,
                    clients,
                    servers,
                }
            }
        };
        (instance, engine_seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random instances of every variant, the spec JSON roundtrips
    /// to the same canonical job, and repeated POSTs of one spec
    /// return byte-identical bodies through a live server.
    #[test]
    fn random_specs_roundtrip_and_hit_bytewise((instance, seed) in arb_instance()) {
        let spec = JobSpec::new(instance, seed);
        let decoded = http::decode_job_spec(http::encode_job_spec(&spec).as_bytes()).unwrap();
        prop_assert_eq!(decoded.instance.kind(), spec.instance.kind());
        prop_assert_eq!(decoded.config.seed, spec.config.seed);

        let server = HttpServer::start("127.0.0.1:0", &ServiceConfig::default()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (s1, cold) = client.run_raw(&spec).unwrap();
        let (s2, warm) = client.run_raw(&spec).unwrap();
        prop_assert_eq!((s1, s2), (200, 200));
        prop_assert_eq!(&cold, &warm, "cache hit bytes differ");
        let resp = http::decode_job_response(&cold).unwrap();
        prop_assert!(resp.converged);
        let m = server.service().metrics();
        prop_assert_eq!((m.cache_misses, m.cache_hits), (1, 1));
    }

    /// A job with a zero timeout either completes or maps to 504 —
    /// never to a hang or a dead connection.
    #[test]
    fn zero_timeout_maps_to_504_or_success(engine_seed in 0u64..16) {
        let mut spec = undirected_spec(30, 0.2, 9, engine_seed);
        spec.timeout = Some(Duration::from_nanos(0));
        let server = HttpServer::start("127.0.0.1:0", &ServiceConfig::default()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, _) = client.run_raw(&spec).unwrap();
        prop_assert!(status == 200 || status == 504, "got HTTP {status}");
        client.healthz().unwrap();
    }
}

#[test]
fn error_bodies_carry_the_stable_code_field() {
    // Every error body is `{"error": prose, "code": slug}`: `error`
    // stays first (and prose) so pre-code clients keep parsing, while
    // `code` gives new clients a stable contract.
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let body = r#"{"variant":"undirected","seed":1,"graph":{"n":3,"edges":[[0,1],[1,2]]},"accept_denominator":0}"#;
    let (status, resp) = client
        .request("POST", "/v1/jobs", Some(body))
        .expect("post");
    assert_eq!(status, 422);
    let text = String::from_utf8_lossy(&resp);
    assert!(
        text.starts_with(r#"{"error":"#),
        "prose key must stay first: {text}"
    );
    assert!(text.contains(r#""code":"invalid""#), "{text}");

    let (status, resp) = client
        .request("GET", "/v1/graphs/absent", None)
        .expect("get");
    assert_eq!(status, 404);
    assert!(
        String::from_utf8_lossy(&resp).contains(r#""code":"not_found""#),
        "{}",
        String::from_utf8_lossy(&resp)
    );
    client.healthz().expect("healthz after error parade");
}

#[test]
fn panicked_runs_fail_fast_on_both_surfaces() {
    // Every run panics. Each surface answers with its own error shape
    // (HTTP 500 with code `panicked`, a TCP error frame), the retrying
    // clients give up at once, and the one worker keeps answering.
    let plan = dsa_runtime::FaultPlan::parse("seed=1;engine.panic=1.0").unwrap();
    let service = Arc::new(Service::new(&ServiceConfig {
        workers: 1,
        fault: Some(Arc::new(dsa_runtime::FaultInjector::new(plan))),
        ..ServiceConfig::default()
    }));
    let tcp = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("tcp server");
    let http_srv = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("http");
    let policy = RetryPolicy::new(3);
    let spec = undirected_spec(16, 0.3, 7, 1);

    let mut wire_client = dsa_service::Client::connect(tcp.addr()).expect("tcp connect");
    match wire_client.run_with_retry(&spec, &policy) {
        Err(JobError::Remote(m)) => assert!(m.contains("engine run panicked"), "{m}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let mut http_client = HttpClient::connect(http_srv.addr()).expect("http connect");
    match http_client.run_with_retry(&spec, &policy) {
        Err(JobError::Remote(m)) => assert!(m.starts_with("HTTP 500"), "{m}"),
        other => panic!("expected HTTP 500, got {other:?}"),
    }
    let (status, body) = http_client.run_raw(&spec).expect("post");
    assert_eq!(status, 500);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains(r#""code":"panicked""#), "{text}");

    // One run per attempt, none retried, none cached.
    let m = service.metrics();
    assert_eq!((m.panicked, m.cache_misses, m.jobs_submitted), (3, 3, 3));
    wire_client.ping().expect("tcp ping");
    http_client.healthz().expect("healthz");
}
