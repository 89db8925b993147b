//! Golden pins for the serving byte contract: one deliberately noisy
//! submission per variant, sent over both surfaces, with FNV-1a digests
//! of everything a client or a store directory can observe.
//!
//! Each submission has shuffled rows, self-loops, reversed duplicates
//! that carry a different weight, JSON keys out of schema order, and
//! (for client-server) unsorted, repeated client/server ids. Four
//! things are pinned per variant:
//!
//! * the canonical job key (the `key` field of every response and the
//!   index of every `results.log` record);
//! * the `POST /v1/jobs` 200 body;
//! * the TCP `ok run` payload;
//! * the identity bytes the miss stored in `results.log`, read back
//!   from the file itself.
//!
//! The result version in the file's header is pinned beside them.
//!
//! A changed key or identity rendering would pass every benchmark,
//! yet change the `key` of every response and orphan every existing
//! store record; these pins make it fail here instead. The
//! test also checks that the public adapters (`http::decode_job_spec`,
//! `wire::decode_request`, `Service::run`) give the same bytes as the
//! servers, and that a restarted service answers from its warm-replayed
//! store without an engine run.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dsa_graphs::canon::Fnv1a;
use dsa_service::http::{self, HttpClient};
use dsa_service::{wire, HttpServer, Server, Service, ServiceConfig};

/// One noisy submission, spelled for both surfaces.
struct Case {
    variant: &'static str,
    /// The `POST /v1/jobs` body.
    json: &'static str,
    /// The `run v1` frame with the same rows, headers and config.
    frame: &'static str,
    /// Pinned: job key, HTTP body digest, wire payload digest,
    /// stored identity digest.
    pins: (u64, u64, u64, u64),
}

/// The result version every `results.log` header carries. A change
/// that moves an HTTP-body or wire-payload pin below changes served
/// bytes: it must bump the store's `RESULT_VERSION` and this pin with
/// it, so that a restarted server drops the old engine's results
/// instead of serving them.
const RESULT_VERSION: u32 = 1;

const CASES: &[Case] = &[
    Case {
        variant: "undirected",
        json: r#" { "graph" : { "edges" : [ [4,5], [0,1], [3,3], [1,0], [2,4],
            [5,2], [6,7], [0,2], [7,6], [1,2], [2,2], [5,4], [3,6], [0,7], [6,3] ], "n" : 8 },
            "max_iterations": 1000, "seed": 11, "variant": "undirected" } "#,
        frame: "run v1\nseed 11\nvariant undirected\nmax-iterations 1000\ngraph\n\
                # a comment before the header\n# n 8\n4 5\n0 1\n3 3\n1 0\n\n2 4\n5 2\n6 7\n\
                0 2\n7 6\n1 2\n2 2\n5 4\n3 6\n0 7\n6 3\n",
        pins: (
            0x1049_4292_da4f_132a,
            0xf240_d218_239e_671a,
            0x2cfa_07f4_64a1_54e8,
            0x397f_4df7_a853_c41a,
        ),
    },
    Case {
        variant: "directed",
        json: r#"{"variant":"directed","seed":12,"round_densities":false,"graph":{"n":7,
            "edges":[[1,0],[0,1],[2,3],[3,2],[2,3,9],[2,5,9],[4,4],[5,6],[6,0],[0,6],[3,4],[4,5],
            [1,0],[5,1],[6,5]]}}"#,
        frame: "run v1\nvariant directed\nseed 12\nround-densities 0\ngraph\n# n 7\n\
                1 0\n0 1\n2 3\n3 2\n2 3 9\n2 5 9\n4 4\n5 6\n6 0\n0 6\n3 4\n4 5\n1 0\n5 1\n6 5\n",
        pins: (
            0x176a_ff13_bc6c_406c,
            0xa66d_35eb_d173_9362,
            0x6aef_e2d4_06d8_a0da,
            0xd2b2_a8ce_789a_dc21,
        ),
    },
    Case {
        variant: "weighted",
        json: r#"{"seed":13,"variant":"weighted","accept_denominator":4,"monotone":false,
            "shards":2,"timeout_ms":60000,
            "graph":{"n":8,"edges":[[3,1,7],[0,1,5],[1,0,9],[2,2,4],[1,2,3],[4,3,8],[2,1,1],
            [5,6,2],[6,7,6],[7,0,4],[3,4,2],[0,2,9],[6,5,5],[4,5,1]]}}"#,
        frame: "run v1\nvariant weighted\nseed 13\naccept-denominator 4\nmonotone 0\n\
                shards 2\ntimeout-ms 60000\ngraph\n# n 8\n3 1 7\n0 1 5\n1 0 9\n2 2 4\n1 2 3\n\
                4 3 8\n2 1 1\n5 6 2\n6 7 6\n7 0 4\n3 4 2\n0 2 9\n6 5 5\n4 5 1\n",
        pins: (
            0x5b3b_ab40_f7f2_3737,
            0x9451_410e_15c5_d942,
            0x09b0_680e_ec39_6370,
            0x3bb0_4631_e82a_e2ee,
        ),
    },
    Case {
        variant: "client-server",
        json: r#"{"variant":"client-server","seed":14,
            "servers":[9,0,3,3,7,1,5,8],"clients":[2,6,4,4,0,9,8],
            "graph":{"edges":[[6,2],[0,1],[1,1],[2,3],[1,0],[3,4],[4,5],[5,0],[2,6],[0,3],
            [7,6],[4,7],[5,5],[1,4],[6,7]],"n":8}}"#,
        frame: "run v1\nvariant client-server\nseed 14\nclients 2 6 4 4 0 9 8\n\
                servers 9 0 3 3 7 1 5 8\ngraph\n# n 8\n6 2\n0 1\n1 1\n2 3\n1 0\n3 4\n4 5\n\
                5 0\n2 6\n0 3\n7 6\n4 7\n5 5\n1 4\n6 7\n",
        pins: (
            0xcbd3_ff56_1d32_2f8b,
            0x8c79_2a11_7b94_61b1,
            0x19e3_2a2d_9644_7415,
            0x0be0_bc49_ba6f_2899,
        ),
    },
];

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsa-golden-keys-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent(dir: &Path) -> Arc<Service> {
    Arc::new(Service::new(&ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }))
}

fn be_u32(bytes: &[u8]) -> u32 {
    u32::from_be_bytes(bytes.try_into().expect("4 bytes"))
}

/// The header's result version and the identity bytes of the only
/// record in a store directory's `results.log` (format: `DSASTOR2`, a
/// u32 BE result version, then `len · key · id_len · identity · run_len
/// · run · checksum`).
fn stored_verification(dir: &Path) -> (u32, Vec<u8>) {
    let log = std::fs::read(dir.join("results.log")).expect("read results.log");
    assert_eq!(&log[..8], b"DSASTOR2");
    let version = be_u32(&log[8..12]);
    let payload_len = be_u32(&log[12..16]) as usize;
    let payload = &log[16..16 + payload_len];
    assert_eq!(
        log.len(),
        16 + payload_len + 8,
        "exactly one record in the log"
    );
    let id_len = be_u32(&payload[8..12]) as usize;
    (version, payload[12..12 + id_len].to_vec())
}

fn post(server: &HttpServer, body: &str) -> Vec<u8> {
    let mut client = HttpClient::connect(server.addr()).expect("connect HTTP");
    let (status, reply) = client
        .request("POST", "/v1/jobs", Some(body))
        .expect("POST /v1/jobs");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    reply
}

fn send_frame(server: &Server, frame: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect TCP");
    wire::write_frame(&mut stream, frame.as_bytes()).expect("send run frame");
    wire::read_frame(&mut stream)
        .expect("read reply")
        .expect("server closed")
}

/// Everything a client and a store directory see for one case.
struct Observed {
    key: u64,
    http_body: Vec<u8>,
    wire_payload: Vec<u8>,
    result_version: u32,
    verification: Vec<u8>,
}

fn observe(case: &Case) -> Observed {
    // Surface 1: HTTP, a miss that writes its own store.
    let http_dir = store_dir(&format!("{}-http", case.variant));
    let service = persistent(&http_dir);
    let server = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let http_body = post(&server, case.json);
    server.shutdown();
    drop(service);

    // Surface 2: TCP, a miss on a second, independent store.
    let wire_dir = store_dir(&format!("{}-wire", case.variant));
    let service = persistent(&wire_dir);
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let wire_payload = send_frame(&server, case.frame);
    server.shutdown();
    drop(service);

    let http_key = http::decode_job_response(&http_body)
        .expect("decode body")
        .key;
    let wire_key = match wire::decode_response(&wire_payload).expect("decode payload") {
        wire::Response::Run(resp) => resp.key,
        other => panic!("{}: expected a run response, got {other:?}", case.variant),
    };
    assert_eq!(
        http_key, wire_key,
        "{}: both surfaces, one key",
        case.variant
    );
    let (result_version, verification) = stored_verification(&http_dir);
    assert_eq!(
        (result_version, verification.clone()),
        stored_verification(&wire_dir),
        "{}: both surfaces store the same identity",
        case.variant
    );

    // A restart answers from the warm-replayed store: same bytes, and
    // no engine run (the replayed record re-derives the same key).
    let service = persistent(&http_dir);
    let server = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    assert_eq!(post(&server, case.json), http_body, "{}", case.variant);
    let m = service.metrics();
    assert_eq!((m.cache_hits, m.cache_misses), (1, 0), "{}", case.variant);
    server.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&http_dir);
    let _ = std::fs::remove_dir_all(&wire_dir);

    // The public adapters give the servers' bytes.
    let service = Service::new(&ServiceConfig::default());
    let spec = http::decode_job_spec(case.json.as_bytes()).expect("decode_job_spec");
    let resp = service.run(&spec).expect("run the JSON spec");
    assert_eq!(http::encode_job_response(&resp).as_bytes(), &http_body[..]);
    let wire::Request::Run(spec) = wire::decode_request(case.frame.as_bytes()).expect("decode")
    else {
        panic!("{}: expected a run request", case.variant);
    };
    let resp = service.run(&spec).expect("run the wire spec");
    assert_eq!(
        wire::encode_run_response(&resp).as_bytes(),
        &wire_payload[..]
    );

    Observed {
        key: http_key,
        http_body,
        wire_payload,
        result_version,
        verification,
    }
}

#[test]
fn noisy_submissions_keep_their_keys_bodies_and_store_bytes() {
    let mut failures = Vec::new();
    for case in CASES {
        let o = observe(case);
        assert_eq!(o.result_version, RESULT_VERSION, "{}", case.variant);
        let got = (
            o.key,
            digest(&o.http_body),
            digest(&o.wire_payload),
            digest(&o.verification),
        );
        if got != case.pins {
            failures.push(format!(
                "{}: pinned {:#018x?}, got {got:#018x?}\n  body: {}\n  payload: {:?}\n  \
                 identity: {:02x?}",
                case.variant,
                case.pins,
                String::from_utf8_lossy(&o.http_body),
                String::from_utf8_lossy(&o.wire_payload),
                o.verification,
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
