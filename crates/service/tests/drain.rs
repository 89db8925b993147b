//! Graceful-drain test against the real `spanner-serve` binary:
//! SIGTERM under load must stop accepting, let every in-flight job
//! finish, and exit 0 — with zero delivered-but-wrong responses. The
//! single-writer store lock is exercised across the restart too.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dsa_core::dist::VariantInstance;
use dsa_graphs::gen;
use dsa_service::wire::{encode_ping_request, read_frame, write_frame};
use dsa_service::{
    Client, HttpClient, JobError, JobResponse, JobSpec, RetryPolicy, Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_spanner-serve");

/// Starts `spanner-serve` on an ephemeral port and returns the child
/// plus the bound address parsed from its `listening <addr>` line, and
/// the HTTP address from its `http listening <addr>` line when `extra`
/// asks for an HTTP port.
fn start_server(extra: &[&str]) -> (Child, String, Option<String>) {
    let mut child = Command::new(SERVE_BIN)
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--queue", "4"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spanner-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut next_with = |prefix: &str| loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read server stdout");
        if let Some(addr) = line.strip_prefix(prefix) {
            break addr.to_string();
        }
    };
    let addr = next_with("listening ");
    let http_addr = extra
        .contains(&"--http-port")
        .then(|| next_with("http listening "));
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr, http_addr)
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");
}

/// Replies each client must have received before the SIGTERM.
const WARM_REPLIES: u64 = 5;

#[test]
fn sigterm_under_load_drains_and_loses_no_delivered_response() {
    let specs: Vec<JobSpec> = {
        let mut rng = StdRng::seed_from_u64(31);
        (0..10)
            .map(|i| {
                JobSpec::new(
                    VariantInstance::Undirected {
                        graph: gen::gnp_connected(40 + 4 * (i as usize), 0.2, &mut rng),
                    },
                    i,
                )
            })
            .collect()
    };
    // Fault-free reference for every spec this test ever submits.
    let reference_service = Service::new(&ServiceConfig::default());
    let reference: Vec<_> = specs
        .iter()
        .map(|spec| reference_service.run(spec).unwrap())
        .collect();

    let drain_timeout = Duration::from_secs(30);
    let (mut child, addr, http_addr) = start_server(&[
        "--drain-timeout",
        &drain_timeout.as_secs().to_string(),
        "--http-port",
        "0",
    ]);
    let http_addr = http_addr.expect("http address");
    // Load: three retrying TCP clients and one keep-alive HTTP client
    // send back to back, so no server-side read ever waits, until the
    // server goes away. The SIGTERM lands once every client has had
    // replies delivered, and the server must close their busy
    // connections and exit inside its drain timeout; 60 s bounds the
    // clients only if it never does. Everything a client *received*
    // must match the reference — a drained server may refuse or cut a
    // request, but it must never corrupt one.
    let give_up = Instant::now() + Duration::from_secs(60);
    let (warm_tx, warm_rx) = mpsc::channel();
    let delivered: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let (specs, reference, warm_tx) = (&specs, &reference, warm_tx.clone());
                let (addr, http_addr) = (addr.as_str(), http_addr.as_str());
                scope.spawn(move || {
                    let policy = RetryPolicy {
                        max_retries: 3,
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(20),
                        seed: t as u64,
                    };
                    type Run<'a> = Box<dyn FnMut(&JobSpec) -> Result<JobResponse, JobError> + 'a>;
                    let mut run: Run<'_> = if t < 3 {
                        let mut client = Client::connect(addr).expect("connect over TCP");
                        Box::new(move |spec| client.run_with_retry(spec, &policy))
                    } else {
                        let mut client = HttpClient::connect(http_addr).expect("connect over HTTP");
                        Box::new(move |spec| client.run_with_retry(spec, &policy))
                    };
                    let mut delivered = 0u64;
                    'outer: while Instant::now() < give_up {
                        for (i, spec) in specs.iter().enumerate() {
                            match run(spec) {
                                Ok(resp) => {
                                    assert_eq!(resp, reference[i], "client {t}: spec {i} diverged");
                                    delivered += 1;
                                    if delivered == WARM_REPLIES {
                                        let _ = warm_tx.send(());
                                    }
                                }
                                // The server shut down underneath us —
                                // expected once SIGTERM lands.
                                Err(_) => break 'outer,
                            }
                        }
                    }
                    delivered
                })
            })
            .collect();
        drop(warm_tx);
        for _ in 0..handles.len() {
            warm_rx
                .recv()
                .expect("every client has replies delivered before the drain");
        }
        sigterm(&child);
        let status = wait_with_deadline(&mut child, drain_timeout);
        assert_eq!(status.code(), Some(0), "drain must exit 0");
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(delivered >= 4 * WARM_REPLIES);
}

#[test]
fn interrupted_connection_mid_request_does_not_block_the_drain() {
    // A client that sends half a frame and stalls (slow loris) must
    // not hold the drain hostage: shutdown turns the stalled read into
    // a clean close and the process still exits 0 inside the bound.
    let (child, addr, _) = start_server(&["--drain-timeout", "30"]);
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    // A ping round trip first: the connection's thread is then up and
    // reading when the stall begins.
    write_frame(&mut stalled, encode_ping_request().as_bytes()).unwrap();
    assert!(read_frame(&mut stalled).unwrap().is_some(), "pong");
    // Frame header promising 1000 bytes, then silence.
    stalled.write_all(&1000u32.to_be_bytes()).unwrap();
    stalled.write_all(b"run v1\n").unwrap();
    stalled.flush().unwrap();
    sigterm(&child);
    let mut child = child;
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    // The stalled connection was closed server-side.
    let mut buf = [0u8; 16];
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(stalled.read(&mut buf).unwrap_or(0), 0);
}

#[test]
fn cache_dir_takes_a_single_writer_lock() {
    let dir = std::env::temp_dir().join(format!("dsa-drain-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_flag = dir.to_str().unwrap();
    let (child, _, _) = start_server(&["--cache-dir", dir_flag]);
    // A second server on the same directory must fail fast — the lock
    // holder's PID is alive.
    let second = Command::new(SERVE_BIN)
        .args(["--addr", "127.0.0.1:0", "--cache-dir", dir_flag])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn second server");
    assert_ne!(second.code(), Some(0), "second writer must be refused");
    // After a graceful stop the lock is released and a successor
    // starts cleanly.
    sigterm(&child);
    let mut child = child;
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0));
    let (successor, _, _) = start_server(&["--cache-dir", dir_flag]);
    sigterm(&successor);
    let mut successor = successor;
    let status = wait_with_deadline(&mut successor, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_panics_are_logged_through_the_leveled_logger() {
    // Every run panics. The panic report must reach stderr as one
    // structured `level=error` line like every other operational line,
    // not as the default hook's `thread '…' panicked at …` text.
    let mut child = Command::new(SERVE_BIN)
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .args(["--fault-plan", "seed=1;engine.panic=1.0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn spanner-serve");
    let mut stderr = child.stderr.take().expect("child stderr");
    let stderr = std::thread::spawn(move || {
        let mut text = String::new();
        stderr
            .read_to_string(&mut text)
            .expect("read server stderr");
        text
    });
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read server stdout");
        if let Some(addr) = line.strip_prefix("listening ") {
            break addr.to_string();
        }
    };
    std::thread::spawn(move || for _ in lines {});
    let spec = JobSpec::new(
        VariantInstance::Undirected {
            graph: gen::gnp_connected(16, 0.3, &mut StdRng::seed_from_u64(7)),
        },
        1,
    );
    let mut client = Client::connect(&addr).expect("connect");
    match client.run(&spec) {
        Err(JobError::Remote(m)) => assert!(m.contains("panicked"), "{m}"),
        other => panic!("expected the panicked error, got {other:?}"),
    }
    drop(client);
    sigterm(&child);
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    let text = stderr.join().expect("stderr reader");
    for line in text.lines() {
        assert!(line.starts_with("ts="), "unstructured stderr line: {line}");
    }
    let reports: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("level=error") && l.contains("target=panic"))
        .collect();
    assert_eq!(reports.len(), 1, "one panic report expected:\n{text}");
    for field in [
        "injected fault: engine.panic",
        "thread=dsa-service-worker-0",
        "location=",
    ] {
        assert!(
            reports[0].contains(field),
            "{field} missing: {}",
            reports[0]
        );
    }
}

/// `Child::wait` with a deadline: polls `try_wait`, kills on overrun.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let until = Instant::now() + deadline;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= until {
            let _ = child.kill();
            panic!("server did not exit within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
