//! Integration tests for the persistent result store, driven entirely
//! through the public [`Service`] API: restart byte-identity across
//! all four variants (property-tested), corruption recovery —
//! truncated tails, flipped checksum bytes, and garbage headers must
//! cost records, never correctness or startup — and the upgrade path:
//! a log of an older format or another result version is dropped
//! unread, and its jobs recompute.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsa_core::dist::VariantInstance;
use dsa_graphs::canon::Fnv1a;
use dsa_graphs::gen;
use dsa_service::{wire, JobSpec, Service, ServiceConfig};

/// A fresh per-test store directory (no tempfile dependency).
fn store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dsa-store-it-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The store's single record log (found, not named, so the test does
/// not depend on the private file-name constant).
fn log_path(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "store dir holds exactly the record log");
    files.pop().expect("one file")
}

fn persistent_cfg(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// One seeded instance of every variant.
fn four_variant_specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(14 + (seed % 7) as usize, 0.3, &mut rng);
    let d = gen::random_digraph_connected(10 + (seed % 5) as usize, 0.15, &mut rng);
    let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
    vec![
        JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, seed),
        JobSpec::new(VariantInstance::Directed { graph: d }, seed + 1),
        JobSpec::new(
            VariantInstance::Weighted {
                graph: g.clone(),
                weights: w,
            },
            seed + 2,
        ),
        JobSpec::new(
            VariantInstance::ClientServer {
                graph: g,
                clients,
                servers,
            },
            seed + 3,
        ),
    ]
}

/// Wire-encoded responses for `specs` against a service over `dir`,
/// plus the (misses, hits, disk hits) classification it ended with.
fn serve_all(
    dir: &Path,
    cache_capacity: usize,
    specs: &[JobSpec],
) -> (Vec<String>, (u64, u64, u64)) {
    let service = Service::new(&ServiceConfig {
        cache_capacity,
        ..persistent_cfg(dir)
    });
    let bodies = specs
        .iter()
        .map(|s| wire::encode_run_response(&service.run(s).expect("serve")))
        .collect();
    let m = service.metrics();
    assert_eq!(
        m.jobs_submitted,
        m.cache_hits + m.cache_misses + m.coalesced,
        "classification invariant"
    );
    assert!(m.disk_hits <= m.cache_hits);
    (bodies, (m.cache_misses, m.cache_hits, m.disk_hits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A populated store, reopened, serves byte-identical responses
    /// for all four variants — through the warm LRU (ample capacity)
    /// and through the verified disk path (capacity starved) alike.
    #[test]
    fn reopened_store_serves_all_variants_byte_identically(seed in 0u64..200) {
        let dir = store_dir("prop");
        let specs = four_variant_specs(seed);
        let (cold, (misses, _, disk)) = serve_all(&dir, 256, &specs);
        prop_assert_eq!(misses, 4);
        prop_assert_eq!(disk, 0);
        // Restart 1: ample LRU — warm start answers from memory.
        let (warm, (misses, hits, disk)) = serve_all(&dir, 256, &specs);
        prop_assert_eq!(&warm, &cold);
        prop_assert_eq!((misses, hits, disk), (0, 4, 0));
        // Restart 2: starved LRU — the disk path must carry load,
        // with the same bytes.
        let (starved, (misses, hits, disk)) = serve_all(&dir, 1, &specs);
        prop_assert_eq!(&starved, &cold);
        prop_assert_eq!((misses, hits), (0, 4));
        prop_assert!(disk > 0, "expected verified disk hits, got none");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_tail_recovers_and_recomputes_only_the_lost_records() {
    let dir = store_dir("trunc");
    let specs = four_variant_specs(42);
    let (cold, _) = serve_all(&dir, 256, &specs);
    // Chop bytes off the end of the log: the tail record(s) die, the
    // prefix survives, startup succeeds, and every response still
    // matches its cold bytes (lost records are simply recomputed).
    let path = log_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
    let (recovered, (misses, hits, _)) = serve_all(&dir, 1, &specs);
    assert_eq!(recovered, cold, "recovery must never change bytes");
    assert!(misses >= 1, "the truncated record must recompute");
    assert!(hits >= 1, "the intact prefix must still serve");
    // The recompute re-persisted the lost record: a further restart
    // serves everything from the store again.
    let (healed, (misses, _, disk)) = serve_all(&dir, 1, &specs);
    assert_eq!(healed, cold);
    assert_eq!(misses, 0);
    assert!(disk > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_skips_the_bad_record_not_the_startup() {
    let dir = store_dir("flip");
    let specs = four_variant_specs(7);
    let (cold, _) = serve_all(&dir, 256, &specs);
    // Flip one byte in the middle of the log (inside some record's
    // payload or checksum): that record fails verification and is
    // dropped; everything else keeps serving, and nothing wrong is
    // ever served.
    let path = log_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&path, &bytes).unwrap();
    let (recovered, (misses, hits, _)) = serve_all(&dir, 1, &specs);
    assert_eq!(
        recovered, cold,
        "a corrupt record must recompute, never lie"
    );
    assert!(misses >= 1, "the corrupted record must recompute");
    assert!(hits >= 1, "records before the flip must still serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_records_are_counted_and_exported() {
    // Regression test for the `store_records_dropped` metric: a
    // corrupted cache dir must surface the drop count through
    // `Service::metrics`, the JSON body of `GET /v1/metrics`, and the
    // Prometheus exposition — not just a log line.
    let dir = store_dir("dropcount");
    let specs = four_variant_specs(11);
    let (_, _) = serve_all(&dir, 256, &specs);
    let path = log_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&path, &bytes).unwrap();

    let service = std::sync::Arc::new(Service::new(&persistent_cfg(&dir)));
    let m = service.metrics();
    assert!(
        m.store_records_dropped >= 1,
        "recovery dropped a corrupt record but the counter reads 0"
    );
    let http =
        dsa_service::HttpServer::with_service("127.0.0.1:0", std::sync::Arc::clone(&service))
            .expect("bind http");
    let mut client = dsa_service::HttpClient::connect(http.addr()).expect("connect");
    let parsed = dsa_runtime::json::Json::parse(&client.metrics_json().expect("metrics"))
        .expect("metrics json");
    let dropped = parsed
        .get("store_records_dropped")
        .and_then(dsa_runtime::json::Json::as_u64)
        .expect("store_records_dropped field");
    assert_eq!(dropped, m.store_records_dropped);
    let text = client.metrics_prometheus().expect("prometheus");
    assert!(
        text.contains(&format!("spanner_store_records_dropped_total {dropped}")),
        "exposition missing the dropped-records sample"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_header_starts_fresh_without_failing() {
    let dir = store_dir("header");
    let specs = four_variant_specs(9);
    let (cold, _) = serve_all(&dir, 256, &specs);
    std::fs::write(log_path(&dir), b"\x00\x01\x02 this is not a store").unwrap();
    // Startup succeeds with an empty store; everything recomputes to
    // the same bytes and repopulates the log.
    let (recovered, (misses, _, disk)) = serve_all(&dir, 256, &specs);
    assert_eq!(recovered, cold);
    assert_eq!(misses, 4, "a dropped store recomputes everything");
    assert_eq!(disk, 0);
    let (warm, (misses, _, _)) = serve_all(&dir, 256, &specs);
    assert_eq!(warm, cold);
    assert_eq!(misses, 0, "the rewritten log must serve again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_services_over_time_share_work_not_a_process() {
    // The store is the only channel between these two service
    // lifetimes; the second must not re-run the engine at all, and
    // `store_records` must count distinct keys, not appends.
    let dir = store_dir("lifetimes");
    let specs = four_variant_specs(3);
    {
        let service = Service::new(&persistent_cfg(&dir));
        for s in &specs {
            service.run(s).unwrap();
            service.run(s).unwrap(); // in-memory repeat, no new record
        }
        assert_eq!(service.metrics().store_records, 4);
    }
    let service = Service::new(&persistent_cfg(&dir));
    for s in &specs {
        assert!(service.run(s).unwrap().converged);
    }
    let m = service.metrics();
    assert_eq!(m.cache_misses, 0);
    assert_eq!(m.store_records, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opens a service over `dir` after writing `log` as its record log,
/// and checks that the whole file was dropped as one record and every
/// job recomputes to its `cold` bytes.
fn assert_dropped_unread(dir: &Path, log: &[u8], specs: &[JobSpec], cold: &[String]) {
    std::fs::write(log_path(dir), log).unwrap();
    let service = Service::new(&persistent_cfg(dir));
    let m = service.metrics();
    assert_eq!((m.store_records, m.store_records_dropped), (0, 1));
    let bodies: Vec<String> = specs
        .iter()
        .map(|s| wire::encode_run_response(&service.run(s).expect("serve")))
        .collect();
    assert_eq!(bodies, cold, "recomputed bytes");
    let m = service.metrics();
    assert_eq!((m.cache_misses, m.disk_hits), (specs.len() as u64, 0));
    assert_eq!(m.store_records, specs.len() as u64);
}

#[test]
fn older_format_and_other_result_version_recompute_their_jobs() {
    let dir = store_dir("upgrade");
    let specs = four_variant_specs(5);
    let (cold, _) = serve_all(&dir, 256, &specs);
    let current = std::fs::read(log_path(&dir)).unwrap();
    assert_eq!(&current[..8], b"DSASTOR2");
    let version = u32::from_be_bytes(current[8..12].try_into().unwrap());

    // A log of the text-identity format: the `DSASTOR1` magic, then one
    // record per job with its key, its `run v1` text and a run of an
    // empty spanner, which no reply of these jobs has. Served, it
    // would change the reply bytes.
    let mut old = b"DSASTOR1".to_vec();
    for (spec, body) in specs.iter().zip(&cold) {
        let key_line = body.lines().find_map(|l| l.strip_prefix("key ")).unwrap();
        let key = u64::from_str_radix(key_line, 16).unwrap();
        let text = wire::encode_request(spec);
        let mut run = Vec::new();
        run.extend_from_slice(&1u64.to_be_bytes()); // iterations
        run.push(1); // converged
        run.extend_from_slice(&0u64.to_be_bytes()); // star fallbacks
        run.extend_from_slice(&0u64.to_be_bytes()); // universe
        run.extend_from_slice(&0u64.to_be_bytes()); // spanner ids
        run.extend_from_slice(&0u64.to_be_bytes()); // iteration stats
        let mut payload = key.to_be_bytes().to_vec();
        payload.extend_from_slice(&(text.len() as u32).to_be_bytes());
        payload.extend_from_slice(text.as_bytes());
        payload.extend_from_slice(&(run.len() as u32).to_be_bytes());
        payload.extend_from_slice(&run);
        let mut sum = Fnv1a::new();
        sum.write_bytes(b"dsa-store-record-v1");
        sum.write_bytes(&payload);
        old.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        old.extend_from_slice(&payload);
        old.extend_from_slice(&sum.finish().to_be_bytes());
    }
    assert_dropped_unread(&dir, &old, &specs, &cold);

    // Today's records under the next result version.
    let mut next = current.clone();
    next[8..12].copy_from_slice(&(version + 1).to_be_bytes());
    assert_dropped_unread(&dir, &next, &specs, &cold);

    // The recompute rewrote the log under the current version.
    assert_eq!(std::fs::read(log_path(&dir)).unwrap()[..12], current[..12]);
    let (warm, (misses, _, _)) = serve_all(&dir, 256, &specs);
    assert_eq!(warm, cold);
    assert_eq!(misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
