//! The persistent, disk-backed result store behind the in-memory LRU.
//!
//! One store is one directory holding a single append-only record log
//! (`results.log`). Each record maps a canonical 64-bit job key to the
//! encoded [`SpannerRun`] result *plus the identity of the canonical
//! job*: its canonical instance and result-relevant engine config in
//! fixed-width integers ([`verification_bytes`]). The identity is the
//! whole point: the key is an FNV-1a hash, and the service's collision
//! guard (a hash hit is served only after the stored identity is
//! checked against the submitted job) must survive restarts. A disk
//! hit is therefore served only when the stored identity equals the
//! submitted job's, byte for byte — never on the hash alone — and a
//! warm start decodes each identity it replays through a validating
//! decoder and re-derives the job key from it.
//!
//! # On-disk format
//!
//! ```text
//! file     := magic version record*
//! magic    := "DSASTOR2"                      (8 bytes)
//! version  := u32 BE RESULT_VERSION
//! record   := len payload checksum
//! len      := u32 BE, length of payload
//! payload  := key id_len identity run_len run
//! key      := u64 BE canonical job key
//! id_len   := u32 BE   identity := the job's identity (below)
//! run_len  := u32 BE   run      := encoded SpannerRun (below)
//! checksum := u64 BE (below)
//! ```
//!
//! The identity is a flat big-endian integer layout:
//!
//! ```text
//! identity := kind seed accept monotone round max_iter n m keys extra
//! kind     := u8: 1 undirected, 2 directed, 3 weighted, 4 client-server
//! seed     := u64   accept   := u64 accept denominator, never 0
//! monotone := u8 0|1   round := u8 0|1 (round densities)
//! max_iter := u64   n := u64 vertices   m := u64 edges
//! keys     := m × (u32 u · u32 v) when n ≤ 2^32, else m × (u64 u · u64 v):
//!             the canonical keys, strictly ascending
//! extra    := m × u64 weight (weighted) | m × u8 role bits, 1 client and
//!             2 server (client-server) | nothing (the other variants)
//! ```
//!
//! It carries exactly what the job key hashes, and no byte of
//! execution policy: shard count, cancel flag, timing collection and
//! timeout never enter it, so equal cache identities have equal bytes.
//!
//! The checksum reads the payload as little-endian 8-byte words, the
//! last one zero-padded. Each word costs one multiply and one rotate,
//! the payload length is folded in last, and the state starts from
//! the magic, so a record of another format does not check.
//!
//! The run encoding is a flat big-endian integer layout: iterations,
//! converged flag, star-fallback count, the spanner's edge-id universe
//! and sorted id list, and the per-iteration stats — everything needed
//! to reconstruct a [`SpannerRun`] whose responses are byte-identical
//! to the cold computation's (a run is only ever appended *complete*;
//! aborted runs never reach the log, so `cancelled` is always false).
//!
//! # Result version
//!
//! [`RESULT_VERSION`] names the engine semantics behind the stored
//! runs. A change that alters any served byte bumps it: the file
//! header then no longer matches, so a restarted server drops the old
//! log and recomputes its jobs instead of serving the old engine's
//! bytes beside the new engine's.
//!
//! # Corruption recovery
//!
//! The log is append-only, so damage concentrates at the tail (a crash
//! mid-append) but the reader assumes nothing: on open it walks the
//! records and
//!
//! * a record whose checksum or internal structure is wrong is
//!   **skipped** (its framing still locates the next record);
//! * a tail too short to contain the record its length prefix claims —
//!   or a length prefix that is itself garbage — ends the walk and the
//!   file is **truncated** back to the last well-formed boundary, so
//!   future appends land on a clean frame;
//! * a header with another magic or result version — an older format,
//!   another engine version, or no store at all — drops the whole file
//!   unread and starts it fresh ([`Store::started_fresh`]).
//!
//! Every dropped record is counted ([`Store::dropped`]); recovery
//! never fails the open and never serves bytes that fail verification.
//! A record whose identity does not decode, or does not re-derive its
//! key, is skipped by the warm start like a corrupt one.
//! Within one log, the *latest* record for a key wins (a key is
//! re-appended only after hash collisions), which the index and
//! [`Store::warm_records`] both respect.
//!
//! **Single writer.** A store directory belongs to one process at a
//! time (the standard one-daemon deployment): opening the store takes
//! an advisory lock — a `lock` file created with `create_new`
//! holding the owner's PID — and a second open fails fast with an
//! error naming that PID instead of interleaving frames into the log.
//! A lock left behind by a crashed process (its PID no longer alive)
//! is detected as stale and reclaimed; the lock file is removed when
//! the store is dropped.
//!
//! **Fault injection.** The store threads every write and point read
//! through [`dsa_runtime::fault`] points (`store.append.err`,
//! `store.append.short`, `store.append.corrupt`, `store.read.err`) so
//! chaos runs can exercise ENOSPC-style failures, crash-shaped short
//! writes, and silent corruption deterministically. An injected (or
//! real) append failure surfaces as an `Err` the service uses to
//! demote itself to memory-only caching; injected corruption is
//! caught by the same checksum-plus-verification reads that guard
//! against real disk rot — wrong bytes are never served.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dsa_core::dist::{EngineConfig, IterationStats, SpannerRun, VariantKind};
use dsa_graphs::{EdgeSet, VertexId};
use dsa_runtime::{obs, FaultInjector};

use crate::job::{job_key, kind_code, CanonicalInstance};
use crate::wire;

/// File-format magic: identifies a result log with binary identities.
const MAGIC: &[u8; 8] = b"DSASTOR2";

/// The engine-semantics version of the stored runs, written after the
/// magic. A change that alters served bytes bumps it (see the module
/// docs).
pub(crate) const RESULT_VERSION: u32 = 1;

/// Length of the file header.
const HEADER_LEN: usize = 12;

/// The file header: the magic, then [`RESULT_VERSION`] as u32 BE.
fn header() -> [u8; HEADER_LEN] {
    let mut header = [0; HEADER_LEN];
    header[..8].copy_from_slice(MAGIC);
    header[8..].copy_from_slice(&RESULT_VERSION.to_be_bytes());
    header
}

/// Name of the record log inside a store directory.
pub(crate) const LOG_FILE: &str = "results.log";

/// Name of the advisory single-writer lock file inside a store
/// directory; holds the owning PID for diagnostics.
pub(crate) const LOCK_FILE: &str = "lock";

/// Upper bound on one record payload. A record carries the job's
/// identity, 8 bytes per key and weight, about the size of the edge
/// list text of anything that arrived remotely (bounded by
/// [`wire::MAX_FRAME`]), plus the encoded run, which is smaller than
/// the instance it came from; twice the frame cap leaves margin while
/// keeping a corrupt length prefix from directing an absurd read.
const MAX_PAYLOAD: usize = 2 * wire::MAX_FRAME;

/// Bytes of the identity before its keys: kind, seed, accept
/// denominator, the two flags, max iterations, n and m.
const IDENTITY_FIXED: usize = 1 + 8 + 8 + 1 + 1 + 8 + 8 + 8;

/// Whether keys over `n` vertices take u64 endpoints in an identity;
/// below, every endpoint fits a u32.
fn wide_keys(n: u64) -> bool {
    n > 1 << 32
}

/// The canonical identity bytes a record is verified against: the
/// canonical instance and the result-relevant engine config, in the
/// layout of the module docs, rendered from the canonical keys. Shard
/// count, cancel flag, timing collection and timeout stay out, so
/// equal cache identities map to equal bytes.
pub(crate) fn verification_bytes(instance: &CanonicalInstance, config: &EngineConfig) -> Vec<u8> {
    let edges = instance.edges();
    let (n, keys) = (edges.num_vertices() as u64, edges.keys());
    let weights = edges.weights().unwrap_or(&[]);
    let wide = wide_keys(n);
    let key_width = if wide { 16 } else { 8 };
    let mut out = Vec::with_capacity(
        IDENTITY_FIXED + key_width * keys.len() + 8 * weights.len() + instance.roles().len(),
    );
    out.push(kind_code(instance.kind()));
    out.extend_from_slice(&config.seed.to_be_bytes());
    out.extend_from_slice(&config.accept_denominator.to_be_bytes());
    out.push(u8::from(config.monotone_stars));
    out.push(u8::from(config.round_densities));
    out.extend_from_slice(&config.max_iterations.to_be_bytes());
    out.extend_from_slice(&n.to_be_bytes());
    out.extend_from_slice(&(keys.len() as u64).to_be_bytes());
    if wide {
        for &(u, v) in keys {
            out.extend_from_slice(&(u as u64).to_be_bytes());
            out.extend_from_slice(&(v as u64).to_be_bytes());
        }
    } else {
        // Both endpoints are below 2^32: one word holds u, then v.
        for &(u, v) in keys {
            out.extend_from_slice(&((u as u64) << 32 | v as u64).to_be_bytes());
        }
    }
    for &w in weights {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out.extend_from_slice(instance.roles());
    out
}

/// Decodes identity bytes into the canonical instance and engine
/// config they name, accepting only what [`verification_bytes`]
/// renders: a known kind, flags of 0 or 1, a positive accept
/// denominator, exactly `m` keys and their weights or role bits with
/// no byte after them, and keys, weights and roles that are canonical
/// for the kind ([`CanonicalInstance::from_parts`]). Nothing is
/// allocated before the record's length is known to hold `m` edges.
fn decode_identity(bytes: &[u8]) -> Option<(CanonicalInstance, EngineConfig)> {
    let mut r = Cursor { buf: bytes };
    let code = r.u8()?;
    let kind = VariantKind::ALL
        .into_iter()
        .find(|&k| kind_code(k) == code)?;
    let seed = r.u64()?;
    let accept_denominator = r.u64()?;
    if accept_denominator == 0 {
        return None;
    }
    let flag = |b: u8| match b {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    };
    let monotone_stars = flag(r.u8()?)?;
    let round_densities = flag(r.u8()?)?;
    let max_iterations = r.u64()?;
    let n = r.u64()?;
    let m = usize::try_from(r.u64()?).ok()?;
    let key_width = if wide_keys(n) { 16 } else { 8 };
    let extra_width = match kind {
        VariantKind::Weighted => 8,
        VariantKind::ClientServer => 1,
        VariantKind::Undirected | VariantKind::Directed => 0,
    };
    if m.checked_mul(key_width + extra_width)? != r.buf.len() {
        return None; // a count the record cannot hold, or trailing bytes
    }
    let (key_bytes, extra) = r.buf.split_at(m * key_width);
    let vertex = |x: u64| usize::try_from(x).ok();
    // Exactly `m` keys: a warm start keeps these in the LRU.
    let mut keys: Vec<(VertexId, VertexId)> = Vec::with_capacity(m);
    for c in key_bytes.chunks_exact(key_width) {
        let (u, v) = if key_width == 16 {
            (be_u64(&c[..8]), be_u64(&c[8..]))
        } else {
            let word = be_u64(c);
            (word >> 32, word & 0xffff_ffff)
        };
        keys.push((vertex(u)?, vertex(v)?));
    }
    let (weights, roles) = match kind {
        VariantKind::Weighted => (
            Some(extra.chunks_exact(8).map(be_u64).collect()),
            Vec::new(),
        ),
        VariantKind::ClientServer => (None, extra.to_vec()),
        VariantKind::Undirected | VariantKind::Directed => (None, Vec::new()),
    };
    let instance = CanonicalInstance::from_parts(kind, vertex(n)?, keys, weights, roles)?;
    let config = EngineConfig {
        accept_denominator,
        monotone_stars,
        round_densities,
        max_iterations,
        ..EngineConfig::seeded(seed)
    };
    Some((instance, config))
}

/// An 8-byte big-endian word.
fn be_u64(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("8 bytes"))
}

/// One record decoded far enough to warm the in-memory cache.
pub(crate) struct WarmRecord {
    /// The canonical job key (re-derived from the decoded identity at
    /// decode time).
    pub key: u64,
    /// The canonical instance the result answers.
    pub instance: Arc<CanonicalInstance>,
    /// The result-relevant engine config.
    pub config: EngineConfig,
    /// The stored run.
    pub run: Arc<SpannerRun>,
}

/// Where a key's latest record lives in the log.
#[derive(Clone, Copy)]
struct IndexEntry {
    /// Offset of the record's length prefix.
    offset: u64,
    /// Payload length (so a lookup reads exactly one record).
    payload_len: u32,
}

/// An open result store: the log file plus an in-memory key index.
/// All record payloads stay on disk; memory is O(records) index
/// entries, not O(bytes).
pub(crate) struct Store {
    file: File,
    path: PathBuf,
    /// The advisory lock file this store holds; removed on drop.
    lock_path: PathBuf,
    /// Fault-injection points threaded through appends and reads.
    fault: Arc<FaultInjector>,
    /// `key -> latest record` for point lookups.
    index: HashMap<u64, IndexEntry>,
    /// Keys in append order (latest position per key), for warm
    /// replay: later entries are more recent and should survive LRU
    /// eviction during refill.
    order: Vec<u64>,
    /// End of the last well-formed record; appends land here.
    end: u64,
    /// Corrupt or unreadable records dropped while opening.
    dropped: u64,
    /// Whether the open found a header of another format or result
    /// version and dropped the file unread.
    started_fresh: bool,
}

/// Whether `pid` names a live process. Probed via procfs; where
/// procfs is absent the holder is assumed alive — never risking a
/// second writer is worth a manual `rm` after an unclean shutdown on
/// such platforms.
fn pid_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

/// Takes the advisory single-writer lock: creates `path` exclusively
/// with this process's PID inside. A lock held by a live process is a
/// hard error naming that PID; a lock whose owner is dead (or whose
/// contents are garbage) is reclaimed once.
fn acquire_lock(path: &Path) -> std::io::Result<()> {
    for attempt in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut f) => {
                // The PID is diagnostic; a lock that exists but cannot
                // be written still excludes other writers.
                let _ = writeln!(f, "{}", std::process::id());
                let _ = f.flush();
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && attempt == 0 => {
                let holder = std::fs::read_to_string(path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid_alive(pid) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            format!(
                                "store is locked by pid {pid} ({}); \
                                 a store directory has one writer at a time — \
                                 remove the lock file only if that process is gone",
                                path.display()
                            ),
                        ));
                    }
                    _ => {
                        // Dead owner or unreadable contents: the lock
                        // is stale. Reclaim it and retry once (a loser
                        // of the reclaim race sees AlreadyExists again
                        // on attempt 1 and errors out below).
                        let lock = path.display();
                        obs::warn(
                            "dsa-service",
                            "reclaiming stale store lock",
                            &[("path", &lock), ("holder", &format_args!("{holder:?}"))],
                        );
                        std::fs::remove_file(path)?;
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::WouldBlock,
        format!(
            "store lock {} was re-taken while reclaiming it",
            path.display()
        ),
    ))
}

impl Store {
    /// Opens (creating if necessary) the store in `dir` with fault
    /// injection disabled. See [`Store::open_with`].
    #[cfg(test)]
    pub fn open(dir: &Path) -> std::io::Result<Store> {
        Store::open_with(dir, Arc::new(FaultInjector::disabled()))
    }

    /// Opens (creating if necessary) the store in `dir`, recovering
    /// from a corrupt or truncated log as described in the module
    /// docs, and threading `fault` through subsequent IO. Takes the
    /// single-writer lock first: a directory already owned by a live
    /// process fails fast. IO errors other than corruption — an
    /// unwritable directory, say — are real errors and fail the open.
    pub fn open_with(dir: &Path, fault: Arc<FaultInjector>) -> std::io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        let lock_path = dir.join(LOCK_FILE);
        acquire_lock(&lock_path)?;
        let path = dir.join(LOG_FILE);
        let file = match OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
        {
            Ok(file) => file,
            Err(e) => {
                // The lock was taken but no Store exists to drop it.
                let _ = std::fs::remove_file(&lock_path);
                return Err(e);
            }
        };
        // From here on `store` owns the lock: any early `?` return
        // drops it, which removes the lock file.
        let mut store = Store {
            file,
            path,
            lock_path,
            fault,
            index: HashMap::new(),
            order: Vec::new(),
            end: HEADER_LEN as u64,
            dropped: 0,
            started_fresh: false,
        };
        let file_len = store.file.metadata()?.len();

        if file_len == 0 {
            store.file.write_all(&header())?;
            store.file.flush()?;
            return Ok(store);
        }
        // The walk streams the log (peak memory is one record, not the
        // file): a buffered reader over a cloned handle, with explicit
        // positions so recovery can truncate precisely.
        let mut reader = std::io::BufReader::new(store.file.try_clone()?);
        let mut found = [0u8; HEADER_LEN];
        let header_ok = file_len >= HEADER_LEN as u64 && {
            reader.read_exact(&mut found)?;
            found == header()
        };
        if !header_ok {
            // Another format, another result version, or garbage:
            // nothing in the file may be served. Count it as one
            // dropped record and start fresh.
            drop(reader);
            store.dropped += 1;
            store.started_fresh = true;
            store.file.set_len(0)?;
            store.file.seek(SeekFrom::Start(0))?;
            store.file.write_all(&header())?;
            store.file.flush()?;
            return Ok(store);
        }

        // Walk the records, remembering the last well-formed boundary.
        let mut pos = HEADER_LEN as u64;
        let mut payload = Vec::new();
        loop {
            let remaining = file_len - pos;
            if remaining == 0 {
                break;
            }
            if remaining < 4 {
                store.dropped += 1; // trailing fragment of a length prefix
                break;
            }
            let mut len_bytes = [0u8; 4];
            reader.read_exact(&mut len_bytes)?;
            let payload_len = u32::from_be_bytes(len_bytes) as usize;
            if payload_len > MAX_PAYLOAD || remaining < 4 + payload_len as u64 + 8 {
                // A garbage length prefix and a truncated tail are
                // indistinguishable; either way the walk cannot find
                // another trustworthy boundary.
                store.dropped += 1;
                break;
            }
            payload.resize(payload_len, 0);
            reader.read_exact(&mut payload)?;
            let mut sum_bytes = [0u8; 8];
            reader.read_exact(&mut sum_bytes)?;
            let stored_sum = u64::from_be_bytes(sum_bytes);
            let offset = pos;
            pos += 4 + payload_len as u64 + 8;
            let well_formed = checksum(&payload) == stored_sum
                && split_payload(&payload).is_some_and(|record| decode_run(record.run).is_some());
            if !well_formed {
                // The framing held (the next record starts right
                // after), only this record's bytes are bad: skip it.
                store.dropped += 1;
                store.end = pos;
                continue;
            }
            let key = u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
            store.note_record(
                key,
                IndexEntry {
                    offset,
                    payload_len: payload_len as u32, // dsa-lint: allow(DSA-C001, reason="replay path, payload_len already bounded by the MAX_PAYLOAD read check")
                },
            );
            store.end = pos;
        }
        drop(reader);
        // Drop any unparseable tail so the next append starts on a
        // clean frame.
        if store.end < file_len {
            store.file.set_len(store.end)?;
        }
        Ok(store)
    }

    /// Whether the index holds a record for `key` — cheap (no IO, no
    /// serialization), so callers can skip rendering verification
    /// bytes on a guaranteed miss.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    fn note_record(&mut self, key: u64, entry: IndexEntry) {
        if self.index.insert(key, entry).is_some() {
            // Re-appended key (collision overwrite): its recency moves
            // to the new position.
            self.order.retain(|&k| k != key);
        }
        self.order.push(key);
    }

    /// Number of distinct keys the store can serve.
    pub fn records(&self) -> u64 {
        self.index.len() as u64
    }

    /// Corrupt records dropped while opening.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the open dropped the whole file unread, because its
    /// header named another format or result version (or none): then
    /// [`Store::dropped`] is 1 and every job recomputes.
    pub fn started_fresh(&self) -> bool {
        self.started_fresh
    }

    /// Looks up `key`, serving the stored run only when the record's
    /// identity bytes equal `verification` — the restart-surviving
    /// form of the service's hash-collision guard. The identities are
    /// compared before the run is decoded. Any mismatch, read failure,
    /// or decode failure is a miss.
    pub fn get(&mut self, key: u64, verification: &[u8]) -> Option<SpannerRun> {
        if self.fault.fire("store.read.err") {
            return None; // an unreadable record is a miss, never an error
        }
        let entry = *self.index.get(&key)?;
        let payload = self.read_payload(entry)?;
        let record = split_payload(&payload)?;
        if record.identity != verification {
            return None;
        }
        decode_run(record.run)
    }

    /// Appends one completed run. The caller guarantees the run is
    /// complete (never cancelled). On error the record is not
    /// persisted: a real write failure leaves the log truncated back
    /// to its previous end (best effort) so the tail stays
    /// well-formed, and the error is returned for the caller to act
    /// on — the service demotes itself to memory-only caching.
    pub fn append(
        &mut self,
        key: u64,
        verification: &[u8],
        run: &SpannerRun,
    ) -> std::io::Result<()> {
        debug_assert!(!run.cancelled, "aborted runs must never be persisted");
        if let Some(e) = self.fault.io_error("store.append.err") {
            return Err(e); // ENOSPC-shaped: fails before touching disk
        }
        let run_bytes = encode_run(run);
        let mut frame =
            Vec::with_capacity(4 + 8 + 4 + verification.len() + 4 + run_bytes.len() + 8);
        frame.extend_from_slice(&[0; 4]); // the length prefix, set below
        frame.extend_from_slice(&key.to_be_bytes());
        frame.extend_from_slice(&(verification.len() as u32).to_be_bytes()); // dsa-lint: allow(DSA-C001, reason="a wrapping length implies payload > MAX_PAYLOAD, skipped below before disk")
        frame.extend_from_slice(verification);
        frame.extend_from_slice(&(run_bytes.len() as u32).to_be_bytes()); // dsa-lint: allow(DSA-C001, reason="a wrapping length implies payload > MAX_PAYLOAD, skipped below before disk")
        frame.extend_from_slice(&run_bytes);
        let payload_len = frame.len() - 4;
        if payload_len > MAX_PAYLOAD {
            return Ok(()); // cannot be replayed within the read bound; skip
        }
        frame[..4].copy_from_slice(&(payload_len as u32).to_be_bytes()); // dsa-lint: allow(DSA-C001, reason="payload_len <= MAX_PAYLOAD, far below u32::MAX, checked above")
        let sum = checksum(&frame[4..]);
        frame.extend_from_slice(&sum.to_be_bytes());
        if self.fault.fire("store.append.short") {
            // Crash-shaped: half the frame reaches disk and stays
            // there (no truncation — the next open's recovery walk has
            // to cope with the ragged tail, exactly as after a real
            // crash).
            let cut = frame.len() / 2;
            let _ = self.file.seek(SeekFrom::Start(self.end));
            let _ = self.file.write_all(&frame[..cut]);
            let _ = self.file.flush();
            return Err(std::io::Error::other("injected fault: store.append.short"));
        }
        if self.fault.fire("store.append.corrupt") {
            // Silent-rot-shaped: the write "succeeds" but a checksum
            // byte is flipped. Reads catch it (checksum mismatch =>
            // miss) and the next open counts it dropped; wrong bytes
            // are never served.
            let last = frame.len() - 1;
            frame[last] ^= 0xff;
        }
        let write = (|| -> std::io::Result<()> {
            self.file.seek(SeekFrom::Start(self.end))?;
            self.file.write_all(&frame)?;
            self.file.flush()
        })();
        match write {
            Ok(()) => {
                self.note_record(
                    key,
                    IndexEntry {
                        offset: self.end,
                        payload_len: payload_len as u32, // dsa-lint: allow(DSA-C001, reason="payload_len <= MAX_PAYLOAD, far below u32::MAX, checked above")
                    },
                );
                self.end += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Best effort: drop any partial frame.
                let _ = self.file.set_len(self.end);
                Err(std::io::Error::new(
                    e.kind(),
                    format!("{}: {e}", self.path.display()),
                ))
            }
        }
    }

    /// Decodes the most recent `limit` records into warm-cache entries
    /// (oldest first, so inserting them in order leaves the newest
    /// ones freshest in an LRU). Each identity goes through the
    /// validating decoder and must re-derive its stored key; a record
    /// that fails either is skipped, exactly like a corrupt one, never
    /// served.
    pub fn warm_records(&mut self, limit: usize) -> Vec<WarmRecord> {
        let skip = self.order.len().saturating_sub(limit);
        let keys: Vec<u64> = self.order[skip..].to_vec();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let Some(entry) = self.index.get(&key).copied() else {
                continue;
            };
            if let Some(record) = self
                .read_payload(entry)
                .and_then(|payload| decode_warm(key, &payload))
            {
                out.push(record);
            }
        }
        out
    }

    fn read_payload(&mut self, entry: IndexEntry) -> Option<Vec<u8>> {
        let plen = usize::try_from(entry.payload_len).ok()?;
        let mut buf = vec![0u8; plen + 8];
        self.file.seek(SeekFrom::Start(entry.offset + 4)).ok()?;
        self.file.read_exact(&mut buf).ok()?;
        let stored_sum = u64::from_be_bytes(buf[plen..].try_into().ok()?);
        if checksum(&buf[..plen]) != stored_sum {
            return None;
        }
        buf.truncate(plen);
        Some(buf)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Release the single-writer lock. Best effort: a failure here
        // leaves a stale lock that the next open reclaims (our PID is
        // gone by then, or the operator removes it by hand).
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// The record checksum (see the module docs). The rotate matters: a
/// multiply by an odd constant carries a flip of bit 63 through
/// unchanged, so without it two flips of bit 63 in different words
/// would cancel.
fn checksum(payload: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut words = payload.chunks_exact(8);
    let mut h = u64::from_le_bytes(*MAGIC);
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(padded));
    }
    mix(h, payload.len() as u64)
}

/// A payload split into its parts, still encoded.
struct Record<'a> {
    identity: &'a [u8],
    run: &'a [u8],
}

/// Splits a checksum-verified payload; `None` means the framing inside
/// it is inconsistent (the record is treated as corrupt).
fn split_payload(payload: &[u8]) -> Option<Record<'_>> {
    let mut r = Cursor { buf: payload };
    let _key = r.u64()?;
    let id_len = r.u32()? as usize; // u32 -> usize: widening on every supported target
    let identity = r.bytes(id_len)?;
    let run_len = r.u32()? as usize; // u32 -> usize: widening on every supported target
    if r.buf.len() != run_len {
        return None; // trailing junk (or shortfall) inside the frame
    }
    Some(Record {
        identity,
        run: r.buf,
    })
}

/// A warm-cache entry from the payload of `key`'s record, or `None`
/// when its identity does not decode, does not re-derive `key`, or its
/// run does not decode.
fn decode_warm(key: u64, payload: &[u8]) -> Option<WarmRecord> {
    let record = split_payload(payload)?;
    let (instance, config) = decode_identity(record.identity)?;
    if job_key(&instance, &config) != key {
        return None;
    }
    Some(WarmRecord {
        key,
        instance: Arc::new(instance),
        config,
        run: Arc::new(decode_run(record.run)?),
    })
}

/// Flat big-endian encoding of a completed [`SpannerRun`].
fn encode_run(run: &SpannerRun) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + 8 * run.spanner.len() + 32 * run.stats.len());
    out.extend_from_slice(&run.iterations.to_be_bytes());
    out.push(u8::from(run.converged));
    out.extend_from_slice(&run.star_fallbacks.to_be_bytes());
    out.extend_from_slice(&(run.spanner.universe() as u64).to_be_bytes());
    out.extend_from_slice(&(run.spanner.len() as u64).to_be_bytes());
    for e in run.spanner.iter() {
        out.extend_from_slice(&(e as u64).to_be_bytes());
    }
    out.extend_from_slice(&(run.stats.len() as u64).to_be_bytes());
    for s in &run.stats {
        for v in [s.candidates, s.accepted, s.added_edges, s.uncovered] {
            out.extend_from_slice(&(v as u64).to_be_bytes());
        }
    }
    out
}

fn decode_run(bytes: &[u8]) -> Option<SpannerRun> {
    let mut r = Cursor { buf: bytes };
    let iterations = r.u64()?;
    let converged = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let star_fallbacks = r.u64()?;
    let universe = usize::try_from(r.u64()?).ok()?;
    // `EdgeSet::new` allocates a bit per universe id; bound it by the
    // record size (one stored id is 8 bytes, and a graph with m edges
    // encodes in far more than m/64 bytes of spec) so a hostile edit
    // cannot demand an absurd allocation.
    if universe > bytes.len().saturating_mul(64) + 1024 {
        return None;
    }
    let count = usize::try_from(r.u64()?).ok()?;
    if count > r.buf.len() / 8 {
        return None;
    }
    let mut spanner = EdgeSet::new(universe);
    for _ in 0..count {
        let e = usize::try_from(r.u64()?).ok()?;
        if e >= universe {
            return None;
        }
        spanner.insert(e);
    }
    let stats_len = usize::try_from(r.u64()?).ok()?;
    if stats_len > r.buf.len() / 32 {
        return None;
    }
    let mut stats = Vec::with_capacity(stats_len);
    for _ in 0..stats_len {
        stats.push(IterationStats {
            candidates: usize::try_from(r.u64()?).ok()?,
            accepted: usize::try_from(r.u64()?).ok()?,
            added_edges: usize::try_from(r.u64()?).ok()?,
            uncovered: usize::try_from(r.u64()?).ok()?,
        });
    }
    if !r.buf.is_empty() {
        return None;
    }
    Some(SpannerRun {
        spanner,
        iterations,
        converged,
        cancelled: false,
        star_fallbacks,
        stats,
        // Timing traces are observational and never persisted; a
        // decoded run is identical to a fresh untraced run.
        trace: None,
    })
}

/// A bounds-checked reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{canonicalize_job, CanonicalJob, JobSpec};
    use dsa_core::dist::{run_variant, VariantInstance};
    use dsa_graphs::canon::KeyBuilder;
    use dsa_graphs::{gen, EdgeWeights, Graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsa-store-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_job(seed: u64) -> (u64, Vec<u8>, SpannerRun) {
        let spec = JobSpec::new(
            VariantInstance::Undirected {
                graph: Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 4)]),
            },
            seed,
        );
        let job = canonicalize_job(&spec).unwrap();
        let run = run_variant(&job.instance.instance(), &job.config);
        let verification = verification_bytes(&job.instance, &job.config);
        (job.key, verification, run)
    }

    fn runs_equal(a: &SpannerRun, b: &SpannerRun) -> bool {
        a.spanner == b.spanner
            && a.iterations == b.iterations
            && a.converged == b.converged
            && a.star_fallbacks == b.star_fallbacks
            && a.stats.len() == b.stats.len()
    }

    #[test]
    fn run_encoding_roundtrips() {
        let (_, _, run) = sample_job(3);
        let back = decode_run(&encode_run(&run)).expect("decodes");
        assert!(runs_equal(&run, &back));
        assert_eq!(back.stats[0].candidates, run.stats[0].candidates);
        assert_eq!(back.stats[0].uncovered, run.stats[0].uncovered);
        assert!(!back.cancelled);
    }

    #[test]
    fn append_then_reopen_serves_verified_records() {
        let dir = test_dir("reopen");
        let (key, verification, run) = sample_job(7);
        {
            let mut store = Store::open(&dir).unwrap();
            assert_eq!(store.records(), 0);
            store.append(key, &verification, &run).unwrap();
            assert_eq!(store.records(), 1);
            let hit = store.get(key, &verification).expect("hit");
            assert!(runs_equal(&hit, &run));
        }
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.records(), 1);
        assert_eq!(store.dropped(), 0);
        let hit = store.get(key, &verification).expect("warm hit");
        assert!(runs_equal(&hit, &run));
        // The collision guard: same key, different identity bytes.
        assert!(store.get(key, b"someone else's job").is_none());
        assert!(store.get(key ^ 1, &verification).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_records_decode_and_match_keys() {
        let dir = test_dir("warm");
        let (k1, v1, r1) = sample_job(1);
        let (k2, v2, r2) = sample_job(2);
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(k1, &v1, &r1).unwrap();
            store.append(k2, &v2, &r2).unwrap();
        }
        let mut store = Store::open(&dir).unwrap();
        let warm = store.warm_records(usize::MAX);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm[0].key, k1);
        assert_eq!(warm[1].key, k2);
        assert!(runs_equal(&warm[0].run, &r1));
        assert!(runs_equal(&warm[1].run, &r2));
        // A limit keeps the most recent records.
        assert_eq!(store.warm_records(1)[0].key, k2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_and_log_recovers() {
        let dir = test_dir("truncated");
        let (k1, v1, r1) = sample_job(1);
        let (k2, v2, r2) = sample_job(2);
        let full_len;
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(k1, &v1, &r1).unwrap();
            full_len = store.end;
            store.append(k2, &v2, &r2).unwrap();
        }
        // Cut the second record short (mid-payload).
        let path = dir.join(LOG_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..full_len as usize + 10]).unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.records(), 1);
        assert_eq!(store.dropped(), 1);
        assert!(store.get(k1, &v1).is_some());
        assert!(store.get(k2, &v2).is_none());
        // The tail was truncated to a clean boundary: appending and
        // reopening works.
        store.append(k2, &v2, &r2).unwrap();
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        assert_eq!((store.records(), store.dropped()), (2, 0));
        assert!(store.get(k2, &v2).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_checksum_skips_only_that_record() {
        let dir = test_dir("checksum");
        let (k1, v1, r1) = sample_job(1);
        let (k2, v2, r2) = sample_job(2);
        let first_end;
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(k1, &v1, &r1).unwrap();
            first_end = store.end;
            store.append(k2, &v2, &r2).unwrap();
        }
        // Flip a byte of the FIRST record's checksum; the second
        // record must survive the skip.
        let path = dir.join(LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let sum_pos = first_end as usize - 1;
        bytes[sum_pos] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.records(), 1);
        assert_eq!(store.dropped(), 1);
        assert!(store.get(k1, &v1).is_none(), "corrupt record must miss");
        assert!(store.get(k2, &v2).is_some(), "later record must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_header_starts_fresh() {
        let dir = test_dir("header");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_FILE), b"not a store at all").unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.records(), 0);
        assert_eq!(store.dropped(), 1);
        // And the rewritten file is a working store.
        let (k, v, r) = sample_job(5);
        store.append(k, &v, &r).unwrap();
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        assert_eq!((store.records(), store.dropped()), (1, 0));
        assert!(store.get(k, &v).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_length_prefix_truncates_to_last_good_record() {
        let dir = test_dir("length");
        let (k1, v1, r1) = sample_job(1);
        {
            let mut store = Store::open(&dir).unwrap();
            store.append(k1, &v1, &r1).unwrap();
        }
        // Append a frame whose length prefix claims more than the cap.
        let path = dir.join(LOG_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        assert_eq!((store.records(), store.dropped()), (1, 1));
        assert!(store.get(k1, &v1).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_writer_fails_fast_and_stale_locks_are_reclaimed() {
        let dir = test_dir("lock");
        let store = Store::open(&dir).unwrap();
        // A live lock (our own PID) excludes a second writer, and the
        // error names the holder.
        let Err(err) = Store::open(&dir).map(|_| ()) else {
            panic!("second open must fail");
        };
        let msg = err.to_string();
        assert!(msg.contains("locked by pid"), "got: {msg}");
        assert!(msg.contains(&std::process::id().to_string()), "got: {msg}");
        // Drop releases the lock; the next open succeeds.
        drop(store);
        assert!(!dir.join(LOCK_FILE).exists());
        let store = Store::open(&dir).unwrap();
        drop(store);
        // A stale lock (dead PID, or garbage contents) is reclaimed.
        std::fs::write(dir.join(LOCK_FILE), b"999999999\n").unwrap();
        let store = Store::open(&dir).unwrap();
        drop(store);
        std::fs::write(dir.join(LOCK_FILE), b"not a pid\n").unwrap();
        let store = Store::open(&dir).unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_faults_fail_without_corrupting_the_log() {
        use dsa_runtime::FaultPlan;
        let dir = test_dir("fault-append");
        let (k, v, r) = sample_job(1);
        {
            // Every append fails up front; the log stays clean.
            let plan = FaultPlan::parse("seed=1;store.append.err=1.0").unwrap();
            let fault = Arc::new(FaultInjector::new(plan));
            let mut store = Store::open_with(&dir, fault).unwrap();
            assert!(store.append(k, &v, &r).is_err());
            assert_eq!(store.records(), 0);
        }
        {
            // A short write leaves a ragged tail on disk...
            let plan = FaultPlan::parse("seed=1;store.append.short=1.0").unwrap();
            let fault = Arc::new(FaultInjector::new(plan));
            let mut store = Store::open_with(&dir, fault).unwrap();
            assert!(store.append(k, &v, &r).is_err());
        }
        {
            // ...which the next open recovers from, exactly like a
            // crash mid-append.
            let mut store = Store::open(&dir).unwrap();
            assert_eq!(store.records(), 0);
            assert_eq!(store.dropped(), 1);
            store.append(k, &v, &r).unwrap();
            assert!(store.get(k, &v).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_is_caught_by_reads_never_served() {
        use dsa_runtime::FaultPlan;
        let dir = test_dir("fault-corrupt");
        let (k, v, r) = sample_job(1);
        {
            let plan = FaultPlan::parse("seed=1;store.append.corrupt=1.0").unwrap();
            let fault = Arc::new(FaultInjector::new(plan));
            let mut store = Store::open_with(&dir, fault).unwrap();
            // The corrupted append reports success (silent rot)...
            store.append(k, &v, &r).unwrap();
            // ...but the point read's checksum catches it: a miss.
            assert!(store.get(k, &v).is_none());
        }
        let mut store = Store::open(&dir).unwrap();
        assert_eq!((store.records(), store.dropped()), (0, 1));
        // Injected read faults are also just misses.
        store.append(k, &v, &r).unwrap();
        drop(store);
        let plan = FaultPlan::parse("seed=1;store.read.err=1.0").unwrap();
        let fault = Arc::new(FaultInjector::new(plan));
        let mut store = Store::open_with(&dir, fault).unwrap();
        assert_eq!(store.records(), 1);
        assert!(store.get(k, &v).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewritten_key_prefers_the_latest_record() {
        let dir = test_dir("rewrite");
        let (k, v, r) = sample_job(1);
        // A different identity colliding on the key would overwrite;
        // simulate by appending the same key twice (second wins).
        let mut store = Store::open(&dir).unwrap();
        store.append(k, b"old identity", &r).unwrap();
        store.append(k, &v, &r).unwrap();
        assert_eq!(store.records(), 1);
        assert!(store.get(k, &v).is_some());
        assert!(store.get(k, b"old identity").is_none());
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.records(), 1);
        assert!(store.get(k, &v).is_some());
        assert_eq!(store.warm_records(usize::MAX).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The result-relevant config fields.
    fn config_fields(c: &EngineConfig) -> (u64, u64, bool, bool, u64) {
        (
            c.seed,
            c.accept_denominator,
            c.monotone_stars,
            c.round_densities,
            c.max_iterations,
        )
    }

    /// A config with every result-relevant field drawn at random.
    fn random_config(rng: &mut StdRng) -> EngineConfig {
        EngineConfig {
            accept_denominator: [1, 8, u64::MAX, rng.gen_range(1..=u64::MAX)]
                [rng.gen_range(0..4usize)],
            monotone_stars: rng.gen(),
            round_densities: rng.gen(),
            max_iterations: [0, 1_000_000, u64::MAX, rng.gen()][rng.gen_range(0..4usize)],
            ..EngineConfig::seeded(rng.gen())
        }
    }

    /// A weight from the edges of the range as often as from inside it.
    fn random_weight(rng: &mut StdRng) -> u64 {
        [0, 1, u64::MAX, rng.gen()][rng.gen_range(0..4usize)]
    }

    /// A random job of `kind` on `n` vertices, from `rows` random rows
    /// through the decoders' `KeyBuilder`, so no `n`-sized allocation.
    fn keyed_job(kind: VariantKind, n: usize, rows: usize, rng: &mut StdRng) -> CanonicalJob {
        let mut builder = KeyBuilder::new(n, kind == VariantKind::Directed);
        for row in 1..=rows {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let (u, v) = if u == v { (u, (v + 1) % n) } else { (u, v) };
            let w = random_weight(rng);
            let fields = [u as u64, v as u64, w];
            let arity = if kind == VariantKind::Weighted { 3 } else { 2 };
            builder.push_row(row, &fields[..arity]).unwrap();
        }
        let edges = builder.finish().unwrap();
        let m = edges.keys.num_edges();
        let roles = (kind == VariantKind::ClientServer).then(|| {
            let mut pick = || EdgeSet::from_iter(m, (0..m).filter(|_| rng.gen_bool(0.5)));
            (pick(), pick())
        });
        let config = random_config(rng);
        CanonicalJob::new(
            kind,
            edges,
            roles.as_ref().map(|(c, s)| (c, s)),
            config,
            None,
        )
    }

    /// Random jobs of all four variants: small generated graphs
    /// through `canonicalize_job` (m = 0 included), and keyed jobs over
    /// n = 2^32 (the widest narrow keys) and n above `u32::MAX`.
    fn sample_jobs(rng: &mut StdRng) -> Vec<CanonicalJob> {
        let mut jobs = Vec::new();
        for _ in 0..40 {
            let n = rng.gen_range(1..40);
            let g = if rng.gen_bool(0.15) {
                Graph::from_edges(n, [])
            } else {
                gen::gnp(n, 0.05 + 0.45 * rng.gen::<f64>(), rng)
            };
            let d = gen::random_digraph(n, 0.05 + 0.45 * rng.gen::<f64>(), rng);
            let weights = EdgeWeights::from_fn(g.num_edges(), |_| random_weight(rng));
            let (clients, servers) = gen::client_server_split(&g, 0.5, 0.5, rng);
            let instances = [
                VariantInstance::Undirected { graph: g.clone() },
                VariantInstance::Directed { graph: d },
                VariantInstance::Weighted {
                    graph: g.clone(),
                    weights,
                },
                VariantInstance::ClientServer {
                    graph: g,
                    clients,
                    servers,
                },
            ];
            for instance in instances {
                let spec = JobSpec {
                    instance,
                    config: random_config(rng),
                    timeout: None,
                };
                jobs.push(canonicalize_job(&spec).unwrap());
            }
        }
        for kind in VariantKind::ALL {
            for n in [1 << 32, (1 << 32) + 1, usize::MAX] {
                jobs.push(keyed_job(kind, n, 12, rng));
            }
        }
        jobs
    }

    #[test]
    fn identity_roundtrips_all_four_variants() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut roles_seen = [false; 4];
        let (mut empty, mut wide, mut max_weight) = (0, 0, 0);
        for job in sample_jobs(&mut rng) {
            let bytes = verification_bytes(&job.instance, &job.config);
            let (instance, config) = decode_identity(&bytes).expect("a rendered identity decodes");
            assert_eq!(instance, *job.instance);
            assert_eq!(config_fields(&config), config_fields(&job.config));
            assert_eq!(job_key(&instance, &config), job.key);
            assert_eq!(verification_bytes(&instance, &config), bytes);
            let edges = job.instance.edges();
            let m = edges.num_edges();
            let key_width = if edges.num_vertices() > 1 << 32 {
                16
            } else {
                8
            };
            let extra = bytes.len() - IDENTITY_FIXED - key_width * m;
            assert_eq!(
                extra,
                8 * edges.weights().map_or(0, <[u64]>::len) + job.instance.roles().len()
            );
            for &r in job.instance.roles() {
                roles_seen[usize::from(r)] = true;
            }
            empty += usize::from(m == 0);
            wide += usize::from(key_width == 16);
            max_weight += usize::from(edges.weights().unwrap_or(&[]).contains(&u64::MAX));
        }
        assert_eq!(roles_seen, [true; 4], "all four role-bit values");
        assert!(
            empty >= 4 && wide >= 8 && max_weight > 0,
            "{empty} {wide} {max_weight}"
        );
    }

    /// Instances from explicit canonical parts.
    fn parts(
        kind: VariantKind,
        n: usize,
        keys: &[(usize, usize)],
        weights: Option<Vec<u64>>,
        roles: Vec<u8>,
    ) -> CanonicalInstance {
        CanonicalInstance::from_parts(kind, n, keys.to_vec(), weights, roles).expect("canonical")
    }

    #[test]
    fn identity_bytes_separate_jobs_and_ignore_execution_policy() {
        use VariantKind::*;
        let keys = [(0, 1), (0, 2), (1, 3), (2, 3)];
        let base = EngineConfig::seeded(5);
        let with = |edit: fn(&mut EngineConfig)| {
            let mut c = base.clone();
            edit(&mut c);
            c
        };
        let jobs = [
            (parts(Undirected, 4, &keys, None, vec![]), base.clone()),
            (parts(Directed, 4, &keys, None, vec![]), base.clone()),
            (
                parts(Weighted, 4, &keys, Some(vec![1, 2, 3, 4]), vec![]),
                base.clone(),
            ),
            (
                parts(Weighted, 4, &keys, Some(vec![1, 2, 3, 5]), vec![]),
                base.clone(),
            ),
            (
                parts(ClientServer, 4, &keys, None, vec![0, 0, 0, 0]),
                base.clone(),
            ),
            (
                parts(ClientServer, 4, &keys, None, vec![0, 1, 2, 3]),
                base.clone(),
            ),
            (
                parts(ClientServer, 4, &keys, None, vec![0, 1, 2, 2]),
                base.clone(),
            ),
            (parts(Undirected, 5, &keys, None, vec![]), base.clone()),
            (
                parts(
                    Undirected,
                    4,
                    &[(0, 1), (0, 2), (1, 2), (2, 3)],
                    None,
                    vec![],
                ),
                base.clone(),
            ),
            (parts(Undirected, 4, &keys[..3], None, vec![]), base.clone()),
            (parts(Undirected, 4, &[], None, vec![]), base.clone()),
            (
                parts(Undirected, 4, &keys, None, vec![]),
                with(|c| c.seed = 6),
            ),
            (
                parts(Undirected, 4, &keys, None, vec![]),
                with(|c| c.accept_denominator = 4),
            ),
            (
                parts(Undirected, 4, &keys, None, vec![]),
                with(|c| c.monotone_stars = false),
            ),
            (
                parts(Undirected, 4, &keys, None, vec![]),
                with(|c| c.round_densities = false),
            ),
            (
                parts(Undirected, 4, &keys, None, vec![]),
                with(|c| c.max_iterations = 7),
            ),
        ];
        let rendered: Vec<Vec<u8>> = jobs.iter().map(|(i, c)| verification_bytes(i, c)).collect();
        for a in 0..rendered.len() {
            for b in a + 1..rendered.len() {
                assert_ne!(rendered[a], rendered[b], "jobs {a} and {b} render alike");
            }
        }
        // Execution policy never reaches the bytes.
        let policy = with(|c| {
            c.num_shards = 8;
            c.cancel = Some(Arc::new(std::sync::atomic::AtomicBool::new(true)));
            c.collect_timings = true;
        });
        assert_eq!(verification_bytes(&jobs[0].0, &policy), rendered[0]);
        let mut timed = JobSpec::new(
            VariantInstance::Undirected {
                graph: Graph::from_edges(4, keys),
            },
            5,
        );
        timed.timeout = Some(std::time::Duration::from_millis(1));
        let timed = canonicalize_job(&timed).unwrap();
        assert_eq!(
            verification_bytes(&timed.instance, &timed.config),
            rendered[0]
        );
    }

    /// Identity bytes from raw fields, unchecked, in the narrow-key
    /// layout of the module docs.
    fn raw_identity(
        kind: u8,
        flags: [u8; 2],
        accept: u64,
        n: u64,
        keys: &[(u64, u64)],
        extra: &[u8],
    ) -> Vec<u8> {
        let mut out = vec![kind];
        out.extend_from_slice(&9u64.to_be_bytes());
        out.extend_from_slice(&accept.to_be_bytes());
        out.extend_from_slice(&flags);
        out.extend_from_slice(&1_000_000u64.to_be_bytes());
        out.extend_from_slice(&n.to_be_bytes());
        out.extend_from_slice(&(keys.len() as u64).to_be_bytes());
        for &(u, v) in keys {
            out.extend_from_slice(&(u as u32).to_be_bytes());
            out.extend_from_slice(&(v as u32).to_be_bytes());
        }
        out.extend_from_slice(extra);
        out
    }

    #[test]
    fn identity_decoder_rejects_what_is_not_canonical() {
        let keys = [(0, 1), (0, 2), (1, 3)];
        let ok = |kind: u8, keys: &[(u64, u64)], extra: &[u8]| {
            raw_identity(kind, [1, 1], 8, 4, keys, extra)
        };
        // The controls decode: one identity of each variant.
        let weights: Vec<u8> = [7u64, 0, u64::MAX]
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .collect();
        let valid = [
            ok(1, &keys, &[]),
            ok(2, &[(1, 0), (2, 1), (3, 0)], &[]),
            ok(3, &keys, &weights),
            ok(4, &keys, &[3, 0, 2]),
        ];
        for bytes in &valid {
            let (instance, config) = decode_identity(bytes).expect("control decodes");
            assert_eq!(&verification_bytes(&instance, &config), bytes);
        }
        let rejected = [
            ("unsorted keys", ok(1, &[(0, 2), (0, 1), (1, 3)], &[])),
            ("repeated key", ok(1, &[(0, 1), (0, 1), (1, 3)], &[])),
            ("self-loop", ok(2, &[(0, 1), (2, 2)], &[])),
            ("reversed undirected key", ok(1, &[(0, 1), (3, 1)], &[])),
            ("endpoint = n", ok(1, &[(0, 1), (1, 4)], &[])),
            (
                "endpoint far out of range",
                ok(4, &[(0, u64::from(u32::MAX))], &[0]),
            ),
            ("role byte above 3", ok(4, &keys, &[3, 4, 0])),
            ("role bytes on undirected", ok(1, &keys, &[0, 1, 2])),
            (
                "weights on directed",
                ok(2, &[(1, 0), (2, 1), (3, 0)], &weights),
            ),
            ("weights on client-server", ok(4, &keys, &weights)),
            ("no weights on weighted", ok(3, &keys, &[])),
            ("kind 0", ok(0, &keys, &[])),
            ("kind 5", ok(5, &keys, &[])),
            ("kind 255", ok(255, &keys, &[])),
            ("monotone flag 2", raw_identity(1, [2, 1], 8, 4, &keys, &[])),
            (
                "round flag 255",
                raw_identity(1, [1, 255], 8, 4, &keys, &[]),
            ),
            (
                "accept denominator 0",
                raw_identity(1, [1, 1], 0, 4, &keys, &[]),
            ),
            ("trailing byte", ok(1, &keys, &[0])),
            ("trailing word", ok(1, &keys, &[0; 8])),
        ];
        for (what, bytes) in &rejected {
            assert!(decode_identity(bytes).is_none(), "accepted: {what}");
        }
        // Counts the record cannot hold.
        for m in [4, u64::MAX / 8 + 1, u64::MAX] {
            let mut bytes = valid[0].clone();
            bytes[35..43].copy_from_slice(&m.to_be_bytes());
            assert!(decode_identity(&bytes).is_none(), "accepted m = {m}");
        }
        // Every truncation of every control, and of a wide identity.
        let mut rng = StdRng::seed_from_u64(3);
        let wide = keyed_job(VariantKind::Weighted, (1 << 32) + 1, 5, &mut rng);
        let wide = verification_bytes(&wide.instance, &wide.config);
        for bytes in valid.iter().chain([&wide]) {
            for len in 0..bytes.len() {
                assert!(
                    decode_identity(&bytes[..len]).is_none(),
                    "accepted a {len}-byte prefix"
                );
            }
        }
    }

    /// One record's payload and checksum, as appended to a log.
    fn sample_record() -> (Vec<u8>, u64) {
        let dir = test_dir("sample-record");
        let (key, verification, run) = sample_job(4);
        let mut store = Store::open(&dir).unwrap();
        store.append(key, &verification, &run).unwrap();
        drop(store);
        let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let len = u32::from_be_bytes(log[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
        let payload = log[HEADER_LEN + 4..HEADER_LEN + 4 + len].to_vec();
        let sum = u64::from_be_bytes(log[HEADER_LEN + 4 + len..].try_into().unwrap());
        (payload, sum)
    }

    #[test]
    fn checksum_detects_byte_flips_truncations_and_paired_top_bits() {
        let (payload, sum) = sample_record();
        assert_eq!(checksum(&payload), sum);
        assert!(
            payload.len() > 64 && payload.len() % 8 != 0,
            "{}",
            payload.len()
        );
        for i in 0..payload.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = payload.clone();
                flipped[i] ^= mask;
                assert_ne!(checksum(&flipped), sum, "flip {mask:#04x} at byte {i}");
            }
        }
        for len in 0..payload.len() {
            assert_ne!(checksum(&payload[..len]), sum, "truncated to {len} bytes");
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert_ne!(checksum(&extended), sum, "a zero byte appended");
        // Bit 63 of little-endian word w is bit 7 of byte 8w + 7.
        let words = payload.len() / 8;
        for a in 0..words {
            for b in a + 1..words {
                let mut flipped = payload.clone();
                flipped[8 * a + 7] ^= 0x80;
                flipped[8 * b + 7] ^= 0x80;
                assert_ne!(checksum(&flipped), sum, "bit 63 of words {a} and {b}");
            }
        }
    }

    #[test]
    fn other_formats_and_result_versions_are_dropped_unread() {
        let (k, v, r) = sample_job(6);
        let mut old_version = header();
        old_version[8..].copy_from_slice(&(RESULT_VERSION + 1).to_be_bytes());
        for head in [
            b"DSASTOR1".to_vec(),
            old_version.to_vec(),
            b"DSASTOR2".to_vec(),
        ] {
            let dir = test_dir("versions");
            {
                let mut store = Store::open(&dir).unwrap();
                store.append(k, &v, &r).unwrap();
                assert!(!store.started_fresh());
            }
            // The same records behind another header.
            let path = dir.join(LOG_FILE);
            let log = std::fs::read(&path).unwrap();
            std::fs::write(&path, [&head[..], &log[HEADER_LEN..]].concat()).unwrap();
            let mut store = Store::open(&dir).unwrap();
            assert!(store.started_fresh());
            assert_eq!((store.records(), store.dropped()), (0, 1));
            assert!(store.get(k, &v).is_none());
            drop(store);
            assert_eq!(std::fs::read(&path).unwrap(), header());
            let store = Store::open(&dir).unwrap();
            assert!(!store.started_fresh());
            assert_eq!((store.records(), store.dropped()), (0, 0));
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
