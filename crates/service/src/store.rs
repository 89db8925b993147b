//! The persistent, disk-backed result store behind the in-memory LRU.
//!
//! One store is one directory holding a single append-only record log
//! (`results.log`). Each record maps a canonical 64-bit job key to the
//! encoded [`SpannerRun`] result *plus the verification bytes of the
//! canonical job* — the [`crate::wire::encode_request`] rendering of
//! the canonical instance and its result-relevant engine config. The
//! verification bytes are the whole point: the key is an FNV-1a hash,
//! and the service's collision guard (a hash hit is served only after
//! the stored identity is checked against the submitted job) must
//! survive restarts. A disk hit is therefore verified byte-for-byte
//! against the canonical instance before being served — never trusted
//! on the hash alone.
//!
//! # On-disk format
//!
//! ```text
//! file     := magic record*
//! magic    := "DSASTOR1"                      (8 bytes)
//! record   := len payload checksum
//! len      := u32 BE, length of payload
//! payload  := key spec_len spec run_len run
//! key      := u64 BE canonical job key
//! spec_len := u32 BE   spec := verification bytes (wire run request)
//! run_len  := u32 BE   run  := encoded SpannerRun (see below)
//! checksum := u64 BE FNV-1a over payload
//! ```
//!
//! The run encoding is a flat big-endian integer layout: iterations,
//! converged flag, star-fallback count, the spanner's edge-id universe
//! and sorted id list, and the per-iteration stats — everything needed
//! to reconstruct a [`SpannerRun`] whose responses are byte-identical
//! to the cold computation's (a run is only ever appended *complete*;
//! aborted runs never reach the log, so `cancelled` is always false).
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
//! * a missing or foreign magic header drops the whole file and starts
//!   it fresh.
//!
//! Every dropped record is counted ([`Store::dropped`]); recovery
//! never fails the open and never serves bytes that fail verification.
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

use dsa_core::dist::{EngineConfig, IterationStats, SpannerRun};
use dsa_graphs::canon::Fnv1a;
use dsa_graphs::EdgeSet;
use dsa_runtime::{obs, FaultInjector};

use crate::job::CanonicalInstance;
use crate::wire;

/// File-format magic: identifies a v1 result log.
const MAGIC: &[u8; 8] = b"DSASTOR1";

/// Name of the record log inside a store directory.
pub(crate) const LOG_FILE: &str = "results.log";

/// Name of the advisory single-writer lock file inside a store
/// directory; holds the owning PID for diagnostics.
pub(crate) const LOCK_FILE: &str = "lock";

/// Upper bound on one record payload. A record carries the wire
/// encoding of the job (bounded by [`wire::MAX_FRAME`] for anything
/// that arrived remotely) plus the encoded run, which is smaller than
/// the instance it came from; twice the frame cap leaves margin while
/// keeping a corrupt length prefix from directing an absurd read.
const MAX_PAYLOAD: usize = 2 * wire::MAX_FRAME;

/// The canonical identity bytes a record is verified against: the wire
/// rendering of the canonical instance plus the result-relevant engine
/// config, with execution policy (shard count, cancel flag) and the
/// timeout normalized away so equal cache identities map to equal
/// bytes. Rendered from the canonical keys; no instance is built.
pub(crate) fn verification_bytes(instance: &CanonicalInstance, config: &EngineConfig) -> Vec<u8> {
    wire::encode_canonical_request(instance, config).into_bytes()
}

/// One record decoded far enough to warm the in-memory cache.
pub(crate) struct WarmRecord {
    /// The canonical job key (verified against the re-decoded spec at
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
            end: MAGIC.len() as u64,
            dropped: 0,
        };
        let file_len = store.file.metadata()?.len();

        if file_len == 0 {
            store.file.write_all(MAGIC)?;
            store.file.flush()?;
            return Ok(store);
        }
        // The walk streams the log (peak memory is one record, not the
        // file): a buffered reader over a cloned handle, with explicit
        // positions so recovery can truncate precisely.
        let mut reader = std::io::BufReader::new(store.file.try_clone()?);
        let mut magic = [0u8; 8];
        let magic_ok = file_len >= MAGIC.len() as u64 && {
            reader.read_exact(&mut magic)?;
            &magic == MAGIC
        };
        if !magic_ok {
            // Foreign or garbage header: nothing in the file can be
            // trusted. Count it as one dropped record and start fresh.
            drop(reader);
            store.dropped += 1;
            store.file.set_len(0)?;
            store.file.seek(SeekFrom::Start(0))?;
            store.file.write_all(MAGIC)?;
            store.file.flush()?;
            return Ok(store);
        }

        // Walk the records, remembering the last well-formed boundary.
        let mut pos = MAGIC.len() as u64;
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
            if checksum(&payload) != stored_sum || decode_payload(&payload).is_none() {
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

    /// Looks up `key`, serving the stored run only when the record's
    /// verification bytes equal `verification` — the restart-surviving
    /// form of the service's hash-collision guard. Any mismatch, read
    /// failure, or decode failure is a miss.
    pub fn get(&mut self, key: u64, verification: &[u8]) -> Option<SpannerRun> {
        if self.fault.fire("store.read.err") {
            return None; // an unreadable record is a miss, never an error
        }
        let entry = *self.index.get(&key)?;
        let payload = self.read_payload(entry)?;
        let record = decode_payload(&payload)?;
        if record.spec != verification {
            return None;
        }
        Some(record.run)
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
        let mut payload = Vec::with_capacity(verification.len() + 64);
        payload.extend_from_slice(&key.to_be_bytes());
        payload.extend_from_slice(&(verification.len() as u32).to_be_bytes()); // dsa-lint: allow(DSA-C001, reason="a wrapping length implies payload > MAX_PAYLOAD, skipped below before disk")
        payload.extend_from_slice(verification);
        let run_bytes = encode_run(run);
        payload.extend_from_slice(&(run_bytes.len() as u32).to_be_bytes()); // dsa-lint: allow(DSA-C001, reason="a wrapping length implies payload > MAX_PAYLOAD, skipped below before disk")
        payload.extend_from_slice(&run_bytes);
        if payload.len() > MAX_PAYLOAD {
            return Ok(()); // cannot be replayed within the read bound; skip
        }
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes()); // dsa-lint: allow(DSA-C001, reason="payload.len() <= MAX_PAYLOAD, far below u32::MAX, checked above")
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&checksum(&payload).to_be_bytes());
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
                        payload_len: payload.len() as u32, // dsa-lint: allow(DSA-C001, reason="payload.len() <= MAX_PAYLOAD, far below u32::MAX, checked above")
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
    /// ones freshest in an LRU). Records whose spec no longer
    /// canonicalizes to their stored key are skipped, never served.
    pub fn warm_records(&mut self, limit: usize) -> Vec<WarmRecord> {
        let skip = self.order.len().saturating_sub(limit);
        let keys: Vec<u64> = self.order[skip..].to_vec();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let Some(entry) = self.index.get(&key).copied() else {
                continue;
            };
            let Some(payload) = self.read_payload(entry) else {
                continue;
            };
            let Some(record) = decode_payload(&payload) else {
                continue;
            };
            // Re-decode the stored spec instead of trusting it, through
            // the same decoder `run` frames take: this re-runs
            // validation and proves key and identity still agree (a
            // record that fails is skipped, exactly like a corrupt
            // one).
            let Ok(wire::Frame::Run(job)) = wire::decode_frame(&record.spec) else {
                continue;
            };
            if job.key != key {
                continue;
            }
            out.push(WarmRecord {
                key,
                instance: job.instance,
                config: job.config,
                run: Arc::new(record.run),
            });
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

fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(b"dsa-store-record-v1");
    h.write_bytes(payload);
    h.finish()
}

/// A payload split into its parts (spec bytes still encoded, run
/// decoded).
struct Record {
    spec: Vec<u8>,
    run: SpannerRun,
}

/// Decodes a checksum-verified payload; `None` means the internal
/// structure is inconsistent (the record is treated as corrupt).
fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut r = Cursor { buf: payload };
    let _key = r.u64()?;
    let spec_len = r.u32()? as usize; // u32 -> usize: widening on every supported target
    let spec = r.bytes(spec_len)?.to_vec();
    let run_len = r.u32()? as usize; // u32 -> usize: widening on every supported target
    if r.buf.len() != run_len {
        return None; // trailing junk (or shortfall) inside the frame
    }
    let run = decode_run(r.buf)?;
    Some(Record { spec, run })
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

impl Cursor<'_> {
    fn bytes(&mut self, n: usize) -> Option<&[u8]> {
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
    use crate::job::{canonicalize_job, JobSpec};
    use dsa_core::dist::{run_variant, VariantInstance};
    use dsa_graphs::Graph;

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
}
