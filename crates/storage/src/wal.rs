//! `TRUSSLOG` — the durable delta log (write-ahead log) beside a v2
//! snapshot.
//!
//! The serving layer persists updates by appending them here *before*
//! acknowledging: append → fsync → ack. The in-memory index absorbs the
//! delta via the incremental `apply`; the on-disk snapshot stays at its
//! base generation until a background compaction folds log + snapshot
//! into a fresh v2 file and resets the log. Recovery is: open snapshot,
//! scan log, replay the surviving suffix. `docs/FORMATS.md` documents
//! the byte layout normatively; the summary:
//!
//! ```text
//! header  (40 bytes):
//!   magic "TRUSSLOG" | version u32 | flags u32
//!   | base_generation u64 | base_checksum u64
//!   | fnv1a64 over bytes [0,32) u64
//! record  (21 + len bytes):
//!   len u32 (payload bytes) | seq u64 | kind u8
//!   | payload | fnv1a64 over (len‖seq‖kind‖payload) u64
//! ```
//!
//! Record kinds: `1` = **Delta** (payload: `n_insert u32 | n_remove u32`
//! followed by `(u,v)` u32 pairs, inserts then removals), `2` =
//! **Compact** (payload: the new snapshot's container checksum, u64) —
//! the *compact-intent* record a compaction appends (and fsyncs) before
//! renaming the new snapshot into place, which is what makes the
//! snapshot swap + log reset crash-safe without multi-file atomicity.
//!
//! `base_generation`/`base_checksum` tie the log to one exact snapshot:
//! a Delta with sequence number `s` produces generation `s`, so the
//! first record of a fresh log carries `base_generation + 1` and every
//! subsequent Delta increments by exactly one. Gaps or reordering are
//! mid-file corruption, not a torn tail.
//!
//! ## Torn tail vs corruption
//!
//! A crash mid-append legitimately leaves a truncated final record —
//! the scanner detects it, the recovery path chops it off, and serving
//! continues (those bytes were never acknowledged, losing them is
//! correct). Anything else — a bad checksum *followed by more data*, an
//! unknown record kind, a sequence gap, an undecodable payload — is
//! evidence the file was damaged in place, and the reader returns a
//! typed [`WalError::Corrupt`] so the daemon refuses to serve rather
//! than silently dropping acknowledged updates.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use truss_graph::{Edge, EdgeDelta};

use crate::atomic::{atomic_replace, fsync_dir};
use crate::fault;
use crate::snapshot::fnv1a64;

/// File magic, first 8 bytes.
pub const WAL_MAGIC: &[u8; 8] = b"TRUSSLOG";
/// Format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;
/// Header size in bytes.
pub const WAL_HEADER_BYTES: u64 = 40;
/// Frame overhead per record: len u32 + seq u64 + kind u8 + checksum u64.
pub const RECORD_OVERHEAD: u64 = 4 + 8 + 1 + 8;
/// Largest accepted payload — a delta batch of ~8M edges. A len field
/// above this is not a size, it's damage.
pub const MAX_RECORD_PAYLOAD: u32 = 64 << 20;

const KIND_DELTA: u8 = 1;
const KIND_COMPACT: u8 = 2;

/// Errors from the log layer.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Mid-file damage: the log cannot be trusted, refuse to serve.
    Corrupt {
        /// Byte offset of the damaged record.
        offset: u64,
        /// What failed to validate.
        reason: String,
    },
    /// The snapshot on disk matches neither the log's base checksum nor
    /// any compact-intent record — the pair is not from one lineage.
    SnapshotMismatch {
        /// The log header's base snapshot checksum.
        base_checksum: u64,
        /// The checksum of the snapshot actually on disk.
        disk_checksum: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { offset, reason } => {
                write!(f, "wal corrupt at offset {offset}: {reason}")
            }
            WalError::SnapshotMismatch {
                base_checksum,
                disk_checksum,
            } => write!(
                f,
                "wal does not belong to this snapshot: log base checksum \
                 {base_checksum:016x}, snapshot checksum {disk_checksum:016x}, \
                 and no compact record bridges them"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The log header: which snapshot this log's deltas apply on top of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Generation number of the base snapshot.
    pub base_generation: u64,
    /// v2 container checksum of the base snapshot.
    pub base_checksum: u64,
}

impl WalHeader {
    fn encode(&self) -> [u8; WAL_HEADER_BYTES as usize] {
        let mut buf = [0u8; WAL_HEADER_BYTES as usize];
        buf[0..8].copy_from_slice(WAL_MAGIC);
        buf[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
        // bytes 12..16: flags, zero.
        buf[16..24].copy_from_slice(&self.base_generation.to_le_bytes());
        buf[24..32].copy_from_slice(&self.base_checksum.to_le_bytes());
        let sum = fnv1a64(&buf[0..32]);
        buf[32..40].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8; WAL_HEADER_BYTES as usize]) -> Result<Self, WalError> {
        if &buf[0..8] != WAL_MAGIC {
            return Err(WalError::Corrupt {
                offset: 0,
                reason: "bad magic (not a TRUSSLOG file)".into(),
            });
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != WAL_VERSION {
            return Err(WalError::Corrupt {
                offset: 8,
                reason: format!("unsupported wal version {version} (expected {WAL_VERSION})"),
            });
        }
        let sum = u64::from_le_bytes(buf[32..40].try_into().unwrap());
        if sum != fnv1a64(&buf[0..32]) {
            return Err(WalError::Corrupt {
                offset: 32,
                reason: "header checksum mismatch".into(),
            });
        }
        Ok(WalHeader {
            base_generation: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            base_checksum: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        })
    }
}

/// A decoded record payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalPayload {
    /// One acknowledged update batch; applying it to generation `seq-1`
    /// produces generation `seq`.
    Delta(EdgeDelta),
    /// Compact intent: a snapshot with this container checksum was (or
    /// was about to be) renamed over the base. Appended and fsync'd
    /// *before* the rename.
    Compact {
        /// Container checksum of the compacted snapshot.
        checksum: u64,
    },
}

/// One validated record from a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number: the generation a Delta produces, or the
    /// generation a Compact was taken at.
    pub seq: u64,
    /// Byte offset of the record's frame in the file.
    pub offset: u64,
    /// The decoded payload.
    pub payload: WalPayload,
}

/// Result of scanning a log file: every validated record plus where the
/// valid prefix ends.
#[derive(Debug)]
pub struct WalScan {
    /// The validated header.
    pub header: WalHeader,
    /// All records in the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix; bytes past this are a torn tail.
    pub valid_len: u64,
    /// Total file length as scanned.
    pub file_len: u64,
}

impl WalScan {
    /// Bytes of torn tail after the valid prefix.
    pub fn torn_bytes(&self) -> u64 {
        self.file_len - self.valid_len
    }
}

fn encode_delta_payload(delta: &EdgeDelta) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 8 * delta.len());
    buf.extend_from_slice(&(delta.insert.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(delta.remove.len() as u32).to_le_bytes());
    for e in delta.insert.iter().chain(delta.remove.iter()) {
        buf.extend_from_slice(&e.u.to_le_bytes());
        buf.extend_from_slice(&e.v.to_le_bytes());
    }
    buf
}

fn decode_delta_payload(offset: u64, payload: &[u8]) -> Result<EdgeDelta, WalError> {
    let corrupt = |reason: String| WalError::Corrupt { offset, reason };
    if payload.len() < 8 {
        return Err(corrupt(format!(
            "delta payload too short: {} bytes",
            payload.len()
        )));
    }
    let ni = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let nr = u32::from_le_bytes(payload[4..8].try_into().unwrap()) as usize;
    let want = 8 + 8 * (ni + nr);
    if payload.len() != want {
        return Err(corrupt(format!(
            "delta payload length {} does not match {ni} inserts + {nr} removals (want {want})",
            payload.len()
        )));
    }
    let mut at = 8;
    let mut read_edges = |n: usize| -> Result<Vec<Edge>, WalError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let u = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
            let v = u32::from_le_bytes(payload[at + 4..at + 8].try_into().unwrap());
            at += 8;
            if u == v {
                return Err(WalError::Corrupt {
                    offset,
                    reason: format!("delta contains self-loop {u}-{v}"),
                });
            }
            out.push(Edge::new(u, v));
        }
        Ok(out)
    };
    let insert = read_edges(ni)?;
    let remove = read_edges(nr)?;
    Ok(EdgeDelta { insert, remove })
}

fn encode_record(seq: u64, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RECORD_OVERHEAD as usize + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(payload);
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Counters the writer accumulates; surfaced through the daemon's
/// `status` opcode and the ingestion bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended this session.
    pub records_appended: u64,
    /// Bytes appended this session (frames, not payloads).
    pub bytes_appended: u64,
    /// `fsync` calls on the log file this session.
    pub fsyncs: u64,
}

/// The fsync-disciplined appender. The durability contract callers rely
/// on: a record is durable only after a [`sync`](WalWriter::sync) that
/// returned `Ok` *after* the append — ack nothing before that point.
///
/// Once any fsync or append fails, the writer is **poisoned**: every
/// subsequent call fails fast. An fsync error means the kernel may have
/// dropped dirty pages silently (the "fsyncgate" semantics), so retrying
/// on the same fd could ack data that never hit the platter. The daemon
/// keeps serving reads and rejects writes until restarted.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    header: WalHeader,
    next_seq: u64,
    stats: WalStats,
    poisoned: bool,
}

impl WalWriter {
    /// Creates a fresh log for a snapshot with identity
    /// `(base_generation, base_checksum)`, replacing any file at `path`.
    /// The header is durable (file + parent dir fsync'd) on return.
    pub fn create(
        path: &Path,
        base_generation: u64,
        base_checksum: u64,
    ) -> Result<WalWriter, WalError> {
        let header = WalHeader {
            base_generation,
            base_checksum,
        };
        fault::hit("wal-create")?;
        let mut file = File::create(path)?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        if let Some(parent) = parent_of(path) {
            fsync_dir(parent)?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            header,
            next_seq: base_generation + 1,
            stats: WalStats::default(),
            poisoned: false,
        })
    }

    /// Opens an existing log for appending after recovery. `scan` must
    /// come from [`scan_wal`] on the same file, and any torn tail must
    /// already be truncated ([`truncate_torn_tail`]); appends continue
    /// at `next_generation + 1`.
    pub fn open_after_recovery(
        path: &Path,
        scan: &WalScan,
        next_generation: u64,
    ) -> Result<WalWriter, WalError> {
        let file = OpenOptions::new().append(true).open(path)?;
        let len = file.metadata()?.len();
        if len != scan.valid_len {
            return Err(WalError::Corrupt {
                offset: scan.valid_len,
                reason: format!(
                    "log is {len} bytes but the validated prefix is {} — truncate the torn \
                     tail before reopening",
                    scan.valid_len
                ),
            });
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            header: scan.header,
            next_seq: next_generation + 1,
            stats: WalStats::default(),
            poisoned: false,
        })
    }

    /// The base identity this log extends.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// Session counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The sequence number the next appended delta will carry (= the
    /// generation it will produce).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// True once a failed append/fsync has made the writer unusable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poison(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal writer poisoned by an earlier i/o failure; restart to recover",
            ));
        }
        Ok(())
    }

    fn append_frame(&mut self, site: &str, frame: &[u8]) -> io::Result<()> {
        self.check_poison()?;
        let r = (|| -> io::Result<()> {
            match fault::short_write_len(site, frame.len())? {
                None => self.file.write_all(frame),
                Some(k) => {
                    // Manufacture a torn tail: push the prefix into the
                    // OS (page cache survives an abort; only power loss
                    // would lose it) and die.
                    self.file.write_all(&frame[..k])?;
                    let _ = self.file.flush();
                    fault::abort_after_short(site);
                }
            }
        })();
        if r.is_err() {
            self.poisoned = true;
        } else {
            self.stats.records_appended += 1;
            self.stats.bytes_appended += frame.len() as u64;
        }
        r
    }

    /// Appends one delta record and returns the sequence number it was
    /// assigned (= the generation applying it produces). **Not durable
    /// until the next [`sync`](WalWriter::sync)** — that is the point:
    /// group commit appends a batch, syncs once, then acks the batch.
    pub fn append_delta(&mut self, delta: &EdgeDelta) -> io::Result<u64> {
        let seq = self.next_seq;
        let frame = encode_record(seq, KIND_DELTA, &encode_delta_payload(delta));
        self.append_frame("wal-append", &frame)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Appends a compact-intent record: "a snapshot with `new_checksum`
    /// is about to be renamed over the base". Must be appended *and
    /// synced* before the rename; `generation` is the generation the
    /// compacted snapshot captures.
    pub fn append_compact(&mut self, generation: u64, new_checksum: u64) -> io::Result<()> {
        let frame = encode_record(generation, KIND_COMPACT, &new_checksum.to_le_bytes());
        self.append_frame("wal-compact-append", &frame)
    }

    /// Makes everything appended so far durable. One successful sync
    /// covers all appends before it — the group-commit primitive.
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_poison()?;
        let r = fault::hit("wal-fsync").and_then(|()| self.file.sync_all());
        if r.is_err() {
            self.poisoned = true;
        } else {
            self.stats.fsyncs += 1;
        }
        r
    }

    /// Bytes currently in the log file (header + all appended frames).
    pub fn log_len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Atomically resets the log to a fresh header for the compacted
    /// snapshot `(base_generation, base_checksum)` — the final step of
    /// a compaction. Goes through [`atomic_replace`] (prefix
    /// `wal-reset`), so a crash anywhere leaves either the old log
    /// (with its compact-intent record) or the fresh one, never a
    /// truncated mix.
    pub fn reset(&mut self, base_generation: u64, base_checksum: u64) -> Result<(), WalError> {
        self.reset_with(base_generation, base_checksum, &[])
    }

    /// Like [`reset`](WalWriter::reset), but the fresh log also carries
    /// `tail` — delta records that are already acknowledged but not yet
    /// folded into the new base. Recovery uses this to finish an
    /// interrupted compaction (the disk snapshot matched a
    /// compact-intent record) without dropping the suffix deltas that
    /// followed it in the old log. `tail` sequence numbers must run
    /// `base_generation + 1, +2, ...` in order.
    pub fn reset_with(
        &mut self,
        base_generation: u64,
        base_checksum: u64,
        tail: &[(u64, EdgeDelta)],
    ) -> Result<(), WalError> {
        self.check_poison()?;
        let header = WalHeader {
            base_generation,
            base_checksum,
        };
        for (i, (seq, _)) in tail.iter().enumerate() {
            debug_assert_eq!(*seq, base_generation + 1 + i as u64);
        }
        let r = atomic_replace(&self.path, "wal-reset", |w| {
            w.write_all(&header.encode())?;
            for (seq, delta) in tail {
                w.write_all(&encode_record(
                    *seq,
                    KIND_DELTA,
                    &encode_delta_payload(delta),
                ))?;
            }
            Ok(())
        });
        if r.is_err() {
            self.poisoned = true;
            r?;
        }
        // The old fd points at the unlinked inode; reopen the new file.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.header = header;
        self.next_seq = base_generation + 1 + tail.len() as u64;
        Ok(())
    }
}

fn parent_of(path: &Path) -> Option<&Path> {
    match path.parent() {
        Some(p) if p.as_os_str().is_empty() => Some(Path::new(".")),
        other => other,
    }
}

/// Scans a log file: validates the header and every record, classifies
/// where the valid prefix ends. A torn tail is *reported*, not an
/// error; mid-file damage is [`WalError::Corrupt`].
pub fn scan_wal(path: &Path) -> Result<WalScan, WalError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut bytes = Vec::with_capacity(file_len as usize);
    file.read_to_end(&mut bytes)?;
    scan_wal_bytes(&bytes)
}

fn scan_wal_bytes(bytes: &[u8]) -> Result<WalScan, WalError> {
    let file_len = bytes.len() as u64;
    if file_len < WAL_HEADER_BYTES {
        // Even the header is incomplete: a crash during `create` before
        // its fsync completed. Nothing was ever acknowledged against
        // this log, so it is corrupt-as-a-file but carries no data;
        // callers treat header-level corruption as refuse-to-serve.
        return Err(WalError::Corrupt {
            offset: 0,
            reason: format!(
                "file is {file_len} bytes, shorter than the {WAL_HEADER_BYTES}-byte header"
            ),
        });
    }
    let header = WalHeader::decode(bytes[0..WAL_HEADER_BYTES as usize].try_into().unwrap())?;

    let mut records = Vec::new();
    let mut at = WAL_HEADER_BYTES;
    // The generation the log has reached so far; deltas must extend it
    // by exactly one.
    let mut generation = header.base_generation;
    loop {
        let remaining = file_len - at;
        if remaining == 0 {
            break;
        }
        // Frame prefix: len u32 + seq u64 + kind u8.
        if remaining < 13 {
            break; // torn: not even a frame prefix
        }
        let a = at as usize;
        let len = u32::from_le_bytes(bytes[a..a + 4].try_into().unwrap());
        let seq = u64::from_le_bytes(bytes[a + 4..a + 12].try_into().unwrap());
        let kind = bytes[a + 12];
        if len > MAX_RECORD_PAYLOAD {
            return Err(WalError::Corrupt {
                offset: at,
                reason: format!(
                    "record payload length {len} exceeds the {MAX_RECORD_PAYLOAD}-byte cap"
                ),
            });
        }
        let frame_len = RECORD_OVERHEAD + len as u64;
        if remaining < frame_len {
            break; // torn: the record ends past EOF
        }
        let payload = &bytes[a + 13..a + 13 + len as usize];
        let stored = u64::from_le_bytes(
            bytes[a + 13 + len as usize..a + frame_len as usize]
                .try_into()
                .unwrap(),
        );
        let computed = fnv1a64(&bytes[a..a + 13 + len as usize]);
        if stored != computed {
            if at + frame_len == file_len {
                break; // torn: the final record's bytes never all landed
            }
            // Damage with valid-looking data after it: this was not a
            // crash mid-append.
            return Err(WalError::Corrupt {
                offset: at,
                reason: format!(
                    "record checksum mismatch (stored {stored:016x}, computed {computed:016x}) \
                     with {} more bytes after it",
                    file_len - at - frame_len
                ),
            });
        }
        let payload = match kind {
            KIND_DELTA => {
                if seq != generation + 1 {
                    return Err(WalError::Corrupt {
                        offset: at,
                        reason: format!(
                            "delta sequence {seq} does not extend generation {generation}"
                        ),
                    });
                }
                generation = seq;
                WalPayload::Delta(decode_delta_payload(at, payload)?)
            }
            KIND_COMPACT => {
                if payload.len() != 8 {
                    return Err(WalError::Corrupt {
                        offset: at,
                        reason: format!("compact payload is {} bytes, want 8", payload.len()),
                    });
                }
                if seq != generation {
                    return Err(WalError::Corrupt {
                        offset: at,
                        reason: format!(
                            "compact record at sequence {seq} but the log is at generation \
                             {generation}"
                        ),
                    });
                }
                WalPayload::Compact {
                    checksum: u64::from_le_bytes(payload.try_into().unwrap()),
                }
            }
            other => {
                return Err(WalError::Corrupt {
                    offset: at,
                    reason: format!("unknown record kind {other}"),
                });
            }
        };
        records.push(WalRecord {
            seq,
            offset: at,
            payload,
        });
        at += frame_len;
    }

    Ok(WalScan {
        header,
        records,
        valid_len: at,
        file_len,
    })
}

/// Chops a torn tail off the log (no-op when there is none) and makes
/// the truncation durable.
pub fn truncate_torn_tail(path: &Path, scan: &WalScan) -> io::Result<()> {
    if scan.torn_bytes() == 0 {
        return Ok(());
    }
    fault::hit("wal-truncate")?;
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(scan.valid_len)?;
    file.sync_all()?;
    Ok(())
}

/// The replay plan recovery produces: which deltas to apply over the
/// snapshot that is actually on disk, and what the result is.
#[derive(Debug)]
pub struct Recovery {
    /// `(seq, delta)` in order; applying them over the disk snapshot
    /// reproduces every acknowledged update.
    pub replay: Vec<(u64, EdgeDelta)>,
    /// Generation after replay.
    pub generation: u64,
    /// Torn bytes the caller should truncate before appending.
    pub bytes_truncated: u64,
    /// True when the disk snapshot is a *compacted* one (matched via a
    /// compact-intent record): the interrupted compaction must be
    /// finished — reset the log — before serving resumes.
    pub reset_needed: bool,
}

/// Matches a scanned log against the snapshot found on disk and plans
/// the replay.
///
/// Three outcomes:
/// * the snapshot is the log's **base** → replay every delta record;
/// * the snapshot matches a **compact-intent** record → an interrupted
///   compaction committed its rename; deltas at or before that record
///   are already folded in, replay only the suffix (and reset the log);
/// * neither → [`WalError::SnapshotMismatch`], refuse to serve.
pub fn plan_recovery(scan: &WalScan, disk_checksum: u64) -> Result<Recovery, WalError> {
    let bytes_truncated = scan.torn_bytes();

    // Prefer the *latest* matching identity: scan compact records from
    // the back. If the disk snapshot equals the base AND a compact
    // record (possible when every logged delta was a no-op), the compact
    // match replays less, and replay over the folded snapshot is
    // idempotent either way.
    let compact_match = scan.records.iter().rposition(
        |r| matches!(r.payload, WalPayload::Compact { checksum } if checksum == disk_checksum),
    );

    let (start, mut generation, reset_needed) = match compact_match {
        Some(i) => (i + 1, scan.records[i].seq, true),
        None if disk_checksum == scan.header.base_checksum => {
            (0, scan.header.base_generation, false)
        }
        None => {
            return Err(WalError::SnapshotMismatch {
                base_checksum: scan.header.base_checksum,
                disk_checksum,
            });
        }
    };

    let mut replay = Vec::new();
    for rec in scan.records.iter().skip(start) {
        if let WalPayload::Delta(delta) = &rec.payload {
            generation = rec.seq;
            replay.push((rec.seq, delta.clone()));
        }
    }

    Ok(Recovery {
        replay,
        generation,
        bytes_truncated,
        reset_needed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn delta(ins: &[(u32, u32)], rem: &[(u32, u32)]) -> EdgeDelta {
        EdgeDelta {
            insert: ins.iter().map(|&(u, v)| Edge::new(u, v)).collect(),
            remove: rem.iter().map(|&(u, v)| Edge::new(u, v)).collect(),
        }
    }

    fn write_log(path: &Path, base: (u64, u64), deltas: &[EdgeDelta]) -> WalWriter {
        let mut w = WalWriter::create(path, base.0, base.1).unwrap();
        for d in deltas {
            w.append_delta(d).unwrap();
        }
        w.sync().unwrap();
        w
    }

    #[test]
    fn round_trips_records() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        let d1 = delta(&[(1, 2), (2, 3)], &[]);
        let d2 = delta(&[(4, 5)], &[(1, 2)]);
        let w = write_log(&path, (7, 0xabcd), &[d1.clone(), d2.clone()]);
        assert_eq!(w.stats().records_appended, 2);
        assert_eq!(w.stats().fsyncs, 1);
        assert_eq!(w.next_seq(), 10);

        let scan = scan_wal(&path).unwrap();
        assert_eq!(
            scan.header,
            WalHeader {
                base_generation: 7,
                base_checksum: 0xabcd
            }
        );
        assert_eq!(scan.torn_bytes(), 0);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].seq, 8);
        assert_eq!(scan.records[0].payload, WalPayload::Delta(d1));
        assert_eq!(scan.records[1].seq, 9);
        assert_eq!(scan.records[1].payload, WalPayload::Delta(d2));
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        let d1 = delta(&[(1, 2)], &[]);
        write_log(&path, (0, 1), std::slice::from_ref(&d1));
        let whole = std::fs::metadata(&path).unwrap().len();

        // Append a second record, then tear it at every possible length.
        let frame = encode_record(2, KIND_DELTA, &encode_delta_payload(&delta(&[(3, 4)], &[])));
        for cut in 1..frame.len() {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.truncate(whole as usize);
            bytes.extend_from_slice(&frame[..cut]);
            std::fs::write(&path, &bytes).unwrap();

            let scan = scan_wal(&path).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, whole, "cut at {cut}");
            assert_eq!(scan.torn_bytes(), cut as u64, "cut at {cut}");

            truncate_torn_tail(&path, &scan).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
            let rescan = scan_wal(&path).unwrap();
            assert_eq!(rescan.torn_bytes(), 0);
            assert_eq!(rescan.records.len(), 1);
        }
    }

    #[test]
    fn mid_file_damage_is_corruption_not_torn() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        write_log(
            &path,
            (0, 1),
            &[delta(&[(1, 2)], &[]), delta(&[(3, 4)], &[])],
        );
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the FIRST record (offset 40 is its
        // frame; payload starts at 40+13).
        bytes[40 + 13] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match scan_wal(&path) {
            Err(WalError::Corrupt { offset: 40, reason }) => {
                assert!(reason.contains("checksum mismatch"), "{reason}");
            }
            other => panic!("want Corrupt at 40, got {other:?}"),
        }

        // The same flip on the LAST record is a torn tail.
        write_log(
            &path,
            (0, 1),
            &[delta(&[(1, 2)], &[]), delta(&[(3, 4)], &[])],
        );
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 5;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_bytes() > 0);
    }

    #[test]
    fn sequence_gap_is_corruption() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        let mut w = WalWriter::create(&path, 0, 1).unwrap();
        w.append_delta(&delta(&[(1, 2)], &[])).unwrap();
        w.sync().unwrap();
        // Hand-append a record that skips a generation.
        let frame = encode_record(5, KIND_DELTA, &encode_delta_payload(&delta(&[(3, 4)], &[])));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame);
        std::fs::write(&path, &bytes).unwrap();
        match scan_wal(&path) {
            Err(WalError::Corrupt { reason, .. }) => {
                assert!(reason.contains("does not extend"), "{reason}");
            }
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn recovery_replays_everything_over_the_base() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        let d1 = delta(&[(1, 2)], &[]);
        let d2 = delta(&[(3, 4)], &[]);
        write_log(&path, (3, 0xbeef), &[d1.clone(), d2.clone()]);
        let scan = scan_wal(&path).unwrap();
        let rec = plan_recovery(&scan, 0xbeef).unwrap();
        assert_eq!(rec.generation, 5);
        assert!(!rec.reset_needed);
        assert_eq!(rec.replay, vec![(4, d1), (5, d2)]);
    }

    #[test]
    fn recovery_resumes_an_interrupted_compaction() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        let d1 = delta(&[(1, 2)], &[]);
        let d2 = delta(&[(3, 4)], &[]);
        let mut w = write_log(&path, (0, 0x111), std::slice::from_ref(&d1));
        // Compaction at generation 1 produced a snapshot with checksum
        // 0x222, appended its intent, renamed... then crashed before the
        // log reset. One more delta never happened; simulate the
        // crash-after-rename by just not resetting.
        w.append_compact(1, 0x222).unwrap();
        w.append_delta(&d2).unwrap();
        w.sync().unwrap();

        // Disk snapshot is the NEW one.
        let scan = scan_wal(&path).unwrap();
        let rec = plan_recovery(&scan, 0x222).unwrap();
        assert_eq!(rec.generation, 2);
        assert!(rec.reset_needed);
        assert_eq!(rec.replay, vec![(2, d2.clone())]);

        // Disk snapshot is still the OLD one (crash before rename):
        // replay everything, compact intent is ignored.
        let scan = scan_wal(&path).unwrap();
        let rec = plan_recovery(&scan, 0x111).unwrap();
        assert_eq!(rec.generation, 2);
        assert!(!rec.reset_needed);
        assert_eq!(rec.replay, vec![(1, d1), (2, d2)]);

        // Disk snapshot is from another lineage entirely: refuse.
        let scan = scan_wal(&path).unwrap();
        match plan_recovery(&scan, 0x999) {
            Err(WalError::SnapshotMismatch { .. }) => {}
            other => panic!("want SnapshotMismatch, got {other:?}"),
        }
    }

    #[test]
    fn reset_starts_a_fresh_log() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        let mut w = write_log(&path, (0, 0x111), &[delta(&[(1, 2)], &[])]);
        w.append_compact(1, 0x222).unwrap();
        w.sync().unwrap();
        w.reset(1, 0x222).unwrap();
        assert_eq!(w.next_seq(), 2);
        let seq = w.append_delta(&delta(&[(5, 6)], &[])).unwrap();
        assert_eq!(seq, 2);
        w.sync().unwrap();

        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.header.base_generation, 1);
        assert_eq!(scan.header.base_checksum, 0x222);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 2);
    }

    #[test]
    fn poisoned_writer_fails_fast_after_fsync_eio() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        let mut w = WalWriter::create(&path, 0, 1).unwrap();
        w.append_delta(&delta(&[(1, 2)], &[])).unwrap();
        {
            let _scope = fault::scoped("wal-fsync=eio");
            assert!(w.sync().is_err());
        }
        assert!(w.is_poisoned());
        let err = w.append_delta(&delta(&[(3, 4)], &[])).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(w.sync().is_err());
    }

    #[test]
    fn open_after_recovery_continues_the_sequence() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        write_log(
            &path,
            (0, 1),
            &[delta(&[(1, 2)], &[]), delta(&[(3, 4)], &[])],
        );
        let scan = scan_wal(&path).unwrap();
        let mut w = WalWriter::open_after_recovery(&path, &scan, 2).unwrap();
        assert_eq!(w.append_delta(&delta(&[(5, 6)], &[])).unwrap(), 3);
        w.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].seq, 3);
    }

    #[test]
    fn empty_log_recovers_to_base() {
        let dir = ScratchDir::new().unwrap();
        let path = dir.path().join("t.wal");
        WalWriter::create(&path, 9, 0x42).unwrap();
        let scan = scan_wal(&path).unwrap();
        let rec = plan_recovery(&scan, 0x42).unwrap();
        assert_eq!(rec.generation, 9);
        assert!(rec.replay.is_empty());
        assert!(!rec.reset_needed);
    }
}
