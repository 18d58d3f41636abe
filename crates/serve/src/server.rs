//! The `truss serve` daemon: N reader threads over one shared snapshot
//! generation, a single writer, atomic rotation.
//!
//! ## Dataflow
//!
//! ```text
//!                     ┌────────────────────────────────────────────┐
//!  TCP clients ──────►│ reader 1..N   (accept → frame → answer)    │
//!                     │   each request clones Arc<Generation> once │──► replies
//!                     └──────┬─────────────────────────────────────┘    (generation,
//!                            │ Update frames                            checksum on
//!                            ▼                                          every one)
//!                     ┌──────────────┐   write tmp ──► fsync ──► rename
//!                     │ writer (one) │──────────────────────────────► snapshot path
//!                     └──────────────┘   publish Arc<Generation { n+1 }>
//! ```
//!
//! * **Readers never block on the writer.** The current generation lives
//!   behind an [`RwLock`]`<Arc<Generation>>` held only long enough to
//!   clone the `Arc`; the writer builds the next generation beside the
//!   current one ([`TrussIndex::applied`] reads it, never mutates it),
//!   and publishing is one pointer store. A request that
//!   started on generation *g* finishes on *g* even if *g+1* lands
//!   mid-answer — which is why its reply's (generation, checksum) pair
//!   is always internally consistent.
//! * **One writer.** All [`Request::Update`] frames funnel through one
//!   mpsc channel into a single thread, which applies the batch through
//!   the incremental re-peel ([`TrussIndex::applied_recycling`]),
//!   persists the new snapshot (write-new + rename, the `truss convert`
//!   pattern — a crash between the two leaves the old file untouched),
//!   and only then publishes the new generation.
//! * **Generation identity.** Generation 0 is the snapshot the server
//!   started from; each applied batch increments it. The checksum is the
//!   v2 container checksum of that generation's byte image — exactly
//!   what [`truss_storage::snapshot_checksum`] reads back from the file,
//!   so a client can verify the served artifact against disk.
//!
//! Shutdown (SIGTERM/SIGINT via [`crate::signal`], or a
//! [`Request::Shutdown`] frame) is graceful: readers finish buffered
//! requests and close, the writer drains queued updates, then all
//! threads join and [`ServerHandle::join`] returns. Nothing polls: under
//! the connection-registry lock, shutdown sets the flag and shuts the read
//! side of every open connection (a blocked `read` returns end-of-file),
//! then connects once per reader (a blocked `accept` returns). A reader
//! registers a new connection under that lock and drops it if the flag
//! is set, or no one would ever wake its `read`. The writer blocks in
//! `recv` and exits once the last reader drops its sender.

use crate::answer::answer;
use crate::proto::{
    decode_request, encode_reply, write_frame, ErrorCode, Reply, Request, Response, ServeError,
    StatusSummary, UpdateSummary, MAX_REQUEST_FRAME,
};
use std::io::Read;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use truss_core::index::TrussIndex;
use truss_graph::EdgeDelta;
use truss_storage::wal::{plan_recovery, scan_wal, truncate_torn_tail, WalWriter};
use truss_storage::{atomic_replace, atomic_replace_with, LoadMode};

/// One immutable served snapshot generation.
pub struct Generation {
    /// The index every reader answers from.
    pub index: Arc<TrussIndex>,
    /// Generation number (0 = the snapshot the server started from).
    pub number: u64,
    /// v2 container checksum of this generation's byte image.
    pub checksum: u64,
}

/// Durable delta-log configuration (`truss serve --wal`).
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// The `TRUSSLOG` file path. Created if missing; recovered
    /// (torn tail truncated, surviving deltas replayed) if present.
    pub path: PathBuf,
    /// Compact once the log grows past this many bytes: fold log +
    /// snapshot into a fresh v2 file and reset the log.
    pub compact_bytes: u64,
}

impl WalConfig {
    /// Default compaction threshold: 4 MiB of log.
    pub const DEFAULT_COMPACT_BYTES: u64 = 4 << 20;

    /// A log at `path` with the default compaction threshold.
    pub fn new(path: PathBuf) -> Self {
        WalConfig {
            path,
            compact_bytes: Self::DEFAULT_COMPACT_BYTES,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Reader threads. Each serves one connection at a time, so this is
    /// also the number of concurrently served clients; size it to the
    /// expected client count.
    pub threads: usize,
    /// Where applied updates are persisted. Without a WAL every batch
    /// rewrites this snapshot (write-new + rename); with a WAL the
    /// snapshot is only rewritten by compaction. `None` keeps updates in
    /// memory only — generations still advance and carry the checksum
    /// the rotation *would* have written.
    pub snapshot_path: Option<PathBuf>,
    /// Durable delta log: updates are acknowledged only after their log
    /// record is fsync'd (group-committed under load). Requires
    /// `snapshot_path` (compaction needs a snapshot to fold into).
    pub wal: Option<WalConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            snapshot_path: None,
            wal: None,
        }
    }
}

/// Durability counters the writer publishes and the `status` opcode
/// reads. Recovery fields are set once at startup; the rest track this
/// session's WAL activity.
#[derive(Default)]
struct Durability {
    enabled: bool,
    recovery_records_replayed: u64,
    recovery_bytes_truncated: u64,
    poisoned: AtomicBool,
    records: AtomicU64,
    bytes_appended: AtomicU64,
    fsyncs: AtomicU64,
    group_commits: AtomicU64,
    compactions: AtomicU64,
}

struct Shared {
    current: RwLock<Arc<Generation>>,
    shutdown: AtomicBool,
    /// Each reader's open connection; shutdown half-closes them.
    conns: Mutex<Vec<Option<Arc<TcpStream>>>>,
    addr: SocketAddr,
    threads: u32,
    /// Requests answered (all kinds), for diagnostics.
    served: AtomicU64,
    durability: Durability,
}

impl Shared {
    fn current(&self) -> Arc<Generation> {
        self.current.read().expect("generation lock").clone()
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Sets the shutdown flag and wakes every reader (see the module docs).
    fn begin_shutdown(&self) {
        {
            let conns = self.conns.lock().expect("connection registry");
            if self.shutdown.swap(true, Ordering::SeqCst) {
                return;
            }
            for conn in conns.iter().flatten() {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        for _ in 0..self.threads {
            let _ = TcpStream::connect(wake);
        }
    }

    /// Records reader `slot`'s open connection (`None` once it closed);
    /// false, recording nothing, once shutdown has begun.
    fn track(&self, slot: usize, conn: Option<&Arc<TcpStream>>) -> bool {
        let mut conns = self.conns.lock().expect("connection registry");
        conns[slot] = conn.filter(|_| !self.shutting_down()).cloned();
        conns[slot].is_some()
    }

    fn status(&self, gen: &Generation) -> StatusSummary {
        let d = &self.durability;
        StatusSummary {
            num_vertices: gen.index.num_vertices() as u64,
            num_edges: gen.index.num_edges() as u64,
            k_max: gen.index.max_k(),
            threads: self.threads,
            wal_enabled: d.enabled,
            wal_poisoned: d.poisoned.load(Ordering::Relaxed),
            wal_records: d.records.load(Ordering::Relaxed),
            wal_bytes_appended: d.bytes_appended.load(Ordering::Relaxed),
            wal_fsyncs: d.fsyncs.load(Ordering::Relaxed),
            group_commit_batches: d.group_commits.load(Ordering::Relaxed),
            compactions: d.compactions.load(Ordering::Relaxed),
            recovery_records_replayed: d.recovery_records_replayed,
            recovery_bytes_truncated: d.recovery_bytes_truncated,
        }
    }
}

struct WriteJob {
    base_generation: u64,
    delta: EdgeDelta,
    reply: Sender<Result<(UpdateSummary, u64, u64), ServeError>>,
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] (or send a [`Request::Shutdown`]
/// frame) for a graceful stop.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `--port 0` to the real ephemeral
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current (generation number, checksum).
    pub fn generation(&self) -> (u64, u64) {
        let g = self.shared.current();
        (g.number, g.checksum)
    }

    /// Requests answered so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// The same summary the `status` opcode answers with (durability
    /// counters included) — for in-process tests and benches.
    pub fn status(&self) -> StatusSummary {
        let gen = self.shared.current();
        self.shared.status(&gen)
    }

    /// Signals shutdown without waiting.
    pub fn trigger_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// True once every server thread has exited (e.g. after a remote
    /// [`Request::Shutdown`]).
    pub fn is_finished(&self) -> bool {
        self.threads.iter().all(|t| t.is_finished())
    }

    /// Waits for the server to exit (however shutdown was triggered).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Graceful stop: drain in-flight requests, then join every thread.
    pub fn shutdown(self) {
        self.trigger_shutdown();
        self.join();
    }
}

/// The daemon entry points.
pub struct Server;

impl Server {
    /// Starts a daemon over an in-memory index whose byte-image checksum
    /// is `checksum` (pass [`index_checksum`]'s result, or the value
    /// [`truss_storage::snapshot_checksum`] read from the file the index
    /// came from). Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) and returns once all threads are running.
    pub fn start(
        mut index: TrussIndex,
        checksum: u64,
        bind: &str,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        // WAL setup happens before the first byte is served: create or
        // recover the log, replay the surviving suffix over the index,
        // finish any interrupted compaction.
        let mut durability = Durability::default();
        let mut generation = 0u64;
        let mut serve_checksum = checksum;
        let wal_writer = match &config.wal {
            None => None,
            Some(wal_cfg) => {
                if config.snapshot_path.is_none() {
                    return Err(std::io::Error::other(
                        "a WAL requires a snapshot path: compaction folds the log into it",
                    ));
                }
                durability.enabled = true;
                let writer = if wal_cfg.path.exists() {
                    let scan = scan_wal(&wal_cfg.path).map_err(wal_io)?;
                    let recovery = plan_recovery(&scan, checksum).map_err(wal_io)?;
                    truncate_torn_tail(&wal_cfg.path, &scan)?;
                    // Each replayed generation is written into the one
                    // before the last, as the writer does.
                    let mut retired = None;
                    for (_, delta) in &recovery.replay {
                        let (next, _) = index.applied_recycling(delta, retired.take());
                        retired = Some(std::mem::replace(&mut index, next));
                    }
                    durability.recovery_records_replayed = recovery.replay.len() as u64;
                    durability.recovery_bytes_truncated = recovery.bytes_truncated;
                    generation = recovery.generation;
                    if !recovery.replay.is_empty() {
                        serve_checksum = index_checksum(&index).map_err(storage_io)?;
                    }
                    let mut writer =
                        WalWriter::open_after_recovery(&wal_cfg.path, &scan, recovery.generation)
                            .map_err(wal_io)?;
                    if recovery.reset_needed {
                        // The disk snapshot is a compacted one but the
                        // old log still hangs off the previous base:
                        // finish the interrupted compaction by
                        // rebasing the log onto the disk snapshot,
                        // re-carrying the replayed suffix.
                        let base = recovery.generation - recovery.replay.len() as u64;
                        writer
                            .reset_with(base, checksum, &recovery.replay)
                            .map_err(wal_io)?;
                    }
                    writer
                } else {
                    WalWriter::create(&wal_cfg.path, 0, checksum).map_err(wal_io)?
                };
                Some(writer)
            }
        };

        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let threads = config.threads.max(1);
        let shared = Arc::new(Shared {
            current: RwLock::new(Arc::new(Generation {
                index: Arc::new(index),
                number: generation,
                checksum: serve_checksum,
            })),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(vec![None; threads]),
            addr,
            threads: threads as u32,
            served: AtomicU64::new(0),
            durability,
        });

        let (writer_tx, writer_rx) = mpsc::channel::<WriteJob>();
        let mut handles = Vec::with_capacity(threads + 1);
        {
            let shared = Arc::clone(&shared);
            let ctx = WriterCtx {
                snapshot_path: config.snapshot_path.clone(),
                wal: wal_writer.map(|writer| WalState {
                    writer,
                    compact_bytes: config
                        .wal
                        .as_ref()
                        .map(|w| w.compact_bytes)
                        .unwrap_or(WalConfig::DEFAULT_COMPACT_BYTES),
                }),
                retired: None,
            };
            handles.push(
                std::thread::Builder::new()
                    .name("truss-serve-writer".into())
                    .spawn(move || writer_loop(writer_rx, shared, ctx))?,
            );
        }
        for i in 0..threads {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let writer_tx = writer_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("truss-serve-reader-{i}"))
                    .spawn(move || reader_loop(i, listener, shared, writer_tx))?,
            );
        }
        Ok(ServerHandle {
            shared,
            threads: handles,
        })
    }

    /// Starts a daemon over a saved index file: loads it (v2 snapshots
    /// map in O(1)), takes the container checksum as generation 0's
    /// identity, and rotates updated generations over the same path.
    pub fn open(path: &Path, bind: &str, threads: usize) -> Result<ServerHandle, String> {
        let config = ServeConfig {
            threads,
            snapshot_path: Some(path.to_path_buf()),
            wal: None,
        };
        Server::open_with(path, bind, config)
    }

    /// [`Server::open`] with full configuration — the `--wal` entry
    /// point. With a WAL configured, startup recovers the log against
    /// the snapshot (truncating a torn tail, replaying acknowledged
    /// deltas, finishing an interrupted compaction) and the served
    /// generation picks up where the crashed process left off.
    pub fn open_with(
        path: &Path,
        bind: &str,
        mut config: ServeConfig,
    ) -> Result<ServerHandle, String> {
        let (index, _) = TrussIndex::load_with(path, LoadMode::Auto)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // A v1 file has no container checksum; either way the identity
        // is the v2 byte image this exact index would rotate out.
        let checksum = truss_storage::snapshot_checksum(path)
            .or_else(|_| index_checksum(&index))
            .map_err(|e| e.to_string())?;
        if config.snapshot_path.is_none() {
            config.snapshot_path = Some(path.to_path_buf());
        }
        Server::start(index, checksum, bind, config).map_err(|e| e.to_string())
    }
}

fn wal_io(e: truss_storage::WalError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

fn storage_io(e: truss_storage::StorageError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// The v2 container checksum `index` *would* be persisted with — a
/// streaming hash pass, no allocation proportional to the index.
pub fn index_checksum(index: &TrussIndex) -> Result<u64, truss_storage::StorageError> {
    index.write_snapshot(std::io::sink())
}

// ---------------------------------------------------------------------------
// Writer

/// Persists `index` at `path` durably through the shared
/// [`atomic_replace`] discipline: sibling temp, fsync, rename, parent
/// directory fsync. Readers mapping the old generation keep their
/// pages; a crash anywhere leaves either the old or the new snapshot at
/// `path`, never a torn one. Failpoint sites: `rotate-*`.
fn rotate(index: &TrussIndex, path: &Path) -> Result<u64, String> {
    atomic_replace(path, "rotate", |w| {
        index
            .write_snapshot(w)
            .map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// The writer thread's private state.
struct WriterCtx {
    snapshot_path: Option<PathBuf>,
    wal: Option<WalState>,
    /// The generation the last publish replaced; see [`take_spare`].
    retired: Option<Arc<Generation>>,
}

struct WalState {
    writer: WalWriter,
    compact_bytes: u64,
}

/// Runs until every reader has exited (dropping its sender) and the
/// queue is drained.
fn writer_loop(rx: mpsc::Receiver<WriteJob>, shared: Arc<Shared>, mut ctx: WriterCtx) {
    while let Ok(job) = rx.recv() {
        // Group commit: everything already queued behind this job rides
        // the same fsync.
        let mut batch = vec![job];
        batch.extend(rx.try_iter());
        dispatch(batch, &shared, &mut ctx);
    }
}

fn dispatch(batch: Vec<WriteJob>, shared: &Shared, ctx: &mut WriterCtx) {
    let path = ctx.snapshot_path.as_deref();
    match &mut ctx.wal {
        Some(wal) => commit_batch(batch, shared, wal, path, &mut ctx.retired),
        None => {
            for job in batch {
                apply_job(job, shared, path, &mut ctx.retired);
            }
        }
    }
}

/// The retired generation's index, once no reader holds it any more: the
/// next successor is written into its allocations, so a warm writer
/// neither faults in fresh pages nor hands freed ones back to the OS.
fn take_spare(retired: &mut Option<Arc<Generation>>) -> Option<TrussIndex> {
    let gen = Arc::try_unwrap(retired.take()?).ok()?;
    Arc::try_unwrap(gen.index).ok()
}

fn apply_job(
    job: WriteJob,
    shared: &Shared,
    path: Option<&Path>,
    retired: &mut Option<Arc<Generation>>,
) {
    let cur = shared.current();
    if job.base_generation != crate::proto::GENERATION_ANY && job.base_generation != cur.number {
        let _ = job.reply.send(Err(ServeError::new(
            ErrorCode::StaleGeneration,
            format!(
                "update based on generation {}, but {} is current",
                job.base_generation, cur.number
            ),
        )));
        return;
    }
    // The successor is written straight from `cur`, which readers keep
    // serving untouched the whole time.
    let (next, stats) = cur.index.applied_recycling(&job.delta, take_spare(retired));
    let (checksum, rotated) = match path {
        Some(path) => match rotate(&next, path) {
            Ok(c) => (c, true),
            Err(e) => {
                let _ = job.reply.send(Err(ServeError::new(
                    ErrorCode::Internal,
                    format!("rotation failed: {e}"),
                )));
                return;
            }
        },
        None => match index_checksum(&next) {
            Ok(c) => (c, false),
            Err(e) => {
                let _ = job
                    .reply
                    .send(Err(ServeError::new(ErrorCode::Internal, e.to_string())));
                return;
            }
        },
    };
    let number = cur.number + 1;
    // Publish: one pointer store under the write lock. Readers that
    // already cloned `cur` finish their request on it.
    *shared.current.write().expect("generation lock") = Arc::new(Generation {
        index: Arc::new(next),
        number,
        checksum,
    });
    *retired = Some(cur);
    let summary = UpdateSummary {
        inserted: stats.inserted as u64,
        removed: stats.removed as u64,
        skipped: stats.skipped as u64,
        seeded: stats.seeded as u64,
        settled: stats.settled as u64,
        lowered: stats.lowered as u64,
        rotated,
    };
    let _ = job.reply.send(Ok((summary, number, checksum)));
}

/// Mirrors the writer's WAL counters into the shared status block.
fn publish_wal_stats(shared: &Shared, wal: &WalState) {
    let s = wal.writer.stats();
    let d = &shared.durability;
    d.records.store(s.records_appended, Ordering::Relaxed);
    d.bytes_appended.store(s.bytes_appended, Ordering::Relaxed);
    d.fsyncs.store(s.fsyncs, Ordering::Relaxed);
    if wal.writer.is_poisoned() {
        d.poisoned.store(true, Ordering::Relaxed);
    }
}

/// One acknowledged generation waiting on the batch's commit fsync.
struct PendingAck {
    reply: Sender<Result<(UpdateSummary, u64, u64), ServeError>>,
    summary: UpdateSummary,
    number: u64,
    checksum: u64,
}

/// The WAL write path: per job append-to-log + apply-to-successor, then ONE
/// fsync for the whole batch, then ack every job — the group commit.
/// Nothing is acknowledged before its log record is durable, and the
/// new generation is published only after the fsync, so a reader can
/// never observe state that a crash could lose.
fn commit_batch(
    batch: Vec<WriteJob>,
    shared: &Shared,
    wal: &mut WalState,
    snapshot_path: Option<&Path>,
    retired: &mut Option<Arc<Generation>>,
) {
    let cur = shared.current();
    let mut spare = take_spare(retired);
    let mut work: Option<TrussIndex> = None;
    let mut number = cur.number;
    let mut pending: Vec<PendingAck> = Vec::new();

    for job in batch {
        if wal.writer.is_poisoned() {
            let _ = job.reply.send(Err(ServeError::new(
                ErrorCode::Internal,
                "delta log poisoned by an earlier i/o failure; updates are rejected \
                 until restart (reads still serve)",
            )));
            continue;
        }
        if job.base_generation != crate::proto::GENERATION_ANY && job.base_generation != number {
            let _ = job.reply.send(Err(ServeError::new(
                ErrorCode::StaleGeneration,
                format!(
                    "update based on generation {}, but {} is current",
                    job.base_generation, number
                ),
            )));
            continue;
        }
        // Log first: the record is the thing that gets acknowledged.
        if let Err(e) = wal.writer.append_delta(&job.delta) {
            let _ = job.reply.send(Err(ServeError::new(
                ErrorCode::Internal,
                format!("delta log append failed: {e}"),
            )));
            continue; // writer is now poisoned; remaining jobs fail fast
        }
        let src = work.as_ref().unwrap_or(&cur.index);
        let (next, stats) = src.applied_recycling(&job.delta, spare.take());
        // The batch's previous working index is never served: the next
        // job writes into it.
        spare = work.replace(next);
        let index = work.as_ref().expect("just applied");
        // Sink writes cannot fail; this is a pure hash pass.
        let checksum =
            index_checksum(index).expect("checksum of an in-memory byte image cannot fail");
        number += 1;
        pending.push(PendingAck {
            reply: job.reply,
            summary: UpdateSummary {
                inserted: stats.inserted as u64,
                removed: stats.removed as u64,
                skipped: stats.skipped as u64,
                seeded: stats.seeded as u64,
                settled: stats.settled as u64,
                lowered: stats.lowered as u64,
                rotated: false,
            },
            number,
            checksum,
        });
    }

    if pending.is_empty() {
        if wal.writer.is_poisoned() {
            publish_wal_stats(shared, wal);
        }
        return;
    }

    // One fsync covers every record appended above.
    if let Err(e) = wal.writer.sync() {
        // fsyncgate semantics: the kernel may already have dropped the
        // dirty pages, so nothing appended in this batch can be trusted
        // durable. Don't publish, fail every job, stop taking writes.
        publish_wal_stats(shared, wal);
        for p in pending {
            let _ = p.reply.send(Err(ServeError::new(
                ErrorCode::Internal,
                format!("delta log fsync failed, update not durable: {e}"),
            )));
        }
        return;
    }
    shared
        .durability
        .group_commits
        .fetch_add(1, Ordering::Relaxed);
    publish_wal_stats(shared, wal);

    // Publish once: the batch's final generation. Intermediate numbers
    // exist only in their replies (they were never served).
    let last = pending.last().expect("pending is non-empty");
    let (number, checksum) = (last.number, last.checksum);
    *shared.current.write().expect("generation lock") = Arc::new(Generation {
        index: Arc::new(work.take().expect("pending implies an applied index")),
        number,
        checksum,
    });
    *retired = Some(cur);
    for p in pending {
        let _ = p.reply.send(Ok((p.summary, p.number, p.checksum)));
    }

    // Compact when the log has outgrown its threshold. Failure is not
    // fatal (the log keeps absorbing updates; the next batch retries)
    // unless it poisoned the writer.
    if let Some(path) = snapshot_path {
        let log_len = wal.writer.log_len().unwrap_or(0);
        if log_len >= wal.compact_bytes {
            let gen = shared.current();
            match compact(&gen, wal, path) {
                Ok(()) => {
                    shared
                        .durability
                        .compactions
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => eprintln!("compaction failed (serving continues): {e}"),
            }
            publish_wal_stats(shared, wal);
        }
    }
}

/// Folds log + snapshot into a fresh v2 file capturing `gen`. The
/// sequence is crash-safe at every arrow (kill-matrix-verified):
///
/// 1. write the compacted snapshot to a sibling temp file + fsync,
///    noting its container checksum `C_new`,
/// 2. append a `Compact{C_new}` intent record to the log + fsync —
///    after this, recovery can identify the new snapshot whether or not
///    the rename below ever happens,
/// 3. rename temp → snapshot path,
/// 4. fsync the parent directory (the rename is now durable),
/// 5. reset the log to base `(gen, C_new)` (atomic replace).
///
/// A crash before 2 leaves the base snapshot + full log (replay all); a
/// crash between 2 and 3 likewise (the intent matches nothing on disk
/// and is ignored); a crash between 3 and 5 leaves the new snapshot +
/// old log, which recovery finishes via the intent record.
///
/// Steps 1–4 are [`atomic_replace_with`] (failpoints `compact-*`), with
/// step 2 as its pre-rename step.
fn compact(gen: &Generation, wal: &mut WalState, path: &Path) -> Result<(), String> {
    let checksum = atomic_replace_with(
        path,
        "compact",
        |w| {
            gen.index
                .write_snapshot(w)
                .map_err(|e| std::io::Error::other(e.to_string()))
        },
        |&checksum| {
            wal.writer.append_compact(gen.number, checksum)?;
            wal.writer.sync()
        },
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    wal.writer
        .reset(gen.number, checksum)
        .map_err(|e| format!("log reset: {e}"))
}

// ---------------------------------------------------------------------------
// Readers

fn reader_loop(slot: usize, listener: TcpListener, shared: Arc<Shared>, tx: Sender<WriteJob>) {
    while !shared.shutting_down() {
        let Ok((stream, _peer)) = listener.accept() else {
            continue;
        };
        let stream = Arc::new(stream);
        if shared.track(slot, Some(&stream)) {
            handle_conn(&stream, &shared, &tx);
            shared.track(slot, None);
        }
    }
}

/// Serves one connection until EOF, error, an unrecoverable framing
/// violation, or shutdown (which still drains fully buffered requests).
fn handle_conn(mut stream: &TcpStream, shared: &Shared, writer_tx: &Sender<WriteJob>) {
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        // Serve every complete frame already buffered.
        while buf.len() >= 4 {
            let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            if len > MAX_REQUEST_FRAME {
                // Framing is unrecoverable past an oversized length:
                // answer an error frame, then close.
                let gen = shared.current();
                let reply = Reply {
                    generation: gen.number,
                    checksum: gen.checksum,
                    body: Err(ServeError::new(
                        ErrorCode::Oversized,
                        format!("frame of {len} bytes exceeds the {MAX_REQUEST_FRAME}-byte limit"),
                    )),
                };
                let _ = write_frame(&mut stream, &encode_reply(&reply));
                return;
            }
            if buf.len() < 4 + len {
                break;
            }
            let body: Vec<u8> = buf[4..4 + len].to_vec();
            buf.drain(..4 + len);
            let (reply, close) = handle_request(&body, shared, writer_tx);
            shared.served.fetch_add(1, Ordering::Relaxed);
            if write_frame(&mut stream, &encode_reply(&reply)).is_err() || close {
                return;
            }
        }
        if shared.shutting_down() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers one request body. Returns the reply and whether the
/// connection must close afterwards.
fn handle_request(body: &[u8], shared: &Shared, writer_tx: &Sender<WriteJob>) -> (Reply, bool) {
    // Snapshot the generation once: the reply's identity is the index
    // that actually answers, even if the writer publishes mid-request.
    let gen = shared.current();
    let reply_with = |body: Result<Response, ServeError>| Reply {
        generation: gen.number,
        checksum: gen.checksum,
        body,
    };
    let req = match decode_request(body) {
        Ok(req) => req,
        Err(e) => return (reply_with(Err(e)), false),
    };
    if shared.shutting_down() && !matches!(req, Request::Shutdown | Request::Status) {
        return (
            reply_with(Err(ServeError::new(
                ErrorCode::ShuttingDown,
                "server is draining for shutdown",
            ))),
            false,
        );
    }
    match req {
        Request::Status => (reply_with(Ok(Response::Status(shared.status(&gen)))), false),
        Request::Shutdown => {
            shared.begin_shutdown();
            (reply_with(Ok(Response::ShuttingDown)), true)
        }
        Request::Update {
            base_generation,
            delta,
        } => {
            let (tx, rx) = mpsc::channel();
            let job = WriteJob {
                base_generation,
                delta,
                reply: tx,
            };
            if writer_tx.send(job).is_err() {
                return (
                    reply_with(Err(ServeError::new(
                        ErrorCode::ShuttingDown,
                        "writer has exited",
                    ))),
                    false,
                );
            }
            match rx.recv() {
                Ok(Ok((summary, number, checksum))) => (
                    Reply {
                        generation: number,
                        checksum,
                        body: Ok(Response::Update(summary)),
                    },
                    false,
                ),
                Ok(Err(e)) => (reply_with(Err(e)), false),
                Err(_) => (
                    reply_with(Err(ServeError::new(
                        ErrorCode::ShuttingDown,
                        "writer exited before applying the update",
                    ))),
                    false,
                ),
            }
        }
        read_query => (reply_with(answer(&gen.index, &read_query)), false),
    }
}
