//! Bucketed spill files for the out-of-core engine — a slimmed
//! [`truss_storage::ext_sort`].
//!
//! The sharded passes ([`super::support`], [`super::peel`]) produce
//! records *for other shards*: boundary-triangle probes, support
//! increments, peel decrements. A full external sort is overkill —
//! replay only needs every record to reach the shard that owns it, not a
//! global order — so [`SpillBuckets`] keeps one bounded in-memory buffer
//! per destination shard and appends sorted, locally-merged runs to a
//! per-shard [`RecordFile`] when a buffer fills. Draining a bucket is a
//! single `scan` of its file plus the live buffer: `O(scan(R))` I/O for
//! `R` spilled records, with zero merge passes.
//!
//! Spill writes are *overlapped* with computation: a [`SpillDrain`] is a
//! single background thread that owns append-mode file handles and
//! consumes encoded runs from a bounded channel, so a worker that fills a
//! buffer hands off the bytes and keeps counting triangles while the
//! previous run is still hitting disk. The channel bound is the
//! double-buffer: at most a few runs are in flight, so spill memory stays
//! within the budget share the caller sized `buf_cap` from. Draining a
//! bucket first *retires* its path on the drain (a rendezvous that
//! flushes queued appends and closes the handle — required before the
//! file is scanned or deleted, otherwise a reused bucket could append to
//! an unlinked inode) and then scans the file.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use truss_storage::record::{FixedRecord, RecordFile};
use truss_storage::{IoTracker, Result, ScratchDir, StorageError};

/// A fixed-width record that knows how to merge with an equal-keyed
/// neighbor — the in-buffer aggregation hook ([`IncRec`] sums counts;
/// probes never merge).
pub trait Spillable: FixedRecord {
    /// Folds `other` into `self` when the two share a key; returns
    /// whether the fold happened (`false` keeps both records).
    fn try_merge(&mut self, _other: &Self) -> bool {
        false
    }
}

/// A boundary-triangle probe: shard `vertex_shard(v)` must check whether
/// `w` is a neighbor of `v`, and if so count the triangle closed by
/// `e_uv` and `e_uw`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRec {
    /// The middle vertex of the candidate triangle (owned by the target
    /// shard).
    pub v: u32,
    /// The apex candidate — CSR rows are sorted, so membership is one
    /// binary search in `v`'s row.
    pub w: u32,
    /// Edge id of `(u, v)`.
    pub e_uv: u32,
    /// Edge id of `(u, w)`.
    pub e_uw: u32,
}

impl FixedRecord for ProbeRec {
    const SIZE: usize = 16;

    fn encode(&self, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&self.v.to_le_bytes());
        buf[4..8].copy_from_slice(&self.w.to_le_bytes());
        buf[8..12].copy_from_slice(&self.e_uv.to_le_bytes());
        buf[12..16].copy_from_slice(&self.e_uw.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let g = |r: std::ops::Range<usize>| u32::from_le_bytes(buf[r].try_into().unwrap());
        ProbeRec {
            v: g(0..4),
            w: g(4..8),
            e_uv: g(8..12),
            e_uw: g(12..16),
        }
    }

    fn sort_key(&self) -> u128 {
        ((self.v as u128) << 32) | self.w as u128
    }
}

impl Spillable for ProbeRec {}

/// A support increment (init) or peel decrement (peel) destined for edge
/// `e`'s shard. Equal-keyed records merge by summing, so a hot edge
/// costs one record per buffer flush instead of one per triangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncRec {
    /// Target edge id.
    pub e: u32,
    /// How many triangles to add (or, in the peel, remove).
    pub c: u32,
}

impl FixedRecord for IncRec {
    const SIZE: usize = 8;

    fn encode(&self, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&self.e.to_le_bytes());
        buf[4..8].copy_from_slice(&self.c.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        IncRec {
            e: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            c: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
        }
    }

    fn sort_key(&self) -> u128 {
        self.e as u128
    }
}

impl Spillable for IncRec {
    fn try_merge(&mut self, other: &Self) -> bool {
        if self.e == other.e {
            self.c += other.c;
            true
        } else {
            false
        }
    }
}

/// How many encoded runs may be in flight to the drain thread at once.
/// Small on purpose: the bound is what keeps "overlapped" from becoming
/// "unbounded queue of spill memory".
const DRAIN_QUEUE_RUNS: usize = 8;

enum Job {
    /// Append `bytes` (whole encoded records) to the file at `path`,
    /// opening it in append mode on first touch.
    Append { path: PathBuf, bytes: Vec<u8> },
    /// Flush and close `path`'s handle, then acknowledge. After the ack
    /// the file is complete and safe to scan or delete.
    Retire { path: PathBuf, ack: SyncSender<()> },
}

#[derive(Default)]
struct DrainShared {
    /// Nanoseconds the drain thread spent servicing jobs.
    busy_nanos: AtomicU64,
    /// Nanoseconds foreground callers spent waiting on the drain
    /// (backpressured sends plus retire rendezvous).
    blocked_nanos: AtomicU64,
    /// Bytes the drain appended to spill files.
    bytes_written: AtomicU64,
    failed: AtomicBool,
    error: Mutex<Option<String>>,
}

/// Background spill writer shared by every [`SpillBuckets`] of a run.
///
/// One thread, one bounded queue: workers enqueue encoded runs and keep
/// computing while the drain writes. The thread never panics on I/O
/// errors — it latches a failure flag and keeps consuming (and acking
/// retires) so no foreground worker deadlocks; the error surfaces as
/// `Err` from the next [`SpillBuckets::drain`] or append.
pub struct SpillDrain {
    tx: Mutex<Option<SyncSender<Job>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    shared: Arc<DrainShared>,
}

impl SpillDrain {
    /// Spawns the drain thread; spill write traffic is recorded on
    /// `tracker`.
    pub fn spawn(tracker: IoTracker) -> Arc<SpillDrain> {
        let (tx, rx) = sync_channel::<Job>(DRAIN_QUEUE_RUNS);
        let shared = Arc::new(DrainShared::default());
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("spill-drain".into())
            .spawn(move || drain_loop(rx, thread_shared, tracker))
            .expect("spawn spill-drain thread");
        Arc::new(SpillDrain {
            tx: Mutex::new(Some(tx)),
            handle: Mutex::new(Some(handle)),
            shared,
        })
    }

    fn check_failed(&self) -> Result<()> {
        if self.shared.failed.load(Ordering::Relaxed) {
            let msg = self
                .shared
                .error
                .lock()
                .expect("drain error lock")
                .clone()
                .unwrap_or_else(|| "spill drain failed".into());
            return Err(StorageError::Io(std::io::Error::other(msg)));
        }
        Ok(())
    }

    fn send(&self, job: Job) -> Result<()> {
        let start = Instant::now();
        let res = {
            let tx = self.tx.lock().expect("drain tx lock");
            match tx.as_ref() {
                Some(tx) => tx.send(job).map_err(|_| ()),
                None => Err(()),
            }
        };
        self.shared
            .blocked_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        res.map_err(|_| StorageError::Io(std::io::Error::other("spill drain is shut down")))
    }

    /// Queues an append of `bytes` to `path`, blocking only when the
    /// in-flight queue is full (that wait is the backpressure the
    /// overlap metric subtracts).
    pub fn append(&self, path: &Path, bytes: Vec<u8>) -> Result<()> {
        self.check_failed()?;
        self.send(Job::Append {
            path: path.to_path_buf(),
            bytes,
        })
    }

    /// Flushes every queued append for `path`, closes its handle, and
    /// waits for the acknowledgement. Must precede any scan or delete
    /// of the file.
    pub fn retire(&self, path: &Path) -> Result<()> {
        let (ack_tx, ack_rx) = sync_channel::<()>(0);
        self.send(Job::Retire {
            path: path.to_path_buf(),
            ack: ack_tx,
        })?;
        let start = Instant::now();
        let acked = ack_rx.recv();
        self.shared
            .blocked_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        acked
            .map_err(|_| StorageError::Io(std::io::Error::other("spill drain died mid-retire")))?;
        self.check_failed()
    }

    /// Stops the drain thread and waits for it. Idempotent; also runs
    /// on drop. Call before reading the final metrics.
    pub fn quiesce(&self) {
        drop(self.tx.lock().expect("drain tx lock").take());
        if let Some(h) = self.handle.lock().expect("drain handle lock").take() {
            let _ = h.join();
        }
    }

    /// Time the drain thread spent writing.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.shared.busy_nanos.load(Ordering::Relaxed))
    }

    /// Time foreground callers spent waiting on the drain.
    pub fn blocked(&self) -> Duration {
        Duration::from_nanos(self.shared.blocked_nanos.load(Ordering::Relaxed))
    }

    /// Write time genuinely hidden behind computation: busy minus the
    /// backpressure the foreground absorbed.
    pub fn overlap(&self) -> Duration {
        self.busy().saturating_sub(self.blocked())
    }

    /// Bytes appended to spill files by the drain thread.
    pub fn bytes_written(&self) -> u64 {
        self.shared.bytes_written.load(Ordering::Relaxed)
    }
}

impl Drop for SpillDrain {
    fn drop(&mut self) {
        self.quiesce();
    }
}

fn drain_loop(rx: Receiver<Job>, shared: Arc<DrainShared>, tracker: IoTracker) {
    let mut files: HashMap<PathBuf, File> = HashMap::new();
    while let Ok(job) = rx.recv() {
        let start = Instant::now();
        match job {
            Job::Append { path, bytes } => {
                if !shared.failed.load(Ordering::Relaxed) {
                    let n = bytes.len() as u64;
                    let res = (|| -> std::io::Result<()> {
                        let file = match files.entry(path) {
                            Entry::Occupied(e) => e.into_mut(),
                            Entry::Vacant(e) => {
                                let f =
                                    OpenOptions::new().append(true).create(true).open(e.key())?;
                                e.insert(f)
                            }
                        };
                        file.write_all(&bytes)
                    })();
                    match res {
                        Ok(()) => {
                            tracker.record_write(n);
                            shared.bytes_written.fetch_add(n, Ordering::Relaxed);
                        }
                        Err(e) => {
                            *shared.error.lock().expect("drain error lock") =
                                Some(format!("spill append failed: {e}"));
                            shared.failed.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
            Job::Retire { path, ack } => {
                // Dropping the handle flushes nothing extra (writes are
                // unbuffered write_all) but releases the fd; every
                // queued append for this path was already serviced
                // because the queue is FIFO.
                files.remove(&path);
                let _ = ack.send(());
            }
        }
        shared
            .busy_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Per-shard spill buffers over one scratch directory.
///
/// `push` is O(1) amortized; a bucket whose buffer reaches `buf_cap`
/// records is sorted, merged, and appended to that bucket's run file.
/// `drain` replays file-then-buffer through a callback and resets the
/// bucket. Total heap is bounded by `shards × buf_cap × SIZE` — the
/// caller picks `buf_cap` from its budget share.
///
/// Appends go through a shared background [`SpillDrain`]: the buffer is
/// encoded here (cheap) and the disk write happens on the drain thread
/// while this worker keeps computing.
pub struct SpillBuckets<T: Spillable> {
    paths: Vec<PathBuf>,
    bufs: Vec<Vec<T>>,
    /// Background writer shared by every bucket set of a run.
    drain: Arc<SpillDrain>,
    /// Does `paths[s]` have appended records?
    has_run: Vec<bool>,
    buf_cap: usize,
    tracker: IoTracker,
    /// Records ever spilled to disk (not counting buffered ones).
    spilled: u64,
    /// Bytes of spill runs handed to disk.
    bytes_written: u64,
    /// Bytes of spill runs scanned back during drains.
    bytes_read: u64,
}

impl<T: Spillable> SpillBuckets<T> {
    /// `shards` empty buckets named `prefix-<s>` under `scratch`,
    /// buffering at most `buf_cap` records each; full buffers are encoded
    /// and handed to the shared background `drain`, and spill reads are
    /// recorded on `tracker`.
    pub fn with_drain(
        scratch: &ScratchDir,
        prefix: &str,
        shards: usize,
        buf_cap: usize,
        tracker: IoTracker,
        drain: Arc<SpillDrain>,
    ) -> Self {
        SpillBuckets {
            paths: (0..shards)
                .map(|s| scratch.file(&format!("{prefix}-{s}")))
                .collect(),
            bufs: (0..shards).map(|_| Vec::new()).collect(),
            drain,
            has_run: vec![false; shards],
            buf_cap: buf_cap.max(16),
            tracker,
            spilled: 0,
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.bufs.len()
    }

    /// Records ever written to disk (post-merge).
    pub fn spilled_records(&self) -> u64 {
        self.spilled
    }

    /// Bytes of spill runs handed to disk so far.
    pub fn spilled_bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes of spill runs scanned back during drains so far.
    pub fn spilled_bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Appends `rec` to bucket `s`, spilling the buffer if full.
    pub fn push(&mut self, s: usize, rec: T) -> Result<()> {
        self.bufs[s].push(rec);
        if self.bufs[s].len() >= self.buf_cap {
            self.flush(s)?;
        }
        Ok(())
    }

    /// True when bucket `s` holds any records (buffered or spilled).
    pub fn pending(&self, s: usize) -> bool {
        !self.bufs[s].is_empty() || self.has_run[s]
    }

    /// Replays and empties bucket `s`: spilled records first (one scan of
    /// the run file), then the live buffer (merged). Order across the two
    /// is not meaningful — replay must be order-independent, which every
    /// out-of-core record type is (increments commute, probes are
    /// independent).
    ///
    /// The bucket's path is retired on the drain first — the rendezvous
    /// guarantees every queued append landed before the scan, and that a
    /// later reuse of this bucket opens a fresh file rather than appending
    /// to the unlinked inode.
    pub fn drain(&mut self, s: usize, mut f: impl FnMut(T)) -> Result<()> {
        if self.has_run[s] {
            self.drain.retire(&self.paths[s])?;
            let file: RecordFile<T> =
                RecordFile::open(self.paths[s].clone(), self.tracker.clone())?;
            self.bytes_read += file.bytes();
            file.scan(&mut f)?;
            file.delete()?;
            self.has_run[s] = false;
        }
        let mut buf = std::mem::take(&mut self.bufs[s]);
        merge_sorted(&mut buf);
        for rec in buf {
            f(rec);
        }
        Ok(())
    }

    fn flush(&mut self, s: usize) -> Result<()> {
        merge_sorted(&mut self.bufs[s]);
        let mut bytes = vec![0u8; self.bufs[s].len() * T::SIZE];
        for (i, rec) in self.bufs[s].drain(..).enumerate() {
            rec.encode(&mut bytes[i * T::SIZE..(i + 1) * T::SIZE]);
            self.spilled += 1;
        }
        self.bytes_written += bytes.len() as u64;
        self.drain.append(&self.paths[s], bytes)?;
        self.has_run[s] = true;
        Ok(())
    }
}

/// Sorts by key and folds equal-keyed neighbors via
/// [`Spillable::try_merge`].
fn merge_sorted<T: Spillable>(buf: &mut Vec<T>) {
    buf.sort_by_key(|r| r.sort_key());
    let mut out = 0usize;
    for i in 0..buf.len() {
        if out > 0 {
            let (head, tail) = buf.split_at_mut(i);
            if head[out - 1].try_merge(&tail[0]) {
                continue;
            }
        }
        buf[out] = buf[i];
        out += 1;
    }
    buf.truncate(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_both_record_types() {
        let p = ProbeRec {
            v: 7,
            w: 1000,
            e_uv: 3,
            e_uw: 9,
        };
        let mut buf = [0u8; ProbeRec::SIZE];
        p.encode(&mut buf);
        assert_eq!(ProbeRec::decode(&buf), p);

        let i = IncRec { e: 42, c: 3 };
        let mut buf = [0u8; IncRec::SIZE];
        i.encode(&mut buf);
        assert_eq!(IncRec::decode(&buf), i);
    }

    #[test]
    fn increments_aggregate_in_buffer() {
        let mut buf = vec![
            IncRec { e: 5, c: 1 },
            IncRec { e: 3, c: 1 },
            IncRec { e: 5, c: 2 },
            IncRec { e: 3, c: 1 },
            IncRec { e: 9, c: 1 },
        ];
        merge_sorted(&mut buf);
        assert_eq!(
            buf,
            vec![
                IncRec { e: 3, c: 2 },
                IncRec { e: 5, c: 3 },
                IncRec { e: 9, c: 1 },
            ]
        );
    }

    #[test]
    fn background_drain_spills_and_replays_everything() {
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let drain = SpillDrain::spawn(tracker.clone());
        let mut b: SpillBuckets<IncRec> =
            SpillBuckets::with_drain(&scratch, "bg", 3, 16, tracker.clone(), Arc::clone(&drain));
        for e in 0..1000u32 {
            b.push((e % 3) as usize, IncRec { e, c: 1 }).unwrap();
        }
        assert!(b.spilled_records() > 0);
        assert!(b.spilled_bytes_written() >= b.spilled_records() * IncRec::SIZE as u64);
        let mut sums = vec![0u64; 1000];
        for s in 0..3 {
            assert!(b.pending(s));
            b.drain(s, |r| sums[r.e as usize] += r.c as u64).unwrap();
            assert!(!b.pending(s));
        }
        assert!(sums.iter().all(|&c| c == 1));
        assert!(b.spilled_bytes_read() >= b.spilled_bytes_written());
        drain.quiesce();
        assert_eq!(drain.bytes_written(), b.spilled_bytes_written());
        // The drain did real timed work; overlap never exceeds busy.
        assert!(drain.busy() > Duration::ZERO);
        assert!(drain.overlap() <= drain.busy());
    }

    #[test]
    fn background_bucket_is_reusable_after_retire() {
        let scratch = ScratchDir::new().unwrap();
        let tracker = IoTracker::new();
        let drain = SpillDrain::spawn(tracker.clone());
        let mut b: SpillBuckets<IncRec> =
            SpillBuckets::with_drain(&scratch, "cyc-bg", 1, 16, tracker, Arc::clone(&drain));
        for round in 0..3u32 {
            for e in 0..40u32 {
                b.push(0, IncRec { e, c: round + 1 }).unwrap();
            }
            let mut total = 0u64;
            b.drain(0, |r| total += r.c as u64).unwrap();
            assert_eq!(total, 40 * (round as u64 + 1));
        }
    }

    #[test]
    fn drain_quiesce_is_idempotent_and_append_after_fails() {
        let scratch = ScratchDir::new().unwrap();
        let drain = SpillDrain::spawn(IoTracker::new());
        drain.quiesce();
        drain.quiesce();
        let err = drain.append(&scratch.file("late"), vec![0u8; 8]);
        assert!(err.is_err());
    }
}
