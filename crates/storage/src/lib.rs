//! External-memory substrate for the I/O-efficient truss-decomposition
//! algorithms.
//!
//! The paper adopts the I/O model of Aggarwal & Vitter (§2): main memory
//! holds `M` units, disk transfers happen in blocks of `B` units, and
//! `scan(N) = Θ(N/B)`. This crate realizes that model on real files:
//!
//! * [`IoConfig`] / [`IoTracker`] — explicit memory budget and block size,
//!   with every byte of disk traffic recorded so experiments report I/O cost
//!   alongside wall-clock time,
//! * [`ScratchDir`] — self-cleaning scratch space,
//! * [`EdgeListFile`] — the disk-resident edge list with per-edge payload
//!   (support, truss-number bound, class) that `G_new` is stored as,
//! * [`partition`] — the three graph partitioners of Chu & Cheng \[13\] used
//!   to cut a graph into neighborhood subgraphs that fit in memory,
//! * [`ext_sort`] — external merge sort used by the survivor merge of
//!   LowerBounding and by the MapReduce shuffle,
//! * [`index_file`] — the versioned on-disk format (`TRUSSIDX`) a computed
//!   truss index is persisted as, so a decomposition is built once and
//!   served many times,
//! * [`mmap`] — memory-mapped (or aligned buffered-read) file regions,
//! * [`snapshot`] — the v2 zero-copy snapshot container (`TRUSSGR2`
//!   graphs, `TRUSSIDX` v2 indexes): the on-disk layout *is* the
//!   in-memory layout, so open = validate header + map sections, with no
//!   per-edge parsing or CSR rebuild (`docs/FORMATS.md` has the byte
//!   layouts).

pub mod atomic;
pub mod ext_sort;
pub mod fault;
pub mod index_file;
pub mod io_model;
pub mod mmap;
pub mod partition;
pub mod record;
pub mod scratch;
pub mod snapshot;
pub mod wal;
pub mod window;

pub use atomic::{atomic_replace, atomic_replace_with};
pub use index_file::{read_index_file, write_index_file, INDEX_MAGIC, INDEX_VERSION};
pub use io_model::{IoConfig, IoStats, IoTracker};
pub use mmap::{evict_page_cache, AnonWords, LoadMode, Region};
pub use partition::{Partition, PartitionStrategy};
pub use record::{EdgeListFile, EdgeListWriter, EdgeRec};
pub use scratch::ScratchDir;
pub use snapshot::{
    load_graph_auto, open_graph_snapshot, open_index_snapshot, snapshot_checksum, sniff_file,
    write_graph_snapshot, write_index_snapshot, FileKind, IndexSnapshot, IndexSnapshotParts,
    GRAPH_MAGIC_V2, SNAPSHOT_VERSION,
};
pub use wal::{
    plan_recovery, scan_wal, truncate_torn_tail, Recovery, WalError, WalHeader, WalPayload,
    WalRecord, WalScan, WalStats, WalWriter,
};
pub use window::{Window, PAGE_BYTES};

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A file did not contain a whole number of records.
    Corrupt(String),
    /// The configured memory budget cannot hold even one unit of work (e.g.
    /// a single vertex's neighborhood exceeds it).
    BudgetTooSmall(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt(m) => write!(f, "corrupt file: {m}"),
            StorageError::BudgetTooSmall(m) => write!(f, "memory budget too small: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;
