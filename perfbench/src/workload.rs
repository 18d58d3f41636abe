//! The workloads. Every workload runs the same user journey — generate
//! the input, build and serve its index, decompose it through the CLI,
//! read and write through the WAL-backed daemon, crash it and recover —
//! on its own input and engine arms. The share of the measured time
//! spent decomposing versus serving, and whether reads run beside the
//! writes, set each one's emphasis.

use std::path::Path;

/// Thread count for one decompose arm.
#[derive(Debug, Clone, Copy)]
pub enum Threads {
    /// No `--threads` flag: the CLI default.
    Default,
    /// `--threads 1`.
    One,
    /// `--threads <available parallelism>`.
    Nproc,
}

/// One `truss decompose` configuration.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    /// `serial` or `par`: the suffix convention of the metric names.
    pub label: &'static str,
    /// `--algo`, or `None` for the CLI default (`inmem+`).
    pub algo: Option<&'static str>,
    /// `--memory` budget in bytes.
    pub memory: Option<u64>,
    /// `--threads`.
    pub threads: Threads,
}

impl Arm {
    /// The engine name the CLI resolves for this arm.
    pub fn engine(&self) -> &'static str {
        self.algo.unwrap_or("inmem+")
    }

    /// The worker count this arm asks for.
    pub fn thread_count(&self, nproc: usize) -> usize {
        match self.threads {
            Threads::Default | Threads::One => 1,
            Threads::Nproc => nproc,
        }
    }

    /// `decompose` arguments before the input path. Budgeted arms spill
    /// under `scratch`, which keeps every write inside the checkout.
    pub fn cli_args(&self, nproc: usize, scratch: &Path) -> Vec<String> {
        let mut args = vec!["decompose".to_string()];
        if let Some(algo) = self.algo {
            args.extend(["--algo".to_string(), algo.to_string()]);
        }
        if let Some(m) = self.memory {
            args.extend(["--memory".to_string(), m.to_string()]);
            args.extend(["--scratch".to_string(), scratch.display().to_string()]);
        }
        if !matches!(self.threads, Threads::Default) {
            args.extend([
                "--threads".to_string(),
                self.thread_count(nproc).to_string(),
            ]);
        }
        args.extend(["--report".to_string(), "json".to_string()]);
        args
    }
}

/// The out-of-core arms' memory budget: 16 MiB, well under the ~40 MiB
/// snapshot of the p2p×40 input.
pub const OUTOFCORE_BUDGET: u64 = 16 << 20;

const INMEM_ARMS: [Arm; 2] = [
    Arm {
        label: "serial",
        algo: None,
        memory: None,
        threads: Threads::Default,
    },
    Arm {
        label: "par",
        algo: Some("parallel"),
        memory: None,
        threads: Threads::Nproc,
    },
];

const OUTOFCORE_ARMS: [Arm; 2] = [
    Arm {
        label: "serial",
        algo: Some("outofcore"),
        memory: Some(OUTOFCORE_BUDGET),
        threads: Threads::One,
    },
    Arm {
        label: "par",
        algo: Some("outofcore"),
        memory: Some(OUTOFCORE_BUDGET),
        threads: Threads::Nproc,
    },
];

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// `truss generate --dataset`.
    pub dataset: &'static str,
    /// `truss generate --scale` at full size.
    pub scale: f64,
    /// `--scale` for the smoke test's tiny inputs.
    pub tiny_scale: f64,
    /// The two decompose arms.
    pub arms: [Arm; 2],
    /// Share of the measured seconds spent in the decompose phase; the
    /// rest serves.
    pub decompose_share: f64,
    /// Reads run beside the writes (the contended case); otherwise reads
    /// run alone and then writes run alone, the uncontended control.
    pub reads_beside_writes: bool,
    /// Open-loop update rate of the writer connection. Beside reads it is
    /// set so acks keep the daemon's writer busy about a third of the
    /// time: the median lookup then meets an idle writer on every run,
    /// and the writer's contention for the two cores shows in the tail.
    pub write_rate_hz: f64,
    /// Records between compactions: `--compact-bytes` is set so the log
    /// crosses it on exactly this many (fixed-size) records, so several
    /// compactions fire in every run and some records stay for recovery.
    /// Fewer compactions than acks beyond the p90 keep `ack_p90_ms` on
    /// the regular acks instead of flipping on how many of them a
    /// compaction stalled.
    pub compact_every: u64,
    /// Level of the `KTruss`/`Communities` scans: one whose k-truss size
    /// moves little across seeds (lj: the planted 362-clique, 65K edges;
    /// p2p: the 3-truss, ~1.2K edges; amazon: the 8-truss, 17–20K edges).
    pub scan_k: u32,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "decompose-lj",
        dataset: "lj",
        scale: 1.0,
        tiny_scale: 0.05,
        arms: INMEM_ARMS,
        decompose_share: 0.67,
        reads_beside_writes: false,
        write_rate_hz: 8.0,
        compact_every: 12,
        scan_k: 362,
    },
    Workload {
        name: "outofcore-p2p",
        dataset: "p2p",
        scale: 40.0,
        tiny_scale: 0.5,
        arms: OUTOFCORE_ARMS,
        decompose_share: 0.7,
        reads_beside_writes: false,
        write_rate_hz: 3.0,
        compact_every: 5,
        scan_k: 3,
    },
    Workload {
        name: "serve-wal",
        dataset: "amazon",
        scale: 1.0,
        tiny_scale: 0.05,
        arms: INMEM_ARMS,
        decompose_share: 0.2,
        reads_beside_writes: true,
        write_rate_hz: 16.0,
        compact_every: 60,
        scan_k: 8,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
