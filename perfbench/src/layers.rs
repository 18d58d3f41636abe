//! In-process layer probes for the traced run. Each probe calls the
//! public functions of one layer the way the CLI or the daemon does, on
//! the workload's own input, and records a span around every call; the
//! per-layer numbers are the spans' self times. (Tracing inside the
//! program itself is a separate change; these spans sit at the layer
//! boundaries, in the benchmark's own code.)

use crate::decompose::Reference;
use crate::serve::{delta, Oracle};
use crate::trace::Recorder;
use crate::workload::Arm;
use crate::Tally;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use truss_core::engine::{EngineConfig, EngineInput, EngineRegistry, EngineReport};
use truss_core::index::{IndexFormat, TrussIndex};
use truss_serve::proto::{decode_request, encode_reply, encode_request, Reply};
use truss_serve::{answer, index_checksum, Request};
use truss_storage::wal::{plan_recovery, scan_wal, WalWriter};
use truss_storage::{load_graph_auto, snapshot_checksum, LoadMode};

/// Span names of one engine probe: load, engine, and the engine
/// report's support and peel phases (placed inside the engine span in
/// that order, since the report gives their durations, not their
/// positions).
pub struct EngineSpans {
    /// The root of one probe.
    pub root: &'static str,
    /// `truss_storage::load_graph_auto`.
    pub load: &'static str,
    /// `TrussEngine::run`.
    pub engine: &'static str,
    /// The report's `triangle_ms`.
    pub support: &'static str,
    /// The report's `peel_ms`.
    pub peel: &'static str,
}

/// The serial arm, the `nproc` arm, and the out-of-core probe.
pub const ENGINE_SPANS: [EngineSpans; 3] = [
    EngineSpans {
        root: "probe.decompose",
        load: "storage.load",
        engine: "core.engine",
        support: "triangle.support",
        peel: "core.peel",
    },
    EngineSpans {
        root: "probe.decompose_par",
        load: "storage.load_par",
        engine: "core.engine_par",
        support: "triangle.support_par",
        peel: "core.peel_par",
    },
    EngineSpans {
        root: "probe.outofcore",
        load: "outofcore.load",
        engine: "outofcore.engine",
        support: "outofcore.support",
        peel: "outofcore.peel",
    },
];

fn err(what: &str, path: &Path, e: impl std::fmt::Display) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Loads `graph` and runs `arm`'s engine on it with the configuration
/// the CLI builds for `decompose --report json`; the trussness must
/// equal the reference.
#[allow(clippy::too_many_arguments)]
pub fn engine(
    rec: &mut Recorder,
    names: &EngineSpans,
    arm: &Arm,
    nproc: usize,
    graph: &Path,
    scratch: &Path,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<EngineReport, String> {
    let op = rec.id();
    let t0 = Instant::now();
    let g = load_graph_auto(graph, LoadMode::Auto).map_err(|e| err("load", graph, e))?;
    let t1 = Instant::now();
    let mut config = EngineConfig::sized_for(&g);
    if let Some(budget) = arm.memory {
        config.io = EngineConfig::with_budget(budget as usize).io;
    }
    config.threads = arm.thread_count(nproc);
    config.scratch_dir = Some(scratch.to_path_buf());
    config.collect_support_stats = true;
    let engines = EngineRegistry::core();
    let engine = engines
        .by_name(arm.engine())
        .ok_or_else(|| format!("no engine {}", arm.engine()))?;
    let (d, report) = engine
        .run(EngineInput::Graph(&g), &config)
        .map_err(|e| format!("{}: {e}", arm.engine()))?;
    let t2 = Instant::now();
    let same = d.trussness().len() == reference.edges.len()
        && d.trussness()
            .iter()
            .zip(&reference.edges)
            .all(|(&t, e)| t == e.2);
    tally.check(same, || {
        format!("in-process {} differs from the reference", arm.engine())
    });

    let engine_id = rec.id();
    let support = report.triangle_time.unwrap_or_default();
    let peel = report.peel_time.unwrap_or_default();
    rec.leaf(Some(engine_id), op, names.support, t1, t1 + support);
    rec.leaf(
        Some(engine_id),
        op,
        names.peel,
        t1 + support,
        t1 + support + peel,
    );
    rec.span(engine_id, Some(op), op, names.engine, t1, t2);
    rec.leaf(Some(op), op, names.load, t0, t1);
    rec.span(op, None, op, names.root, t0, t2);
    Ok(report)
}

/// Decodes, answers and encodes the reader's request mix against the
/// loaded index, as a reader thread does after a frame arrives.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    rec: &mut Recorder,
    index_path: &Path,
    oracle: &Oracle,
    reference: &Reference,
    seed: u64,
    lookups: usize,
    scans: usize,
    tally: &mut Tally,
) -> Result<(), String> {
    let (index, _) = TrussIndex::load_with(index_path, LoadMode::Auto)
        .map_err(|e| err("load index", index_path, e))?;
    let checksum = snapshot_checksum(index_path).map_err(|e| err("checksum", index_path, e))?;
    let mut rng = crate::stats::SplitMix::new(seed, 3);
    let mut requests = Vec::with_capacity(lookups + 3 * scans);
    for _ in 0..lookups {
        let (u, v, _) = reference.edges[rng.below(reference.edges.len())];
        requests.push(Request::Edge { u, v });
    }
    for _ in 0..scans {
        requests.push(Request::KTruss { k: oracle.k_scan });
        requests.push(Request::Communities { k: oracle.k_scan });
        requests.push(Request::Spectrum);
    }
    for req in &requests {
        let frame = encode_request(req);
        let (answer_name, encode_name) = match req {
            Request::Edge { .. } => ("answer.lookup", "proto.encode_lookup"),
            Request::KTruss { .. } => ("answer.ktruss", "proto.encode_scan"),
            Request::Communities { .. } => ("answer.communities", "proto.encode_scan"),
            _ => ("answer.spectrum", "proto.encode_spectrum"),
        };
        let op = rec.id();
        let t0 = Instant::now();
        let decoded = decode_request(black_box(&frame));
        let t1 = Instant::now();
        let body = match &decoded {
            Ok(r) => answer(&index, r),
            Err(e) => Err(e.clone()),
        };
        let t2 = Instant::now();
        let reply = Reply {
            generation: 0,
            checksum,
            body,
        };
        let bytes = encode_reply(&reply);
        let t3 = Instant::now();
        black_box(bytes);
        let decode_name = if matches!(req, Request::Edge { .. }) {
            "proto.decode"
        } else {
            "proto.decode_scan"
        };
        rec.leaf(Some(op), op, decode_name, t0, t1);
        rec.leaf(Some(op), op, answer_name, t1, t2);
        rec.leaf(Some(op), op, encode_name, t2, t3);
        rec.span(op, None, op, "probe.request", t0, t3);
        tally.check(oracle.check(req, &reply), || {
            format!("in-process answer to {req:?} is wrong")
        });
    }
    Ok(())
}

/// Replays the writer's first `deltas` updates through the write path
/// the daemon runs per ack — append, clone, apply, checksum, fsync —
/// against a log of its own; each generation's checksum must equal the
/// one the daemon acked.
#[allow(clippy::too_many_arguments)]
pub fn wal(
    rec: &mut Recorder,
    index_path: &Path,
    log_path: &Path,
    base: u32,
    deltas: u64,
    registry: &HashMap<u64, u64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let (mut current, _) = TrussIndex::load_with(index_path, LoadMode::Auto)
        .map_err(|e| err("load index", index_path, e))?;
    let checksum0 = snapshot_checksum(index_path).map_err(|e| err("checksum", index_path, e))?;
    let mut writer =
        WalWriter::create(log_path, 0, checksum0).map_err(|e| err("create", log_path, e))?;
    for seq in 1..=deltas {
        let d = delta(seq, base);
        let op = rec.id();
        let t0 = Instant::now();
        writer
            .append_delta(&d)
            .map_err(|e| err("append", log_path, e))?;
        let t1 = Instant::now();
        let mut next = current.clone();
        let t2 = Instant::now();
        next.apply(&d);
        let t3 = Instant::now();
        let checksum = index_checksum(&next).map_err(|e| format!("checksum: {e}"))?;
        let t4 = Instant::now();
        writer.sync().map_err(|e| err("fsync", log_path, e))?;
        let t5 = Instant::now();
        rec.leaf(Some(op), op, "wal.append", t0, t1);
        rec.leaf(Some(op), op, "index.clone", t1, t2);
        rec.leaf(Some(op), op, "index.apply", t2, t3);
        rec.leaf(Some(op), op, "storage.checksum", t3, t4);
        rec.leaf(Some(op), op, "wal.fsync", t4, t5);
        rec.span(op, None, op, "probe.ack", t0, t5);
        tally.check(registry.get(&seq) == Some(&checksum), || {
            format!("generation {seq}: the daemon's checksum differs from an in-process replay")
        });
        current = next;
    }
    drop(writer);
    std::fs::remove_file(log_path).map_err(|e| err("remove", log_path, e))
}

/// Recovers the snapshot + log the crash-restarts left, the way daemon
/// start-up does: load, scan and plan, replay, checksum.
pub fn recovery(
    rec: &mut Recorder,
    index_path: &Path,
    log_path: &Path,
    expected_replay: u64,
    expected_checksum: Option<u64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let op = rec.id();
    let t0 = Instant::now();
    let (mut index, _) = TrussIndex::load_with(index_path, LoadMode::Auto)
        .map_err(|e| err("load index", index_path, e))?;
    let t1 = Instant::now();
    let scan = scan_wal(log_path).map_err(|e| err("scan", log_path, e))?;
    let disk = snapshot_checksum(index_path).map_err(|e| err("checksum", index_path, e))?;
    let plan = plan_recovery(&scan, disk).map_err(|e| err("plan", log_path, e))?;
    let t2 = Instant::now();
    for (_, d) in &plan.replay {
        index.apply(d);
    }
    let t3 = Instant::now();
    let checksum = index_checksum(&index).map_err(|e| format!("checksum: {e}"))?;
    let t4 = Instant::now();
    rec.leaf(Some(op), op, "storage.snapshot_load", t0, t1);
    rec.leaf(Some(op), op, "wal.scan", t1, t2);
    rec.leaf(Some(op), op, "index.replay", t2, t3);
    rec.leaf(Some(op), op, "storage.recovery_checksum", t3, t4);
    rec.span(op, None, op, "probe.recovery", t0, t4);
    tally.check(
        plan.replay.len() as u64 == expected_replay && Some(checksum) == expected_checksum,
        || {
            format!(
                "in-process recovery replayed {} record(s)",
                plan.replay.len()
            )
        },
    );
    Ok(())
}

/// `truss index build`: load, decompose with the CLI default engine,
/// save a v2 index atomically.
pub fn index_build(rec: &mut Recorder, graph: &Path, out: &Path) -> Result<Duration, String> {
    let op = rec.id();
    let t0 = Instant::now();
    let g = load_graph_auto(graph, LoadMode::Auto).map_err(|e| err("load", graph, e))?;
    let t1 = Instant::now();
    let mut config = EngineConfig::sized_for(&g);
    config.collect_support_stats = false;
    let engines = EngineRegistry::core();
    let engine = engines.by_name("inmem+").ok_or("no inmem+ engine")?;
    let (d, _) = engine
        .run(EngineInput::Graph(&g), &config)
        .map_err(|e| format!("inmem+: {e}"))?;
    let index = TrussIndex::from_parts(g, d);
    let t2 = Instant::now();
    truss_storage::atomic_replace(out, "index-save", |w| {
        index
            .write_as(w, IndexFormat::V2)
            .map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(|e| err("save", out, e))?;
    let t3 = Instant::now();
    rec.leaf(Some(op), op, "index.load", t0, t1);
    rec.leaf(Some(op), op, "index.decompose", t1, t2);
    rec.leaf(Some(op), op, "index.save", t2, t3);
    rec.span(op, None, op, "index.build", t0, t3);
    Ok(t3 - t0)
}
