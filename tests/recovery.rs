//! Crash-recovery kill-matrix for the WAL-backed daemon.
//!
//! Each run arms one failpoint (`TRUSS_FAILPOINTS`) in a child daemon,
//! streams updates at it until the injected crash, restarts over the
//! same snapshot + log, and checks the recovered index against a
//! from-scratch replay: every *acknowledged* update survives, an
//! unacknowledged one is wholly absent or wholly present (its record
//! made the page cache before the abort) but never partial — the
//! recovered checksum must sit exactly on the precomputed generation
//! ladder. `--compact-bytes 1` forces a compaction after every commit,
//! so the compaction sites fire on a live log, not a synthetic one.

mod common;

use common::{Daemon, TempDir};
use std::path::Path;
use truss_decomposition::core::index::TrussIndex;
use truss_decomposition::graph::generators::gnm;
use truss_decomposition::graph::{CsrGraph, Edge, EdgeDelta};
use truss_decomposition::serve::proto::{StatusSummary, GENERATION_ANY};
use truss_decomposition::serve::server::index_checksum;
use truss_decomposition::serve::{Client, Request, Response};

const BATCHES: usize = 6;

/// Batch `i` inserts a 6-clique on fresh vertices and removes a disjoint
/// slice of base edges — the same order-insensitive stream the serve
/// hammer uses, so generation `g` is *defined* as base + deltas[..g].
fn delta_stream(base: &CsrGraph, batches: usize) -> Vec<EdgeDelta> {
    let base_edges: Vec<Edge> = base.iter_edges().map(|(_, e)| e).collect();
    (0..batches)
        .map(|i| {
            let lo = (300 + 10 * i) as u32;
            let mut insert = Vec::new();
            for a in lo..lo + 6 {
                for b in a + 1..lo + 6 {
                    insert.push(Edge::new(a, b));
                }
            }
            EdgeDelta {
                insert,
                remove: base_edges[30 * i..30 * i + 4].to_vec(),
            }
        })
        .collect()
}

/// The ladder of expected states: `checksums[g]` is the v2 container
/// checksum of base + deltas[..g], computed without any daemon involved.
fn expected_checksums(base: &TrussIndex, deltas: &[EdgeDelta]) -> Vec<u64> {
    let mut state = base.clone();
    let mut checksums = vec![index_checksum(&state).unwrap()];
    for d in deltas {
        state.apply(d);
        checksums.push(index_checksum(&state).unwrap());
    }
    checksums
}

fn spawn_serve(index: &str, wal: &str, failpoints: Option<&str>) -> Daemon {
    let args = [
        "--threads",
        "2",
        "--wal",
        wal,
        "--compact-bytes",
        "1",
        index,
    ];
    Daemon::spawn(&args, failpoints).unwrap()
}

fn remote_status(client: &mut Client) -> (u64, u64, StatusSummary) {
    let reply = client.request(&Request::Status).unwrap();
    match reply.body.unwrap() {
        Response::Status(s) => (reply.generation, reply.checksum, s),
        other => panic!("expected Status, got {other:?}"),
    }
}

/// Streams `deltas` one batch at a time until the daemon dies, returning
/// the highest acknowledged generation and how many batches were sent.
fn stream_until_crash(client: &mut Client, deltas: &[EdgeDelta]) -> (u64, usize) {
    let mut acked = 0u64;
    let mut sent = 0usize;
    for d in deltas {
        sent += 1;
        match client.request(&Request::Update {
            base_generation: GENERATION_ANY,
            delta: d.clone(),
        }) {
            Ok(reply) if reply.body.is_ok() => acked = reply.generation,
            // A server-side error (poisoned writer) or a transport error
            // (the abort): either way nothing later can be acked.
            _ => break,
        }
    }
    (acked, sent)
}

/// One kill-matrix run: arm `spec`, stream until the crash, restart
/// clean, and assert the recovered daemon sits on the expected ladder.
/// Returns the recovery stats of the restarted daemon for site-specific
/// assertions.
fn run_site(tag: &str, spec: &str, expect_abort: bool) -> StatusSummary {
    let dir = TempDir::new(&format!("recovery-{tag}"));
    let snapshot = &dir.file("idx.t2");
    let wal = &dir.file("idx.log");

    let base_graph = gnm(200, 900, 0xDEAD + tag.len() as u64);
    let base = TrussIndex::from_decompose(base_graph.clone());
    let deltas = delta_stream(&base_graph, BATCHES);
    let checksums = expected_checksums(&base, &deltas);
    base.save(Path::new(snapshot)).unwrap();

    let mut daemon = spawn_serve(snapshot, wal, Some(spec));
    let mut client = daemon.client();
    let (acked, sent) = stream_until_crash(&mut client, &deltas);
    drop(client);
    if expect_abort {
        let status = daemon.wait();
        assert!(!status.success(), "{spec}: daemon must abort, got {status}");
    } else {
        // Poisoned, not dead: reads still work, then kill it hard.
        let mut client = daemon.client();
        let (_, _, s) = remote_status(&mut client);
        assert!(s.wal_poisoned, "{spec}: writer must be poisoned");
        assert!(
            client.request(&Request::Spectrum).unwrap().body.is_ok(),
            "{spec}: reads must survive a poisoned writer"
        );
        drop(daemon); // SIGKILL, then reap
    }

    // Restart with no failpoints over whatever the crash left behind.
    let mut daemon = spawn_serve(snapshot, wal, None);
    let mut client = daemon.client();
    let (gen, checksum, stats) = remote_status(&mut client);
    assert!(
        acked <= gen && gen <= sent as u64,
        "{spec}: acked {acked} <= recovered {gen} <= sent {sent} violated"
    );
    assert_eq!(
        checksum, checksums[gen as usize],
        "{spec}: recovered generation {gen} is not the replay-defined state"
    );
    assert!(
        client.request(&Request::Spectrum).unwrap().body.is_ok(),
        "{spec}: recovered daemon must serve reads"
    );

    // The recovered daemon must also still be writable: apply the next
    // delta in the stream and land exactly on the next ladder rung.
    if (gen as usize) < deltas.len() {
        let reply = client
            .request(&Request::Update {
                base_generation: gen,
                delta: deltas[gen as usize].clone(),
            })
            .unwrap();
        assert!(reply.body.is_ok(), "{spec}: post-recovery update failed");
        assert_eq!(
            (reply.generation, reply.checksum),
            (gen + 1, checksums[gen as usize + 1]),
            "{spec}: post-recovery update diverged from the ladder"
        );
    }
    let _ = client.request(&Request::Shutdown);
    let _ = daemon.wait();
    stats
}

/// Crash sites in the append/ack path. `@2` arms mid-stream so at least
/// one batch is acknowledged (and, with `--compact-bytes 1`, at least
/// one full compaction has rewritten the snapshot) before the kill.
#[test]
fn kill_matrix_append_path() {
    for spec in [
        "wal-append=crash",
        "wal-append=crash@2",
        "wal-fsync=crash",
        "wal-fsync=crash@3",
    ] {
        run_site("append", spec, true);
    }
}

/// A torn record: the append writes a 7-byte prefix of the frame and
/// aborts. Recovery must truncate the tail (counted in the stats) and
/// serve the acknowledged prefix.
#[test]
fn kill_matrix_torn_append() {
    let stats = run_site("torn", "wal-append=short:7@2", true);
    assert!(
        stats.recovery_bytes_truncated > 0,
        "a short append must leave a torn tail for recovery to drop: {stats:?}"
    );
}

/// Crash sites inside compaction. Compaction runs after the ack, so the
/// recovered generation must cover every acknowledged batch no matter
/// where in temp-write → fsync → intent-append → rename → dir-fsync →
/// log-reset the process dies.
#[test]
fn kill_matrix_compaction_path() {
    for spec in [
        "compact-temp-write=crash",
        "compact-fsync=crash@2",
        "compact-before-rename=crash",
        "compact-before-rename=crash@3",
        "compact-after-rename=crash",
        "compact-after-rename=crash@2",
        "compact-before-dirsync=crash",
        "wal-reset-temp-write=crash",
        "wal-reset-before-rename=crash@2",
        "wal-reset-after-rename=crash",
    ] {
        run_site("compact", spec, true);
    }
}

/// An fsync `EIO` must fail the in-flight update, poison the writer
/// (fail-stop: no later update can be acked against a log of unknown
/// durability), and keep serving reads until restart.
#[test]
fn fsync_eio_poisons_the_writer_but_reads_survive() {
    run_site("eio", "wal-fsync=eio@2", false);
}
