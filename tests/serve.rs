//! End-to-end tests of the serving layer: a concurrency hammer over an
//! in-process daemon, graceful shutdown with no lost wake, crash-injection
//! around snapshot rotation, and the golden local-vs-remote CLI output
//! comparison.

mod common;

use common::{truss_ok, Daemon, TempDir};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use truss_decomposition::core::index::{IndexFormat, TrussIndex};
use truss_decomposition::graph::generators::gnm;
use truss_decomposition::graph::{CsrGraph, Edge, EdgeDelta};
use truss_decomposition::serve::proto::{
    decode_reply, encode_request, read_frame, write_frame, GENERATION_ANY, MAX_RESPONSE_FRAME,
};
use truss_decomposition::serve::server::index_checksum;
use truss_decomposition::serve::{
    answer, Client, Request, Response, ServeConfig, Server, ServerHandle, WalConfig,
};

/// The delta stream the writer applies: batch `i` inserts a 6-clique on
/// vertices `[60i, 60i + 6)` (dense new structure, raises trussness) and
/// removes a disjoint slice of the base graph's edges.
fn delta_stream(base: &CsrGraph, batches: usize) -> Vec<EdgeDelta> {
    let base_edges: Vec<Edge> = base.iter_edges().map(|(_, e)| e).collect();
    (0..batches)
        .map(|i| {
            let lo = (60 * i) as u32;
            let mut insert = Vec::new();
            for a in lo..lo + 6 {
                for b in a + 1..lo + 6 {
                    insert.push(Edge::new(a, b));
                }
            }
            let remove = base_edges[40 * i..40 * i + 5].to_vec();
            // Inserting an edge another batch removes (or vice versa)
            // would make "expected" order-sensitive; keep them disjoint.
            let removed: BTreeSet<Edge> = remove.iter().copied().collect();
            insert.retain(|e| !removed.contains(e));
            EdgeDelta { insert, remove }
        })
        .collect()
}

/// The tentpole concurrency test: 16 client threads hammer mixed read
/// queries while a writer applies a delta stream through the daemon.
/// Every reply must be internally consistent — its generation's checksum
/// and its payload must match the index that generation is defined to be
/// — and the final generation must equal a from-scratch decomposition.
#[test]
fn sixteen_clients_hammer_while_writer_rotates() {
    const CLIENTS: usize = 16;
    const BATCHES: usize = 5;
    const QUERIES_PER_CLIENT: usize = 24;

    let base = gnm(240, 1100, 0xC0FFEE);
    let deltas = delta_stream(&base, BATCHES);

    // Generation g is *defined* as the base index with deltas[..g]
    // applied in order; precompute each state and its checksum.
    let mut expected: Vec<Arc<TrussIndex>> =
        vec![Arc::new(TrussIndex::from_decompose(base.clone()))];
    for d in &deltas {
        let mut next = (**expected.last().unwrap()).clone();
        next.apply(d);
        expected.push(Arc::new(next));
    }
    let checksums: Arc<Vec<u64>> = Arc::new(
        expected
            .iter()
            .map(|ix| index_checksum(ix).unwrap())
            .collect(),
    );
    let expected = Arc::new(expected);

    let handle = Server::start(
        (*expected[0]).clone(),
        checksums[0],
        "127.0.0.1:0",
        ServeConfig {
            threads: CLIENTS + 1,
            snapshot_path: None,
            wal: None,
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    let mut clients = Vec::new();
    for t in 0..CLIENTS {
        let addr = addr.clone();
        let expected = Arc::clone(&expected);
        let checksums = Arc::clone(&checksums);
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            for i in 0..QUERIES_PER_CLIENT {
                let req = match (t + i) % 5 {
                    0 => Request::Spectrum,
                    1 => Request::KTruss { k: 3 },
                    2 => Request::Communities { k: 3 },
                    // An edge the first batch inserts: not an edge at
                    // generation 0, trussness 7 once the clique lands.
                    3 => Request::Edge { u: 0, v: 1 },
                    _ => Request::CommunityOf { v: 61, k: 4 },
                };
                let reply = client.request(&req).unwrap();
                let gen = reply.generation as usize;
                assert!(gen < expected.len(), "generation {gen} out of range");
                // Identity coherence: the checksum must be the one this
                // generation was precomputed to have...
                assert_eq!(
                    reply.checksum, checksums[gen],
                    "client {t}, query {i}: checksum mismatch at generation {gen}"
                );
                // ...and the payload must be the one this generation's
                // index gives — even while the writer swaps generations.
                assert_eq!(
                    reply.body,
                    answer(&expected[gen], &req),
                    "client {t}, query {i}: payload mismatch at generation {gen}"
                );
            }
        }));
    }

    let writer = {
        let addr = addr.clone();
        let checksums = Arc::clone(&checksums);
        let deltas = deltas.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            for (i, d) in deltas.iter().enumerate() {
                std::thread::sleep(Duration::from_millis(15));
                let reply = client
                    .request(&Request::Update {
                        base_generation: GENERATION_ANY,
                        delta: d.clone(),
                    })
                    .unwrap();
                assert_eq!(reply.generation, i as u64 + 1);
                assert_eq!(reply.checksum, checksums[i + 1]);
                match reply.body.unwrap() {
                    Response::Update(s) => assert!(!s.rotated, "no snapshot path configured"),
                    other => panic!("{other:?}"),
                }
            }
        })
    };

    for c in clients {
        c.join().unwrap();
    }
    writer.join().unwrap();

    // Final state == a from-scratch decomposition of the final graph.
    let mut edges: BTreeSet<Edge> = base.iter_edges().map(|(_, e)| e).collect();
    for d in &deltas {
        edges.extend(d.insert.iter().copied());
        for e in &d.remove {
            edges.remove(e);
        }
    }
    let scratch = TrussIndex::from_decompose(CsrGraph::from_edges(edges.iter().copied()));
    let mut client = Client::connect(&addr).unwrap();
    let (gen, checksum) = handle.generation();
    assert_eq!(gen, BATCHES as u64);
    assert_eq!(checksum, checksums[BATCHES]);
    let spectrum = client.request(&Request::Spectrum).unwrap();
    assert_eq!(spectrum.generation, BATCHES as u64);
    match spectrum.body.unwrap() {
        Response::Spectrum(s) => assert_eq!(s, scratch.spectrum()),
        other => panic!("{other:?}"),
    }
    for k in 2..=scratch.max_k() {
        match client
            .request(&Request::KTruss { k })
            .unwrap()
            .body
            .unwrap()
        {
            Response::KTruss { edges, .. } => {
                assert_eq!(edges, scratch.k_truss_edges(k), "k = {k}");
            }
            other => panic!("{other:?}"),
        }
    }
    drop(client);
    handle.trigger_shutdown();
    join_within(handle, "after the hammer");
}

// ---------------------------------------------------------------------------
// Graceful shutdown: a lost wake hangs `join`, so every join has a deadline

/// Joins `handle` on another thread: a server still running after 10 s
/// fails the test instead of stalling the suite.
fn join_within(handle: ServerHandle, what: &str) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    if let Err(e) = rx.recv_timeout(Duration::from_secs(10)) {
        panic!("{what}: join: {e}");
    }
}

/// A two-reader WAL daemon over the saved index at `path`.
fn wal_daemon(path: &Path) -> ServerHandle {
    let config = ServeConfig {
        threads: 2,
        snapshot_path: None,
        wal: Some(WalConfig::new(path.with_extension("log"))),
    };
    Server::open_with(path, "127.0.0.1:0", config).unwrap()
}

fn status_then_shutdown(client: &mut Client) {
    let status = client.request(&Request::Status).unwrap();
    assert!(matches!(status.body, Ok(Response::Status(_))), "{status:?}");
    let bye = client.request(&Request::Shutdown).unwrap();
    assert!(matches!(bye.body, Ok(Response::ShuttingDown)), "{bye:?}");
}

/// perfbench's set-up sequence in process, 200 times: `status` and a
/// remote `shutdown` on one connection, while the other reader is
/// blocked in `accept`.
#[test]
fn wal_daemon_joins_after_status_and_remote_shutdown() {
    let dir = TempDir::new("serve-status-shutdown");
    let path = saved_index(&dir);
    for round in 0..200 {
        let handle = wal_daemon(&path);
        status_then_shutdown(&mut Client::connect(handle.addr()).unwrap());
        join_within(handle, &format!("round {round}"));
    }
}

/// The same sequence against `truss serve --wal`: exit 0, 20 times.
#[test]
fn cli_wal_daemon_exits_zero_after_status_and_shutdown() {
    let dir = TempDir::new("serve-cli-shutdown");
    let path = saved_index(&dir);
    let wal = &dir.file("serve.log");
    for round in 0..20 {
        let mut daemon = spawn_serve(&path, &["--wal", wal], None);
        status_then_shutdown(&mut daemon.client());
        assert!(daemon.wait().success(), "round {round}");
    }
}

/// Shutdown while more idle clients than readers hold connections, one
/// of them mid-frame: each reader blocked in `read` must be woken. The
/// remote round leaves one reader free to serve the `shutdown`.
#[test]
fn shutdown_wakes_readers_blocked_on_idle_clients() {
    let dir = TempDir::new("serve-idle-shutdown");
    let path = saved_index(&dir);
    for remote in [false, true] {
        let handle = wal_daemon(&path);
        let held: Vec<TcpStream> = (0..2 - remote as usize)
            .map(|_| {
                // A reply shows that a reader holds the connection.
                let mut conn = TcpStream::connect(handle.addr()).unwrap();
                write_frame(&mut conn, &encode_request(&Request::Status)).unwrap();
                read_frame(&mut conn, MAX_RESPONSE_FRAME).unwrap().unwrap();
                conn
            })
            .collect();
        // Half a frame: a 16-byte length and 2 bytes of body.
        (&held[0]).write_all(&[16, 0, 0, 0, 1, 2]).unwrap();
        // Connected ahead of the idle clients, so the free reader takes it.
        let closer = remote.then(|| Client::connect(handle.addr()).unwrap());
        let _idle: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(handle.addr()).unwrap())
            .collect();
        match closer {
            Some(mut client) => {
                let bye = client.request(&Request::Shutdown).unwrap();
                assert!(matches!(bye.body, Ok(Response::ShuttingDown)), "{bye:?}");
            }
            None => handle.trigger_shutdown(),
        }
        join_within(handle, &format!("remote {remote}"));
        for mut conn in held {
            assert_eq!(conn.read(&mut [0]).unwrap(), 0, "the daemon closes it");
        }
    }
}

/// An update pipelined ahead of a `shutdown` is acked, durably: a
/// restart over the same snapshot and log serves its generation.
#[test]
fn update_ahead_of_shutdown_is_acked() {
    let dir = TempDir::new("serve-update-shutdown");
    let path = saved_index(&dir);
    let handle = wal_daemon(&path);
    let update = Request::Update {
        base_generation: GENERATION_ANY,
        delta: one_clique_delta(),
    };
    let mut frames = Vec::new();
    for req in [update, Request::Shutdown] {
        write_frame(&mut frames, &encode_request(&req)).unwrap();
    }
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.write_all(&frames).unwrap();
    let mut reply = || decode_reply(&read_frame(&mut conn, MAX_RESPONSE_FRAME).unwrap().unwrap());
    let ack = reply().unwrap();
    assert!(
        matches!(ack.body, Ok(Response::Update(_))) && ack.generation == 1,
        "{ack:?}"
    );
    assert!(matches!(reply().unwrap().body, Ok(Response::ShuttingDown)));
    join_within(handle, "after an update");

    let restarted = wal_daemon(&path);
    assert_eq!(restarted.generation(), (1, ack.checksum));
    restarted.trigger_shutdown();
    join_within(restarted, "after a restart");
}

// ---------------------------------------------------------------------------
// Rotation fault injection (child-process harness)

/// Builds and saves a small v2 index, returning its path.
fn saved_index(dir: &TempDir) -> PathBuf {
    let path = dir.join("serve.t2");
    let index = TrussIndex::from_decompose(gnm(120, 500, 42));
    index.save_as(&path, IndexFormat::V2).unwrap();
    path
}

/// A two-reader daemon over `index`, with `args` before it.
fn spawn_serve(index: &Path, args: &[&str], failpoints: Option<&str>) -> Daemon {
    let index = index.to_str().unwrap();
    Daemon::spawn(&[args, &["--threads", "2", index]].concat(), failpoints).unwrap()
}

fn one_clique_delta() -> EdgeDelta {
    let mut insert = Vec::new();
    for a in 0u32..5 {
        for b in a + 1..5 {
            insert.push(Edge::new(a, b));
        }
    }
    EdgeDelta {
        insert,
        remove: Vec::new(),
    }
}

/// Killing the daemon after the new snapshot is written but *before* the
/// rename must leave the old snapshot untouched, valid, and servable.
#[test]
fn crash_before_rename_preserves_the_old_snapshot() {
    let dir = TempDir::new("serve-crash-before");
    let path = saved_index(&dir);
    let before = truss_decomposition::storage::snapshot_checksum(&path).unwrap();

    let mut daemon = spawn_serve(&path, &[], Some("rotate-before-rename=crash"));
    let mut client = daemon.client();
    // The update reaches the abort() before any reply: the transport
    // must fail, not hang.
    let res = client.request(&Request::Update {
        base_generation: GENERATION_ANY,
        delta: one_clique_delta(),
    });
    assert!(res.is_err(), "server aborted; got {res:?}");
    let status = daemon.wait();
    assert!(!status.success(), "the crash hook must abort the daemon");

    // Old snapshot: byte-identical, still opens, still answers.
    assert_eq!(
        truss_decomposition::storage::snapshot_checksum(&path).unwrap(),
        before
    );
    let (index, format) =
        TrussIndex::load_with(&path, truss_decomposition::storage::LoadMode::Auto).unwrap();
    assert_eq!(format, IndexFormat::V2);
    assert!(answer(&index, &Request::Spectrum).is_ok());

    // And a fresh daemon serves it at generation 0 with its checksum.
    let mut daemon = spawn_serve(&path, &[], None);
    let mut client = daemon.client();
    let reply = client.request(&Request::Status).unwrap();
    assert_eq!((reply.generation, reply.checksum), (0, before));
    let _ = client.request(&Request::Shutdown);
    assert!(daemon.wait().success());
}

/// Killing the daemon right *after* the rename must leave the *new*
/// snapshot in place — the rename is the commit point.
#[test]
fn crash_after_rename_commits_the_new_snapshot() {
    let dir = TempDir::new("serve-crash-after");
    let path = saved_index(&dir);
    let before = truss_decomposition::storage::snapshot_checksum(&path).unwrap();

    // What the rotation should commit: the same delta applied locally.
    let (mut upd, _) =
        TrussIndex::load_with(&path, truss_decomposition::storage::LoadMode::Auto).unwrap();
    upd.apply(&one_clique_delta());
    let after = index_checksum(&upd).unwrap();
    assert_ne!(before, after);

    let mut daemon = spawn_serve(&path, &[], Some("rotate-after-rename=crash"));
    let mut client = daemon.client();
    let res = client.request(&Request::Update {
        base_generation: GENERATION_ANY,
        delta: one_clique_delta(),
    });
    assert!(res.is_err(), "server aborted; got {res:?}");
    assert!(!daemon.wait().success());

    assert_eq!(
        truss_decomposition::storage::snapshot_checksum(&path).unwrap(),
        after,
        "the renamed snapshot is the committed state"
    );
    let (index, _) =
        TrussIndex::load_with(&path, truss_decomposition::storage::LoadMode::Auto).unwrap();
    assert_eq!(index.truss_of(0, 1), upd.truss_of(0, 1));
}

// ---------------------------------------------------------------------------
// Golden local-vs-remote CLI output

/// `truss query` against the local file and against `--remote` must
/// produce byte-identical stdout (they share one evaluation path and one
/// formatter); the legacy `truss index query` must agree too.
#[test]
fn local_and_remote_query_stdout_is_byte_identical() {
    let dir = TempDir::new("serve-golden");
    let path = saved_index(&dir);
    let path_s = path.to_str().unwrap();

    let mut daemon = spawn_serve(&path, &[], None);
    let remote = daemon.addr.clone();

    // One present edge to query, straight from the index.
    let (index, _) =
        TrussIndex::load_with(&path, truss_decomposition::storage::LoadMode::Auto).unwrap();
    let e = index.k_truss_edges(2)[0];
    let (u, v) = (e.u.to_string(), e.v.to_string());

    let cases: Vec<Vec<&str>> = vec![
        vec!["--query", "spectrum"],
        vec!["--query", "ktruss", "--k", "3"],
        vec!["--query", "communities", "--k", "3"],
        vec!["--query", "edge", "--u", &u, "--v", &v],
        vec!["--query", "community-of", "--v", &u, "--k", "3"],
    ];
    for case in &cases {
        let (local, _) = truss_ok(&[&["query"], &case[..], &[path_s]].concat());
        let (remote_out, _) = truss_ok(&[&["query", "--remote", &remote], &case[..]].concat());
        assert_eq!(local, remote_out, "stdout differs for {case:?}");
        // The legacy surface serves the same four query kinds.
        if case[1] != "community-of" {
            let (legacy, _) = truss_ok(&[&["index", "query"], &case[..], &[path_s]].concat());
            assert_eq!(local, legacy, "legacy differs for {case:?}");
        }
    }

    // Remote graceful shutdown: the daemon must exit 0.
    let mut client = daemon.client();
    let reply = client.request(&Request::Shutdown).unwrap();
    assert!(matches!(reply.body, Ok(Response::ShuttingDown)));
    assert!(daemon.wait().success());
}
