//! The serve phase: a `truss serve --wal` child, one closed-loop reader
//! connection beside one open-loop writer connection, then SIGKILL and
//! restarts on the log.
//!
//! Oracles: every read reply's (generation, checksum) must match what
//! the acks registered for that generation; every `Edge` reply must
//! carry the reference trussness; scans must match the reference plus
//! the writer's clique when the generation has it; acks must raise the
//! generation by exactly one; after the kill the daemon must come back
//! at the last acked generation with its checksum, having replayed
//! exactly the records the compaction schedule leaves in the log.

use crate::decompose::Reference;
use crate::trace::Recorder;
use crate::Tally;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use truss_graph::{Edge, EdgeDelta};
use truss_serve::proto::{Reply, Response, StatusSummary, GENERATION_ANY};
use truss_serve::{Client, Request};
use truss_storage::wal::{RECORD_OVERHEAD, WAL_HEADER_BYTES};

/// Reader threads of the daemon: one for the reader connection, one for
/// the writer connection.
pub const DAEMON_THREADS: usize = 2;

/// How long after a daemon is up, or after the reader dropped its old
/// connection, a fresh connection arrives. A fixed gap gives every run
/// the same phase against the daemon's accept loop.
const ARRIVAL_GAP: Duration = Duration::from_millis(2);

/// Read throughput and lookup percentiles are taken per window of the
/// read loop and reported as the median window, so a few slow seconds of
/// a shared machine move them less.
const READ_WINDOW: Duration = Duration::from_secs(1);

/// Vertices of the clique the writer flips in and out.
const CLIQUE: u32 = 5;

/// Bytes of one WAL record carrying a clique delta (10 edges).
pub const DELTA_RECORD_BYTES: u64 = RECORD_OVERHEAD + 8 + 8 * 10;

/// `--compact-bytes` that makes the log cross the threshold on exactly
/// every `records`-th delta: one writer connection means one record per
/// group commit, and a compaction resets the log to its header.
pub fn compact_bytes(records: u64) -> u64 {
    WAL_HEADER_BYTES + records * DELTA_RECORD_BYTES
}

/// The writer's `seq`-th delta: odd sequence numbers insert a 5-clique
/// on fresh vertices `base..base+5`, even ones remove it again, so the
/// base graph's trussness never changes and every generation's state is
/// known.
pub fn delta(seq: u64, base: u32) -> EdgeDelta {
    let mut clique = Vec::with_capacity(10);
    for a in 0..CLIQUE {
        for b in a + 1..CLIQUE {
            clique.push(Edge::new(base + a, base + b));
        }
    }
    if seq % 2 == 1 {
        EdgeDelta {
            insert: clique,
            remove: Vec::new(),
        }
    } else {
        EdgeDelta {
            insert: Vec::new(),
            remove: clique,
        }
    }
}

/// A running `truss serve` child.
pub struct Daemon {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// The address it listens on (it binds an ephemeral port).
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon over `index` with a WAL at `log` and waits until
    /// it reports its listening address.
    pub fn spawn(truss: &Path, index: &Path, log: &Path, compact: u64) -> Result<Daemon, String> {
        let mut child = Command::new(truss)
            .args(["serve", "--port", "0", "--threads"])
            .arg(DAEMON_THREADS.to_string())
            .arg("--wal")
            .arg(log)
            .arg("--compact-bytes")
            .arg(compact.to_string())
            .arg(index)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn truss serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keep draining after the address arrives, so a chatty daemon
        // never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            drain: Some(drain),
            addr: String::new(),
        };
        let mut said = Vec::new();
        loop {
            match rx.recv_timeout(Duration::from_secs(120)) {
                Ok(line) => {
                    if let Some(addr) = listening_addr(&line) {
                        daemon.addr = addr.to_string();
                        // Connect as a client that arrives just after the
                        // daemon is up: its reader threads are then
                        // always in their accept loop, so the first
                        // reply pays the same accept wait on every run.
                        std::thread::sleep(ARRIVAL_GAP);
                        return Ok(daemon);
                    }
                    said.push(line);
                }
                Err(_) => {
                    return Err(format!(
                        "truss serve over {} exited before listening: {}",
                        index.display(),
                        said.join(" / ")
                    ))
                }
            }
        }
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) -> Result<(), String> {
        self.stop(true)
    }

    /// Asks for a graceful shutdown on `client` and waits for the exit.
    pub fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let acked = matches!(
            client.request(&Request::Shutdown),
            Ok(Reply {
                body: Ok(Response::ShuttingDown),
                ..
            })
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        while acked && Instant::now() < deadline {
            let child = self.child.as_mut().expect("daemon not yet reaped");
            if child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return self.stop(false);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop(true)?;
        Err("daemon did not shut down gracefully".into())
    }

    fn stop(&mut self, kill: bool) -> Result<(), String> {
        if let Some(mut child) = self.child.take() {
            if kill {
                let _ = child.kill();
            }
            child.wait().map_err(|e| format!("reap truss serve: {e}"))?;
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop(true);
    }
}

/// `serving <index> on <addr> with …` → `<addr>`.
fn listening_addr(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("serving ")?;
    let at = rest.find(" on ")? + 4;
    let end = rest[at..].find(' ')? + at;
    Some(&rest[at..end])
}

/// Connects and asks for `status`: the daemon's first reply.
pub fn first_reply(addr: &str) -> Result<(Client, Reply), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = client
        .request(&Request::Status)
        .map_err(|e| format!("status from {addr}: {e}"))?;
    Ok((client, reply))
}

/// The status payload of a reply, if it is one.
pub fn status_of(reply: &Reply) -> Option<StatusSummary> {
    match &reply.body {
        Ok(Response::Status(s)) => Some(*s),
        _ => None,
    }
}

/// What reads must return, derived from the reference decomposition.
pub struct Oracle<'a> {
    reference: &'a Reference,
    /// The level the `KTruss`/`Communities` scans ask for.
    pub k_scan: u32,
    base_truss: usize,
    base_communities: usize,
    base_k_max: u32,
}

impl<'a> Oracle<'a> {
    /// Scans ask for level `k`, kept within 3..=k_max (the tiny inputs
    /// have a lower k_max). The level is fixed per workload, not picked
    /// from the seed's graph: a pick by size flips between neighbouring
    /// levels across seeds, and with it the scan's answer size.
    pub fn new(reference: &'a Reference, k: u32) -> Oracle<'a> {
        let k_max = reference.k_max();
        let k_scan = k.min(k_max).max(3);
        Oracle {
            reference,
            k_scan,
            base_truss: reference.truss_size(k_scan),
            base_communities: reference.communities(k_scan),
            base_k_max: k_max,
        }
    }

    /// The scans' answer sizes on the base graph, for the run's log.
    pub fn describe(&self) -> String {
        format!(
            "{} edges, {} communities",
            self.base_truss, self.base_communities
        )
    }

    fn clique_counts(&self, generation: u64) -> bool {
        generation % 2 == 1 && self.k_scan <= CLIQUE
    }

    /// Whether `reply` is the right answer to `req`.
    pub fn check(&self, req: &Request, reply: &Reply) -> bool {
        let with_clique = self.clique_counts(reply.generation);
        match (req, &reply.body) {
            (Request::Edge { u, v }, Ok(Response::Edge { trussness })) => self
                .reference
                .edges
                .binary_search_by(|e| (e.0, e.1).cmp(&(*u, *v)))
                .is_ok_and(|i| self.reference.edges[i].2 == *trussness),
            (Request::KTruss { .. }, Ok(Response::KTruss { edges, .. })) => {
                edges.len() == self.base_truss + if with_clique { 10 } else { 0 }
            }
            (Request::Communities { .. }, Ok(Response::Communities { communities, .. })) => {
                communities.len() == self.base_communities + usize::from(with_clique)
            }
            (Request::Spectrum, Ok(Response::Spectrum(s))) => {
                let clique_k = if reply.generation % 2 == 1 { CLIQUE } else { 0 };
                s.k_max == self.base_k_max.max(clique_k)
            }
            _ => false,
        }
    }
}

/// Fixed parameters of one serve session.
pub struct Params {
    /// Seconds the session runs for.
    pub seconds: f64,
    /// Reads run beside the writes; otherwise reads run alone for the
    /// first half of the session and writes alone for the second.
    pub reads_beside_writes: bool,
    /// Writer rate (open loop).
    pub write_rate_hz: f64,
    /// Records between compactions.
    pub compact_every: u64,
    /// A fresh connection replaces the reader's every this many reads.
    pub reconnect_every: u64,
    /// Every this many reads is a scan instead of an `Edge` lookup.
    pub scan_every: u64,
}

impl Params {
    /// Seconds the writer runs for.
    fn write_seconds(&self) -> f64 {
        if self.reads_beside_writes {
            self.seconds
        } else {
            self.seconds / 2.0
        }
    }

    /// Updates the writer sends: rate × its seconds, nudged so the last
    /// compaction never coincides with the last ack (a known, non-zero
    /// number of records is left for recovery).
    pub fn deltas(&self) -> u64 {
        let d = ((self.write_rate_hz * self.write_seconds()).round() as u64).max(2);
        if d.is_multiple_of(self.compact_every) {
            d + 1
        } else {
            d
        }
    }
}

/// The files a SIGKILLed session left, and what a restart over them
/// must serve.
#[derive(Default)]
pub struct Crashed {
    index: PathBuf,
    log: PathBuf,
    compact: u64,
    /// The last acked generation.
    pub generation: u64,
    /// Its checksum.
    pub checksum: Option<u64>,
    /// Records recovery must replay: updates mod `compact_every`.
    pub replay: u64,
}

/// Everything one session measured.
#[derive(Default)]
pub struct Outcome {
    /// `Edge` round trips on an established connection, ms.
    pub lookup_ms: Vec<f64>,
    /// Where each complete [`READ_WINDOW`] ends in `lookup_ms`.
    pub lookup_windows: Vec<usize>,
    /// `KTruss` round trips, ms.
    pub ktruss_ms: Vec<f64>,
    /// `Communities` round trips, ms.
    pub communities_ms: Vec<f64>,
    /// Fresh connection to first `Edge` reply, ms.
    pub connect_ms: Vec<f64>,
    /// Reads per second of round-trip time on the closed loop (scans
    /// included, fresh connections excluded), one value per
    /// [`READ_WINDOW`] of the loop.
    pub read_qps: Vec<f64>,
    /// Update latency from when each update was due, ms.
    pub ack_ms: Vec<f64>,
    /// How late the open-loop generator sent, at worst, ms.
    pub max_lateness_ms: f64,
    /// Restart to first reply after each SIGKILL, s (filled by the
    /// caller, which spreads the restarts over the run).
    pub recovery_s: Vec<f64>,
    /// What the session left for the restarts.
    pub crashed: Crashed,
    /// The daemon's status just before the first SIGKILL.
    pub status: StatusSummary,
    /// Updates sent.
    pub deltas: u64,
    /// The generation → checksum registry the acks built.
    pub registry: HashMap<u64, u64>,
}

struct ReadLog {
    out: Outcome,
    identities: HashMap<(u64, u64), u64>,
    tally: Tally,
    rec: Option<Recorder>,
}

struct WriteLog {
    ack_ms: Vec<f64>,
    max_lateness_ms: f64,
    registry: Vec<(u64, u64)>,
    last_generation: u64,
    tally: Tally,
    rec: Option<Recorder>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one session against a fresh daemon over `index` (its WAL at
/// `log` is recreated) and SIGKILLs the daemon after the last ack.
#[allow(clippy::too_many_arguments)]
pub fn session(
    truss: &Path,
    index: &Path,
    log: &Path,
    oracle: &Oracle,
    params: &Params,
    seed: u64,
    corrupt_first_read: bool,
    tally: &mut Tally,
    rec: Option<&mut Recorder>,
) -> Result<Outcome, String> {
    let _ = std::fs::remove_file(log);
    let checksum0 =
        truss_storage::snapshot_checksum(index).map_err(|e| format!("{}: {e}", index.display()))?;
    let compact = compact_bytes(params.compact_every);
    let daemon = Daemon::spawn(truss, index, log, compact)?;
    let (reader, first) = first_reply(&daemon.addr)?;
    let status0 = status_of(&first).ok_or("first reply is not a status")?;
    tally.check(first.generation == 0 && first.checksum == checksum0, || {
        "fresh daemon does not serve generation 0 of the index file".into()
    });
    let base = status0.num_vertices as u32;
    // One untimed round trip gets the writer's connection accepted, so
    // the first update does not wait out the daemon's accept poll.
    let (writer, _) = first_reply(&daemon.addr)?;
    let deltas = params.deltas();
    let stop = AtomicBool::new(false);
    let lanes = rec.as_ref().map(|r| (r.lane(2), r.lane(3)));
    let (read_rec, write_rec) = match lanes {
        Some((a, b)) => (Some(a), Some(b)),
        None => (None, None),
    };
    let addr = daemon.addr.clone();
    let read_until = (!params.reads_beside_writes)
        .then(|| Instant::now() + Duration::from_secs_f64(params.seconds / 2.0));
    let read = || {
        read_loop(
            &addr,
            reader,
            oracle,
            params,
            seed,
            corrupt_first_read,
            &stop,
            read_until,
            read_rec,
        )
    };
    let write = || write_loop(writer, base, deltas, params.write_rate_hz, &stop, write_rec);
    let (reads, writes) = if params.reads_beside_writes {
        std::thread::scope(|s| {
            let r = s.spawn(read);
            let w = s.spawn(write);
            (r.join(), w.join())
        })
    } else {
        // The uncontended control: reads alone, then writes alone.
        (Ok(read()), Ok(write()))
    };
    let (reads, writes) = match (reads, writes) {
        (Ok(r), Ok(w)) => (r, w),
        _ => return Err("a load thread panicked".into()),
    };
    let ReadLog {
        mut out,
        identities,
        tally: read_tally,
        rec: read_rec,
    } = reads;
    tally.merge(read_tally);
    tally.merge(writes.tally);
    if let Some(r) = rec {
        r.merge(read_rec.expect("traced reader"));
        r.merge(writes.rec.expect("traced writer"));
    }

    // Every read's identity against the registry the acks built.
    let mut registry: HashMap<u64, u64> = writes.registry.into_iter().collect();
    registry.insert(0, checksum0);
    for (&(generation, checksum), &count) in &identities {
        if registry.get(&generation) != Some(&checksum) {
            tally.fail(count, || {
                format!("{count} read(s) saw generation {generation} with an unregistered checksum {checksum:016x}")
            });
        }
    }

    let last = writes.last_generation;
    let mut status_client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let status = status_client
        .request(&Request::Status)
        .ok()
        .as_ref()
        .and_then(status_of)
        .ok_or("status after the session failed")?;
    drop(status_client);
    let compactions = deltas / params.compact_every;
    tally.check(status.compactions == compactions, || {
        format!("{} compactions, expected {compactions}", status.compactions)
    });
    tally.check(status.group_commit_batches == deltas, || {
        format!(
            "{} group commits for {deltas} updates",
            status.group_commit_batches
        )
    });
    daemon.kill()?;

    out.crashed = Crashed {
        index: index.to_path_buf(),
        log: log.to_path_buf(),
        compact,
        generation: last,
        checksum: registry.get(&last).copied(),
        replay: deltas % params.compact_every,
    };
    out.ack_ms = writes.ack_ms;
    out.max_lateness_ms = writes.max_lateness_ms;
    out.status = status;
    out.deltas = deltas;
    out.registry = registry;
    Ok(out)
}

/// What one crash-restart measured.
pub struct Restart {
    /// Spawn to first reply, s.
    pub secs: f64,
    /// `KTruss` round trips of the scan burst, ms.
    pub ktruss_ms: Vec<f64>,
    /// `Communities` round trips of the scan burst, ms.
    pub communities_ms: Vec<f64>,
}

/// One crash-restart over what a SIGKILLed session left: spawn the
/// daemon on the log, time spawn to first reply, check it recovered the
/// last ack. With `burst`, the recovered daemon then answers alternating
/// `KTruss` and `Communities` scans for that long, after one untimed pair
/// that faults the index in. Then SIGKILL it again (the files stay as
/// they were).
pub fn restart(
    truss: &Path,
    c: &Crashed,
    burst: Option<(&Oracle, Duration)>,
    tally: &mut Tally,
) -> Result<Restart, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(truss, &c.index, &c.log, c.compact)?;
    let (mut client, reply) = first_reply(&daemon.addr)?;
    let secs = t0.elapsed().as_secs_f64();
    let mut out = Restart {
        secs,
        ktruss_ms: Vec::new(),
        communities_ms: Vec::new(),
    };
    let replayed = status_of(&reply).map(|s| s.recovery_records_replayed);
    tally.check(
        reply.generation == c.generation
            && Some(reply.checksum) == c.checksum
            && replayed == Some(c.replay),
        || {
            format!(
                "restart: generation {} (want {}), {replayed:?} record(s) replayed (want {})",
                reply.generation, c.generation, c.replay
            )
        },
    );
    if let Some((oracle, burst)) = burst {
        let scans = [
            Request::KTruss { k: oracle.k_scan },
            Request::Communities { k: oracle.k_scan },
        ];
        // The burst's clock starts after the untimed pair.
        let mut until = Instant::now();
        let mut n = 0usize;
        // Whole pairs only, so both scans get the same number of samples.
        while n < 2 || !n.is_multiple_of(2) || Instant::now() < until {
            let req = &scans[n % 2];
            let t0 = Instant::now();
            let result = client.request(req);
            let dt = ms(t0.elapsed());
            let reply = result.map_err(|e| format!("scan after restart: {e}"))?;
            tally.check(
                oracle.check(req, &reply)
                    && reply.generation == c.generation
                    && Some(reply.checksum) == c.checksum,
                || format!("scan after restart: wrong reply to {req:?}"),
            );
            match n {
                0 => {}
                1 => until = Instant::now() + burst,
                _ if n.is_multiple_of(2) => out.ktruss_ms.push(dt),
                _ => out.communities_ms.push(dt),
            }
            n += 1;
        }
    }
    drop(client);
    daemon.kill()?;
    Ok(out)
}

/// The closed-loop reader: mostly `Edge` lookups of reference edges,
/// every `scan_every`-th read a scan, every `reconnect_every`-th read on
/// a fresh connection opened 2 ms after the old one closed (an idle
/// daemon, as a new `truss query --remote` finds it). Runs until `stop`
/// is set or `until` passes.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    addr: &str,
    mut client: Client,
    oracle: &Oracle,
    params: &Params,
    seed: u64,
    corrupt_first_read: bool,
    stop: &AtomicBool,
    until: Option<Instant>,
    mut rec: Option<Recorder>,
) -> ReadLog {
    let mut log = ReadLog {
        out: Outcome::default(),
        identities: HashMap::new(),
        tally: Tally::default(),
        rec: None,
    };
    let edges = &oracle.reference.edges;
    let mut rng = crate::stats::SplitMix::new(seed, 1);
    let scans = [
        Request::KTruss { k: oracle.k_scan },
        Request::Communities { k: oracle.k_scan },
        Request::Spectrum,
    ];
    let mut i = 0u64;
    // (start, reads, round-trip time) of the current throughput window.
    let mut window = (Instant::now(), 0u64, Duration::ZERO);
    while !stop.load(Ordering::SeqCst) && until.is_none_or(|t| Instant::now() < t) {
        i += 1;
        let fresh = i.is_multiple_of(params.reconnect_every);
        let req = if !fresh && i.is_multiple_of(params.scan_every) {
            scans[(i / params.scan_every) as usize % scans.len()].clone()
        } else {
            let (u, v, _) = edges[rng.below(edges.len())];
            Request::Edge { u, v }
        };
        let mut t0 = Instant::now();
        if fresh {
            drop(client);
            std::thread::sleep(ARRIVAL_GAP);
            t0 = Instant::now();
            client = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    log.tally.check(false, || format!("reconnect: {e}"));
                    break;
                }
            };
        }
        let result = client.request(&req);
        let t1 = Instant::now();
        let mut reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                log.tally.check(false, || format!("read transport: {e}"));
                break;
            }
        };
        if corrupt_first_read && i == 1 {
            reply.checksum ^= 1;
        }
        let dt = t1 - t0;
        let name = match (&req, fresh) {
            (_, true) => {
                log.out.connect_ms.push(ms(dt));
                "client.connect"
            }
            (Request::Edge { .. }, _) => {
                log.out.lookup_ms.push(ms(dt));
                "client.lookup"
            }
            (Request::KTruss { .. }, _) => {
                log.out.ktruss_ms.push(ms(dt));
                "client.ktruss"
            }
            (Request::Communities { .. }, _) => {
                log.out.communities_ms.push(ms(dt));
                "client.communities"
            }
            _ => "client.spectrum",
        };
        if !fresh {
            window.1 += 1;
            window.2 += dt;
        }
        if window.0.elapsed() >= READ_WINDOW {
            log.out.lookup_windows.push(log.out.lookup_ms.len());
            log.out
                .read_qps
                .push(window.1 as f64 / window.2.as_secs_f64());
            window = (Instant::now(), 0, Duration::ZERO);
        }
        if let Some(r) = rec.as_mut() {
            // Every lookup is timed; one in 16 is kept as a span, which
            // bounds the trace while still covering the whole run.
            if name != "client.lookup" || i.is_multiple_of(16) {
                let op = r.id();
                r.span(op, None, op, name, t0, t1);
            }
        }
        *log.identities
            .entry((reply.generation, reply.checksum))
            .or_insert(0) += 1;
        let ok = oracle.check(&req, &reply);
        log.tally.check(ok, || format!("wrong reply to {req:?}"));
    }
    if log.out.read_qps.is_empty() && window.1 > 0 {
        log.out
            .read_qps
            .push(window.1 as f64 / window.2.as_secs_f64());
    }
    log.rec = rec;
    log
}

/// The open-loop writer: update `i` is due at `i / rate` seconds; its
/// latency runs from the due time, so a stall also counts against the
/// updates queued behind it. Stops the reader when done.
fn write_loop(
    mut client: Client,
    base: u32,
    deltas: u64,
    rate_hz: f64,
    stop: &AtomicBool,
    mut rec: Option<Recorder>,
) -> WriteLog {
    let mut log = WriteLog {
        ack_ms: Vec::with_capacity(deltas as usize),
        max_lateness_ms: 0.0,
        registry: Vec::with_capacity(deltas as usize),
        last_generation: 0,
        tally: Tally::default(),
        rec: None,
    };
    let start = Instant::now();
    for i in 0..deltas {
        let due = start + Duration::from_secs_f64(i as f64 / rate_hz);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        log.max_lateness_ms = log
            .max_lateness_ms
            .max(ms(sent.saturating_duration_since(due)));
        let req = Request::Update {
            base_generation: GENERATION_ANY,
            delta: delta(i + 1, base),
        };
        let result = client.request(&req);
        let done = Instant::now();
        log.ack_ms.push(ms(done - due));
        if let Some(r) = rec.as_mut() {
            let op = r.id();
            r.span(op, None, op, "client.update", sent, done);
        }
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                log.tally.check(false, || format!("update transport: {e}"));
                break;
            }
        };
        let want = log.last_generation + 1;
        let ok = reply.generation == want
            && matches!(&reply.body, Ok(Response::Update(s)) if s.inserted + s.removed == 10);
        log.tally.check(ok, || {
            format!(
                "update {i}: generation {} (want {want}), {:?}",
                reply.generation, reply.body
            )
        });
        if ok {
            log.registry.push((reply.generation, reply.checksum));
            log.last_generation = reply.generation;
        }
    }
    stop.store(true, Ordering::SeqCst);
    log.rec = rec;
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_leave_records_for_recovery() {
        let p = Params {
            seconds: 8.0,
            reads_beside_writes: true,
            write_rate_hz: 2.0,
            compact_every: 8,
            reconnect_every: 10,
            scan_every: 3,
        };
        assert_eq!(p.deltas(), 17);
        assert_eq!(compact_bytes(2), WAL_HEADER_BYTES + 2 * DELTA_RECORD_BYTES);
        assert_eq!(delta(1, 10).insert.len(), 10);
        assert_eq!(delta(2, 10).remove, delta(1, 10).insert);
    }

    #[test]
    fn parses_the_listening_line() {
        let line = "serving a.tix on 127.0.0.1:4242 with 2 reader thread(s), generation 0";
        assert_eq!(listening_addr(line), Some("127.0.0.1:4242"));
        assert_eq!(listening_addr("wal: 0 record(s) replayed"), None);
    }
}
