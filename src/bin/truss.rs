//! `truss` — command-line truss decomposition.
//!
//! ```text
//! truss decompose [--algo NAME] [--memory BYTES] [--threads N]
//!                 [--scratch DIR] [--report json] <input.snap>
//! truss index build [--algo NAME] [--memory BYTES] [--threads N]
//!                   [--scratch DIR] [--report json] --out INDEX <input>
//! truss index query [--query spectrum|ktruss|communities|edge]
//!                   [--k K] [--u A --v B] <index>
//! truss index update --delta FILE [--out INDEX] <index>
//! truss serve [--host H] [--port P] [--threads N]
//!             [--wal LOG [--compact-bytes N]] <index>
//! truss query [--remote HOST:PORT] [--query KIND] [--k K] [--u A --v B]
//!             [--delta FILE] [--base GEN] [--report json] [<index>]
//! truss log inspect <log>
//! truss log truncate <log>
//! truss convert [--to v1|v2] <input> <output>
//! truss ktruss --k K <input.snap>
//! truss topt --t T [--memory BYTES] <input.snap>
//! truss stats <input.snap>
//! truss generate --dataset NAME [--scale F] [--seed S] <output.snap>
//! ```
//!
//! Graph inputs are dispatched on their magic bytes: `TRUSSGR1` per-edge
//! binaries, `TRUSSGR2` zero-copy snapshots (memory-mapped in O(1), no
//! per-edge parsing — write them with `generate out.gr2` or `truss
//! convert`), anything else as a SNAP-style text edge list (`u v` per
//! line, `#` comments). Decomposition output is TSV
//! `u <tab> v <tab> trussness` on stdout; diagnostics go to stderr. With
//! `--report json`, the engine's [`EngineReport`](truss_decomposition::engine::EngineReport)
//! is appended to stdout as one final JSON line after the TSV.
//!
//! `truss convert` migrates graphs and indexes between the v1 record
//! formats and the v2 snapshots in either direction (auto-detecting what
//! the input is); `index build` writes v2 by default, `index query`
//! auto-detects and serves v2 via mmap, and `index update` rewrites in
//! the format it read unless `--format` says otherwise.
//!
//! `decompose` and `index build` dispatch through the
//! [`TrussEngine`](truss_decomposition::engine::TrussEngine) registry —
//! adding an engine to `truss_decomposition::engine::registry()` makes it
//! available here (including in the usage/error text, which lists the
//! registered engines dynamically) without CLI changes. `index build`
//! persists a [`TrussIndex`] in
//! the versioned `TRUSSIDX` format; `index query` serves k-truss,
//! community, spectrum and per-edge lookups from the saved file without
//! recomputing anything; `index update` applies a text edge-delta file
//! (`+ u v` / `- u v` lines) through the incremental maintenance layer.
//!
//! `truss serve` turns a saved index into a long-running TCP daemon
//! (concurrent readers, one writer applying deltas with atomic snapshot
//! rotation — see `truss_serve`), and `truss query` asks questions of a
//! local index file or, with `--remote`, of a running daemon. Both paths
//! evaluate and render through the same `truss_serve::{answer, render}`
//! functions, so their stdout is byte-identical for the same query on
//! the same snapshot; `index query` delegates there too.
//!
//! With `--wal LOG` the daemon runs in durable mode: every update is
//! appended to the `TRUSSLOG` delta log and fsync'd *before* it is
//! acknowledged, a background compaction folds log + snapshot into a
//! fresh v2 snapshot once the log passes `--compact-bytes`, and a
//! restart replays whatever the log holds past the snapshot on disk.
//! `truss log inspect` prints a log's header and records (diagnosing a
//! torn tail without touching the file); `truss log truncate` drops a
//! torn tail so the log is clean again. Both refuse mid-file corruption.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use truss_decomposition::core::index::IndexFormat;
use truss_decomposition::core::top_down::{top_down_decompose, TopDownConfig};
use truss_decomposition::core::TrussDecomposition;
use truss_decomposition::engine::{registry, EngineConfig, EngineInput, EngineRegistry};
use truss_decomposition::graph::generators::datasets::dataset_by_name;
use truss_decomposition::graph::metrics::{average_local_clustering, degree_stats};
use truss_decomposition::graph::{io as gio, CsrGraph};
use truss_decomposition::prelude::{truss_decompose, TrussIndex};
use truss_decomposition::serve::proto::GENERATION_ANY;
use truss_decomposition::serve::render::Rendered;
use truss_decomposition::serve::{self, answer, render, Client, Request, Server};
use truss_decomposition::storage::{self, FileKind, IoConfig, LoadMode};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// The registered engine names, pipe-separated — derived from the live
/// registry so newly registered engines appear automatically.
fn algo_list(engines: &EngineRegistry) -> String {
    engines
        .kinds()
        .iter()
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join("|")
}

fn unknown_algo(engines: &EngineRegistry, algo: &str) -> String {
    format!("unknown --algo {algo:?} (known: {})", algo_list(engines))
}

fn usage() -> String {
    format!(
        "\
usage:
  truss decompose [--algo {algos}]
                  [--memory BYTES] [--threads N] [--scratch DIR]
                  [--report json] <input>
  truss index build [--algo …] [--memory …] [--threads …] [--scratch …]
                    [--report json] --out INDEX <input>
  truss index query [--query spectrum|ktruss|communities|edge]
                    [--k K] [--u A --v B] <index>
  truss index update --delta FILE [--out INDEX] [--format v1|v2] <index>
  truss serve [--host H] [--port P] [--threads N]
              [--wal LOG [--compact-bytes N]] <index>
  truss query [--remote HOST:PORT]
              [--query spectrum|ktruss|communities|edge|community-of|
                       update|status|shutdown]
              [--k K] [--u A --v B] [--delta FILE] [--base GEN]
              [--report json] [<index>]
  truss log inspect <log>
  truss log truncate <log>
  truss convert [--to v1|v2] <input> <output>
  truss ktruss --k K <input>
  truss topt --t T [--memory BYTES] <input>
  truss stats <input>
  truss generate --dataset NAME [--scale F] [--seed S] <output>
inputs: auto-detected by magic — TRUSSGR1 binaries, TRUSSGR2 zero-copy
  snapshots (mmap-served), SNAP text otherwise; generate picks the format
  from the extension (*.bin = v1 binary, *.gr2 = v2 snapshot, else SNAP)
--threads N sets the parallel engine's worker count (serial engines run 1)
--report json appends the engine report as one JSON line after the TSV
--format/--to pick an on-disk format: v1 record files or v2 snapshots
  (index build defaults to v2; index update rewrites what it read)
delta files: one op per line (`+ u v` insert, `- u v` remove, `#` comments)
serve: every reply carries (generation, checksum) identity; SIGTERM/ctrl-c
  drains in-flight requests and exits 0
  --wal LOG appends every update to a durable TRUSSLOG delta log (fsync
  before ack, group commit) and replays it on restart; --compact-bytes N
  folds log+snapshot into a fresh snapshot once the log passes N bytes
query: reads a local <index> file, or with --remote asks a running daemon
  (update/status/shutdown are remote-only; --base pins an update's
  expected generation, default: any; --report json prints `--query
  status` as one JSON line instead of text)
log: inspect prints a TRUSSLOG's header, records, and torn-tail bytes;
  truncate drops a torn tail in place (both refuse mid-file corruption)",
        algos = algo_list(&registry())
    )
}

/// Minimal flag parser: `--key value` pairs plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} expects a value"))?;
                flags.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn input(&self) -> Result<&str, String> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| "missing input path".to_string())
    }
}

fn run(raw: Vec<String>) -> Result<(), String> {
    let Some((cmd, rest)) = raw.split_first() else {
        return Err("missing subcommand".into());
    };
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "decompose" => cmd_decompose(&args),
        "index" => cmd_index(rest),
        "serve" => cmd_serve(&args),
        "query" => cmd_query(&args),
        "log" => cmd_log(rest),
        "convert" => cmd_convert(&args),
        "ktruss" => cmd_ktruss(&args),
        "topt" => cmd_topt(&args),
        "stats" => cmd_stats(&args),
        "generate" => cmd_generate(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_index(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("index expects a subcommand: build, query or update".into());
    };
    let args = Args::parse(rest)?;
    match sub.as_str() {
        "build" => cmd_index_build(&args),
        "query" => cmd_index_query(&args),
        "update" => cmd_index_update(&args),
        other => Err(format!(
            "unknown index subcommand {other:?} (expected build, query or update)"
        )),
    }
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let g = storage::load_graph_auto(Path::new(path), LoadMode::Auto)
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "loaded {path}: {} vertices, {} edges{}",
        g.num_vertices(),
        g.num_edges(),
        if g.is_mapped() { " (mmap)" } else { "" }
    );
    Ok(g)
}

/// The I/O model for `g`: `EngineConfig::sized_for`'s default with an
/// optional `--memory` override, clamped the same way the engines clamp.
fn io_config(args: &Args, g: &CsrGraph) -> Result<IoConfig, String> {
    let mut config = EngineConfig::sized_for(g);
    if let Some(budget) = args.get_parsed::<usize>("memory")? {
        config.io = EngineConfig::with_budget(budget).io;
    }
    Ok(config.effective_io(g))
}

fn print_decomposition(g: &CsrGraph, d: &TrussDecomposition) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for (id, e) in g.iter_edges() {
        writeln!(out, "{}\t{}\t{}", e.u, e.v, d.edge_trussness(id)).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!("k_max = {}", d.k_max());
    for (k, size) in d.class_sizes() {
        eprintln!("  Φ_{k}: {size} edges");
    }
    Ok(())
}

/// `decompose` flags that can be validated before the input is loaded.
struct DecomposeFlags {
    json_report: bool,
    memory: Option<usize>,
    threads: Option<usize>,
    scratch: Option<PathBuf>,
}

impl DecomposeFlags {
    fn parse(args: &Args) -> Result<Self, String> {
        let json_report = match args.get("report") {
            None => false,
            Some("json") => true,
            Some(other) => {
                return Err(format!("unknown --report format {other:?} (expected json)"))
            }
        };
        let threads = args.get_parsed::<usize>("threads")?;
        if threads == Some(0) {
            return Err("--threads must be at least 1".into());
        }
        Ok(DecomposeFlags {
            json_report,
            memory: args.get_parsed("memory")?,
            threads,
            scratch: args.get("scratch").map(PathBuf::from),
        })
    }

    /// Engine configuration for `g`. The triangle and support counters
    /// come from each engine's own support count and are reported only
    /// when the report is requested; the engines clamp the budget via
    /// `EngineConfig::effective_io`.
    fn engine_config(&self, g: &CsrGraph) -> EngineConfig {
        let mut config = EngineConfig::sized_for(g);
        if let Some(budget) = self.memory {
            config.io = EngineConfig::with_budget(budget).io;
        }
        if let Some(threads) = self.threads {
            config.threads = threads;
        }
        config.scratch_dir = self.scratch.clone();
        config.collect_support_stats = self.json_report;
        config
    }
}

fn cmd_decompose(args: &Args) -> Result<(), String> {
    // Validate every flag before the (possibly long) load and run.
    let flags = DecomposeFlags::parse(args)?;
    let algo = args.get("algo").unwrap_or("inmem+");
    let engines = registry();
    let engine = engines
        .by_name(algo)
        .ok_or_else(|| unknown_algo(&engines, algo))?;
    let g = load_graph(args.input()?)?;
    let config = flags.engine_config(&g);
    let (d, report) = engine
        .run(EngineInput::Graph(&g), &config)
        .map_err(|e| e.to_string())?;
    print_decomposition(&g, &d)?;
    eprintln!(
        "{}: {:.3}s, {} thread(s), peak memory ~{} bytes, {} blocks of I/O",
        engine.name(),
        report.wall_time.as_secs_f64(),
        report.threads_used,
        report.peak_memory_estimate,
        report.io.total_blocks()
    );
    if flags.json_report {
        println!("{}", report.to_json());
    }
    Ok(())
}

/// Saves atomically through [`storage::atomic_replace`]: write a sibling
/// temp file, fsync it, rename it over the target, fsync the parent
/// directory — a failed or interrupted write never destroys an existing
/// index (`index update` defaults to saving in place), a crash right
/// after the rename cannot lose the new bytes, and live mmap readers of
/// the old file keep their pages (MAP_PRIVATE survives the replace).
fn save_index_atomic(index: &TrussIndex, out: &str, format: IndexFormat) -> Result<(), String> {
    storage::atomic_replace(Path::new(out), "index-save", |w| {
        index
            .write_as(w, format)
            .map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(|e| format!("{out}: {e}"))
}

/// Parses `--format` (or, for `convert`, `--to`) into an index/graph
/// format revision.
fn parse_format(args: &Args, key: &str) -> Result<Option<IndexFormat>, String> {
    match args.get(key) {
        None => Ok(None),
        Some(v) => IndexFormat::parse(v)
            .map(Some)
            .ok_or_else(|| format!("unknown --{key} {v:?} (expected v1 or v2)")),
    }
}

fn cmd_index_build(args: &Args) -> Result<(), String> {
    let flags = DecomposeFlags::parse(args)?;
    let format = parse_format(args, "format")?.unwrap_or(IndexFormat::V2);
    let out = args.get("out").ok_or("--out is required")?;
    let algo = args.get("algo").unwrap_or("inmem+");
    let engines = registry();
    let engine = engines
        .by_name(algo)
        .ok_or_else(|| unknown_algo(&engines, algo))?;
    let g = load_graph(args.input()?)?;
    let config = flags.engine_config(&g);
    let (index, report) = engine
        .run(EngineInput::Graph(&g), &config)
        .map(|(d, report)| (TrussIndex::from_parts(g, d), report))
        .map_err(|e| e.to_string())?;
    save_index_atomic(&index, out, format)?;
    eprintln!(
        "wrote index {out} ({format}): {} vertices, {} edges, k_max = {} ({}: {:.3}s)",
        index.num_vertices(),
        index.num_edges(),
        index.max_k(),
        engine.name(),
        report.wall_time.as_secs_f64(),
    );
    if flags.json_report {
        println!("{}", report.to_json());
    }
    Ok(())
}

fn load_index(path: &str) -> Result<(TrussIndex, IndexFormat), String> {
    let (index, format) = TrussIndex::load_with(Path::new(path), LoadMode::Auto)
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "loaded index {path} ({format}): {} vertices, {} edges, k_max = {}{}",
        index.num_vertices(),
        index.num_edges(),
        index.max_k(),
        if index.mapped_bytes() > 0 {
            " (mmap)"
        } else {
            ""
        }
    );
    Ok((index, format))
}

/// Builds the wire-level request for a `--query` kind from the shared
/// flag surface (`--k`, `--u`/`--v`, `--delta`, `--base`). Used by
/// `truss query` (local and `--remote`) and the legacy `index query`.
fn build_request(args: &Args, what: &str) -> Result<Request, String> {
    let require_k = || -> Result<u32, String> {
        args.get_parsed("k")?
            .ok_or_else(|| format!("--k is required for --query {what}"))
    };
    match what {
        "spectrum" => Ok(Request::Spectrum),
        "ktruss" => Ok(Request::KTruss { k: require_k()? }),
        "communities" => Ok(Request::Communities { k: require_k()? }),
        "edge" => Ok(Request::Edge {
            u: args.get_parsed("u")?.ok_or("--u is required")?,
            v: args.get_parsed("v")?.ok_or("--v is required")?,
        }),
        "community-of" => Ok(Request::CommunityOf {
            v: args.get_parsed("v")?.ok_or("--v is required")?,
            k: require_k()?,
        }),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "update" => {
            let delta_path = args.get("delta").ok_or("--delta is required")?;
            let file = File::open(delta_path).map_err(|e| format!("{delta_path}: {e}"))?;
            let delta = gio::read_delta(file).map_err(|e| format!("{delta_path}: {e}"))?;
            Ok(Request::Update {
                base_generation: args.get_parsed("base")?.unwrap_or(GENERATION_ANY),
                delta,
            })
        }
        other => Err(format!("unknown --query {other:?}")),
    }
}

/// Prints a rendered response the way every query path does: data to
/// stdout, diagnostics to stderr.
fn print_rendered(r: &Rendered) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    out.write_all(r.stdout.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    eprint!("{}", r.diag);
    Ok(())
}

fn cmd_index_query(args: &Args) -> Result<(), String> {
    let what = args.get("query").unwrap_or("spectrum");
    if !matches!(what, "spectrum" | "ktruss" | "communities" | "edge") {
        return Err(format!(
            "unknown --query {what:?} (expected spectrum, ktruss, communities or edge)"
        ));
    }
    let req = build_request(args, what)?;
    let (index, _) = load_index(args.input()?)?;
    let resp = answer(&index, &req).map_err(|e| e.message)?;
    print_rendered(&render(&resp))
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let input = args.input()?;
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_parsed("port")?.unwrap_or(7470);
    let threads: usize = args.get_parsed("threads")?.unwrap_or(4);
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let wal = match args.get("wal") {
        Some(path) => {
            let mut wal = serve::server::WalConfig::new(PathBuf::from(path));
            if let Some(bytes) = args.get_parsed::<u64>("compact-bytes")? {
                if bytes == 0 {
                    return Err("--compact-bytes must be at least 1".into());
                }
                wal.compact_bytes = bytes;
            }
            Some(wal)
        }
        None => {
            if args.get("compact-bytes").is_some() {
                return Err("--compact-bytes needs --wal LOG".into());
            }
            None
        }
    };
    serve::signal::install();
    let config = serve::ServeConfig {
        threads,
        snapshot_path: None,
        wal,
    };
    let handle = Server::open_with(Path::new(input), &format!("{host}:{port}"), config)?;
    let (generation, checksum) = handle.generation();
    eprintln!(
        "serving {input} on {} with {threads} reader thread(s), \
         generation {generation}, checksum {checksum:016x}",
        handle.addr()
    );
    let status = handle.status();
    if status.wal_enabled {
        eprintln!(
            "wal: {} record(s) replayed, {} torn byte(s) truncated",
            status.recovery_records_replayed, status.recovery_bytes_truncated
        );
    }
    // The daemon's threads do all the work; this loop only watches for
    // SIGTERM/ctrl-c (or a remote shutdown having drained everything).
    while !serve::signal::terminated() && !handle.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let served = handle.served();
    handle.shutdown();
    eprintln!("shutdown: {served} request(s) served");
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let what = args.get("query").unwrap_or("spectrum");
    let json_report = match args.get("report") {
        None => false,
        Some("json") => true,
        Some(other) => return Err(format!("unknown --report format {other:?} (expected json)")),
    };
    if json_report && what != "status" {
        return Err("--report json only applies to --query status".into());
    }
    let req = build_request(args, what)?;
    match args.get("remote") {
        Some(addr) => {
            let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
            let reply = client.request(&req).map_err(|e| format!("{addr}: {e}"))?;
            // Identity of the artifact that answered, on stderr so the
            // data on stdout stays byte-identical to a local query of
            // the same snapshot.
            eprintln!(
                "generation {} checksum {:016x}",
                reply.generation, reply.checksum
            );
            match reply.body {
                Ok(serve::Response::Status(s)) if json_report => {
                    println!("{}", s.to_json(reply.generation, reply.checksum));
                    Ok(())
                }
                Ok(resp) => print_rendered(&render(&resp)),
                Err(e) => Err(format!("server: {} [{:?}]", e.message, e.code)),
            }
        }
        None => {
            if matches!(
                req,
                Request::Update { .. } | Request::Status | Request::Shutdown
            ) {
                return Err(format!("--query {what} needs --remote HOST:PORT"));
            }
            let (index, _) = load_index(args.input()?)?;
            let resp = answer(&index, &req).map_err(|e| e.message)?;
            print_rendered(&render(&resp))
        }
    }
}

fn cmd_log(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("log expects a subcommand: inspect or truncate".into());
    };
    let args = Args::parse(rest)?;
    match sub.as_str() {
        "inspect" => cmd_log_inspect(&args),
        "truncate" => cmd_log_truncate(&args),
        other => Err(format!(
            "unknown log subcommand {other:?} (expected inspect or truncate)"
        )),
    }
}

/// Scans a TRUSSLOG, mapping mid-file corruption to a hard error (the
/// same typed refusal the daemon gives) while a torn tail scans fine.
fn scan_log(path: &str) -> Result<storage::WalScan, String> {
    storage::scan_wal(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_log_inspect(args: &Args) -> Result<(), String> {
    let path = args.input()?;
    let scan = scan_log(path)?;
    println!("base_generation {}", scan.header.base_generation);
    println!("base_checksum   {:016x}", scan.header.base_checksum);
    println!("records         {}", scan.records.len());
    for r in &scan.records {
        match &r.payload {
            storage::WalPayload::Delta(d) => println!(
                "  seq {:<6} offset {:<10} delta +{} -{}",
                r.seq,
                r.offset,
                d.insert.len(),
                d.remove.len()
            ),
            storage::WalPayload::Compact { checksum } => println!(
                "  seq {:<6} offset {:<10} compact checksum {:016x}",
                r.seq, r.offset, checksum
            ),
        }
    }
    println!("valid_len       {}", scan.valid_len);
    println!("file_len        {}", scan.file_len);
    println!("torn_bytes      {}", scan.torn_bytes());
    if scan.torn_bytes() > 0 {
        eprintln!(
            "torn tail: {} byte(s) past the last valid record \
             (`truss log truncate` drops them)",
            scan.torn_bytes()
        );
    }
    Ok(())
}

fn cmd_log_truncate(args: &Args) -> Result<(), String> {
    let path = args.input()?;
    let scan = scan_log(path)?;
    let torn = scan.torn_bytes();
    if torn == 0 {
        eprintln!(
            "{path}: clean ({} record(s)), nothing to truncate",
            scan.records.len()
        );
        return Ok(());
    }
    storage::truncate_torn_tail(Path::new(path), &scan).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "{path}: dropped {torn} torn byte(s), {} valid record(s) kept",
        scan.records.len()
    );
    Ok(())
}

fn cmd_index_update(args: &Args) -> Result<(), String> {
    let delta_path = args.get("delta").ok_or("--delta is required")?;
    let explicit_format = parse_format(args, "format")?;
    let input = args.input()?;
    let out = args.get("out").unwrap_or(input);
    let file = File::open(delta_path).map_err(|e| format!("{delta_path}: {e}"))?;
    let delta = gio::read_delta(file).map_err(|e| format!("{delta_path}: {e}"))?;
    let (mut index, read_format) = load_index(input)?;
    // Rewrite in the format the index was read in — a v1 consumer's file
    // stays v1 under maintenance — unless --format says to migrate.
    let format = explicit_format.unwrap_or(read_format);
    let start = Instant::now();
    let stats = index.apply(&delta);
    let elapsed = start.elapsed();
    save_index_atomic(&index, out, format)?;
    eprintln!(
        "applied {delta_path}: +{} -{} ({} skipped), \
         {} edges seeded, {} relaxations ({} lowered), {:.3}s",
        stats.inserted,
        stats.removed,
        stats.skipped,
        stats.seeded,
        stats.settled,
        stats.lowered,
        elapsed.as_secs_f64(),
    );
    eprintln!(
        "wrote index {out} ({format}): {} vertices, {} edges, k_max = {}",
        index.num_vertices(),
        index.num_edges(),
        index.max_k()
    );
    Ok(())
}

/// `truss convert`: migrate a graph or index file between the v1 record
/// formats and the v2 zero-copy snapshots, auto-detecting what the input
/// is from its magic. v1 → v2 → v1 round trips are bit-identical.
fn cmd_convert(args: &Args) -> Result<(), String> {
    let to = parse_format(args, "to")?.unwrap_or(IndexFormat::V2);
    let input = args.input()?;
    let out = args
        .positional
        .get(1)
        .ok_or("convert expects <input> <output>")?;
    let kind = storage::sniff_file(Path::new(input)).map_err(|e| format!("{input}: {e}"))?;
    let describe = match kind {
        // SNAP text (`Other`) also converts — it loads through the same
        // auto-detecting graph path.
        FileKind::GraphV1 | FileKind::GraphV2 | FileKind::Other => {
            let g = load_graph(input)?;
            // Atomic replace, like the index path: an in-place convert
            // must not truncate a file the loaded graph may still be
            // memory-mapping, a failed write must not leave a partial
            // output behind, and the rename is made durable by the
            // parent-directory fsync inside the helper.
            storage::atomic_replace(Path::new(out.as_str()), "convert", |w| match to {
                IndexFormat::V1 => {
                    gio::write_binary(&g, w).map_err(|e| std::io::Error::other(e.to_string()))
                }
                IndexFormat::V2 => storage::write_graph_snapshot(&g, w)
                    .map(|_| ())
                    .map_err(|e| std::io::Error::other(e.to_string())),
            })
            .map_err(|e| format!("{out}: {e}"))?;
            format!(
                "graph, {} vertices, {} edges",
                g.num_vertices(),
                g.num_edges()
            )
        }
        FileKind::IndexV1 | FileKind::IndexV2 => {
            let (index, _) = load_index(input)?;
            save_index_atomic(&index, out, to)?;
            format!(
                "index, {} vertices, {} edges, k_max = {}",
                index.num_vertices(),
                index.num_edges(),
                index.max_k()
            )
        }
    };
    eprintln!("wrote {out} ({to}): {describe}");
    Ok(())
}

fn cmd_ktruss(args: &Args) -> Result<(), String> {
    let k: u32 = args.get_parsed("k")?.ok_or("--k is required")?;
    if k < 2 {
        return Err("--k must be at least 2".into());
    }
    let g = load_graph(args.input()?)?;
    let ids = truss_decomposition::core::truss::peel_to_k_truss(&g, k);
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for id in &ids {
        let e = g.edge(*id);
        writeln!(out, "{}\t{}", e.u, e.v).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!("{}-truss: {} edges", k, ids.len());
    Ok(())
}

fn cmd_topt(args: &Args) -> Result<(), String> {
    let t: u32 = args.get_parsed("t")?.ok_or("--t is required")?;
    let g = load_graph(args.input()?)?;
    let io = io_config(args, &g)?;
    let (res, report) =
        top_down_decompose(&g, &TopDownConfig::new(io).top_t(t)).map_err(|e| e.to_string())?;
    eprintln!(
        "k_max = {}, k_1st = {}, {} rounds",
        res.k_max, report.k_first, report.rounds
    );
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for (kk, edges) in res.classes.iter().rev() {
        for e in edges {
            writeln!(out, "{}\t{}\t{}", e.u, e.v, kk).map_err(|e| e.to_string())?;
        }
        eprintln!("  Φ_{kk}: {} edges", edges.len());
    }
    out.flush().map_err(|e| e.to_string())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let g = load_graph(args.input()?)?;
    let ds = degree_stats(&g);
    let d = truss_decompose(&g);
    let cores = truss_decomposition::core::core_decomposition::core_decompose(&g);
    println!("vertices      {}", g.num_vertices());
    println!("edges         {}", g.num_edges());
    println!("max degree    {}", ds.max);
    println!("median degree {}", ds.median);
    println!("clustering    {:.4}", average_local_clustering(&g));
    println!("k_max (truss) {}", d.k_max());
    println!("c_max (core)  {}", cores.c_max());
    println!(
        "triangles     {}",
        truss_decomposition::triangle::triangle_count(&g)
    );
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let name = args.get("dataset").ok_or("--dataset is required")?;
    let dataset = dataset_by_name(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let scale: f64 = args.get_parsed("scale")?.unwrap_or(1.0);
    let seed: u64 = args.get_parsed("seed")?.unwrap_or(0x5eed);
    let out_path = args.input()?;
    let g = dataset.build_scaled(dataset.spec().default_scale * scale, seed);
    let file = File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    if out_path.ends_with(".bin") {
        gio::write_binary(&g, file).map_err(|e| e.to_string())?;
    } else if out_path.ends_with(".gr2") {
        storage::write_graph_snapshot(&g, file).map_err(|e| e.to_string())?;
    } else {
        gio::write_snap(&g, file).map_err(|e| e.to_string())?;
    }
    eprintln!(
        "wrote {out_path}: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}
