//! `perfbench` — the repository benchmark: drives the release `truss`
//! binary through one workload and prints every metric by name and unit.
//!
//! ```text
//! perfbench --truss PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--work DIR] [--trace-dir DIR] [--tiny 0|1]
//!           [--inject none|tsv|checksum] [--git-commit C] [--source-digest D]
//! ```
//!
//! Every workload runs the same journey (see `workload.rs` and the
//! README): set-up through the program, an `inmem+` reference, the serve
//! phase ending in a SIGKILL, then the decompose phase with the
//! crash-restarts and further set-ups between its rounds. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` the run measures the journey twice (untraced, then with
//! spans) in half the seconds each, runs the in-process layer probes,
//! writes the spans as a Chrome trace under `--trace-dir`, and carries
//! the per-layer metrics. `--inject`
//! corrupts one decompose output or one reply checksum, to show that the
//! oracles count it as a failure. The process exits non-zero on any
//! failed check.

mod decompose;
mod layers;
mod proc;
mod serve;
mod stats;
mod trace;
mod workload;

use stats::{median, quantile, trimmed_mean, windowed_quantile};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workload::{Arm, Threads, Workload, OUTOFCORE_BUDGET};

/// Operations attempted and failed, with the first failures described.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what);
        }
    }

    /// Marks `n` already-counted operations as failed.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        if self.notes.len() < 16 {
            self.notes.push(what());
        }
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 16 {
                self.notes.push(note);
            }
        }
    }
}

struct Args {
    truss: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    trace_dir: PathBuf,
    tiny: bool,
    inject: String,
    git_commit: String,
    source_digest: String,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut kv: HashMap<&str, &str> = HashMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("--{key} expects a value"))?;
            kv.insert(key, value);
        }
        let get = |k: &str| kv.get(k).copied();
        let need = |k: &str| get(k).ok_or_else(|| format!("--{k} is required"));
        let flag = |k: &str| match get(k) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--{k} expects 0 or 1, not {v:?}")),
        };
        let seconds: f64 = need("seconds")?
            .parse()
            .map_err(|_| "--seconds expects a number")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        let inject = get("inject").unwrap_or("none").to_string();
        if !matches!(inject.as_str(), "none" | "tsv" | "checksum") {
            return Err(format!(
                "--inject expects none, tsv or checksum, not {inject:?}"
            ));
        }
        Ok(Args {
            truss: PathBuf::from(need("truss")?),
            workload: need("workload")?.to_string(),
            seed: need("seed")?
                .parse()
                .map_err(|_| "--seed expects an integer")?,
            seconds,
            trace: flag("trace")?,
            work: PathBuf::from(get("work").unwrap_or(".bench_work")),
            trace_dir: PathBuf::from(get("trace-dir").unwrap_or(".bench_trace")),
            tiny: flag("tiny")?,
            inject,
            git_commit: get("git-commit").unwrap_or("unknown").to_string(),
            source_digest: get("source-digest").unwrap_or("unknown").to_string(),
        })
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// How long each recovered daemon answers scans where reads run alone.
const SCAN_BURST: std::time::Duration = std::time::Duration::from_millis(150);

/// Share of scan samples dropped from each end before `scan_mean_ms` averages.
const SCAN_TRIM: f64 = 0.1;

/// Seconds of due time per window of acks: the ack percentiles are taken
/// per window and the median window is reported, as for the lookups.
const ACK_WINDOW_S: f64 = 4.0;

/// The inputs set-up produced through the program.
struct Setup {
    graph: PathBuf,
    index: PathBuf,
    vertices: u64,
    edges: u64,
}

/// Everything the journey's phases share.
struct Ctx<'a> {
    args: &'a Args,
    wl: &'a Workload,
    nproc: usize,
    setup: &'a Setup,
    reference: &'a decompose::Reference,
    oracle: &'a serve::Oracle<'a>,
}

/// One pass of the decompose and serve phases.
struct Journey {
    decompose: decompose::Phase,
    serve: serve::Outcome,
    params: serve::Params,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    match outcome {
        Ok((tally, metrics, stamp)) => {
            println!("{stamp}");
            println!("{}", result_json(&tally, &metrics));
            for note in &tally.notes {
                eprintln!("perfbench: FAILED: {note}");
            }
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>, String), String> {
    let wl = workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (known: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    if !args.truss.is_file() {
        return Err(format!("no truss binary at {}", args.truss.display()));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = std::fs::remove_dir_all(&args.work);
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;

    let mut tally = Tally::default();
    let (first, setup) = set_up(args, wl, &mut tally)?;
    let mut setup_samples = vec![first];
    let reference = decompose::reference(&args.truss, &setup.graph, &args.work)?;
    let oracle = serve::Oracle::new(&reference, wl.scan_k);
    let ctx = Ctx {
        args,
        wl,
        nproc,
        setup: &setup,
        reference: &reference,
        oracle: &oracle,
    };
    let (metrics, params) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = journey(&ctx, half, &mut tally, None, Some(&mut setup_samples))?;
        let mut rec = Recorder::new(Instant::now(), 1);
        let traced = journey(&ctx, half, &mut tally, Some(&mut rec), None)?;
        let setup_s = median(&setup_samples);
        let metrics = per_layer(&ctx, &plain, &traced, setup_s, &mut rec, &mut tally)?;
        (metrics, traced.params)
    } else {
        let j = journey(
            &ctx,
            args.seconds,
            &mut tally,
            None,
            Some(&mut setup_samples),
        )?;
        let metrics = end_to_end(&j, median(&setup_samples))?;
        let show = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!("perfbench: samples (s): setup {}", show(&setup_samples));
        eprintln!("  decompose {}", show(&j.decompose.walls[0]));
        eprintln!("  decompose_par {}", show(&j.decompose.walls[1]));
        eprintln!("  recovery {}", show(&j.serve.recovery_s));
        let deciles = |v: &[f64]| {
            let d: Vec<f64> = (1..10).map(|i| quantile(v, i as f64 / 10.0)).collect();
            format!("{} ({} samples)", show(&d), v.len())
        };
        eprintln!(
            "  scans at k {} ({}), deciles in ms:",
            oracle.k_scan,
            oracle.describe()
        );
        eprintln!("    ktruss {}", deciles(&j.serve.ktruss_ms));
        eprintln!("    communities {}", deciles(&j.serve.communities_ms));
        eprintln!(
            "  open-loop writer: {} updates, sent at most {:.3} ms late",
            j.serve.deltas, j.serve.max_lateness_ms
        );
        eprintln!("perfbench: {} seed {} — end-to-end", wl.name, args.seed);
        for (name, value, unit) in &metrics {
            eprintln!("  {name:<18} {value:>14.6} {unit}");
        }
        let rate = tally.failed as f64 / tally.attempted.max(1) as f64;
        eprintln!(
            "  {:<18} {rate:>14.6} ratio ({} of {} operations failed)",
            "error_rate", tally.failed, tally.attempted
        );
        (metrics, j.params)
    };
    let stamp = stamp(&ctx, &params);
    Ok((tally, metrics, stamp))
}

fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// Produces the inputs through the program, timed (the median over a
/// run's set-ups is `setup_s`): generate the GR2 snapshot, build the
/// index, spawn the daemon over it and wait for its first reply. Every
/// set-up of a run writes the same files with the same bytes.
fn set_up(args: &Args, wl: &Workload, tally: &mut Tally) -> Result<(f64, Setup), String> {
    let graph = args.work.join("input.gr2");
    let index = args.work.join("input.tix");
    let log = args.work.join("setup.log");
    let scale = if args.tiny { wl.tiny_scale } else { wl.scale };
    for p in [&graph, &index, &log] {
        let _ = std::fs::remove_file(p);
    }
    let t0 = Instant::now();
    proc::run_truss(
        &args.truss,
        &[
            "generate".into(),
            "--dataset".into(),
            wl.dataset.into(),
            "--scale".into(),
            scale.to_string(),
            "--seed".into(),
            args.seed.to_string(),
            path_arg(&graph),
        ],
    )?;
    proc::run_truss(
        &args.truss,
        &[
            "index".into(),
            "build".into(),
            "--out".into(),
            path_arg(&index),
            path_arg(&graph),
        ],
    )?;
    let daemon = serve::Daemon::spawn(
        &args.truss,
        &index,
        &log,
        serve::compact_bytes(wl.compact_every),
    )?;
    let (mut client, reply) = serve::first_reply(&daemon.addr)?;
    let secs = t0.elapsed().as_secs_f64();
    let status = serve::status_of(&reply);
    tally.check(status.is_some() && reply.generation == 0, || {
        "set-up daemon did not answer status at generation 0".into()
    });
    daemon.shutdown(&mut client)?;
    let _ = std::fs::remove_file(&log);
    let (vertices, edges) = status.map_or((0, 0), |s| (s.num_vertices, s.num_edges));
    Ok((
        secs,
        Setup {
            graph,
            index,
            vertices,
            edges,
        },
    ))
}

/// The serve phase on a fresh copy of the index (compaction rewrites the
/// served file), then the decompose phase with the crash-restarts — and,
/// when `setup_samples` is given, the further set-ups — spread between
/// its rounds, so a few seconds of a slow machine cannot shift all of
/// one metric's samples at once.
fn journey(
    ctx: &Ctx,
    seconds: f64,
    tally: &mut Tally,
    mut rec: Option<&mut Recorder>,
    mut setup_samples: Option<&mut Vec<f64>>,
) -> Result<Journey, String> {
    let args = ctx.args;
    let wl = ctx.wl;
    let served = args.work.join("serve.tix");
    std::fs::copy(&ctx.setup.index, &served).map_err(|e| format!("copy index: {e}"))?;
    let params = serve::Params {
        seconds: seconds * (1.0 - wl.decompose_share),
        reads_beside_writes: wl.reads_beside_writes,
        write_rate_hz: wl.write_rate_hz,
        compact_every: wl.compact_every,
        reconnect_every: if args.tiny { 512 } else { 4096 },
        scan_every: 64,
    };
    let mut serve = serve::session(
        &args.truss,
        &served,
        &args.work.join("serve.log"),
        ctx.oracle,
        &params,
        args.seed,
        args.inject == "checksum",
        tally,
        rec.as_deref_mut(),
    )?;

    let (min_restarts, max_restarts, setups) = if args.tiny { (2, 2, 1) } else { (5, 9, 3) };
    // Where reads run alone, the session's scans come in one block of a
    // few seconds; a scan burst on every recovered daemon spreads more of
    // them over the run.
    let burst = (!wl.reads_beside_writes).then_some((ctx.oracle, SCAN_BURST));
    let mut restarts = Vec::new();
    let crashed = &serve.crashed;
    let mut between = |round: usize, tally: &mut Tally| -> Result<(), String> {
        if restarts.len() < max_restarts {
            restarts.push(serve::restart(&args.truss, crashed, burst, tally)?);
        }
        if let Some(samples) = setup_samples.as_deref_mut() {
            if round % 2 == 1 && samples.len() < setups {
                samples.push(set_up(args, wl, tally)?.0);
            }
        }
        Ok(())
    };
    let decompose = decompose::phase(
        &args.truss,
        &wl.arms,
        ctx.nproc,
        &ctx.setup.graph,
        &args.work,
        ctx.reference,
        seconds * wl.decompose_share,
        if args.tiny { 1 } else { 3 },
        args.inject == "tsv",
        tally,
        rec,
        &mut between,
    )?;
    while restarts.len() < min_restarts {
        restarts.push(serve::restart(&args.truss, &serve.crashed, burst, tally)?);
    }
    for r in restarts {
        serve.recovery_s.push(r.secs);
        serve.ktruss_ms.extend(r.ktruss_ms);
        serve.communities_ms.extend(r.communities_ms);
    }
    if let Some(samples) = setup_samples {
        while samples.len() < setups {
            samples.push(set_up(args, wl, tally)?.0);
        }
    }
    Ok(Journey {
        decompose,
        serve,
        params,
    })
}

fn need(name: &str, v: f64) -> Result<f64, String> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("{name}: no samples (run longer)"))
    }
}

/// The end-to-end metrics of one journey, in `BENCHMARK.json` order.
fn end_to_end(j: &Journey, setup_s: f64) -> Result<Vec<Metric>, String> {
    let s = &j.serve;
    // Acks are sent on a fixed schedule, so a window of due time is a
    // fixed number of them.
    let per_window = ((j.params.write_rate_hz * ACK_WINDOW_S).round() as usize).max(1);
    let ack_windows: Vec<usize> = (1..=s.ack_ms.len() / per_window)
        .map(|i| i * per_window)
        .collect();
    let rows: [(&str, f64, &'static str); 12] = [
        ("setup_s", setup_s, "s"),
        ("decompose_s", median(&j.decompose.walls[0]), "s"),
        ("decompose_par_s", median(&j.decompose.walls[1]), "s"),
        (
            "peak_rss_mib",
            j.decompose.peak_rss_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
        (
            "lookup_p50_ms",
            windowed_quantile(&s.lookup_ms, &s.lookup_windows, 0.5),
            "ms",
        ),
        (
            "lookup_p90_ms",
            windowed_quantile(&s.lookup_ms, &s.lookup_windows, 0.9),
            "ms",
        ),
        // Each scan's latency itself falls into a fast and a slow mode on
        // a shared machine, in proportions that change from run to run; a
        // median would jump between the modes, a trimmed mean moves with
        // the proportion.
        (
            "scan_mean_ms",
            (trimmed_mean(&s.ktruss_ms, SCAN_TRIM) + trimmed_mean(&s.communities_ms, SCAN_TRIM))
                / 2.0,
            "ms",
        ),
        ("read_qps", median(&s.read_qps), "1/s"),
        ("connect_ms", median(&s.connect_ms), "ms"),
        (
            "ack_p50_ms",
            windowed_quantile(&s.ack_ms, &ack_windows, 0.5),
            "ms",
        ),
        (
            "ack_p90_ms",
            windowed_quantile(&s.ack_ms, &ack_windows, 0.9),
            "ms",
        ),
        ("recovery_s", median(&s.recovery_s), "s"),
    ];
    rows.iter()
        .map(|&(name, v, unit)| Ok((name.to_string(), need(name, v)?, unit)))
        .collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.0 == name)
        .map_or(f64::NAN, |m| m.1)
}

/// Median self time of the spans named `name`, in nanoseconds.
fn self_ns(st: &HashMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    st.get(name).map_or(f64::NAN, |v| median(v))
}

/// Median duration of the spans named `name`, in nanoseconds.
fn dur_ns(rec: &Recorder, name: &str) -> f64 {
    let v: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    median(&v)
}

/// The traced run: in-process layer probes, the spans' self times, the
/// breakdown of each end-to-end median into layers plus residual, and
/// the tracing overhead (traced journey minus untraced journey).
fn per_layer(
    ctx: &Ctx,
    plain: &Journey,
    traced: &Journey,
    setup_s: f64,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let args = ctx.args;
    let wl = ctx.wl;
    let work = &args.work;
    let e2e_plain = end_to_end(plain, setup_s)?;
    let e2e = end_to_end(traced, setup_s)?;

    // Each arm three times, alternating; the layer values are medians.
    let mut reports = Vec::new();
    for rep in 0..if args.tiny { 1 } else { 3 } {
        for (i, arm) in wl.arms.iter().enumerate() {
            let names = &layers::ENGINE_SPANS[i];
            let report = layers::engine(
                rec,
                names,
                arm,
                ctx.nproc,
                &ctx.setup.graph,
                work,
                ctx.reference,
                tally,
            )?;
            if rep == 0 {
                reports.push(report);
            }
        }
    }
    // The out-of-core layer, at one thread (its counts are exact only
    // there): the serial arm where the workload runs it, a probe where not.
    let ooc = if wl.arms[0].engine() == "outofcore" {
        reports[0].clone()
    } else {
        let arm = Arm {
            label: "outofcore",
            algo: Some("outofcore"),
            memory: Some(OUTOFCORE_BUDGET),
            threads: Threads::One,
        };
        let names = &layers::ENGINE_SPANS[2];
        layers::engine(
            rec,
            names,
            &arm,
            ctx.nproc,
            &ctx.setup.graph,
            work,
            ctx.reference,
            tally,
        )?
    };
    let s = &traced.serve;
    let (lookups, scans, acks) = if args.tiny {
        (200, 3, 4)
    } else {
        (4000, 20, 24)
    };
    layers::serve(
        rec,
        &ctx.setup.index,
        ctx.oracle,
        ctx.reference,
        args.seed,
        lookups,
        scans,
        tally,
    )?;
    layers::wal(
        rec,
        &ctx.setup.index,
        &work.join("probe.log"),
        ctx.setup.vertices as u32,
        s.deltas.min(acks),
        &s.registry,
        tally,
    )?;
    let last = s.deltas;
    layers::recovery(
        rec,
        &work.join("serve.tix"),
        &work.join("serve.log"),
        s.deltas % traced.params.compact_every,
        s.registry.get(&last).copied(),
        tally,
    )?;
    let build = layers::index_build(rec, &ctx.setup.graph, &work.join("probe.tix"))?;

    let st = trace::self_times(rec.spans());
    let sec = |name: &str| self_ns(&st, name) / 1e9;
    let msec = |name: &str| self_ns(&st, name) / 1e6;
    let usec = |name: &str| self_ns(&st, name) / 1e3;
    let opt_s = |d: Option<std::time::Duration>| d.map_or(0.0, |d| d.as_secs_f64());
    let opt_n = |v: Option<u64>| v.unwrap_or(0) as f64;

    let mut m: Vec<Metric> = Vec::new();
    let mut breakdown = String::new();
    for (i, suffix) in ["", "_par"].iter().enumerate() {
        let names = &layers::ENGINE_SPANS[i];
        let load = sec(names.load);
        let engine = dur_ns(rec, names.engine) / 1e9;
        let support = sec(names.support);
        let peel = sec(names.peel);
        let wall = value(&e2e, &format!("decompose{suffix}_s"));
        let residual = wall - load - engine;
        m.push((format!("storage.load_s{suffix}"), load, "s"));
        m.push((format!("triangle.support_s{suffix}"), support, "s"));
        m.push((format!("core.peel_s{suffix}"), peel, "s"));
        m.push((format!("core.engine_s{suffix}"), engine, "s"));
        m.push((format!("cli.residual_s{suffix}"), residual, "s"));
        let _ = writeln!(
            breakdown,
            "  decompose{suffix}_s {wall:.4} = load {load:.4} + support {support:.4} + peel {peel:.4} \
             + engine self {:.4} + cli residual {residual:.4}",
            sec(names.engine)
        );
    }
    m.push((
        "triangle.triangles".into(),
        opt_n(reports[0].triangles),
        "count",
    ));
    m.push((
        "core.peel_levels_par".into(),
        opt_n(reports[1].peel_levels),
        "count",
    ));
    m.push((
        "core.peel_sub_iterations_par".into(),
        opt_n(reports[1].peel_sub_iterations),
        "count",
    ));
    m.push((
        "core.peel_compactions_par".into(),
        opt_n(reports[1].peel_compactions),
        "count",
    ));
    m.push(("outofcore.support_s".into(), opt_s(ooc.triangle_time), "s"));
    m.push(("outofcore.peel_s".into(), opt_s(ooc.peel_time), "s"));
    m.push((
        "outofcore.spill_overlap_ms".into(),
        opt_s(ooc.spill_drain_overlap) * 1e3,
        "ms",
    ));
    m.push((
        "outofcore.spill_bytes".into(),
        opt_n(ooc.spill_bytes_written),
        "bytes",
    ));
    m.push((
        "storage.io_read_bytes".into(),
        ooc.io.bytes_read as f64,
        "bytes",
    ));
    m.push((
        "storage.io_written_bytes".into(),
        ooc.io.bytes_written as f64,
        "bytes",
    ));

    let lookup_us = value(&e2e, "lookup_p50_ms") * 1e3;
    let (decode, answer, encode) = (
        usec("proto.decode"),
        usec("answer.lookup"),
        usec("proto.encode_lookup"),
    );
    m.push(("proto.decode_us".into(), decode, "us"));
    m.push(("proto.encode_lookup_us".into(), encode, "us"));
    m.push((
        "proto.encode_scan_us".into(),
        usec("proto.encode_scan"),
        "us",
    ));
    m.push(("answer.lookup_us".into(), answer, "us"));
    m.push(("answer.ktruss_us".into(), usec("answer.ktruss"), "us"));
    m.push((
        "answer.communities_us".into(),
        usec("answer.communities"),
        "us",
    ));
    m.push(("answer.spectrum_us".into(), usec("answer.spectrum"), "us"));
    let lookup_residual = lookup_us - decode - answer - encode;
    m.push(("server.lookup_residual_us".into(), lookup_residual, "us"));
    let _ = writeln!(
        breakdown,
        "  lookup_p50_us {lookup_us:.2} = decode {decode:.2} + answer {answer:.2} + encode {encode:.2} \
         + residual (frames, socket, scheduling) {lookup_residual:.2}"
    );

    let ack = value(&e2e, "ack_p50_ms");
    let ack_layers = [
        ("index.clone_ms", msec("index.clone"), "ms"),
        ("index.apply_ms", msec("index.apply"), "ms"),
        ("storage.checksum_ms", msec("storage.checksum"), "ms"),
        ("wal.append_us", usec("wal.append"), "us"),
        ("wal.fsync_ms", msec("wal.fsync"), "ms"),
    ];
    let ack_sum: f64 = ack_layers
        .iter()
        .map(|&(_, v, unit)| if unit == "us" { v / 1e3 } else { v })
        .sum();
    for (name, v, unit) in ack_layers {
        m.push((name.into(), v, unit));
    }
    m.push(("server.ack_residual_ms".into(), ack - ack_sum, "ms"));
    let _ = writeln!(
        breakdown,
        "  ack_p50_ms {ack:.3} = clone {:.3} + apply {:.3} + checksum {:.3} + append {:.4} + fsync {:.3} \
         + residual (queueing, frames) {:.3}",
        ack_layers[0].1,
        ack_layers[1].1,
        ack_layers[2].1,
        ack_layers[3].1 / 1e3,
        ack_layers[4].1,
        ack - ack_sum
    );

    let recovery_ms = value(&e2e, "recovery_s") * 1e3;
    let rec_layers = [
        ("storage.snapshot_load_ms", msec("storage.snapshot_load")),
        ("wal.scan_ms", msec("wal.scan")),
        ("index.replay_ms", msec("index.replay")),
        (
            "storage.recovery_checksum_ms",
            msec("storage.recovery_checksum"),
        ),
    ];
    let rec_sum: f64 = rec_layers.iter().map(|r| r.1).sum();
    for (name, v) in rec_layers {
        m.push((name.into(), v, "ms"));
    }
    m.push((
        "server.recovery_residual_ms".into(),
        recovery_ms - rec_sum,
        "ms",
    ));
    let _ = writeln!(
        breakdown,
        "  recovery_ms {recovery_ms:.2} = load {:.2} + scan {:.2} + replay {:.2} + checksum {:.2} \
         + residual (process start, bind, accept wait) {:.2}",
        rec_layers[0].1,
        rec_layers[1].1,
        rec_layers[2].1,
        rec_layers[3].1,
        recovery_ms - rec_sum
    );

    let build_s = build.as_secs_f64();
    m.push(("index.build_s".into(), build_s, "s"));
    m.push(("setup.residual_s".into(), setup_s - build_s, "s"));
    let _ = writeln!(
        breakdown,
        "  setup_s {setup_s:.4} = index build {build_s:.4} + residual (generate, processes, first reply) {:.4}",
        setup_s - build_s
    );

    let st = &s.status;
    m.push(("wal.fsyncs".into(), st.wal_fsyncs as f64, "count"));
    m.push((
        "wal.bytes_appended".into(),
        st.wal_bytes_appended as f64,
        "bytes",
    ));
    m.push(("wal.compactions".into(), st.compactions as f64, "count"));
    m.push((
        "wal.group_commit_batches".into(),
        st.group_commit_batches as f64,
        "count",
    ));

    let overhead = |name: &str| value(&e2e, name) - value(&e2e_plain, name);
    m.push((
        "trace.overhead_decompose_s".into(),
        overhead("decompose_s"),
        "s",
    ));
    m.push((
        "trace.overhead_lookup_p50_ms".into(),
        overhead("lookup_p50_ms"),
        "ms",
    ));
    m.push((
        "trace.overhead_ack_p50_ms".into(),
        overhead("ack_p50_ms"),
        "ms",
    ));

    eprintln!("perfbench: {} seed {} — traced run", wl.name, args.seed);
    eprintln!("end-to-end medians, untraced → traced (overhead):");
    for ((name, a, unit), (_, b, _)) in e2e_plain.iter().zip(&e2e) {
        eprintln!("  {name:<18} {a:>12.6} → {b:>12.6} {unit} ({:+.6})", b - a);
    }
    eprintln!("layer sums plus residual, against the traced medians:\n{breakdown}");
    for (name, v, unit) in &m {
        eprintln!("  {name:<30} {v:>16.6} {unit}");
    }

    std::fs::create_dir_all(&args.trace_dir)
        .map_err(|e| format!("{}: {e}", args.trace_dir.display()))?;
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.json", wl.name, args.seed));
    std::fs::write(&path, trace::chrome_json(rec.spans(), wl.name))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        rec.spans().len(),
        path.display()
    );

    for (name, v, _) in &m {
        if !v.is_finite() {
            return Err(format!("per-layer metric {name} has no samples"));
        }
    }
    Ok(m)
}

/// One line identifying the set-up, so results from incompatible
/// set-ups are never compared.
fn stamp(ctx: &Ctx, params: &serve::Params) -> String {
    let args = ctx.args;
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let arms: Vec<String> = ctx
        .wl
        .arms
        .iter()
        .map(|a| {
            format!(
                "\"{}\"",
                a.cli_args(ctx.nproc, Path::new("<scratch>")).join(" ")
            )
        })
        .collect();
    format!(
        "{{\"stamp\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"tiny\":{},\
         \"nproc\":{},\"git_commit\":\"{}\",\"source_digest\":\"{}\",\
         \"input\":{{\"dataset\":\"{}\",\"scale\":{},\"vertices\":{},\"edges\":{},\
         \"graph_bytes\":{},\"index_bytes\":{}}},\"arms\":[{}],\"memory_budget\":{},\
         \"daemon_threads\":{},\"reads_beside_writes\":{},\"write_rate_hz\":{},\"updates\":{},\"compact_every_records\":{},\
         \"compact_bytes\":{},\"flush\":\"fsync before every ack\",\"serve_seconds\":{},\
         \"scan_k\":{},\"scan_burst_ms\":{}}}}}",
        ctx.wl.name,
        args.seed,
        args.seconds,
        args.trace,
        args.tiny,
        ctx.nproc,
        args.git_commit,
        args.source_digest,
        ctx.wl.dataset,
        if args.tiny { ctx.wl.tiny_scale } else { ctx.wl.scale },
        ctx.setup.vertices,
        ctx.setup.edges,
        size(&ctx.setup.graph),
        size(&ctx.setup.index),
        arms.join(","),
        OUTOFCORE_BUDGET,
        serve::DAEMON_THREADS,
        params.reads_beside_writes,
        params.write_rate_hz,
        params.deltas(),
        params.compact_every,
        serve::compact_bytes(params.compact_every),
        params.seconds,
        ctx.oracle.k_scan,
        if ctx.wl.reads_beside_writes {
            0
        } else {
            SCAN_BURST.as_millis()
        },
    )
}

/// The last stdout line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed.min(tally.attempted.max(1)),
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
