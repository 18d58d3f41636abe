//! End-to-end tests of the `truss` CLI binary.

use std::path::{Path, PathBuf};
use std::process::Command;
use truss_decomposition::engine::AlgorithmKind;

fn truss_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_truss"))
}

/// Extracts an integer field from a one-line JSON object (the workspace
/// carries no JSON parser; the report format is flat and predictable).
fn json_u64(json: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let rest = &json[json
        .find(&key)
        .unwrap_or_else(|| panic!("{field} in {json}"))
        + key.len()..];
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{field} not an integer in {json}"))
}

/// Extracts a float field from a one-line JSON object.
fn json_f64(json: &str, field: &str) -> f64 {
    let key = format!("\"{field}\":");
    let rest = &json[json
        .find(&key)
        .unwrap_or_else(|| panic!("{field} in {json}"))
        + key.len()..];
    rest.chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{field} not a number in {json}"))
}

/// A per-test scratch directory, removed when dropped — on a panic too,
/// so no run leaves one behind.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("truss-cli-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the Figure 2 graph as a SNAP file in `dir` and returns the path.
fn figure2_file(dir: &TempDir) -> PathBuf {
    let path = dir.join("figure2.snap");
    let g = truss_decomposition::graph::generators::figure2_graph();
    let f = std::fs::File::create(&path).unwrap();
    truss_decomposition::graph::io::write_snap(&g, f).unwrap();
    path
}

#[test]
fn decompose_outputs_tsv_with_trussness() {
    let dir = TempDir::new("decompose_outputs_tsv_with_trussness");
    let input = figure2_file(&dir);
    // Every registered engine, not a hand-picked subset: the CLI dispatches
    // through the registry, so each kind's canonical name must work.
    for kind in AlgorithmKind::all() {
        let algo = kind.name();
        let out = truss_bin()
            .args(["decompose", "--algo", algo, input.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}: {:?}", out);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 26, "{algo}: one line per edge");
        // TSV shape: u <tab> v <tab> trussness, all integers.
        for l in &lines {
            let cols: Vec<&str> = l.split('\t').collect();
            assert_eq!(cols.len(), 3, "{algo}: {l:?}");
            assert!(
                cols.iter().all(|c| c.parse::<u64>().is_ok()),
                "{algo}: {l:?}"
            );
        }
        // Class sizes recoverable from the TSV.
        let fives = lines.iter().filter(|l| l.ends_with("\t5")).count();
        assert_eq!(fives, 10, "{algo}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("k_max = 5"), "{algo}: {stderr}");
    }
}

#[test]
fn decompose_report_json_appends_engine_report() {
    let dir = TempDir::new("decompose_report_json_appends_engine_report");
    let input = figure2_file(&dir);
    for kind in AlgorithmKind::all() {
        let algo = kind.name();
        let out = truss_bin()
            .args([
                "decompose",
                "--algo",
                algo,
                "--threads",
                "2",
                "--report",
                "json",
                input.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}: {:?}", out);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = stdout.lines().collect();
        // 26 TSV edge lines plus the final JSON report line.
        assert_eq!(lines.len(), 27, "{algo}");
        let json = lines.last().unwrap();
        assert!(
            json.starts_with('{') && json.ends_with('}'),
            "{algo}: {json}"
        );
        assert!(
            json.contains(&format!("\"algorithm\":\"{algo}\"")),
            "{algo}: {json}"
        );
        assert_eq!(json_u64(json, "k_max"), 5, "{algo}");
        // The report records the *effective* thread count: the parallel
        // and out-of-core engines honor --threads 2, every serial engine
        // runs (and reports) 1.
        let expected_threads = if matches!(kind, AlgorithmKind::Parallel | AlgorithmKind::OutOfCore)
        {
            2
        } else {
            1
        };
        assert_eq!(
            json_u64(json, "threads_used"),
            expected_threads,
            "{algo}: {json}"
        );
        // Spill-pipeline metrics: the out-of-core engine reports byte
        // counters and the drain-overlap time; every other engine has no
        // spill pipeline and reports null.
        for key in ["spill_bytes_written", "spill_bytes_read"] {
            assert!(json.contains(&format!("\"{key}\":")), "{algo}: {json}");
        }
        if kind == AlgorithmKind::OutOfCore {
            let _ = json_u64(json, "spill_bytes_written");
            let _ = json_u64(json, "spill_bytes_read");
            let overlap = json_f64(json, "spill_drain_overlap_ms");
            assert!(overlap >= 0.0, "{algo}: {json}");
        } else {
            assert!(
                json.contains("\"spill_bytes_written\":null"),
                "{algo}: {json}"
            );
            assert!(json.contains("\"spill_bytes_read\":null"), "{algo}: {json}");
            assert!(
                json.contains("\"spill_drain_overlap_ms\":null"),
                "{algo}: {json}"
            );
        }
        // External engines do real disk I/O and report it; in-memory ones
        // never touch disk.
        let blocks = json_u64(json, "total_blocks");
        if kind.is_external() {
            assert!(blocks > 0, "{algo}: {json}");
        } else {
            assert_eq!(blocks, 0, "{algo}: {json}");
        }
        // Phase breakdown: the in-memory peeling engines split their wall
        // time into support-init (triangle) and peel; the external ones
        // interleave the phases and report null.
        assert!(json.contains("\"triangle_ms\":"), "{algo}: {json}");
        assert!(json.contains("\"peel_ms\":"), "{algo}: {json}");
        let phased = matches!(
            kind,
            AlgorithmKind::Inmem
                | AlgorithmKind::InmemPlus
                | AlgorithmKind::Parallel
                | AlgorithmKind::OutOfCore
        );
        if phased {
            let t = json_f64(json, "triangle_ms");
            let p = json_f64(json, "peel_ms");
            assert!(t >= 0.0 && p >= 0.0, "{algo}: {json}");
        } else {
            assert!(json.contains("\"triangle_ms\":null"), "{algo}: {json}");
            assert!(json.contains("\"peel_ms\":null"), "{algo}: {json}");
        }
        // Measured peak RSS: present for every engine; a real VmHWM delta
        // on Linux, null where /proc is unavailable.
        assert!(json.contains("\"peak_rss_bytes\":"), "{algo}: {json}");
        if cfg!(target_os = "linux") {
            let _ = json_u64(json, "peak_rss_bytes");
        }
        // Effective (possibly clamped) budget: the external engines run
        // under an explicit budget and surface what they actually used;
        // the in-memory engines have no budget to report.
        assert!(
            json.contains("\"effective_memory_budget\":"),
            "{algo}: {json}"
        );
        if kind.is_external() {
            let eff = json_u64(json, "effective_memory_budget");
            assert!(eff > 0, "{algo}: {json}");
        } else {
            assert!(
                json.contains("\"effective_memory_budget\":null"),
                "{algo}: {json}"
            );
        }
        // Peel-phase counters are the parallel engine's own telemetry
        // (levels, bulk-synchronous sub-iterations, live-adjacency
        // compactions); every other engine reports null for all three.
        for field in ["peel_levels", "peel_sub_iterations", "peel_compactions"] {
            assert!(json.contains(&format!("\"{field}\":")), "{algo}: {json}");
        }
        if kind == AlgorithmKind::Parallel {
            // Figure 2 peels Φ2..Φ5: four non-empty levels, at least one
            // sub-iteration each; compactions may legitimately be zero.
            assert_eq!(json_u64(json, "peel_levels"), 4, "{algo}: {json}");
            assert!(json_u64(json, "peel_sub_iterations") >= 4, "{algo}: {json}");
            let _ = json_u64(json, "peel_compactions");
        } else {
            for field in ["peel_levels", "peel_sub_iterations", "peel_compactions"] {
                assert!(
                    json.contains(&format!("\"{field}\":null")),
                    "{algo}: {json}"
                );
            }
        }
    }
}

#[test]
fn parallel_engine_accepts_thread_ladder() {
    let dir = TempDir::new("parallel_engine_accepts_thread_ladder");
    let input = figure2_file(&dir);
    let mut reference: Option<String> = None;
    for threads in ["1", "2", "4"] {
        let out = truss_bin()
            .args([
                "decompose",
                "--algo",
                "parallel",
                "--threads",
                threads,
                input.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{threads}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        match &reference {
            Some(r) => assert_eq!(r, &stdout, "{threads} threads diverged"),
            None => reference = Some(stdout),
        }
    }
    // The alias from the literature works too.
    let out = truss_bin()
        .args(["decompose", "--algo", "pkt", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn decompose_flag_validation() {
    let dir = TempDir::new("decompose_flag_validation");
    let input = figure2_file(&dir);
    let out = truss_bin()
        .args(["decompose", "--algo", "frobnicate", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown --algo"), "{stderr}");
    // The error lists the registered names.
    assert!(
        stderr.contains("topdown") && stderr.contains("mr"),
        "{stderr}"
    );

    let out = truss_bin()
        .args(["decompose", "--report", "xml", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = truss_bin()
        .args(["decompose", "--threads", "0", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn index_build_query_update_round_trip() {
    let dir = TempDir::new("index_build_query_update_round_trip");
    let input = figure2_file(&dir);
    let idx = dir.join("figure2.tix");

    // Build with an explicit engine choice.
    let out = truss_bin()
        .args([
            "index",
            "build",
            "--algo",
            "bottomup",
            "--out",
            idx.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("k_max = 5"), "{stderr}");

    // Spectrum query (the default) serves from the saved file.
    let out = truss_bin()
        .args(["index", "query", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("k_max = 5"), "{stdout}");

    // k-truss extraction: the K5 at k = 5.
    let out = truss_bin()
        .args([
            "index",
            "query",
            "--query",
            "ktruss",
            "--k",
            "5",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().count(), 10);

    // Communities: two components at k = 4, one line each.
    let out = truss_bin()
        .args([
            "index",
            "query",
            "--query",
            "communities",
            "--k",
            "4",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().count(), 2);

    // Per-edge lookup.
    let out = truss_bin()
        .args([
            "index",
            "query",
            "--query",
            "edge",
            "--u",
            "0",
            "--v",
            "1",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "5");

    // Apply a delta: drop a K5 edge, insert (e, h).
    let delta = dir.join("figure2.delta");
    std::fs::write(&delta, "# test delta\n- 0 1\n+ 4 7\n").unwrap();
    let idx2 = dir.join("figure2-updated.tix");
    let out = truss_bin()
        .args([
            "index",
            "update",
            "--delta",
            delta.to_str().unwrap(),
            "--out",
            idx2.to_str().unwrap(),
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("+1 -1"), "{stderr}");
    assert!(stderr.contains("k_max = 4"), "{stderr}");

    // The updated index answers accordingly; the original is untouched.
    let out = truss_bin()
        .args([
            "index",
            "query",
            "--query",
            "edge",
            "--u",
            "0",
            "--v",
            "1",
            idx2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "removed edge must not resolve");
    let out = truss_bin()
        .args([
            "index",
            "query",
            "--query",
            "edge",
            "--u",
            "4",
            "--v",
            "7",
            idx2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = truss_bin()
        .args([
            "index",
            "query",
            "--query",
            "edge",
            "--u",
            "0",
            "--v",
            "1",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "original index untouched: {out:?}");
}

#[test]
fn index_flag_validation() {
    let dir = TempDir::new("index_flag_validation");
    let input = figure2_file(&dir);
    let idx = dir.join("figure2-validation.tix");

    // Missing --out.
    let out = truss_bin()
        .args(["index", "build", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--out"));

    // Unknown engine: the error lists the registered names dynamically.
    let out = truss_bin()
        .args([
            "index",
            "build",
            "--algo",
            "frobnicate",
            "--out",
            idx.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    for kind in AlgorithmKind::all() {
        assert!(stderr.contains(kind.name()), "{}: {stderr}", kind.name());
    }

    // Build a real index for the query checks.
    assert!(truss_bin()
        .args([
            "index",
            "build",
            "--out",
            idx.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap()
        .status
        .success());

    // Unknown query kind, missing --k, unknown subcommand.
    let out = truss_bin()
        .args([
            "index",
            "query",
            "--query",
            "frobnicate",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = truss_bin()
        .args(["index", "query", "--query", "ktruss", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--k"));
    let out = truss_bin()
        .args(["index", "frobnicate", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // A non-index file is rejected by the format layer (bad magic).
    let out = truss_bin()
        .args(["index", "query", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8(out.stderr).unwrap().contains("magic"),
        "expected a bad-magic error"
    );
}

#[test]
fn ktruss_extracts_subgraph() {
    let dir = TempDir::new("ktruss_extracts_subgraph");
    let input = figure2_file(&dir);
    let out = truss_bin()
        .args(["ktruss", "--k", "5", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 10, "the K5");
}

#[test]
fn topt_reports_top_classes() {
    let dir = TempDir::new("topt_reports_top_classes");
    let input = figure2_file(&dir);
    let out = truss_bin()
        .args(["topt", "--t", "2", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("k_max = 5"), "{stderr}");
    assert!(stderr.contains("Φ_5: 10 edges"), "{stderr}");
}

#[test]
fn generate_then_stats_round_trip() {
    let dir = TempDir::new("generate_then_stats_round_trip");
    let path = dir.join("gen.snap");
    let out = truss_bin()
        .args([
            "generate",
            "--dataset",
            "p2p",
            "--scale",
            "0.02",
            "--seed",
            "7",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = truss_bin()
        .args(["stats", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("k_max"), "{stdout}");
    assert!(stdout.contains("triangles"), "{stdout}");
}

#[test]
fn binary_format_by_extension() {
    let dir = TempDir::new("binary_format_by_extension");
    let path = dir.join("gen.bin");
    assert!(truss_bin()
        .args([
            "generate",
            "--dataset",
            "hep",
            "--scale",
            "0.01",
            path.to_str().unwrap()
        ])
        .output()
        .unwrap()
        .status
        .success());
    let out = truss_bin()
        .args(["decompose", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn errors_are_reported() {
    let dir = TempDir::new("errors_are_reported");
    // Unknown subcommand.
    let out = truss_bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    // Missing input.
    let out = truss_bin().args(["decompose"]).output().unwrap();
    assert!(!out.status.success());
    // Nonexistent file.
    let out = truss_bin()
        .args(["decompose", "/nonexistent/graph.snap"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error"), "{stderr}");
    // Bad k.
    let input = figure2_file(&dir);
    let out = truss_bin()
        .args(["ktruss", "--k", "1", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Overwrites the first `u32` of section `kind` in the GR2 snapshot at
/// `path`. The header checksum goes stale, so readers must run with
/// `TRUSS_SKIP_CHECKSUM=1` to get past the open.
fn patch_first_gr2_word(path: &Path, kind: u32, value: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let entry = (0..u32_at(&bytes, 40) as usize)
        .map(|i| 56 + 24 * i)
        .find(|&e| u32_at(&bytes, e) == kind)
        .expect("section present");
    let offset = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
    bytes[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// A snapshot whose rows name a vertex or an edge that does not exist
/// (and whose checksum is skipped) makes `decompose --algo outofcore`
/// exit with a typed `corrupt file` error, not a panic or a wrong answer.
#[test]
fn outofcore_reports_out_of_range_rows_as_corrupt() {
    let dir = TempDir::new("outofcore_reports_out_of_range_rows_as_corrupt");
    let good = dir.join("g.gr2");
    let out = truss_bin()
        .args([
            "generate",
            "--dataset",
            "hep",
            "--scale",
            "0.03",
            "--seed",
            "11",
        ])
        .arg(&good)
        .output()
        .unwrap();
    assert!(out.status.success());
    let header = std::fs::read(&good).unwrap();
    let n = u64::from_le_bytes(header[16..24].try_into().unwrap()) as u32;
    let m = u64::from_le_bytes(header[24..32].try_into().unwrap()) as u32;
    // Section 2 holds neighbor ids, section 3 edge ids.
    for (kind, value, what) in [(2, n + 5, "neighbor id"), (3, m + 7, "edge id")] {
        let bad = dir.join(format!("bad-{kind}.gr2"));
        std::fs::copy(&good, &bad).unwrap();
        patch_first_gr2_word(&bad, kind, value);
        let out = truss_bin()
            .args(["decompose", "--algo", "outofcore"])
            .arg(&bad)
            .env("TRUSS_SKIP_CHECKSUM", "1")
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(stderr.contains("corrupt file"), "{what}: {stderr}");
        assert!(stderr.contains(what), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// `--query status --report json` against a WAL daemon emits the full
/// durability block as one flat JSON line (the shape `repro_ingest` and
/// the CI recovery-smoke job parse).
#[test]
fn status_report_json_carries_durability_metrics() {
    let dir = TempDir::new("status_report_json_carries_durability_metrics");
    let input = figure2_file(&dir);
    let idx = dir.join("s.tix");
    assert!(truss_bin()
        .args([
            "index",
            "build",
            "--out",
            idx.to_str().unwrap(),
            input.to_str().unwrap()
        ])
        .output()
        .unwrap()
        .status
        .success());

    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let wal = dir.join("s.log");
    let mut daemon = truss_bin()
        .args([
            "serve",
            "--port",
            &port.to_string(),
            "--threads",
            "2",
            "--wal",
            wal.to_str().unwrap(),
            idx.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // One durable update so the counters are non-zero.
    let delta = dir.join("s.delta");
    std::fs::write(&delta, "+ 4 7\n").unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let out = truss_bin()
            .args([
                "query",
                "--remote",
                &addr,
                "--query",
                "update",
                "--delta",
                delta.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        if out.status.success() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never came up: {out:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    let out = truss_bin()
        .args([
            "query", "--remote", &addr, "--query", "status", "--report", "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert_eq!(json_u64(json, "generation"), 1, "{json}");
    assert!(json.contains("\"wal_enabled\":true"), "{json}");
    assert!(json.contains("\"wal_poisoned\":false"), "{json}");
    assert_eq!(json_u64(json, "wal_records"), 1, "{json}");
    assert!(json_u64(json, "wal_bytes_appended") > 0, "{json}");
    assert!(json_u64(json, "wal_fsyncs") >= 1, "{json}");
    assert!(json_u64(json, "group_commit_batches") >= 1, "{json}");
    assert_eq!(json_u64(json, "recovery_records_replayed"), 0, "{json}");
    assert_eq!(json_u64(json, "recovery_bytes_truncated"), 0, "{json}");
    // The checksum is a fixed-width hex string, not a JSON number (u64
    // checksums overflow double-precision JSON readers).
    assert!(json.contains("\"checksum\":\""), "{json}");

    // Local (non-remote) status is refused, and --report json on a
    // non-status query is refused.
    let out = truss_bin()
        .args(["query", "--query", "status", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = truss_bin()
        .args([
            "query", "--remote", &addr, "--query", "spectrum", "--report", "json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let _ = truss_bin()
        .args(["query", "--remote", &addr, "--query", "shutdown"])
        .output();
    let _ = daemon.wait();
}

/// Reads the magic + version byte of a file, the way the auto-detecting
/// loaders classify it.
fn file_magic(path: &std::path::Path) -> (Vec<u8>, u8) {
    let bytes = std::fs::read(path).unwrap();
    (bytes[..8].to_vec(), bytes[8])
}

#[test]
fn convert_round_trips_graph_bit_identically() {
    let dir = TempDir::new("convert_round_trips_graph_bit_identically");
    let v1 = dir.join("g.bin");
    let v2 = dir.join("g.gr2");
    let v1_back = dir.join("g2.bin");

    assert!(truss_bin()
        .args([
            "generate",
            "--dataset",
            "hep",
            "--scale",
            "0.01",
            "--seed",
            "3",
            v1.to_str().unwrap()
        ])
        .output()
        .unwrap()
        .status
        .success());

    // v1 -> v2: the output is a TRUSSGR2 snapshot.
    let out = truss_bin()
        .args([
            "convert",
            "--to",
            "v2",
            v1.to_str().unwrap(),
            v2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(file_magic(&v2).0, b"TRUSSGR2");

    // Decomposing the snapshot gives byte-identical TSV to the binary.
    let from_v1 = truss_bin()
        .args(["decompose", v1.to_str().unwrap()])
        .output()
        .unwrap();
    let from_v2 = truss_bin()
        .args(["decompose", v2.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(from_v1.status.success() && from_v2.status.success());
    assert_eq!(from_v1.stdout, from_v2.stdout, "mapped vs parsed TSV");

    // v2 -> v1 restores the original file bit-for-bit.
    let out = truss_bin()
        .args([
            "convert",
            "--to",
            "v1",
            v2.to_str().unwrap(),
            v1_back.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read(&v1).unwrap(),
        std::fs::read(&v1_back).unwrap()
    );

    // Unknown --to is rejected.
    let out = truss_bin()
        .args([
            "convert",
            "--to",
            "v9",
            v1.to_str().unwrap(),
            v2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn index_build_writes_v2_by_default_and_v1_on_request() {
    let dir = TempDir::new("index_build_writes_v2_by_default_and_v1_on_request");
    let input = figure2_file(&dir);
    let v2 = dir.join("f.tix");
    let v1 = dir.join("f.v1.tix");

    for (path, format_args) in [(&v2, vec![]), (&v1, vec!["--format", "v1"])] {
        let mut args = vec!["index", "build", "--out", path.to_str().unwrap()];
        args.extend(format_args);
        args.push(input.to_str().unwrap());
        let out = truss_bin().args(&args).output().unwrap();
        assert!(out.status.success(), "{out:?}");
    }
    let (magic2, ver2) = file_magic(&v2);
    assert_eq!((magic2.as_slice(), ver2), (b"TRUSSIDX".as_slice(), 2));
    let (magic1, ver1) = file_magic(&v1);
    assert_eq!((magic1.as_slice(), ver1), (b"TRUSSIDX".as_slice(), 1));

    // Both serve identical query answers.
    for q in [["--query", "spectrum"], ["--query", "ktruss"]] {
        let mut a1 = q.to_vec();
        let mut a2 = q.to_vec();
        if q[1] == "ktruss" {
            a1.extend(["--k", "4"]);
            a2.extend(["--k", "4"]);
        }
        a1.push(v1.to_str().unwrap());
        a2.push(v2.to_str().unwrap());
        let o1 = truss_bin()
            .args(["index", "query"].iter().copied().chain(a1))
            .output()
            .unwrap();
        let o2 = truss_bin()
            .args(["index", "query"].iter().copied().chain(a2))
            .output()
            .unwrap();
        assert!(o1.status.success() && o2.status.success());
        assert_eq!(o1.stdout, o2.stdout, "{q:?}");
    }
}

#[test]
fn index_update_rewrites_in_the_format_it_read() {
    let dir = TempDir::new("index_update_rewrites_in_the_format_it_read");
    let input = figure2_file(&dir);
    let delta = dir.join("d.delta");
    std::fs::write(&delta, "+ 4 7\n").unwrap();

    for (build_fmt, expect_ver) in [("v1", 1u8), ("v2", 2u8)] {
        let idx = dir.join(format!("u.{build_fmt}.tix"));
        assert!(truss_bin()
            .args([
                "index",
                "build",
                "--format",
                build_fmt,
                "--out",
                idx.to_str().unwrap(),
                input.to_str().unwrap()
            ])
            .output()
            .unwrap()
            .status
            .success());
        // In-place update preserves the on-disk format.
        let out = truss_bin()
            .args([
                "index",
                "update",
                "--delta",
                delta.to_str().unwrap(),
                idx.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        assert_eq!(
            file_magic(&idx).1,
            expect_ver,
            "update must keep {build_fmt}"
        );
        // The updated index answers the new edge.
        assert!(truss_bin()
            .args([
                "index",
                "query",
                "--query",
                "edge",
                "--u",
                "4",
                "--v",
                "7",
                idx.to_str().unwrap()
            ])
            .output()
            .unwrap()
            .status
            .success());
    }

    // --format v2 migrates a v1 index during update.
    let idx = dir.join("m.tix");
    assert!(truss_bin()
        .args([
            "index",
            "build",
            "--format",
            "v1",
            "--out",
            idx.to_str().unwrap(),
            input.to_str().unwrap()
        ])
        .output()
        .unwrap()
        .status
        .success());
    let out = truss_bin()
        .args([
            "index",
            "update",
            "--delta",
            delta.to_str().unwrap(),
            "--format",
            "v2",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(file_magic(&idx).1, 2, "--format v2 must migrate");
}
