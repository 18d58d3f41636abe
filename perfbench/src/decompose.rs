//! The decompose phase: `truss decompose` as a user runs it, one child
//! process per run, TSV to a file, every output byte-compared against an
//! `inmem+` reference computed once in set-up.

use crate::proc::{run_measured, Exit};
use crate::trace::Recorder;
use crate::workload::Arm;
use crate::Tally;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The reference decomposition: the exact TSV bytes plus the parsed
/// `(u, v, trussness)` rows the serve oracles check replies against.
pub struct Reference {
    /// `u\tv\ttrussness\n` per edge, in edge-id order.
    pub tsv: Vec<u8>,
    /// The same rows, parsed.
    pub edges: Vec<(u32, u32, u32)>,
}

impl Reference {
    /// Largest trussness.
    pub fn k_max(&self) -> u32 {
        self.edges.iter().map(|e| e.2).max().unwrap_or(0)
    }

    /// Edges of the k-truss.
    pub fn truss_size(&self, k: u32) -> usize {
        self.edges.iter().filter(|e| e.2 >= k).count()
    }

    /// Connected components of the k-truss (what a `Communities` reply
    /// lists).
    pub fn communities(&self, k: u32) -> usize {
        let n = self.edges.iter().map(|e| e.0.max(e.1) as usize + 1).max();
        let mut parent: Vec<u32> = (0..n.unwrap_or(0) as u32).collect();
        fn find(p: &mut [u32], mut x: u32) -> u32 {
            while p[x as usize] != x {
                p[x as usize] = p[p[x as usize] as usize];
                x = p[x as usize];
            }
            x
        }
        let mut touched = vec![false; parent.len()];
        for &(u, v, t) in &self.edges {
            if t >= k {
                touched[u as usize] = true;
                touched[v as usize] = true;
                let (a, b) = (find(&mut parent, u), find(&mut parent, v));
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
        (0..parent.len() as u32)
            .filter(|&x| touched[x as usize] && find(&mut parent, x) == x)
            .count()
    }
}

/// Computes the reference with the CLI default engine (not timed).
pub fn reference(truss: &Path, graph: &Path, work: &Path) -> Result<Reference, String> {
    let out_path = work.join("reference.tsv");
    let out = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    run_measured(
        Command::new(truss)
            .arg("decompose")
            .arg(graph)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::null()),
    )?;
    let tsv = std::fs::read(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let text = std::str::from_utf8(&tsv).map_err(|e| format!("reference TSV: {e}"))?;
    let mut edges = Vec::new();
    for line in text.lines() {
        let mut f = line.split('\t').map(str::parse::<u32>);
        match (f.next(), f.next(), f.next()) {
            (Some(Ok(u)), Some(Ok(v)), Some(Ok(t))) => edges.push((u, v, t)),
            _ => return Err(format!("reference TSV: bad line {line:?}")),
        }
    }
    // Lookups binary-search the rows; CSR edge ids are in (u, v) order.
    if !edges
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
    {
        return Err("reference TSV rows are not in (u, v) order".into());
    }
    Ok(Reference { tsv, edges })
}

/// Runs one arm once, writing stdout to `out_path`, and reports whether
/// the TSV before the `--report json` line equals the reference (`flip`
/// corrupts one byte first, to prove the check bites).
pub fn run_arm(
    truss: &Path,
    arm: &Arm,
    nproc: usize,
    graph: &Path,
    out_path: &Path,
    reference: &Reference,
    flip: bool,
) -> Result<(Exit, bool), String> {
    let out = File::create(out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let exit = run_measured(
        Command::new(truss)
            .args(arm.cli_args(nproc, out_path.parent().unwrap_or(Path::new("."))))
            .arg(graph)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::null()),
    )?;
    let mut bytes = std::fs::read(out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    if flip && !bytes.is_empty() {
        let mid = bytes.len() / 4;
        bytes[mid] ^= 0x01;
    }
    let body = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
    let cut = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let matches = bytes[..cut] == reference.tsv[..] && body[cut..].starts_with(b"{");
    Ok((exit, matches))
}

/// Per-arm samples of one decompose phase.
pub struct Phase {
    /// CLI wall seconds per arm, in run order.
    pub walls: [Vec<f64>; 2],
    /// Largest child peak RSS seen.
    pub peak_rss_bytes: u64,
}

/// Alternates the two arms (swapping which goes first every round) until
/// `budget_s` has passed and each arm ran at least `min_runs` times.
/// `between(round, tally)` runs after every round, so other short
/// samples can be spread over the phase instead of bunched together.
#[allow(clippy::too_many_arguments)]
pub fn phase(
    truss: &Path,
    arms: &[Arm; 2],
    nproc: usize,
    graph: &Path,
    work: &Path,
    reference: &Reference,
    budget_s: f64,
    min_runs: usize,
    flip_first: bool,
    tally: &mut Tally,
    mut rec: Option<&mut Recorder>,
    between: &mut dyn FnMut(usize, &mut Tally) -> Result<(), String>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let out_path = work.join("arm.tsv");
    let mut phase = Phase {
        walls: [Vec::new(), Vec::new()],
        peak_rss_bytes: 0,
    };
    let mut round = 0usize;
    let mut aside = Duration::ZERO; // time spent in `between`, off budget
    while (start.elapsed() - aside).as_secs_f64() < budget_s || phase.walls[1].len() < min_runs {
        let order = if round.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for i in order {
            let flip = flip_first && round == 0 && i == 0;
            let t0 = Instant::now();
            let (run, ok) = run_arm(truss, &arms[i], nproc, graph, &out_path, reference, flip)?;
            if let Some(r) = rec.as_deref_mut() {
                let op = r.id();
                let name = if i == 0 {
                    "cli.decompose"
                } else {
                    "cli.decompose_par"
                };
                r.span(op, None, op, name, t0, Instant::now());
            }
            tally.check(ok, || {
                format!("{} arm: TSV differs from the reference", arms[i].label)
            });
            phase.walls[i].push(run.wall_s);
            phase.peak_rss_bytes = phase.peak_rss_bytes.max(run.peak_rss_bytes);
        }
        let t = Instant::now();
        between(round, tally)?;
        aside += t.elapsed();
        round += 1;
    }
    let _ = std::fs::remove_file(&out_path);
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_counts_trusses_and_components() {
        let r = Reference {
            tsv: Vec::new(),
            edges: vec![(0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 4, 2), (5, 6, 3)],
        };
        assert_eq!(r.k_max(), 3);
        assert_eq!(r.truss_size(3), 4);
        assert_eq!(r.communities(3), 2);
        assert_eq!(r.communities(2), 3);
    }
}
