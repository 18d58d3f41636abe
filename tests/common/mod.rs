//! Support shared by the integration suites: running the `truss` binary,
//! a self-removing scratch directory, and a `truss serve` child.

// Each suite uses a subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};
use truss_decomposition::serve::Client;

pub fn truss_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_truss"))
}

/// Runs `truss ARGS` to completion.
pub fn truss(args: &[&str]) -> Output {
    truss_bin().args(args).output().unwrap()
}

/// Runs `truss ARGS`, which must succeed; returns its stdout and stderr.
pub fn truss_ok(args: &[&str]) -> (String, String) {
    let out = truss(args);
    assert!(out.status.success(), "truss {args:?}: {out:?}");
    let text = |bytes| String::from_utf8(bytes).unwrap();
    (text(out.stdout), text(out.stderr))
}

/// Runs `truss ARGS`, which must fail; returns its stderr.
pub fn truss_err(args: &[&str]) -> String {
    let out = truss(args);
    assert!(!out.status.success(), "truss {args:?} succeeded: {out:?}");
    String::from_utf8(out.stderr).unwrap()
}

/// A per-test scratch directory, removed when dropped — on a panic too,
/// so no run leaves one behind.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("truss-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }

    /// [`TempDir::join`] as a string, for argument lists.
    pub fn file(&self, name: &str) -> String {
        self.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `truss serve --port 0` child, killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    /// Its stderr lines, drained on a thread so it never blocks on a
    /// full pipe; disconnected once it exits.
    lines: Receiver<String>,
    /// The address its `serving … on ADDR` line names.
    pub addr: String,
}

impl Daemon {
    /// Runs `truss serve --port 0 ARGS`, with `TRUSS_FAILPOINTS` set to
    /// `failpoints`; an error if it exits before naming its address.
    pub fn spawn(args: &[&str], failpoints: Option<&str>) -> Result<Daemon, String> {
        let mut child = truss_bin()
            .args(["serve", "--port", "0"])
            .args(args)
            .envs(failpoints.map(|spec| ("TRUSS_FAILPOINTS", spec)))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn truss serve: {e}"))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let addr = lines.iter().find_map(|line| {
            let rest = line.strip_prefix("serving ")?;
            Some(rest.rsplit(" on ").next()?.split(' ').next()?.to_string())
        });
        let addr = addr.ok_or(format!(
            "truss serve {args:?} exited before naming its address"
        ))?;
        Ok(Daemon { child, lines, addr })
    }

    pub fn client(&self) -> Client {
        Client::connect(&self.addr).unwrap()
    }

    /// Waits for the daemon to exit, which closes its stderr; a daemon
    /// still running after 10 s fails the test instead of stalling it.
    pub fn wait(&mut self) -> ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(10);
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            if let Err(RecvTimeoutError::Disconnected) = self.lines.recv_timeout(left) {
                return self.child.wait().unwrap();
            }
        }
        panic!("truss serve still running after 10 s");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
