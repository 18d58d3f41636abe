//! Crash-safe file replacement: sibling temp + fsync + rename +
//! **parent-directory fsync**.
//!
//! POSIX `rename(2)` is atomic with respect to concurrent readers, but
//! atomicity is not durability: until the *directory entry* itself is
//! flushed, a power loss after the rename can resurrect the old file —
//! or, if the old file never existed, drop the new one entirely. The
//! full discipline is therefore four steps, and every snapshot/index
//! writer in the workspace goes through this one helper instead of
//! hand-rolling it:
//!
//! 1. write the new bytes to a sibling temp file (`.{name}.{prefix}{pid}`
//!    in the same directory, so the rename cannot cross filesystems),
//! 2. `fsync` the temp file (data + inode),
//! 3. `rename` temp → target (readers see old-or-new, never a mix),
//! 4. `fsync` the parent directory (the rename is now durable).
//!
//! [`atomic_replace_with`] adds one caller step between 2 and 3 (WAL
//! compaction makes its intent record durable there).
//!
//! Each step carries a [`crate::fault`] failpoint named
//! `{prefix}-temp-write`, `{prefix}-fsync`, `{prefix}-before-rename`,
//! `{prefix}-after-rename`, `{prefix}-before-dirsync`, so the
//! kill-matrix tests can crash a process at every arrow in the sequence
//! and assert the target is always either the complete old file or the
//! complete new one.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::fault;

/// Flushes a directory so a rename inside it survives power loss.
/// On Linux, `fsync` on an `O_RDONLY` directory fd is the documented
/// way to persist directory entries. A no-op on non-unix targets.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

fn temp_path(target: &Path, prefix: &str) -> PathBuf {
    let name = target
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    target.with_file_name(format!(".{name}.{prefix}{}", std::process::id()))
}

/// Atomically (and durably) replaces `target` with bytes produced by
/// `write`. The callback receives a buffered writer over the sibling
/// temp file; on any error the temp file is removed and `target` is
/// untouched. `site_prefix` names the failpoints (see module docs).
///
/// Returns whatever the callback returns — writers that compute a
/// checksum while streaming (like `TrussIndex::write_snapshot`) hand it
/// back through here.
pub fn atomic_replace<T>(
    target: &Path,
    site_prefix: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
) -> io::Result<T> {
    atomic_replace_with(target, site_prefix, write, |_| Ok(()))
}

/// [`atomic_replace`] with one extra step between steps 2 and 3: once
/// the temp file is durable, and before the `{prefix}-before-rename`
/// failpoint, `before_rename` runs with the callback's value. WAL
/// compaction appends and fsyncs its intent record (which names the new
/// snapshot's checksum) there. If it fails, the rename never happens.
pub fn atomic_replace_with<T>(
    target: &Path,
    site_prefix: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
    before_rename: impl FnOnce(&T) -> io::Result<()>,
) -> io::Result<T> {
    let tmp = temp_path(target, site_prefix);
    let result = atomic_replace_inner(target, &tmp, site_prefix, write, before_rename);
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn atomic_replace_inner<T>(
    target: &Path,
    tmp: &Path,
    site_prefix: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>,
    before_rename: impl FnOnce(&T) -> io::Result<()>,
) -> io::Result<T> {
    fault::hit(&format!("{site_prefix}-temp-write"))?;
    let file = File::create(tmp)?;
    let mut w = BufWriter::new(file);
    let value = write(&mut w)?;
    w.flush()?;
    let file = w
        .into_inner()
        .map_err(|e| io::Error::other(e.to_string()))?;
    fault::hit(&format!("{site_prefix}-fsync"))?;
    file.sync_all()?;
    drop(file);
    before_rename(&value)?;
    fault::hit(&format!("{site_prefix}-before-rename"))?;
    fs::rename(tmp, target)?;
    fault::hit(&format!("{site_prefix}-after-rename"))?;
    fault::hit(&format!("{site_prefix}-before-dirsync"))?;
    if let Some(parent) = nonempty_parent(target) {
        fsync_dir(parent)?;
    }
    Ok(value)
}

/// `Path::parent` returns `Some("")` for bare relative names; map that
/// to the current directory so `fsync_dir` gets something openable.
fn nonempty_parent(target: &Path) -> Option<&Path> {
    match target.parent() {
        Some(p) if p.as_os_str().is_empty() => Some(Path::new(".")),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    #[test]
    fn replaces_contents_atomically() {
        let dir = ScratchDir::new().unwrap();
        let target = dir.path().join("data.bin");
        fs::write(&target, b"old").unwrap();
        let n = atomic_replace(&target, "t", |w| {
            w.write_all(b"new contents")?;
            Ok(12u64)
        })
        .unwrap();
        assert_eq!(n, 12);
        assert_eq!(fs::read(&target).unwrap(), b"new contents");
        // No temp droppings.
        assert_eq!(fs::read_dir(dir.path()).unwrap().count(), 1);
    }

    #[test]
    fn creates_when_target_is_missing() {
        let dir = ScratchDir::new().unwrap();
        let target = dir.path().join("fresh.bin");
        atomic_replace(&target, "t", |w| w.write_all(b"hello")).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"hello");
    }

    #[test]
    fn callback_error_leaves_target_untouched() {
        let dir = ScratchDir::new().unwrap();
        let target = dir.path().join("data.bin");
        fs::write(&target, b"precious").unwrap();
        let err = atomic_replace(&target, "t", |w| -> io::Result<()> {
            w.write_all(b"half a file")?;
            Err(io::Error::other("writer failed"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("writer failed"));
        assert_eq!(fs::read(&target).unwrap(), b"precious");
        assert_eq!(fs::read_dir(dir.path()).unwrap().count(), 1, "temp removed");
    }

    #[test]
    fn before_rename_step_sees_the_value_and_can_abort() {
        let dir = ScratchDir::new().unwrap();
        let target = dir.path().join("data.bin");
        fs::write(&target, b"precious").unwrap();
        let err = atomic_replace_with(
            &target,
            "t",
            |w| w.write_all(b"new").map(|()| 7u64),
            |&v| {
                assert_eq!(v, 7);
                Err(io::Error::other("intent failed"))
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("intent failed"));
        assert_eq!(fs::read(&target).unwrap(), b"precious");
        assert_eq!(fs::read_dir(dir.path()).unwrap().count(), 1, "temp removed");
    }

    #[test]
    fn injected_eio_at_each_site_is_clean() {
        let dir = ScratchDir::new().unwrap();
        let target = dir.path().join("data.bin");
        fs::write(&target, b"precious").unwrap();
        for site in ["x-temp-write", "x-fsync", "x-before-rename"] {
            let _scope = crate::fault::scoped(&format!("{site}=eio"));
            let err = atomic_replace(&target, "x", |w| w.write_all(b"new")).unwrap_err();
            assert!(err.to_string().contains("injected EIO"), "{site}: {err}");
            assert_eq!(fs::read(&target).unwrap(), b"precious", "{site}");
            assert_eq!(fs::read_dir(dir.path()).unwrap().count(), 1, "{site}");
        }
        // Failures after the rename surface the error, but the new
        // contents are already in place — the caller sees old-or-new,
        // never a mix.
        for site in ["x-after-rename", "x-before-dirsync"] {
            fs::write(&target, b"precious").unwrap();
            let _scope = crate::fault::scoped(&format!("{site}=eio"));
            let err = atomic_replace(&target, "x", |w| w.write_all(b"new")).unwrap_err();
            assert!(err.to_string().contains("injected EIO"), "{site}: {err}");
            assert_eq!(fs::read(&target).unwrap(), b"new", "{site}");
        }
    }
}
