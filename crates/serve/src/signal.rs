//! Minimal SIGINT/SIGTERM latch, no libc crate: the same direct
//! `extern "C"` idiom the storage crate uses for `mmap`. The handler
//! only flips an [`AtomicBool`] (the one async-signal-safe thing a Rust
//! handler can safely do); the CLI's `truss serve` main loop polls it
//! and then asks the daemon to shut down. The daemon's own threads never
//! poll.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATED: AtomicBool = AtomicBool::new(false);

#[cfg(target_os = "linux")]
mod sys {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::TERMINATED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal(2)` with a handler that only stores to an
        // atomic; both arguments are valid for the whole process life.
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn install() {}
}

/// Installs handlers for SIGINT (ctrl-c) and SIGTERM that set the
/// [`terminated`] latch. On non-Linux targets this is a no-op and only
/// remote [`crate::proto::Request::Shutdown`] stops the daemon.
pub fn install() {
    sys::install();
}

/// True once SIGINT or SIGTERM was received.
pub fn terminated() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    #[test]
    fn latch_starts_clear() {
        super::install();
        assert!(!super::terminated());
    }
}
