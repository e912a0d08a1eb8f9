//! Minimal async-signal handling for graceful shutdown.
//!
//! The daemon must treat `SIGTERM`/`SIGINT` as a polite shutdown
//! request — drain in-flight operations, flush a final snapshot, exit
//! 0 — which needs exactly one primitive: a flag the accept loop can
//! poll. The handler does the only thing that is async-signal-safe
//! here: a relaxed store to a static `AtomicBool`.
//!
//! Between two looks at that flag the accept loop has nothing to do
//! until a client connects, so it waits in `wait_readable` — `poll(2)`
//! on the listener with the poll interval as its timeout — where a nap
//! would leave the connection waiting out the rest of it.
//!
//! No `libc` crate: the two-argument `signal(2)` entry point and
//! `poll(2)` are declared directly. This is the crate's single
//! `unsafe` island, allowed past the crate-level `deny(unsafe_code)`.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATION_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal (or [`request_termination`]) has been
/// seen since the process started. Never resets.
#[must_use]
pub fn termination_requested() -> bool {
    TERMINATION_REQUESTED.load(Ordering::Relaxed)
}

/// Sets the termination flag from regular code — the in-process
/// equivalent of delivering `SIGTERM`, used by tests and by the server
/// when a client sends `Shutdown`.
pub fn request_termination() {
    TERMINATION_REQUESTED.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod unix {
    use super::TERMINATION_REQUESTED;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`. The handler argument and return value are
        /// `sighandler_t` — a plain function pointer, carried here as
        /// `usize` to avoid declaring the alias.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const POLLIN: i16 = 1;

    /// POSIX `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// POSIX `nfds_t`.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        /// POSIX `poll(2)`.
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }

    /// Blocks until `socket` is readable — for a listener, until a
    /// connection waits to be accepted — or `timeout` has passed,
    /// whichever is first; a signal also ends the wait. The caller
    /// looks for itself at what became ready.
    pub(crate) fn wait_readable(socket: &impl AsRawFd, timeout: Duration) {
        let mut waited = PollFd {
            fd: socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `fds` points at one live, exclusively borrowed
        // `PollFd` and `nfds` is 1, so `poll` reads and writes inside
        // it and keeps no pointer past the call; `socket` is borrowed,
        // so its descriptor stays open for as long.
        let ready = unsafe { poll(&mut waited, 1, timeout_ms) };
        // a signal cuts the wait short, as it should; anything else
        // `poll` refuses must not turn the caller's loop into a spin
        if ready < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            std::thread::sleep(timeout);
        }
    }

    extern "C" fn on_signal(_signum: i32) {
        // the only async-signal-safe action we need
        TERMINATION_REQUESTED.store(true, Ordering::Relaxed);
    }

    pub(super) fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: installing a handler that performs a single atomic
        // store; `signal` is async-signal-safe to call at startup from
        // the main thread, and the handler touches nothing else.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// Installs the `SIGTERM`/`SIGINT` handler (idempotent). On non-unix
/// targets this is a no-op — [`request_termination`] still works, so
/// in-process shutdown paths are portable.
pub fn install_termination_handler() {
    #[cfg(unix)]
    unix::install();
}

#[cfg(unix)]
pub(crate) use unix::wait_readable;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wait_ends_at_the_first_byte_or_the_timeout() {
        use std::io::Write as _;
        use std::os::unix::net::UnixStream;
        use std::time::{Duration, Instant};

        let (mut tx, rx) = UnixStream::pair().unwrap();
        let t0 = Instant::now();
        wait_readable(&rx, Duration::from_millis(40));
        assert!(t0.elapsed() >= Duration::from_millis(30), "nothing to read");
        tx.write_all(b"x").unwrap();
        let t0 = Instant::now();
        wait_readable(&rx, Duration::from_secs(30));
        assert!(t0.elapsed() < Duration::from_secs(10), "a byte was waiting");
    }

    #[test]
    fn in_process_request_sets_the_flag() {
        install_termination_handler();
        request_termination();
        assert!(termination_requested());
    }
}
