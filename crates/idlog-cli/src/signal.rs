//! Ctrl-C wiring: one process-wide [`CancelToken`] that the SIGINT handler
//! trips.
//!
//! The handler body is a single atomic store ([`CancelToken::cancel`] is
//! async-signal-safe), so no locks, allocation, or I/O happen in signal
//! context. Every governed evaluation polls the token at work-item
//! boundaries and unwinds cleanly with a partial result — the process never
//! dies mid-merge.

use std::sync::OnceLock;

use idlog_core::CancelToken;

static TOKEN: OnceLock<CancelToken> = OnceLock::new();

/// The process-wide cancellation token. The REPL calls
/// [`CancelToken::reset`] before each query so a stale Ctrl-C does not
/// cancel the next one; a one-shot command never resets it, so a Ctrl-C
/// during loading still stops its evaluation.
pub fn token() -> CancelToken {
    TOKEN.get_or_init(CancelToken::new).clone()
}

/// Install the SIGINT handler (no-op off Unix). Safe to call more than
/// once.
#[cfg(unix)]
pub fn install_ctrlc() {
    extern "C" fn on_sigint(_signum: i32) {
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    const SIGINT: i32 = 2;

    // Initialize the token on the main thread so the handler only ever
    // reads an already-published OnceLock.
    let _ = token();
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// Install the SIGINT handler (no-op off Unix). Safe to call more than
/// once.
#[cfg(not(unix))]
pub fn install_ctrlc() {
    let _ = token();
}
