//! The process-wide Ctrl-C token. Cancelling it here cannot reach another
//! test's evaluation: this binary runs in its own process, apart from the
//! library's unit tests (the REPL's among them) that evaluate under the
//! same token.

use idlog_cli::signal::token;

#[test]
fn token_is_shared_and_resettable() {
    let a = token();
    let b = token();
    a.cancel();
    assert!(b.is_cancelled(), "clones share the flag");
    b.reset();
    assert!(!a.is_cancelled());
}
