//! SIGTERM/SIGINT handling without a libc dependency: a raw binding to
//! `signal(2)` installing a handler that flips one process-global
//! atomic. The accept loop polls [`triggered`] between accepts, so a
//! `kill -TERM` drains in-flight connections and exits cleanly (the
//! `wrm-cli` test `serve_e2e::sigterm_drains_after_cold_and_warm_sweeps`
//! sends one to a real `wrm serve` process). On non-unix targets the
//! install is a no-op and shutdown comes from `POST /admin/shutdown`.

use wrm_mc::sync::atomic::{AtomicBool, Ordering};

static TERMINATED: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT has been delivered.
pub fn triggered() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

#[cfg(unix)]
pub fn install() {
    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store. (The facade atomic
        // delegates straight to `std` whenever no model run is active
        // in the process — and real signals never fire inside one.)
        TERMINATED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    #[allow(clippy::fn_to_numeric_cast_any)]
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `signal` is the POSIX libc function; installing a handler
    // that only stores to an atomic is async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
pub fn install() {}

#[cfg(test)]
mod tests {
    #[test]
    fn install_is_idempotent() {
        super::install();
        super::install();
        // The flag itself is exercised by the `wrm-cli` end-to-end test
        // `serve_e2e::sigterm_drains_after_cold_and_warm_sweeps`, which
        // sends SIGTERM to a real `wrm serve` process.
    }
}
