//! `sunmap` — the SUNMAP flow as a command-line tool.
//!
//! ```text
//! sunmap explore vopd --validate
//! sunmap design-sweep mpeg4
//! sunmap generate dsp --capacity 1000 --out target/dsp-noc
//! sunmap simulate my_design.app --capacity 800 --intensity 0.4
//! sunmap sweep netproc --rates 0.05,0.1,0.2 --out target/netproc-sweep
//! ```
//!
//! See `sunmap --help` (or [`args::USAGE`]) for the full surface.

mod args;
mod commands;

use std::process::ExitCode;

use args::{Cli, USAGE};

fn main() -> ExitCode {
    #[cfg(unix)]
    restore_default_sigpipe();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") || raw.is_empty() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match Cli::parse(raw.iter().map(String::as_str)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match commands::run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Restores the default `SIGPIPE` action, which the Rust runtime sets
/// to ignore: a closed stdout (`sunmap explore vopd | head -1`) then
/// ends the process quietly, as it does any Unix filter, instead of
/// panicking in `println!`. Sockets are unaffected — the standard
/// library writes them with `MSG_NOSIGNAL` (or `SO_NOSIGPIPE`), so a
/// vanished serve client still surfaces as an `EPIPE` error.
#[cfg(unix)]
fn restore_default_sigpipe() {
    use std::os::raw::c_int;
    const SIGPIPE: c_int = 13;
    const SIG_DFL: usize = 0;
    extern "C" {
        // `signal(2)` from the platform C library, declared here to
        // avoid a libc crate dependency for one call.
        // SAFETY: the signature matches the POSIX prototype
        // `void (*signal(int, void (*)(int)))(int)` with the handler
        // passed as the pointer-sized `SIG_DFL` value; the opaque
        // return value is never dereferenced.
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    // SAFETY: `SIG_DFL` is a valid disposition for `SIGPIPE`, and no
    // other thread is running yet.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}
