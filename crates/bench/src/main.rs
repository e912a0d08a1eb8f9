//! `cnet-bench <suite> [flags]` / `cnet-bench list` — see the library
//! docs for the suites. Exit status: 0 on success, 1 when an output
//! could not be written, 2 on a usage error or a native suite asked of
//! a live-probe build.

use std::process::ExitCode;

use cnet_bench::{drive, DriveError};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match drive(&argv, &mut std::io::stdout().lock()) {
        Ok(()) => 0,
        Err(DriveError::Io(e)) => {
            eprintln!("cnet-bench: cannot write: {e}");
            1
        }
        Err(DriveError::Usage(msg)) => {
            eprintln!("cnet-bench: {msg}");
            2
        }
        Err(DriveError::LiveProbes(suite)) => {
            eprintln!(
                "cnet-bench: `{suite}` times native counters, but this binary has the live \
                 probe layer compiled in (cnet-engine's `obs` feature, which a cargo \
                 invocation that also builds cnet-cli unifies on); rebuild with \
                 `cargo build --release -p cnet-bench` alone"
            );
            2
        }
    };
    ExitCode::from(code)
}
