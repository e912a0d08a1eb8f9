//! The figure/table regenerator binaries for the paper's evaluation.
//!
//! Every table and figure has a binary in `src/bin/` that re-runs the
//! corresponding experiment on the `cnet-proteus` simulator through the
//! shared [`cnet_harness`] crate and prints the measured series as an
//! aligned text table (the shape-comparison artifact recorded in
//! EXPERIMENTS.md) and as CSV (for external plotting), while writing a
//! machine-readable JSON report into `results/`:
//!
//! * `figure5` — non-linearizability ratios, `F = 25%`;
//! * `figure6` — non-linearizability ratios, `F = 50%`;
//! * `figure7` — the average `c2/c1 = (Tog + W)/Tog` table;
//! * `controls` — the paper's control runs (`F ∈ {0, 100}` and/or
//!   `W = 0`, plus uniform-random waits): all expected violation-free;
//! * `section4` — the adversarial executions of Section 4 replayed
//!   through the timed executor.
//!
//! All binaries share the harness flag surface:
//! `--ops N --seed S --threads T --json PATH`.
//!
//! The sweep machinery itself (grids, the worker pool, records, the
//! `ResultTable` renderer, the native best-of-N sweep) lives in
//! [`cnet_harness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
