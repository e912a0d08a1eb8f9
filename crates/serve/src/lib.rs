//! The counter *service*: a counting network you can leave running.
//!
//! Every prior layer of this repository runs a network for one
//! measured burst and exits. This crate keeps one alive: a daemon
//! ([`CounterServer`]) owns a compiled [`cnet_concurrent`] network,
//! serves values over a unix socket in length-prefixed frames
//! ([`proto`]), brackets every operation with a [`cnet_engine`]
//! logical clock, and judges the stream *online* against declarative
//! consistency SLOs ([`cnet_obs::SloPolicy`]) — the paper's
//! "practically linearizable" claim, restated as an uptime promise:
//! violations stay rare, small, and fast, hour after hour.
//!
//! The pieces:
//!
//! * [`proto`] — the wire format (five requests, six responses);
//! * [`CounterServer`] / [`ServeConfig`] / [`ServerHandle`] — the
//!   daemon, its drain-then-flush shutdown, and its periodic
//!   schema-v6 [`cnet_harness::RunRecord`] dumps;
//! * [`History`] — the bounded, run-length record of the last
//!   operations served, which dumps expand and the final
//!   [`ServeSummary`] hands back;
//! * [`ServeClient`] — a typed blocking client;
//! * [`drive`] / [`DriveConfig`] — the open-loop load generator that
//!   soaks a daemon and produces a gateable [`cnet_obs::SloReport`];
//! * [`signal`] — `SIGTERM`/`SIGINT` as a polite drain request.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod drive;
pub mod proto;
pub mod server;
pub mod signal;

pub use client::{Drawn, HealthInfo, ServeClient};
pub use drive::{drive, DriveConfig, DriveOutcome};
pub use server::{CounterServer, History, ServeConfig, ServeSummary, ServerHandle};
