//! End-to-end benchmark of the `rps-serve` server.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --server-bin <path> --out-dir <dir>` (normally started through
//! `perfbench/run.py`, which builds both binaries first):
//!
//! * `--trace 0` spawns the real server binary, drives it over loopback
//!   with two closed-loop clients and prints the client-observed
//!   end-to-end metrics;
//! * `--trace 1` measures the transport floor and the untraced per-type
//!   medians over loopback, then replays the same seeded stream in
//!   process through the layers' public functions with a span around
//!   every call ([`trace`]), and prints the per-layer metrics together
//!   with a reconciliation of the two.
//!
//! Each client connection and the server worker that serves it share
//! one CPU, the two pairs two different CPUs ([`placement`]).
//!
//! Every run checks the server's replies against a dense mirror
//! ([`workload::Mirror`]) and exits non-zero on a mismatch.

pub mod cells;
pub mod e2e;
pub mod loadgen;
pub mod placement;
pub mod report;
pub mod server;
pub mod trace;
pub mod workload;
