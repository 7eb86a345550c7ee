//! The `rps-serve` binary: a multi-tenant `RPSWIRE1` server.
//!
//! ```text
//! rps-serve --addr 127.0.0.1:7171 --tenant sales=256x256 --tenant ops=64x64x8 \
//!           --workers 4 --data-dir /var/lib/rps --max-batch 1024 \
//!           --max-in-flight 64 --bytes-per-sec 10000000
//! ```
//!
//! Runs until a wire `shutdown` request arrives, then drains in-flight
//! work, cuts a final checkpoint per durable tenant, prints the drain
//! report and exits 0. See docs/OPERATIONS.md for the runbook.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use rps_serve::{Persistence, Server, ServerConfig, TenantQuota};
use rps_storage::SnapshotPolicy;

struct Options {
    addr: String,
    tenants: Vec<(String, Vec<usize>)>,
    config: ServerConfig,
    timing: bool,
}

fn usage() -> &'static str {
    "rps-serve — multi-tenant RPSWIRE1 server (see docs/SERVING.md)\n\
     \n\
     flags:\n\
     \x20 --addr HOST:PORT        listen address (default 127.0.0.1:7171)\n\
     \x20 --tenant NAME=DIMS      pre-provision a tenant (repeatable; DIMS like 256x256)\n\
     \x20 --workers N             handler threads (default 4)\n\
     \x20 --data-dir DIR          durable tenants: WAL + snapshots under DIR/<tenant>/\n\
     \x20 --snapshot-wal-bytes N  auto-checkpoint once the WAL grows N bytes (default 1048576)\n\
     \x20 --snapshot-records N    auto-checkpoint after N logged updates (default 8192)\n\
     \x20 --snapshot-retain N     snapshots retained per tenant (default 2)\n\
     \x20 --max-frame-bytes N     frame body cap (default 1048576)\n\
     \x20 --max-tenants N         hosted-tenant cap, LRU-evicting (default 0 = unlimited)\n\
     \x20 --max-in-flight N       per-tenant concurrent requests (default 0 = unlimited)\n\
     \x20 --max-batch N           per-tenant batch item cap (default 0 = unlimited)\n\
     \x20 --bytes-per-sec N       per-tenant byte-rate refill (default 0 = unlimited)\n\
     \x20 --burst-bytes N         per-tenant token-bucket burst (default = bytes-per-sec)\n\
     \x20 --timing on|off         enable latency histograms (default off)\n"
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse::<T>()
        .map_err(|e| format!("bad value for {flag}: {e}"))
}

fn parse_dims(spec: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = spec.split('x').map(|p| p.trim().parse::<usize>()).collect();
    let dims = dims.map_err(|e| format!("bad dims `{spec}`: {e}"))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(format!("dims must be positive in `{spec}`"));
    }
    Ok(dims)
}

#[allow(clippy::too_many_lines)] // a flat flag loop reads better than indirection
fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut tenants = Vec::new();
    let mut config = ServerConfig::default();
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut policy = SnapshotPolicy {
        max_wal_bytes: Some(1 << 20),
        max_records: Some(8192),
        retain: 2,
    };
    let mut quota = TenantQuota::default();
    let mut burst_set = false;
    let mut timing = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" || flag == "help" {
            return Err(String::new()); // caller prints usage
        }
        let Some(value) = it.next() else {
            return Err(format!("flag {flag} needs a value"));
        };
        match flag.as_str() {
            "--addr" => addr.clone_from(value),
            "--tenant" => {
                let Some((name, dims)) = value.split_once('=') else {
                    return Err(format!("bad --tenant `{value}` (expected NAME=DIMS)"));
                };
                tenants.push((name.to_string(), parse_dims(dims)?));
            }
            "--workers" => config.workers = parse_number(flag, value)?,
            "--data-dir" => data_dir = Some(std::path::PathBuf::from(value)),
            "--snapshot-wal-bytes" => policy.max_wal_bytes = Some(parse_number(flag, value)?),
            "--snapshot-records" => policy.max_records = Some(parse_number(flag, value)?),
            "--snapshot-retain" => policy.retain = parse_number(flag, value)?,
            "--max-frame-bytes" => config.max_frame_bytes = parse_number(flag, value)?,
            "--max-tenants" => config.max_tenants = parse_number(flag, value)?,
            "--max-in-flight" => quota.max_in_flight = parse_number(flag, value)?,
            "--max-batch" => quota.max_batch = parse_number(flag, value)?,
            "--bytes-per-sec" => quota.bytes_per_sec = parse_number(flag, value)?,
            "--burst-bytes" => {
                quota.burst_bytes = parse_number(flag, value)?;
                burst_set = true;
            }
            "--timing" => timing = value == "on",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !burst_set {
        quota.burst_bytes = quota.bytes_per_sec;
    }
    config.quota = quota;
    if let Some(root) = data_dir {
        config.persistence = Persistence::Durable { root, policy };
    }
    Ok(Options {
        addr,
        tenants,
        config,
        timing,
    })
}

/// Writes `text` to stdout through one lock. A closed stdout — the
/// parent stopped reading — is not a server failure, so `BrokenPipe` is
/// tolerated; any other write error is reported.
fn print_stdout(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("write stdout: {e}")),
        _ => Ok(()),
    }
}

fn serve(options: Options) -> Result<(), String> {
    if options.timing {
        rps_obs::set_timing(true);
    }
    let server = Server::bind(&options.addr, options.config)
        .map_err(|e| format!("bind {}: {e}", options.addr))?;
    for (name, dims) in &options.tenants {
        server
            .create_tenant(name, dims)
            .map_err(|e| format!("tenant `{name}`: {e}"))?;
    }
    print_stdout(&format!("rps-serve listening on {}\n", server.local_addr()))?;
    let report = server.run().map_err(|e| format!("serve loop: {e}"))?;
    let mut text = format!(
        "drained: {} workers joined, {} final checkpoints\n",
        report.workers_joined,
        report.checkpoints.len()
    );
    for (tenant, lsn) in &report.checkpoints {
        writeln!(text, "  checkpoint {tenant} @ lsn {lsn}").map_err(|e| e.to_string())?;
    }
    print_stdout(&text)?;
    for tenant in &report.checkpoint_failures {
        eprintln!("  checkpoint FAILED for {tenant} (state remains WAL-recoverable)");
    }
    if report.checkpoint_failures.is_empty() {
        Ok(())
    } else {
        Err("final checkpoint failed for at least one tenant".to_string())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_options(&argv) {
        Ok(options) => match serve(options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rps-serve: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                ExitCode::SUCCESS
            } else {
                eprintln!("rps-serve: {msg}\n\n{}", usage());
                ExitCode::FAILURE
            }
        }
    }
}
