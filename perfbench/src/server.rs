//! The `rps-serve` binary as an external child process.
//!
//! The child's stdout and stderr go to files (never pipes: a closed
//! pipe would turn the server's drain-time `println!` into a panic),
//! its listening address is read back from the stdout file, its memory
//! is read from `/proc/<pid>/status`, and every drain must end in exit
//! status 0.

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rps_serve::Client;

/// Worker threads the server runs with (one per client connection).
pub const WORKERS: usize = 2;

const LISTEN_PREFIX: &str = "rps-serve listening on ";
const START_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server process.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    stdout: PathBuf,
    stderr: PathBuf,
}

impl ServerProc {
    /// Spawns the server (`--data-dir` when `data_dir` is set) and waits
    /// until it prints its listening address.
    pub fn spawn(
        bin: &Path,
        data_dir: Option<&Path>,
        log_dir: &Path,
    ) -> Result<ServerProc, String> {
        let stdout = log_dir.join("server.out");
        let stderr = log_dir.join("server.err");
        let out = File::create(&stdout).map_err(|e| format!("create {}: {e}", stdout.display()))?;
        let err = File::create(&stderr).map_err(|e| format!("create {}: {e}", stderr.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout,
            stderr,
        };
        server.addr = server.wait_listening()?;
        Ok(server)
    }

    fn wait_listening(&mut self) -> Result<SocketAddr, String> {
        let start = Instant::now();
        loop {
            let text = std::fs::read_to_string(&self.stdout).unwrap_or_default();
            if let Some(line) = text.lines().find(|l| l.starts_with(LISTEN_PREFIX)) {
                return line[LISTEN_PREFIX.len()..]
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad listening line `{line}`: {e}"));
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "server exited before listening ({status}): {}",
                    self.stderr_text()
                ));
            }
            if start.elapsed() > START_TIMEOUT {
                return Err("server did not start listening in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kib / 1024.0)
    }

    /// Voluntary context switches of each of the server's threads, by
    /// thread id (a worker makes one each time it waits for a request).
    pub fn thread_switches(&self) -> Result<Vec<(i32, u64)>, String> {
        let dir = format!("/proc/{}/task", self.pid());
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))? {
            let entry = entry.map_err(|e| format!("read {dir}: {e}"))?;
            let Some(tid) = entry.file_name().to_str().and_then(|n| n.parse().ok()) else {
                continue;
            };
            // A thread that ended between the listing and the read is skipped.
            let Ok(status) = std::fs::read_to_string(entry.path().join("status")) else {
                continue;
            };
            let switches = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("no voluntary_ctxt_switches for thread {tid}"))?;
            out.push((tid, switches));
        }
        Ok(out)
    }

    fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr).unwrap_or_default()
    }

    /// Asks the server to drain over a fresh connection and waits for it
    /// to exit. Every client connection must already be closed, since
    /// each worker owns one connection until its peer hangs up. Any exit
    /// status other than 0 is an error.
    pub fn drain(mut self) -> Result<(), String> {
        let mut admin =
            Client::connect(self.addr).map_err(|e| format!("connect for shutdown: {e}"))?;
        admin
            .shutdown()
            .map_err(|e| format!("shutdown request: {e}"))?;
        drop(admin);
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!(
                        "server drain exited with {status}: {}",
                        self.stderr_text()
                    ));
                }
                Ok(None) if start.elapsed() > EXIT_TIMEOUT => {
                    return Err("server did not exit after shutdown".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    /// A server still running here was abandoned on an error path: stop
    /// it and reap it so no process outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
