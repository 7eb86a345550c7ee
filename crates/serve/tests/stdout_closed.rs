//! The `rps-serve` binary must exit cleanly when whoever started it has
//! stopped reading its stdout: the drain report then meets a closed
//! pipe, and that must neither panic the process nor skip the final
//! checkpoints.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use rps_serve::Client;

#[test]
fn drain_with_closed_stdout_exits_zero_and_checkpoints() {
    let data = std::env::temp_dir().join(format!("rps-serve-stdout-closed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    let mut child = Command::new(env!("CARGO_BIN_EXE_rps-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--tenant",
            "t=8x8",
            "--workers",
            "1",
        ])
        .arg("--data-dir")
        .arg(&data)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rps-serve");
    let mut line = String::new();
    {
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("listening line");
        // The reader drops here, closing the read end of the pipe.
    }
    let addr = line
        .trim()
        .strip_prefix("rps-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    let mut client = Client::connect(addr.as_str()).expect("connect");
    client.update("t", &[1, 1], 5).expect("update");
    client.shutdown().expect("shutdown");
    let status = child.wait().expect("wait for rps-serve");
    assert!(status.success(), "rps-serve exited with {status}");

    let snapshots = std::fs::read_dir(data.join("t").join("snapshots"))
        .expect("snapshot dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".rpssnap"))
        .count();
    assert!(snapshots >= 1, "the drain must leave a final checkpoint");
    let _ = std::fs::remove_dir_all(&data);
}
