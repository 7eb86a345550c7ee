//! CPU placement: each client connection and the server worker that
//! serves it share one CPU, and the two pairs use two different CPUs.
//!
//! A closed-loop pair has one runnable thread at a time (the client
//! waits while the worker works, and the other way round), so a pair on
//! one CPU hands the CPU back and forth without waking an idle one, and
//! the two pairs never queue behind each other. Left to itself the
//! kernel places the four threads differently from run to run and from
//! moment to moment, and latency follows those choices rather than the
//! server's work.
//!
//! Client threads pin themselves ([`pin_current_thread`]); a server's
//! workers are pinned by thread id once the load generator has found
//! out which worker serves which connection (`loadgen::pin_workers`).
//! The server's other threads stay where the kernel puts them.

use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the CPU mask passed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPU of each client/worker pair, by client index.
static CPUS: OnceLock<[usize; 2]> = OnceLock::new();

/// Moves thread `tid` (0: the calling thread) to `cpu`.
fn set_cpu(tid: i32, cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pin thread {tid} to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Picks the two lowest CPUs this process may run on, one per pair.
/// Fails when fewer than two are available.
pub fn init() -> Result<[usize; 2], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "read CPU affinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpus: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .take(2)
        .collect();
    let [a, b] = cpus[..] else {
        return Err(format!(
            "needs two CPUs (one per client/worker pair), has {}",
            cpus.len()
        ));
    };
    Ok(*CPUS.get_or_init(|| [a, b]))
}

/// The CPU of client `client`'s pair, if [`init`] ran.
pub fn cpu_of(client: usize) -> Option<usize> {
    CPUS.get().map(|c| c[client % c.len()])
}

fn cpu_or_err(client: usize) -> Result<usize, String> {
    cpu_of(client).ok_or_else(|| "CPU placement not initialised".to_string())
}

/// Pins the calling thread to client `client`'s CPU.
pub fn pin_current_thread(client: usize) -> Result<(), String> {
    set_cpu(0, cpu_or_err(client)?)
}

/// Pins thread `tid` (of any process) to client `client`'s CPU.
pub fn pin_thread(tid: i32, client: usize) -> Result<(), String> {
    set_cpu(tid, cpu_or_err(client)?)
}
