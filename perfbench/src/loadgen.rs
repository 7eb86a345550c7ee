//! The closed-loop load generator: two client connections, one tenant
//! each, every request sent only after the previous reply arrived.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rps_serve::{Client, ClientError, Opcode};

use crate::placement;
use crate::server::ServerProc;
use crate::workload::{Kind, Mirror, Op, OpStream, Phase, Workload, CLIENTS, KINDS};

/// Requests per client in the untimed pass that checks every reply.
pub const CHECK_OPS: usize = 400;
/// Regions per tenant in the post-run sample check.
const SAMPLE_REGIONS: usize = 32;
/// Point regions per `QueryMany` when verifying every written cell.
const VERIFY_CHUNK: usize = 4096;
/// `Stats` requests a client sends to find the worker serving it.
const PIN_PROBES: u64 = 64;
/// Pause between those requests, so the worker is waiting for each one.
const PIN_PAUSE: Duration = Duration::from_micros(300);

/// What one run needs to know.
#[derive(Debug)]
pub struct Ctx {
    /// The `rps-serve` binary.
    pub server_bin: PathBuf,
    /// Scratch directory inside the checkout (logs, data dirs, traces).
    pub out_dir: PathBuf,
    /// The workload.
    pub w: &'static Workload,
    /// The run seed.
    pub seed: u64,
}

impl Ctx {
    /// The durable data directory (`None` for ephemeral workloads).
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.w.durable.then(|| self.out_dir.join("data"))
    }

    /// Removes the data directory (the server creates it again).
    pub fn clear_data(&self) -> Result<(), String> {
        match self.data_dir() {
            Some(dir) if dir.exists() => {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))
            }
            _ => Ok(()),
        }
    }
}

/// Client-side state of one tenant.
#[derive(Debug)]
pub struct TenantConn {
    /// Tenant name.
    pub name: String,
    /// The dense oracle.
    pub mirror: Mirror,
    client: Option<Client>,
    client_index: usize,
}

impl TenantConn {
    /// One fresh tenant per client.
    pub fn all(w: &Workload) -> Vec<TenantConn> {
        (0..CLIENTS)
            .map(|i| TenantConn {
                name: format!("t{i}"),
                mirror: Mirror::new(w.dims),
                client: None,
                client_index: i,
            })
            .collect()
    }

    fn client(&mut self) -> Result<&mut Client, String> {
        self.client
            .as_mut()
            .ok_or_else(|| "tenant has no connection".to_string())
    }
}

/// Closes every client connection (each pins a server worker).
pub fn disconnect(tenants: &mut [TenantConn]) {
    for t in tenants {
        t.client = None;
    }
}

/// Sends one request and returns its reply sums (empty for writes).
pub fn send(client: &mut Client, tenant: &str, op: &Op) -> Result<Vec<i64>, ClientError> {
    match op {
        Op::Query((lo, hi)) => client.query(tenant, lo, hi).map(|s| vec![s]),
        Op::QueryMany(rects) => client.query_many(tenant, rects),
        Op::Update(c, d) => client.update(tenant, c, *d).map(|()| Vec::new()),
        Op::Batch(items) => match client.batch_update(tenant, items)? {
            n if n == items.len() as u64 => Ok(Vec::new()),
            _ => Err(ClientError::UnexpectedReply(Opcode::Ack)),
        },
    }
}

/// Sends `op` and checks its reply against the mirror, then applies it.
fn send_checked(t: &mut TenantConn, op: &Op) -> Result<(), String> {
    let expected = t.mirror.expected(op);
    let name = t.name.clone();
    let got =
        send(t.client()?, &name, op).map_err(|e| format!("{name}: {:?} failed: {e}", op.kind()))?;
    if got != expected {
        return Err(format!(
            "MISMATCH on {name}: {:?} replied {got:?}, mirror says {expected:?}",
            op.kind()
        ));
    }
    t.mirror.apply(op);
    Ok(())
}

/// Runs `f` on every tenant on its own thread, pinned to the tenant's
/// CPU, and joins them all.
fn each_tenant<F>(tenants: &mut [TenantConn], f: F) -> Result<(), String>
where
    F: Fn(&mut TenantConn) -> Result<(), String> + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .map(|t| {
                s.spawn(|| {
                    placement::pin_current_thread(t.client_index)?;
                    f(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Result<Vec<()>, String>>()
            .map(|_| ())
    })
}

fn full_region(w: &Workload) -> (Vec<usize>, Vec<usize>) {
    (
        vec![0; w.dims.len()],
        w.dims.iter().map(|n| n - 1).collect(),
    )
}

/// Spawns a server and brings every tenant to ready: connect, create
/// (which recovers a durable tenant from its data dir), optionally the
/// seeded preload (resetting the mirror first), then a full-cube query
/// that must match the mirror. Returns the server and the seconds from
/// spawn to the last tenant's ready reply.
pub fn bring_up(
    ctx: &Ctx,
    tenants: &mut [TenantConn],
    preload: bool,
) -> Result<(ServerProc, f64), String> {
    let start = Instant::now();
    let data = ctx.data_dir();
    let server = ServerProc::spawn(&ctx.server_bin, data.as_deref(), &ctx.out_dir)?;
    let addr = server.addr;
    let w = ctx.w;
    each_tenant(tenants, |t| {
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client
            .create_tenant(&t.name, w.dims)
            .map_err(|e| format!("create {}: {e}", t.name))?;
        t.client = Some(client);
        if preload {
            t.mirror = Mirror::new(w.dims);
            let mut stream = OpStream::new(w, ctx.seed, t.client_index, Phase::Preload);
            for _ in 0..w.preload_batches {
                let op = Op::Batch(stream.batch());
                let name = t.name.clone();
                send(t.client()?, &name, &op).map_err(|e| format!("preload {name}: {e}"))?;
                t.mirror.apply(&op);
            }
        }
        send_checked(t, &Op::Query(full_region(w)))
    })?;
    Ok((server, start.elapsed().as_secs_f64()))
}

/// The untimed pass: every reply of a segment's seeded stream checked.
pub fn check_pass(ctx: &Ctx, tenants: &mut [TenantConn], segment: usize) -> Result<(), String> {
    each_tenant(tenants, |t| {
        let mut stream = OpStream::segment(ctx.w, ctx.seed, t.client_index, Phase::Check, segment);
        for _ in 0..CHECK_OPS {
            send_checked(t, &stream.next_op())?;
        }
        Ok(())
    })
}

/// Totals plus a seeded sample of regions, checked against the mirror.
pub fn sample_check(ctx: &Ctx, tenants: &mut [TenantConn]) -> Result<(), String> {
    each_tenant(tenants, |t| {
        send_checked(t, &Op::Query(full_region(ctx.w)))?;
        let mut stream = OpStream::new(ctx.w, ctx.seed, t.client_index, Phase::Sample);
        for _ in 0..SAMPLE_REGIONS {
            send_checked(t, &Op::Query(stream.rect(2)))?;
        }
        Ok(())
    })
}

/// Finds the server worker that serves each tenant's connection (the
/// thread that waits once per request while only that client sends,
/// with a pause before each request) and pins it to the tenant's CPU,
/// next to the tenant's client thread.
pub fn pin_workers(server: &ServerProc, tenants: &mut [TenantConn]) -> Result<(), String> {
    for t in tenants.iter_mut() {
        let before: std::collections::HashMap<i32, u64> =
            server.thread_switches()?.into_iter().collect();
        let name = t.name.clone();
        let client = t.client()?;
        for _ in 0..PIN_PROBES {
            std::thread::sleep(PIN_PAUSE);
            client
                .stats(&name)
                .map_err(|e| format!("stats {name}: {e}"))?;
        }
        let (tid, waits) = server
            .thread_switches()?
            .into_iter()
            .map(|(tid, n)| {
                (
                    tid,
                    n.saturating_sub(before.get(&tid).copied().unwrap_or(0)),
                )
            })
            .max_by_key(|&(_, d)| d)
            .ok_or("server has no threads")?;
        if waits < PIN_PROBES / 2 {
            return Err(format!(
                "no server thread waited for {name}'s requests ({waits} waits in {PIN_PROBES})"
            ));
        }
        placement::pin_thread(tid, t.client_index)?;
    }
    Ok(())
}

/// Checks that every acknowledged write is present: the total, every
/// slab along the first dimension, and every cell a write touched.
pub fn verify_all_writes(ctx: &Ctx, tenants: &mut [TenantConn]) -> Result<(), String> {
    let w = ctx.w;
    each_tenant(tenants, |t| {
        send_checked(t, &Op::Query(full_region(w)))?;
        let (_, full_hi) = full_region(w);
        let slabs: Vec<_> = (0..w.dims[0])
            .map(|x| {
                let mut lo = vec![0; w.dims.len()];
                let mut hi = full_hi.clone();
                lo[0] = x;
                hi[0] = x;
                (lo, hi)
            })
            .collect();
        let points: Vec<_> = t
            .mirror
            .touched_cells()
            .into_iter()
            .map(|c| (c.clone(), c))
            .collect();
        for chunk in slabs
            .chunks(VERIFY_CHUNK)
            .chain(points.chunks(VERIFY_CHUNK))
        {
            send_checked(t, &Op::QueryMany(chunk.to_vec()))?;
        }
        Ok(())
    })
}

/// Drains the server and restarts it on the same data directory until
/// every tenant answers a correct full-cube query. Ephemeral tenants
/// come back empty, so their clients re-send the seeded preload.
pub fn restart(
    ctx: &Ctx,
    server: ServerProc,
    tenants: &mut [TenantConn],
) -> Result<(ServerProc, f64), String> {
    disconnect(tenants);
    server.drain()?;
    bring_up(ctx, tenants, !ctx.w.durable)
}

/// Batch updates sent per client and segment in the probe phase of a
/// workload whose mix has none.
pub const BATCH_PROBES: usize = 50;

/// The probe phase: `BATCH_PROBES` closed-loop `BatchUpdate` round trips
/// per client, both clients at once. Returns their latencies in µs.
pub fn probe_batches(
    ctx: &Ctx,
    tenants: &mut [TenantConn],
    segment: usize,
) -> Result<Vec<f64>, String> {
    let lat = std::sync::Mutex::new(Vec::new());
    each_tenant(tenants, |t| {
        let mut stream = OpStream::segment(ctx.w, ctx.seed, t.client_index, Phase::Probe, segment);
        let name = t.name.clone();
        let mut mine = Vec::with_capacity(BATCH_PROBES);
        for _ in 0..BATCH_PROBES {
            let op = Op::Batch(stream.batch());
            let sent = Instant::now();
            send(t.client()?, &name, &op).map_err(|e| format!("probe {name}: {e}"))?;
            mine.push(sent.elapsed().as_secs_f64() * 1e6);
            t.mirror.apply(&op);
        }
        lat.lock().expect("probe lock poisoned").extend(mine);
        Ok(())
    })?;
    Ok(lat.into_inner().expect("probe lock poisoned"))
}

/// One request of a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request type.
    pub kind: Kind,
    /// Seconds from the window start to the reply.
    pub done_s: f64,
    /// Round trip in µs; +inf for a failed or rejected request, which
    /// misses every latency limit.
    pub lat_us: f64,
}

/// Client-observed results of one timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Every request, both clients merged.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests rejected or failed.
    pub failed: u64,
    /// Seconds from the start barrier to the last reply.
    pub elapsed_s: f64,
    /// The first transport failure, which ends a client's loop.
    pub fatal: Option<String>,
}

impl Window {
    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s
    }

    /// Adds another window's requests (reply times keep their own
    /// origins; `slices` is meant for single windows).
    pub fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
        self.fatal = self.fatal.take().or(other.fatal);
    }

    /// The latency sample of one request type.
    pub fn of(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.lat_us)
            .collect()
    }

    /// The window cut into `n` equal slices by reply time, each with its
    /// completed-request rate and its own samples.
    pub fn slices(&self, n: usize) -> Vec<Window> {
        let width = self.elapsed_s / n as f64;
        let mut out: Vec<Window> = (0..n)
            .map(|_| Window {
                elapsed_s: width,
                ..Window::default()
            })
            .collect();
        for s in &self.samples {
            let i = ((s.done_s / width) as usize).min(n - 1);
            out[i].attempted += 1;
            out[i].failed += u64::from(s.lat_us.is_infinite());
            out[i].samples.push(*s);
        }
        out
    }
}

/// Runs the closed loop on every tenant for `seconds`, on the timed
/// streams of `segment`.
pub fn run_window(ctx: &Ctx, tenants: &mut [TenantConn], seconds: f64, segment: usize) -> Window {
    let barrier = Barrier::new(tenants.len());
    let origin = Instant::now();
    let results: Vec<(Window, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || client_loop(ctx, t, barrier, origin, seconds, segment))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Window::default();
    for (w, end) in results {
        out.elapsed_s = out.elapsed_s.max((end - origin).as_secs_f64());
        out.samples.extend(w.samples);
        out.attempted += w.attempted;
        out.failed += w.failed;
        out.fatal = out.fatal.or(w.fatal);
    }
    out
}

/// One client's closed loop. Returns its window (reply times in seconds
/// since `origin`) and the instant of its last reply.
fn client_loop(
    ctx: &Ctx,
    t: &mut TenantConn,
    barrier: &Barrier,
    origin: Instant,
    seconds: f64,
    segment: usize,
) -> (Window, Instant) {
    let mut win = Window::default();
    let mut stream = OpStream::segment(ctx.w, ctx.seed, t.client_index, Phase::Timed, segment);
    let name = t.name.clone();
    if let Err(e) = placement::pin_current_thread(t.client_index) {
        win.fatal = Some(e);
    }
    barrier.wait();
    let start = Instant::now();
    if win.fatal.is_some() {
        return (win, start);
    }
    let Some(client) = t.client.as_mut() else {
        win.fatal = Some("tenant has no connection".to_string());
        return (win, start);
    };
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut last = start;
    while last < deadline {
        let op = stream.next_op();
        let sent = Instant::now();
        let reply = send(client, &name, &op);
        last = Instant::now();
        win.attempted += 1;
        let lat_us = match reply {
            Ok(_) => {
                t.mirror.apply(&op);
                (last - sent).as_secs_f64() * 1e6
            }
            Err(e) => {
                win.failed += 1;
                if !matches!(e, ClientError::Rejected { .. }) {
                    win.fatal = Some(format!("{name}: {e}"));
                }
                f64::INFINITY
            }
        };
        win.samples.push(Sample {
            kind: op.kind(),
            done_s: (last - origin).as_secs_f64(),
            lat_us,
        });
        if win.fatal.is_some() {
            break;
        }
    }
    (win, last)
}

/// Closed-loop `Stats` round trips on every tenant at once for
/// `seconds`: the transport floor under every latency.
pub fn stats_rtt(tenants: &mut [TenantConn], seconds: f64) -> Result<Vec<f64>, String> {
    let barrier = Barrier::new(tenants.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || -> Result<Vec<f64>, String> {
                    placement::pin_current_thread(t.client_index)?;
                    let name = t.name.clone();
                    let client = t.client()?;
                    let mut out = Vec::new();
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        let sent = Instant::now();
                        client
                            .stats(&name)
                            .map_err(|e| format!("stats {name}: {e}"))?;
                        out.push(sent.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "stats thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// The p50 of each request type, in `KINDS` order.
pub fn p50s(win: &Window) -> [f64; 4] {
    KINDS.map(|k| crate::report::median(&win.of(k)))
}
