//! The two run modes: the untraced loopback run (end-to-end metrics)
//! and the traced run (per-layer metrics plus their reconciliation).

use std::time::Instant;

use crate::loadgen::{self, Ctx, TenantConn, Window};
use crate::report::{self, median, Metrics, Summary};
use crate::trace::Replay;
use crate::workload::{Kind, OpStream, Phase, Workload, BATCH_LEN, CLIENTS, KINDS, TILE_GRID};

/// Timed restarts per segment; `recover_s` is the median of all of them.
pub const RESTARTS: usize = 5;
/// Segments of the run. Each sets a server up, checks a pass and times
/// its restarts, then sets a fresh server up for its share of the timed
/// window. So no one process's memory placement sets the window
/// numbers, and set-ups and restarts are spread over the whole run
/// instead of one stretch of it.
pub const SEGMENTS: usize = 3;
/// Length of the time slices the timed window is cut into; window
/// metrics are percentiles over the slices (see `run_e2e`).
pub const SLICE_SECONDS: f64 = 1.0;
/// The reconciliation passes when predicted ÷ measured p50 lies within
/// `1 ± RECON_TOLERANCE` for every request type.
pub const RECON_TOLERANCE: f64 = 0.35;
/// Requests per traced or untraced block of the interleaved replay.
const BLOCK: usize = 16;
/// Requests per client over which cells per op are counted.
const CELL_OPS: usize = 2000;
/// Most requests the traced replay makes (bounds the span file).
const REPLAY_CAP: usize = 60_000;

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every reply and check matched the mirror.
    pub correct: bool,
    /// Requests sent in the measured phase.
    pub attempted: u64,
    /// Requests that failed or were rejected there.
    pub failed: u64,
    /// The metrics of the mode.
    pub metrics: Metrics,
    /// JSON details (sample counts, percentiles, reconciliation).
    pub details: String,
    /// Why the run is not correct, if it is not.
    pub problem: Option<String>,
}

fn summaries_json(win: &Window) -> String {
    let parts: Vec<String> = KINDS
        .iter()
        .map(|&k| {
            format!(
                "{}: {}",
                report::string(k.name()),
                Summary::of(&win.of(k)).json()
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// The untraced loopback run.
pub fn run_e2e(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    let mut tenants = TenantConn::all(ctx.w);
    let mut setup_times = Vec::new();
    let mut restart_times = Vec::new();
    let mut win = Window::default();
    let mut slices = Vec::new();
    let mut probes = Vec::new();
    let mut rss = Vec::new();
    // One untimed set-up first, so the first timed one does not pay for
    // the load generator's and the server's first start on this host.
    ctx.clear_data()?;
    let (server, _) = loadgen::bring_up(ctx, &mut tenants, true)?;
    loadgen::disconnect(&mut tenants);
    server.drain()?;
    for segment in 0..SEGMENTS {
        // Set-up, the fully checked pass and the timed restarts.
        ctx.clear_data()?;
        let (mut server, secs) = loadgen::bring_up(ctx, &mut tenants, true)?;
        setup_times.push(secs);
        if let Err(problem) = loadgen::check_pass(ctx, &mut tenants, segment) {
            return Ok(mismatch(problem));
        }
        for _ in 0..RESTARTS {
            let (next, secs) = loadgen::restart(ctx, server, &mut tenants)?;
            server = next;
            restart_times.push(secs);
        }
        if let Err(problem) = loadgen::sample_check(ctx, &mut tenants) {
            return Ok(mismatch(problem));
        }
        loadgen::disconnect(&mut tenants);
        server.drain()?;

        // This segment's share of the timed window, on a fresh server.
        ctx.clear_data()?;
        let (server, secs) = loadgen::bring_up(ctx, &mut tenants, true)?;
        setup_times.push(secs);
        loadgen::pin_workers(&server, &mut tenants)?;
        let part = loadgen::run_window(ctx, &mut tenants, seconds / SEGMENTS as f64, segment);
        if let Some(fatal) = &part.fatal {
            return Err(format!("timed window: {fatal}"));
        }
        if ctx.w.mix[Kind::BatchUpdate as usize] == 0 {
            probes.extend(loadgen::probe_batches(ctx, &mut tenants, segment)?);
        }
        if let Err(problem) = loadgen::sample_check(ctx, &mut tenants) {
            return Ok(mismatch(problem));
        }
        rss.push(server.peak_rss_mib()?);
        loadgen::disconnect(&mut tenants);
        server.drain()?;
        if ctx.w.durable {
            let (server, _) = loadgen::bring_up(ctx, &mut tenants, false)?;
            if let Err(problem) = loadgen::verify_all_writes(ctx, &mut tenants) {
                return Ok(mismatch(problem));
            }
            loadgen::disconnect(&mut tenants);
            server.drain()?;
        }
        slices.extend(part.slices(((part.elapsed_s / SLICE_SECONDS).round() as usize).max(1)));
        win.absorb(part);
    }
    ctx.clear_data()?;

    // Each window metric is taken over one-second slices of the window,
    // so a burst of outside load moves one slice, not the metric; batch
    // latency comes from the probe phase when the mix has none.
    let pct = |k: Kind, p: f64| -> Vec<f64> {
        slices
            .iter()
            .map(|w| {
                let mut v = w.of(k);
                v.sort_by(f64::total_cmp);
                report::percentile(&v, p)
            })
            .collect()
    };
    // (metric, values, unit); each metric is the median of its values,
    // so a p99 is the tail of the median second.
    let per_slice: [(&str, Vec<f64>, &'static str); 7] = [
        (
            "throughput_ops_s",
            slices.iter().map(Window::throughput).collect(),
            "ops/s",
        ),
        ("query_p50_us", pct(Kind::Query, 50.0), "us"),
        ("query_p99_us", pct(Kind::Query, 99.0), "us"),
        ("query_many_p50_us", pct(Kind::QueryMany, 50.0), "us"),
        ("update_p50_us", pct(Kind::Update, 50.0), "us"),
        ("update_p99_us", pct(Kind::Update, 99.0), "us"),
        (
            "batch_update_p50_us",
            if probes.is_empty() {
                pct(Kind::BatchUpdate, 50.0)
            } else {
                probes
            },
            "us",
        ),
    ];
    let mut m = Metrics::default();
    for (name, values, unit) in &per_slice {
        m.put(name, median(values), unit);
    }
    m.put("setup_s", median(&setup_times), "s");
    m.put("recover_s", median(&restart_times), "s");
    m.put("server_peak_rss_mb", median(&rss), "MiB");
    m.put(
        "success_ratio",
        (win.attempted - win.failed) as f64 / win.attempted as f64,
        "ratio",
    );
    let details = format!(
        "{{\"workload\": {}, \"seed\": {}, \"shape\": {}, \"window_s\": {}, \"latency_us\": {}, \"metric_of\": {{{}}}, \"setup_s\": {:?}, \"recover_s\": {:?}, \"server_peak_rss_mb\": {:?}}}",
        report::string(ctx.w.name),
        ctx.seed,
        shape_json(ctx.w),
        win.elapsed_s,
        summaries_json(&win),
        per_slice
            .iter()
            .map(|(n, v, _)| {
                let v: Vec<String> = v.iter().map(|x| report::num(*x)).collect();
                format!("{}: [{}]", report::string(n), v.join(", "))
            })
            .collect::<Vec<_>>()
            .join(", "),
        setup_times,
        restart_times,
        rss
    );
    Ok(Outcome {
        correct: true,
        attempted: win.attempted,
        failed: win.failed,
        metrics: m,
        details,
        problem: None,
    })
}

/// The workload's definition, for the run's provenance.
fn shape_json(w: &Workload) -> String {
    let placement = match (crate::placement::cpu_of(0), crate::placement::cpu_of(1)) {
        (Some(a), Some(b)) => format!("{{\"pair_cpus\": [{a}, {b}]}}"),
        _ => "null".to_string(),
    };
    format!(
        "{{\"dims\": {:?}, \"durable\": {}, \"clients\": {CLIENTS}, \"server_workers\": {}, \"loop\": \"closed\", \"mix_per_10000\": {{\"query\": {}, \"query_many\": {}, \"update\": {}, \"batch_update\": {}}}, \"batch_len\": {BATCH_LEN}, \"query_many_regions\": {}, \"max_query_side\": \"dim/{}\", \"point_query_per_mille\": {}, \"preload_batches\": {}, \"window_segments\": {SEGMENTS}, \"window_slice_s\": {SLICE_SECONDS}, \"setups\": {}, \"restarts\": {}, \"placement\": {}}}",
        w.dims,
        w.durable,
        crate::server::WORKERS,
        w.mix[0],
        w.mix[1],
        w.mix[2],
        w.mix[3],
        TILE_GRID * TILE_GRID,
        w.query_div,
        w.point_queries,
        w.preload_batches,
        2 * SEGMENTS,
        RESTARTS * SEGMENTS,
        placement
    )
}

fn mismatch(problem: String) -> Outcome {
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        problem: Some(problem),
        ..Outcome::default()
    }
}

/// The traced run: loopback floor and per-type medians, then the
/// in-process traced replay and its reconciliation.
#[allow(clippy::too_many_lines)] // the metric list reads best in one place
pub fn run_trace(ctx: &Ctx, seconds: f64) -> Result<Outcome, String> {
    // Loopback half: transport floor and the untraced per-type p50s.
    ctx.clear_data()?;
    let mut tenants = TenantConn::all(ctx.w);
    let (server, _) = loadgen::bring_up(ctx, &mut tenants, true)?;
    loadgen::pin_workers(&server, &mut tenants)?;
    if let Err(problem) = loadgen::check_pass(ctx, &mut tenants, 0) {
        return Ok(mismatch(problem));
    }
    // The floor is sampled on both sides of the window it is compared with.
    let mut rtt = loadgen::stats_rtt(&mut tenants, seconds * 0.05)?;
    let win = loadgen::run_window(ctx, &mut tenants, seconds * 0.3, 0);
    rtt.extend(loadgen::stats_rtt(&mut tenants, seconds * 0.05)?);
    let probes = if ctx.w.mix[Kind::BatchUpdate as usize] == 0 {
        loadgen::probe_batches(ctx, &mut tenants, 0)?
    } else {
        Vec::new()
    };
    if let Some(fatal) = &win.fatal {
        return Err(format!("timed window: {fatal}"));
    }
    if let Err(problem) = loadgen::sample_check(ctx, &mut tenants) {
        return Ok(mismatch(problem));
    }
    loadgen::disconnect(&mut tenants);
    server.drain()?;
    ctx.clear_data()?;

    // In-process half: the same seeded stream through the layers.
    let dir = ctx.out_dir.join("trace-data");
    let mut replay = Replay::new(ctx.w, &dir)?;
    replay.preload(ctx.seed)?;
    let build_s = replay.build_seconds(3)?;
    let mut streams: Vec<OpStream> = (0..CLIENTS)
        .map(|t| OpStream::new(ctx.w, ctx.seed, t, Phase::Timed))
        .collect();
    // Per request: (kind, traced, ns), each request timed on its own so
    // the overhead compares like with like.
    let mut timed: Vec<(Kind, bool, f64)> = Vec::new();
    let start = Instant::now();
    let mut requests = 0usize;
    let mut block = 0usize;
    while requests < REPLAY_CAP && start.elapsed().as_secs_f64() < seconds * 0.6 {
        // ABBA order, so drift over the run cancels between the modes.
        let traced = matches!(block % 4, 0 | 3);
        replay.set_tracing(traced);
        for _ in 0..BLOCK {
            let t = requests % CLIENTS;
            let op = streams[t].next_op();
            let t0 = Instant::now();
            if let Err(problem) = replay.request(t, &op) {
                return Ok(mismatch(problem));
            }
            timed.push((op.kind(), traced, t0.elapsed().as_nanos() as f64));
            requests += 1;
        }
        block += 1;
    }
    replay.set_tracing(true);
    let (recover_s, replayed) = match replay.recover() {
        Ok(r) => r,
        Err(problem) => return Ok(mismatch(problem)),
    };
    replay.drain()?;
    let wal_bytes = replay.wal_bytes()?;
    if let Err(problem) = replay.verify(ctx.seed) {
        return Ok(mismatch(problem));
    }
    let trace_path = ctx.out_dir.join(format!("trace-{}.tsv", ctx.w.name));
    replay.write_spans(&trace_path)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("clear trace data: {e}"))?;

    let c = &replay.counts;
    // Served-path layers are taken under the `request` root only; the
    // storage layers under any root, so ephemeral workloads report them
    // from the shadow tenants.
    let served = Some("request");
    let med = |name: &str| median(&replay.durations(name, None, false, false));
    let med_per_item = |name: &str| median(&replay.durations(name, None, false, true));
    let rtt_us = median(&rtt);
    let mut m = Metrics::default();
    m.put("transport.rtt_us", rtt_us, "us");
    m.put("wire.decode_ns", med("wire.decode"), "ns");
    m.put("wire.encode_ns", med("wire.encode"), "ns");
    m.put(
        "wire.request_bytes",
        c.request_bytes as f64 / c.requests as f64,
        "bytes",
    );
    m.put(
        "wire.reply_bytes",
        c.reply_bytes as f64 / c.requests as f64,
        "bytes",
    );
    m.put("tenant.lookup_ns", med("tenant.lookup"), "ns");
    m.put(
        "tenant.update_ns",
        median(&replay.durations("tenant.update", served, false, false)),
        "ns",
    );
    m.put(
        "tenant.checkpoint_ns",
        median(&replay.checkpoint_durations()),
        "ns",
    );
    m.put("versioned.query_ns", med("versioned.query"), "ns");
    m.put(
        "versioned.query_many_ns_per_region",
        med_per_item("versioned.query_many"),
        "ns",
    );
    m.put(
        "versioned.corner_hit_ratio",
        c.corner_hits as f64 / c.corner_lookups as f64,
        "ratio",
    );
    // The versioned update + flush is what `Tenant::update` does besides
    // the storage calls attached under it: its self time.
    m.put(
        "versioned.publish_ns",
        median(&replay.durations("tenant.update", served, true, false)),
        "ns",
    );
    m.put(
        "versioned.cow_slabs_per_update",
        c.cow_slabs as f64 / c.point_publishes as f64,
        "count",
    );
    m.put(
        "versioned.batch_ns_per_update",
        median(&replay.durations("tenant.batch_update", served, true, true)),
        "ns",
    );
    m.put("rps.query_ns", med("rps.query"), "ns");
    // Cells per op come from a fixed-length count of the same seeded
    // stream, so they repeat exactly for a seed (see `cells`).
    let cells = crate::cells::count(ctx.w, ctx.seed, CELL_OPS);
    m.put("rps.cells_read_per_query", cells.reads_per_query, "count");
    m.put("rps.update_ns", med_per_item("rps.update"), "ns");
    m.put(
        "rps.cells_written_per_update",
        cells.writes_per_update,
        "count",
    );
    m.put("rps.build_s", build_s, "s");
    m.put("wal.append_ns", med_per_item("wal.append"), "ns");
    m.put("wal.sync_ns", med("wal.sync"), "ns");
    m.put(
        "wal.bytes_per_update",
        wal_bytes as f64 / c.records as f64,
        "bytes",
    );
    m.put("durable.update_ns", med("durable.update"), "ns");
    m.put("snapshot.save_ns", med("snapshot.save"), "ns");
    m.put(
        "snapshot.bytes_per_update",
        c.snapshot_bytes as f64 / c.records as f64,
        "bytes",
    );
    m.put("durable.recover_s", recover_s, "s");
    m.put("durable.replayed_records", replayed as f64, "count");
    m.put("trace.overhead_pct", overhead_pct(&timed), "%");

    // Reconciliation: transport floor + served-path self times against
    // the untraced loopback p50 of each request type.
    let mut measured = loadgen::p50s(&win);
    if !probes.is_empty() {
        measured[Kind::BatchUpdate as usize] = median(&probes);
    }
    let mut recon = Vec::new();
    let mut worst: f64 = 0.0;
    for ((kind, layers), p50) in replay.blocking_path().into_iter().zip(measured) {
        let layer_us: f64 = layers.iter().map(|(_, ns)| ns / 1000.0).sum();
        let predicted = rtt_us + layer_us;
        let ratio = predicted / p50;
        worst = worst.max((ratio - 1.0).abs());
        m.put(&format!("recon.{}_ratio", kind.name()), ratio, "ratio");
        let parts: Vec<String> = layers
            .iter()
            .map(|(n, ns)| format!("{}: {}", report::string(n), report::num(*ns)))
            .collect();
        recon.push(format!(
            "{}: {{\"rtt_us\": {}, \"self_ns\": {{{}}}, \"predicted_us\": {}, \"measured_p50_us\": {}, \"ratio\": {}}}",
            report::string(kind.name()),
            report::num(rtt_us),
            parts.join(", "),
            report::num(predicted),
            report::num(p50),
            report::num(ratio)
        ));
    }
    let bounds = crate::cells::bounds(ctx.w);
    let details = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace_file\": {}, \"spans\": {}, \"replayed_requests\": {}, \"traced_untraced_requests\": [{}, {}], \"recon_tolerance\": {RECON_TOLERANCE}, \"recon_pass\": {}, \"reconciliation\": {{{}}}, \"untraced_latency_us\": {}, \"cells\": {{\"max_read\": {}, \"bound_read\": {}, \"max_written\": {}, \"bound_written\": {}}}}}",
        report::string(ctx.w.name),
        ctx.seed,
        report::string(&trace_path.display().to_string()),
        replay.spans().len(),
        c.requests,
        timed.iter().filter(|t| t.1).count(),
        timed.iter().filter(|t| !t.1).count(),
        worst <= RECON_TOLERANCE,
        recon.join(", "),
        summaries_json(&win),
        cells.max_reads,
        bounds.query_cells,
        cells.max_writes,
        bounds.update_cells,
    );
    // A miss is reported, not failed: it says the per-layer model is off,
    // not that the server answered wrongly.
    let problem = (worst > RECON_TOLERANCE).then(|| {
        format!(
            "warning: reconciliation off by {:.0}% (tolerance {:.0}%)",
            worst * 100.0,
            RECON_TOLERANCE * 100.0
        )
    });
    Ok(Outcome {
        correct: true,
        attempted: win.attempted + c.requests,
        failed: win.failed,
        metrics: m,
        details,
        problem,
    })
}

/// Tracing overhead of the interleaved replay: per request type, the
/// median traced time minus the median untraced time, weighted by the
/// type's count and taken relative to the untraced total.
fn overhead_pct(timed: &[(Kind, bool, f64)]) -> f64 {
    let (mut extra, mut base) = (0.0, 0.0);
    for kind in KINDS {
        let of = |traced: bool| -> Vec<f64> {
            timed
                .iter()
                .filter(|t| t.0 == kind && t.1 == traced)
                .map(|t| t.2)
                .collect()
        };
        let (on, off) = (of(true), of(false));
        if on.is_empty() || off.is_empty() {
            continue;
        }
        let n = (on.len() + off.len()) as f64;
        extra += n * (median(&on) - median(&off));
        base += n * median(&off);
    }
    extra / base * 100.0
}
