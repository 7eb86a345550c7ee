//! The traced run's replay: one process, no sockets.
//!
//! Each request of a workload's seeded stream goes through the layers'
//! public functions in the order the server calls them (frame decode,
//! `Registry::get`, `Tenant::update`/`batch_update` or a snapshot query,
//! reply encode), with a span around every call. Spans stay in memory
//! and are written out at the end; a layer's self time is its span's
//! duration minus the time its child spans cover.
//!
//! The storage layers run inside `Tenant::update` and `batch_update`,
//! so their spans are not clocked here: `DurableEngine`, `Wal` and
//! `checkpoint_to` time themselves into the program's own histograms
//! (`rps_storage::obs`, the durable and RPS engine metrics of
//! `rps_core::obs`), and the replay reads each histogram's sum before
//! and after the tenant call. The difference becomes a child span of
//! the tenant call (`durable.update` with `wal.append` and `rps.update`
//! under it; `wal.sync` and `snapshot.save` when the call cut a
//! checkpoint). Such a span has the right duration but no observed
//! start: it is placed at its parent's start, and the span file marks
//! it `histogram` instead of `clock`.
//!
//! Two extra roots per request, outside the served path and outside the
//! reconciliation: `kernel` runs each `Query` on a plain `RpsEngine` per
//! tenant (the paper's structure, for `rps.query`), and on ephemeral
//! workloads `shadow` sends each write through a durable tenant of a
//! second registry, so the storage layers are measured on every
//! workload's writes.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ndcube::{NdCube, Region};
use rps_core::{RangeSumEngine, RpsEngine};
use rps_serve::wire::{self, Frame, Opcode};
use rps_serve::{Persistence, Registry, Tenant, TenantQuota};
use rps_storage::{DurableEngine, FsSnapshotDir};

use crate::workload::{
    Kind, Mirror, Op, OpStream, Phase, Workload, CLIENTS, DEFAULT_SNAPSHOT_POLICY, KINDS,
};

/// How a span's duration was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Clock reads around the call, in this process.
    Clock,
    /// The difference of a program histogram's sum across the parent call.
    Histogram,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start: u64,
    /// End, ns since the tracer was created.
    pub end: u64,
    /// 1-based index of the parent span (0 = root).
    pub parent: u32,
    /// Request id.
    pub req: u32,
    /// Items the call handled (regions, batch points), else 1.
    pub items: u32,
    /// How the duration was obtained.
    pub source: Source,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64
    }
}

/// An in-memory span recorder. While off, `begin`, `end` and `attach` do
/// nothing and read no clock, and the program's own timing gate
/// (`rps_obs::set_timing`) is off too.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> u32 {
        self.begin_n(name, 1)
    }

    fn begin_n(&mut self, name: &'static str, items: usize) -> u32 {
        if !self.on {
            return 0;
        }
        let parent = self.open.last().copied().unwrap_or(0);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req: self.req,
            items: items as u32,
            source: Source::Clock,
        });
        let id = self.spans.len() as u32;
        self.open.push(id);
        id
    }

    fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.now();
        self.spans[id as usize - 1].end = now;
        self.open.pop();
    }

    /// Records a histogram-derived child of the ended span `parent`,
    /// lasting `ns`. Returns its id (0 when off or `parent` is 0).
    fn attach(&mut self, parent: u32, name: &'static str, ns: u64, items: usize) -> u32 {
        if parent == 0 {
            return 0;
        }
        let start = self.spans[parent as usize - 1].start;
        self.spans.push(Span {
            name,
            start,
            end: start + ns,
            parent,
            req: self.req,
            items: items as u32,
            source: Source::Histogram,
        });
        self.spans.len() as u32
    }
}

/// Sums of the program's own storage-path histograms and counters.
/// The histograms only receive samples while `rps_obs` timing is on.
#[derive(Debug, Clone, Copy)]
struct StorageSums {
    durable_update_ns: u64,
    rps_update_ns: u64,
    wal_append_ns: u64,
    wal_sync_ns: u64,
    snapshot_save_ns: u64,
    checkpoints: u64,
    cow_slabs: u64,
}

impl StorageSums {
    fn read() -> StorageSums {
        use rps_core::obs::{engine, snapshot, EngineKind};
        let s = rps_storage::obs::storage();
        StorageSums {
            durable_update_ns: engine(EngineKind::Durable).update_ns.sum(),
            rps_update_ns: engine(EngineKind::Rps).update_ns.sum(),
            wal_append_ns: s.wal_append_ns.sum(),
            wal_sync_ns: s.wal_fsync_ns.sum(),
            snapshot_save_ns: s.snapshot_save_ns.sum(),
            checkpoints: s.checkpoints.get(),
            cow_slabs: snapshot().cow_boxes.get(),
        }
    }

    fn since(self, before: StorageSums) -> StorageSums {
        StorageSums {
            durable_update_ns: self.durable_update_ns - before.durable_update_ns,
            rps_update_ns: self.rps_update_ns - before.rps_update_ns,
            wal_append_ns: self.wal_append_ns - before.wal_append_ns,
            wal_sync_ns: self.wal_sync_ns - before.wal_sync_ns,
            snapshot_save_ns: self.snapshot_save_ns - before.snapshot_save_ns,
            checkpoints: self.checkpoints - before.checkpoints,
            cow_slabs: self.cow_slabs - before.cow_slabs,
        }
    }
}

/// Deterministic counts gathered at the same call boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    /// Request frames replayed (preload included).
    pub requests: u64,
    /// Bytes of request frames.
    pub request_bytes: u64,
    /// Bytes of reply frames.
    pub reply_bytes: u64,
    /// Copy-on-write slabs cloned by served point-update publishes.
    pub cow_slabs: u64,
    /// Served point updates.
    pub point_publishes: u64,
    /// Corner-cache hits in `Version::query_many`.
    pub corner_hits: u64,
    /// Corner lookups in `Version::query_many`.
    pub corner_lookups: u64,
    /// Records logged by the durable tenants (served or shadow).
    pub records: u64,
    /// Snapshot bytes written by the durable tenants' checkpoints.
    pub snapshot_bytes: u64,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// What a request's reply carries.
enum Reply {
    Sums(Vec<i64>),
    Ack(u64),
}

/// A decoded request, as the server's router sees it.
enum Decoded {
    Query(Vec<usize>, Vec<usize>),
    Many(Vec<(Vec<usize>, Vec<usize>)>),
    Update(Vec<usize>, i64),
    Batch(Vec<(Vec<usize>, i64)>),
}

/// A write, as the tenant takes it.
enum TenantWrite<'a> {
    Point(&'a [usize], i64),
    Batch(&'a [(Vec<usize>, i64)]),
}

/// The replay's state: the served registry, the shadow registry of
/// ephemeral workloads, a kernel engine and a mirror per tenant, the
/// tracer and the counts.
pub struct Replay {
    w: &'static Workload,
    tr: Tracer,
    served: Registry,
    /// Durable copies of the tenants when the served ones are ephemeral.
    shadow: Option<Registry>,
    /// Root of the durable tenants' directories (served or shadow).
    dir: PathBuf,
    kernels: Vec<RpsEngine<i64>>,
    mirrors: Vec<Mirror>,
    /// Kind of each request id (index = id).
    kinds: Vec<Option<Kind>>,
    /// Deterministic counts.
    pub counts: Counts,
}

fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

fn request_frame(tenant: &str, op: &Op) -> Frame {
    let (opcode, payload) = match op {
        Op::Query((lo, hi)) => (Opcode::Query, wire::encode_query(lo, hi)),
        Op::QueryMany(rects) => (Opcode::QueryMany, wire::encode_query_many(rects)),
        Op::Update(c, d) => (Opcode::Update, wire::encode_update(c, *d)),
        Op::Batch(items) => (Opcode::BatchUpdate, wire::encode_batch_update(items)),
    };
    Frame {
        opcode,
        tenant: tenant.to_string(),
        payload,
    }
}

/// Cells of `regions` the corner cache of `Version::query_many` looks up,
/// and how many of those lookups repeat an earlier key (cache hits).
/// `Version::query_many` keeps no counters of its own, so the ratio is
/// computed from the regions with the cache's key (the linear index of
/// each prefix corner).
fn corner_lookups(dims: &[usize], regions: &[(Vec<usize>, Vec<usize>)]) -> (u64, u64) {
    let d = dims.len();
    let mut seen = std::collections::HashSet::new();
    let mut lookups = 0u64;
    for (lo, hi) in regions {
        'corner: for mask in 0u32..(1 << d) {
            let mut key = 0usize;
            for i in 0..d {
                let c = if mask & (1 << i) != 0 {
                    if lo[i] == 0 {
                        continue 'corner;
                    }
                    lo[i] - 1
                } else {
                    hi[i]
                };
                key = key * dims[i] + c;
            }
            lookups += 1;
            seen.insert(key);
        }
    }
    (lookups - seen.len() as u64, lookups)
}

/// Size of the snapshot the most recent checkpoint wrote under
/// `snap_dir`.
fn newest_snapshot_bytes(snap_dir: &Path) -> Result<u64, String> {
    let lsn = rps_storage::obs::storage().snapshot_last_lsn.get();
    let path = FsSnapshotDir::open(snap_dir)
        .map_err(|e| err("open snapshots", e))?
        .slot_path(lsn);
    Ok(std::fs::metadata(&path)
        .map_err(|e| err("stat snapshot", e))?
        .len())
}

/// Attaches the storage layers' share of a durable tenant call that
/// handled `items` records, and counts what it wrote.
fn attach_storage(
    tr: &mut Tracer,
    counts: &mut Counts,
    span: u32,
    durable_call: &'static str,
    items: usize,
    d: StorageSums,
    snap_dir: &Path,
) -> Result<(), String> {
    counts.records += items as u64;
    let du = tr.attach(span, durable_call, d.durable_update_ns, items);
    tr.attach(du, "wal.append", d.wal_append_ns, items);
    tr.attach(du, "rps.update", d.rps_update_ns, items);
    if d.checkpoints > 0 {
        tr.attach(span, "wal.sync", d.wal_sync_ns, 1);
        tr.attach(span, "snapshot.save", d.snapshot_save_ns, 1);
        counts.snapshot_bytes += newest_snapshot_bytes(snap_dir)?;
    }
    Ok(())
}

/// One write through `Tenant::update` or `Tenant::batch_update`, under
/// a span named after the call; on a durable tenant the storage layers'
/// share is attached from the program's histograms. Returns the change
/// of the storage sums across the call.
fn tenant_write(
    tr: &mut Tracer,
    counts: &mut Counts,
    tenant: &Tenant,
    write: &TenantWrite<'_>,
    snap_dir: &Path,
) -> Result<StorageSums, String> {
    let (call, durable_call, items) = match write {
        TenantWrite::Point(..) => ("tenant.update", "durable.update", 1),
        TenantWrite::Batch(b) => ("tenant.batch_update", "durable.update_batch", b.len()),
    };
    let before = StorageSums::read();
    let s = tr.begin_n(call, items);
    match write {
        TenantWrite::Point(c, d) => tenant.update(c, *d),
        TenantWrite::Batch(b) => tenant.batch_update(b),
    }
    .map_err(|e| err(call, e))?;
    tr.end(s);
    let d = StorageSums::read().since(before);
    if tenant.is_durable() {
        attach_storage(tr, counts, s, durable_call, items, d, snap_dir)?;
    }
    Ok(d)
}

impl Replay {
    /// Fresh tenants, the durable ones under `dir` (emptied first).
    pub fn new(w: &'static Workload, dir: &Path) -> Result<Replay, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| err("clear trace data", e))?;
        }
        let durable = || {
            Registry::new(
                Persistence::Durable {
                    root: dir.to_path_buf(),
                    policy: DEFAULT_SNAPSHOT_POLICY,
                },
                TenantQuota::default(),
                0,
            )
        };
        let (served, shadow) = if w.durable {
            (durable(), None)
        } else {
            (
                Registry::new(Persistence::Ephemeral, TenantQuota::default(), 0),
                Some(durable()),
            )
        };
        let mut kernels = Vec::new();
        for t in 0..CLIENTS {
            for registry in std::iter::once(&served).chain(&shadow) {
                registry
                    .create(&tenant_name(t), w.dims)
                    .map_err(|e| err("create tenant", e))?;
            }
            kernels.push(RpsEngine::zeros(w.dims).map_err(|e| err("engine", e))?);
        }
        rps_obs::set_timing(true);
        Ok(Replay {
            w,
            tr: Tracer::new(),
            served,
            shadow,
            dir: dir.to_path_buf(),
            kernels,
            mirrors: (0..CLIENTS).map(|_| Mirror::new(w.dims)).collect(),
            kinds: Vec::new(),
            counts: Counts::default(),
        })
    }

    /// Turns span recording, and the program's own timing, on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.tr.on = on;
        rps_obs::set_timing(on);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.tr.spans
    }

    fn tenant_dir(&self, t: usize) -> PathBuf {
        self.dir.join(tenant_name(t))
    }

    /// The durable registry: the served one or the shadow.
    fn durable_registry(&self) -> &Registry {
        self.shadow.as_ref().unwrap_or(&self.served)
    }

    /// Replays one request of tenant `t`.
    #[allow(clippy::too_many_lines)] // one request's path reads best top to bottom
    pub fn request(&mut self, t: usize, op: &Op) -> Result<(), String> {
        let name = tenant_name(t);
        let snap_dir = self.tenant_dir(t).join("snapshots");
        let bytes = request_frame(&name, op).encode();
        self.tr.req = self.kinds.len() as u32;
        self.kinds.push(Some(op.kind()));
        self.counts.requests += 1;
        self.counts.request_bytes += bytes.len() as u64;
        let tr = &mut self.tr;
        let counts = &mut self.counts;

        let root = tr.begin("request");
        let s = tr.begin("wire.decode");
        let frame = match Frame::read_from(&mut bytes.as_slice(), wire::DEFAULT_MAX_FRAME_BYTES) {
            Ok(Ok(Some(f))) => f,
            other => return Err(format!("request frame did not decode: {other:?}")),
        };
        let decoded = match frame.opcode {
            Opcode::Query => {
                wire::decode_query(&frame.payload).map(|(lo, hi)| Decoded::Query(lo, hi))
            }
            Opcode::QueryMany => wire::decode_query_many(&frame.payload).map(Decoded::Many),
            Opcode::Update => {
                wire::decode_update(&frame.payload).map(|(c, d)| Decoded::Update(c, d))
            }
            Opcode::BatchUpdate => wire::decode_batch_update(&frame.payload).map(Decoded::Batch),
            _ => None,
        }
        .ok_or("request payload did not decode")?;
        tr.end(s);

        let s = tr.begin("tenant.lookup");
        let tenant = self
            .served
            .get(&frame.tenant)
            .map_err(|e| err("lookup", e))?;
        tr.end(s);

        let mut kernel_region = None;
        let reply = match decoded {
            Decoded::Query(lo, hi) => {
                let s = tr.begin("versioned.query");
                let region = Region::new(&lo, &hi).map_err(|e| err("region", e))?;
                let sum = tenant
                    .versioned()
                    .snapshot()
                    .query(&region)
                    .map_err(|e| err("query", e))?;
                tr.end(s);
                kernel_region = Some((region, sum));
                Reply::Sums(vec![sum])
            }
            Decoded::Many(pairs) => {
                let s = tr.begin_n("versioned.query_many", pairs.len());
                let regions = pairs
                    .iter()
                    .map(|(lo, hi)| Region::new(lo, hi))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| err("region", e))?;
                let sums = tenant
                    .versioned()
                    .snapshot()
                    .query_many(&regions)
                    .map_err(|e| err("query_many", e))?;
                tr.end(s);
                let (hits, lookups) = corner_lookups(self.w.dims, &pairs);
                counts.corner_hits += hits;
                counts.corner_lookups += lookups;
                Reply::Sums(sums)
            }
            Decoded::Update(c, d) => {
                let write = TenantWrite::Point(&c, d);
                let sums = tenant_write(tr, counts, &tenant, &write, &snap_dir)?;
                counts.cow_slabs += sums.cow_slabs;
                counts.point_publishes += 1;
                Reply::Ack(1)
            }
            Decoded::Batch(items) => {
                tenant_write(tr, counts, &tenant, &TenantWrite::Batch(&items), &snap_dir)?;
                Reply::Ack(items.len() as u64)
            }
        };

        let s = tr.begin("wire.encode");
        let reply_frame = match &reply {
            Reply::Sums(sums) => Frame::admin(Opcode::Sums, wire::encode_sums(sums)),
            Reply::Ack(n) => Frame::admin(Opcode::Ack, wire::encode_u64(*n)),
        };
        let reply_bytes = reply_frame.encode();
        tr.end(s);
        tr.end(root);
        counts.reply_bytes += reply_bytes.len() as u64;

        if let Some((region, served)) = kernel_region {
            let k = tr.begin("kernel");
            let s = tr.begin("rps.query");
            let sum = self.kernels[t]
                .query(&region)
                .map_err(|e| err("engine query", e))?;
            tr.end(s);
            tr.end(k);
            if sum != served {
                return Err(format!(
                    "MISMATCH: snapshot query {served} but RpsEngine says {sum}"
                ));
            }
        }
        let write = match op {
            Op::Update(c, d) => Some(TenantWrite::Point(c, *d)),
            Op::Batch(items) => Some(TenantWrite::Batch(items)),
            Op::Query(_) | Op::QueryMany(_) => None,
        };
        if let Some(write) = write {
            if let Some(shadow) = &self.shadow {
                let k = tr.begin("shadow");
                let tenant = shadow.get(&name).map_err(|e| err("shadow lookup", e))?;
                tenant_write(tr, counts, &tenant, &write, &snap_dir)?;
                tr.end(k);
            }
            let kernel = &mut self.kernels[t];
            match write {
                TenantWrite::Point(c, d) => kernel.update(c, d),
                TenantWrite::Batch(items) => {
                    items.iter().try_for_each(|(c, d)| kernel.update(c, *d))
                }
            }
            .map_err(|e| err("engine update", e))?;
        }
        self.mirrors[t].apply(op);
        Ok(())
    }

    /// The seeded preload of every tenant, as `BatchUpdate` requests.
    pub fn preload(&mut self, seed: u64) -> Result<(), String> {
        for t in 0..CLIENTS {
            let mut stream = OpStream::new(self.w, seed, t, Phase::Preload);
            for _ in 0..self.w.preload_batches {
                self.request(t, &Op::Batch(stream.batch()))?;
            }
        }
        Ok(())
    }

    /// Median seconds of `RpsEngine::from_cube` over tenant 0's cube.
    pub fn build_seconds(&self, repeats: usize) -> Result<f64, String> {
        let cube = NdCube::from_vec(self.w.dims, self.mirrors[0].cells().to_vec())
            .map_err(|e| err("cube", e))?;
        let mut times = Vec::new();
        for _ in 0..repeats {
            let start = Instant::now();
            let engine = RpsEngine::from_cube(&cube);
            times.push(start.elapsed().as_secs_f64());
            if engine.total() != self.mirrors[0].total() {
                return Err("MISMATCH: built engine total differs from the mirror".to_string());
            }
        }
        Ok(crate::report::median(&times))
    }

    /// Recovers every durable tenant with `DurableEngine::recover` (the
    /// call a tenant's re-provisioning makes) from the files written so
    /// far, as a restart after a crash would. Returns the mean seconds
    /// per tenant and the records replayed in total.
    pub fn recover(&mut self) -> Result<(f64, u64), String> {
        let mut secs = 0.0;
        let mut replayed = 0;
        for (t, mirror) in self.mirrors.iter().enumerate() {
            let dir = self.tenant_dir(t);
            let dims = self.w.dims.to_vec();
            let start = Instant::now();
            let (engine, report) =
                DurableEngine::recover(&dir.join("snapshots"), &dir.join("wal.log"), move || {
                    RpsEngine::<i64>::zeros(&dims).map_err(rps_storage::StorageError::Engine)
                })
                .map_err(|e| err("recover", e))?;
            secs += start.elapsed().as_secs_f64();
            replayed += report.replayed;
            if engine.engine().total() != mirror.total() {
                return Err("MISMATCH: recovered total differs from the mirror".to_string());
            }
        }
        Ok((secs / self.mirrors.len() as f64, replayed))
    }

    /// The drain's final `Tenant::checkpoint` of every durable tenant.
    pub fn drain(&mut self) -> Result<(), String> {
        self.tr.req = self.kinds.len() as u32;
        self.kinds.push(None);
        let root = self.tr.begin("drain");
        for t in 0..CLIENTS {
            let tenant = self
                .durable_registry()
                .get(&tenant_name(t))
                .map_err(|e| err("lookup", e))?;
            let before = StorageSums::read();
            let s = self.tr.begin("tenant.checkpoint");
            tenant.checkpoint().map_err(|e| err("checkpoint", e))?;
            self.tr.end(s);
            let d = StorageSums::read().since(before);
            self.tr.attach(s, "wal.sync", d.wal_sync_ns, 1);
            self.tr.attach(s, "snapshot.save", d.snapshot_save_ns, 1);
            self.counts.snapshot_bytes +=
                newest_snapshot_bytes(&self.tenant_dir(t).join("snapshots"))?;
        }
        self.tr.end(root);
        Ok(())
    }

    /// Bytes of every durable tenant's WAL (checkpoints never truncate it).
    pub fn wal_bytes(&self) -> Result<u64, String> {
        (0..CLIENTS)
            .map(|t| {
                std::fs::metadata(self.tenant_dir(t).join("wal.log"))
                    .map(|m| m.len())
                    .map_err(|e| err("stat WAL", e))
            })
            .sum()
    }

    /// Checks served, shadow and kernel totals plus a region sample
    /// against the mirrors.
    pub fn verify(&self, seed: u64) -> Result<(), String> {
        for t in 0..CLIENTS {
            let mirror = &self.mirrors[t];
            let mut snaps = Vec::new();
            for registry in std::iter::once(&self.served).chain(&self.shadow) {
                let tenant = registry
                    .get(&tenant_name(t))
                    .map_err(|e| err("lookup", e))?;
                snaps.push(tenant.versioned().snapshot());
            }
            if snaps.iter().any(|s| s.total() != mirror.total())
                || self.kernels[t].total() != mirror.total()
            {
                return Err(format!(
                    "MISMATCH: replay totals of t{t} differ from the mirror"
                ));
            }
            let mut stream = OpStream::new(self.w, seed, t, Phase::Sample);
            for _ in 0..32 {
                let (lo, hi) = stream.rect(2);
                let region = Region::new(&lo, &hi).map_err(|e| err("region", e))?;
                let got = snaps[0].query(&region).map_err(|e| err("query", e))?;
                if got != mirror.sum(&lo, &hi) {
                    return Err(format!(
                        "MISMATCH: replay region of t{t} differs from the mirror"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Writes every span as TSV.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let selfs = self_times(&self.tr.spans);
        let file = File::create(path).map_err(|e| err("create trace file", e))?;
        let mut out = BufWriter::new(file);
        let mut write = || -> std::io::Result<()> {
            writeln!(
                out,
                "req\tkind\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\titems\tsource"
            )?;
            for (i, (s, self_ns)) in self.tr.spans.iter().zip(&selfs).enumerate() {
                let kind = self.kinds[s.req as usize].map_or("drain", Kind::name);
                let source = match s.source {
                    Source::Clock => "clock",
                    Source::Histogram => "histogram",
                };
                writeln!(
                    out,
                    "{}\t{kind}\t{}\t{}\t{}\t{}\t{}\t{self_ns}\t{}\t{source}",
                    s.req,
                    i + 1,
                    s.parent,
                    s.name,
                    s.start,
                    s.end,
                    s.items
                )?;
            }
            out.flush()
        };
        write().map_err(|e| err("write trace file", e))
    }

    /// The name of every span's root span.
    fn root_names(&self) -> Vec<&'static str> {
        let mut roots: Vec<&'static str> = Vec::with_capacity(self.tr.spans.len());
        for s in &self.tr.spans {
            let r = if s.parent == 0 {
                s.name
            } else {
                roots[s.parent as usize - 1]
            };
            roots.push(r);
        }
        roots
    }

    /// Per-layer self-time medians along the served path of each request
    /// type, in ns: `(kind, [(layer, median self ns)])`. A layer absent
    /// from a request counts as 0 for that request.
    pub fn blocking_path(&self) -> Vec<(Kind, Vec<(&'static str, f64)>)> {
        let spans = &self.tr.spans;
        let selfs = self_times(spans);
        let roots = self.root_names();
        let mut out = Vec::new();
        for kind in KINDS {
            let mut per_layer: Vec<(&'static str, Vec<f64>)> = Vec::new();
            let mut requests = 0usize;
            for (i, s) in spans.iter().enumerate() {
                if roots[i] != "request" || self.kinds[s.req as usize] != Some(kind) {
                    continue;
                }
                if s.parent == 0 {
                    requests += 1;
                }
                match per_layer.iter_mut().find(|(n, _)| *n == s.name) {
                    Some((_, v)) => v.push(selfs[i]),
                    None => per_layer.push((s.name, vec![selfs[i]])),
                }
            }
            let layers = per_layer
                .into_iter()
                .map(|(n, mut v)| {
                    v.resize(requests.max(v.len()), 0.0);
                    (n, crate::report::median(&v))
                })
                .collect();
            out.push((kind, layers));
        }
        out
    }

    /// Durations of every span named `name` under a root named `root`
    /// (any root when `None`), in ns: inclusive, or self time when
    /// `own`, and divided by the span's item count when `per_item`.
    pub fn durations(&self, name: &str, root: Option<&str>, own: bool, per_item: bool) -> Vec<f64> {
        let selfs = self_times(&self.tr.spans);
        let roots = self.root_names();
        self.tr
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && root.is_none_or(|r| roots[*i] == r))
            .map(|(i, s)| {
                let ns = if own { selfs[i] } else { s.duration() };
                if per_item {
                    ns / f64::from(s.items.max(1))
                } else {
                    ns
                }
            })
            .collect()
    }

    /// Inclusive durations, in ns, of the tenant calls that checkpointed:
    /// the drain's `Tenant::checkpoint` and every `Tenant::update` or
    /// `batch_update` whose policy check cut a checkpoint (those with a
    /// `wal.sync` child).
    pub fn checkpoint_durations(&self) -> Vec<f64> {
        let spans = &self.tr.spans;
        spans
            .iter()
            .filter(|s| s.name == "wal.sync" && s.parent != 0)
            .map(|s| spans[s.parent as usize - 1].duration())
            .collect()
    }
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if s.parent != 0 {
            selfs[s.parent as usize - 1] -= s.duration();
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            req: 0,
            items: 1,
            source: Source::Clock,
        };
        let spans = vec![
            span("root", 0, 100, 0),
            span("a", 10, 30, 1),
            span("b", 40, 90, 1),
            span("c", 50, 60, 3),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 20.0, 40.0, 10.0]);
    }

    #[test]
    fn attached_spans_count_as_children() {
        let mut tr = Tracer::new();
        let s = tr.begin("call");
        tr.end(s);
        tr.spans[0].end = tr.spans[0].start + 1000;
        let child = tr.attach(s, "inner", 300, 1);
        tr.attach(child, "innermost", 100, 1);
        assert_eq!(self_times(&tr.spans), vec![700.0, 200.0, 100.0]);
        assert_eq!(tr.spans[1].source, Source::Histogram);
        tr.on = false;
        let off = tr.begin("off");
        assert_eq!(tr.attach(off, "inner", 5, 1), 0);
    }

    #[test]
    fn corner_hits_count_shared_corners() {
        // Two side-by-side 2x2 tiles away from the origin share two of
        // their four prefix corners.
        let regions = vec![(vec![2, 2], vec![3, 3]), (vec![2, 4], vec![3, 5])];
        assert_eq!(corner_lookups(&[8, 8], &regions), (2, 8));
        // A region touching the origin skips the corners at -1.
        assert_eq!(corner_lookups(&[8, 8], &[(vec![0, 0], vec![3, 3])]), (0, 1));
    }
}
