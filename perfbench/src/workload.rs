//! The three named workloads, their seeded op streams, and the dense
//! mirror every reply is checked against.
//!
//! Nothing here uses an engine from the repository: the op generator is
//! a splitmix64 stream and the mirror is a plain row-major `Vec<i64>`,
//! so the oracle cannot share a bug with the code it checks.

/// Client connections (one tenant each) in every workload.
pub const CLIENTS: usize = 2;
/// Points per `BatchUpdate` (and per preload batch).
pub const BATCH_LEN: usize = 256;
/// Side of the `QueryMany` tile grid: 4×4 = 16 regions per request.
pub const TILE_GRID: usize = 4;

/// The automatic-checkpoint policy of `rps-serve` when it is started
/// without `--snapshot-*` flags, as the benchmark starts it: a
/// checkpoint every 8192 records or 1 MiB of WAL, two snapshots kept.
/// The binary sets it in its flag parser, so the traced replay, which
/// builds its durable tenants through `Registry` directly, states it here.
pub const DEFAULT_SNAPSHOT_POLICY: rps_storage::SnapshotPolicy = rps_storage::SnapshotPolicy {
    max_wal_bytes: Some(1 << 20),
    max_records: Some(8192),
    retain: 2,
};

/// Request type, in the order of [`Workload::mix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single range-sum `Query`.
    Query,
    /// 16-region `QueryMany`.
    QueryMany,
    /// Point `Update`.
    Update,
    /// 256-point `BatchUpdate`.
    BatchUpdate,
}

/// Every request type, indexable by `Kind as usize`.
pub const KINDS: [Kind; 4] = [
    Kind::Query,
    Kind::QueryMany,
    Kind::Update,
    Kind::BatchUpdate,
];

impl Kind {
    /// Short name used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::QueryMany => "query_many",
            Kind::Update => "update",
            Kind::BatchUpdate => "batch_update",
        }
    }
}

/// One workload: tenant shape, persistence and request mix.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Dimensions of each tenant's cube.
    pub dims: &'static [usize],
    /// Whether the server runs with `--data-dir` (WAL + snapshots).
    pub durable: bool,
    /// Weights, per 10 000 requests, of Query, QueryMany, Update and
    /// BatchUpdate. A workload without batches in its mix measures them
    /// in a separate probe phase, so their multi-millisecond stalls do
    /// not set its query tail.
    pub mix: [u32; 4],
    /// A single query's side is at most `dim / query_div`.
    pub query_div: usize,
    /// Per-mille of single queries that are points.
    pub point_queries: u32,
    /// Preload batches per tenant during set-up.
    pub preload_batches: usize,
}

/// The named workloads (BENCHMARK.json gives the rationale for each).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dashboard_read",
        dims: &[512, 512],
        durable: false,
        mix: [7500, 2000, 500, 0],
        query_div: 2,
        point_queries: 0,
        preload_batches: 32,
    },
    Workload {
        name: "durable_ingest",
        dims: &[1024, 1024],
        durable: true,
        mix: [2000, 100, 7400, 500],
        query_div: 16,
        point_queries: 0,
        preload_batches: 32,
    },
    Workload {
        name: "cube3d_mixed",
        dims: &[64, 64, 64],
        durable: false,
        mix: [7480, 20, 2500, 0],
        query_div: 2,
        point_queries: 500,
        preload_batches: 32,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An inclusive region `(lo, hi)`.
pub type Rect = (Vec<usize>, Vec<usize>);

/// One generated request.
#[derive(Debug, Clone)]
pub enum Op {
    /// Range sum over `[lo, hi]`.
    Query(Rect),
    /// Range sums over a tile grid.
    QueryMany(Vec<Rect>),
    /// Add `delta` at one cell.
    Update(Vec<usize>, i64),
    /// Atomic batch of point updates.
    Batch(Vec<(Vec<usize>, i64)>),
}

impl Op {
    /// The request type.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Query(_) => Kind::Query,
            Op::QueryMany(_) => Kind::QueryMany,
            Op::Update(..) => Kind::Update,
            Op::Batch(_) => Kind::BatchUpdate,
        }
    }
}

/// splitmix64: tiny, seedable, and independent of the repository.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Non-zero delta in `-100..=100`.
    pub fn delta(&mut self) -> i64 {
        let d = self.below(200) as i64 - 100;
        if d >= 0 {
            d + 1
        } else {
            d
        }
    }
}

/// Stream phases: each phase of a run draws from its own seeded stream,
/// so a phase's requests do not depend on how long an earlier phase ran.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Set-up preload batches.
    Preload,
    /// Untimed pass checking every reply.
    Check,
    /// The timed window (and the traced replay of it).
    Timed,
    /// Post-run region sample.
    Sample,
    /// Batch probes of workloads without batches in their mix.
    Probe,
}

/// The seeded request generator of one client.
#[derive(Debug, Clone)]
pub struct OpStream {
    w: &'static Workload,
    rng: Rng,
}

impl OpStream {
    /// The stream of `client` in `phase` for the run seed `seed`.
    pub fn new(w: &'static Workload, seed: u64, client: usize, phase: Phase) -> OpStream {
        OpStream::segment(w, seed, client, phase, 0)
    }

    /// The stream of one segment of a phase that runs in several.
    pub fn segment(
        w: &'static Workload,
        seed: u64,
        client: usize,
        phase: Phase,
        segment: usize,
    ) -> OpStream {
        let stream = (segment as u64) << 16 | (client as u64) << 8 | phase as u64;
        let state = Rng::new(Rng::new(seed).next_u64() ^ stream).next_u64();
        OpStream {
            w,
            rng: Rng::new(state),
        }
    }

    /// One random cell.
    pub fn point(&mut self) -> Vec<usize> {
        self.w.dims.iter().map(|&n| self.rng.below(n)).collect()
    }

    /// A rectangle whose sides are each at most `dim / div`.
    pub fn rect(&mut self, div: usize) -> Rect {
        let mut lo = Vec::with_capacity(self.w.dims.len());
        let mut hi = Vec::with_capacity(self.w.dims.len());
        for &n in self.w.dims {
            let len = 1 + self.rng.below((n / div).max(1));
            let start = self.rng.below(n - len + 1);
            lo.push(start);
            hi.push(start + len - 1);
        }
        (lo, hi)
    }

    /// A 4×4 grid of adjacent tiles over the first two dimensions
    /// (sharing corners), spanning one common range in the others.
    pub fn tile_grid(&mut self) -> Vec<Rect> {
        let dims = self.w.dims;
        let mut origin = Vec::with_capacity(dims.len());
        let mut side = Vec::with_capacity(dims.len());
        for (i, &n) in dims.iter().enumerate() {
            let tiles = if i < 2 { TILE_GRID } else { 1 };
            let s = 1 + self.rng.below((n / (2 * TILE_GRID)).max(1));
            origin.push(self.rng.below(n - s * tiles + 1));
            side.push(s);
        }
        let mut out = Vec::with_capacity(TILE_GRID * TILE_GRID);
        for ty in 0..TILE_GRID {
            for tx in 0..TILE_GRID {
                let mut lo = origin.clone();
                lo[0] += ty * side[0];
                lo[1] += tx * side[1];
                let hi = lo.iter().zip(&side).map(|(l, s)| l + s - 1).collect();
                out.push((lo, hi));
            }
        }
        out
    }

    /// A preload or `BatchUpdate` batch.
    pub fn batch(&mut self) -> Vec<(Vec<usize>, i64)> {
        (0..BATCH_LEN)
            .map(|_| {
                let p = self.point();
                (p, self.rng.delta())
            })
            .collect()
    }

    /// The next request of the workload's mix.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(10_000) as u32;
        let [q, qm, u, _] = self.w.mix;
        if roll < q {
            if (self.rng.below(1000) as u32) < self.w.point_queries {
                let p = self.point();
                Op::Query((p.clone(), p))
            } else {
                Op::Query(self.rect(self.w.query_div))
            }
        } else if roll < q + qm {
            Op::QueryMany(self.tile_grid())
        } else if roll < q + qm + u {
            let p = self.point();
            Op::Update(p, self.rng.delta())
        } else {
            Op::Batch(self.batch())
        }
    }
}

/// Dense row-major copy of one tenant's cube, updated with every
/// acknowledged write.
#[derive(Debug, Clone)]
pub struct Mirror {
    dims: Vec<usize>,
    cells: Vec<i64>,
    touched: Vec<bool>,
    total: i64,
}

impl Mirror {
    /// An all-zero cube.
    pub fn new(dims: &[usize]) -> Mirror {
        let n = dims.iter().product();
        Mirror {
            dims: dims.to_vec(),
            cells: vec![0; n],
            touched: vec![false; n],
            total: 0,
        }
    }

    fn linear(&self, c: &[usize]) -> usize {
        c.iter()
            .zip(&self.dims)
            .fold(0, |acc, (&x, &n)| acc * n + x)
    }

    /// Applies one acknowledged point update.
    pub fn add(&mut self, c: &[usize], delta: i64) {
        let i = self.linear(c);
        self.cells[i] += delta;
        self.touched[i] = true;
        self.total += delta;
    }

    /// Applies an acknowledged write op (queries are ignored).
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Update(c, d) => self.add(c, *d),
            Op::Batch(items) => {
                for (c, d) in items {
                    self.add(c, *d);
                }
            }
            Op::Query(_) | Op::QueryMany(_) => {}
        }
    }

    /// Sum over the whole cube.
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Sum over the inclusive region `[lo, hi]`.
    pub fn sum(&self, lo: &[usize], hi: &[usize]) -> i64 {
        self.sum_from(0, 0, lo, hi)
    }

    fn sum_from(&self, dim: usize, base: usize, lo: &[usize], hi: &[usize]) -> i64 {
        let n = self.dims[dim];
        if dim + 1 == self.dims.len() {
            let row = base * n;
            return self.cells[row + lo[dim]..=row + hi[dim]].iter().sum();
        }
        (lo[dim]..=hi[dim])
            .map(|x| self.sum_from(dim + 1, base * n + x, lo, hi))
            .sum()
    }

    /// Every cell an acknowledged write touched, in row-major order.
    pub fn touched_cells(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for (i, _) in self.touched.iter().enumerate().filter(|(_, &t)| t) {
            let mut c = vec![0; self.dims.len()];
            let mut rest = i;
            for (d, &n) in self.dims.iter().enumerate().rev() {
                c[d] = rest % n;
                rest /= n;
            }
            out.push(c);
        }
        out
    }

    /// The expected reply sums of a query op.
    pub fn expected(&self, op: &Op) -> Vec<i64> {
        match op {
            Op::Query((lo, hi)) => vec![self.sum(lo, hi)],
            Op::QueryMany(rects) => rects.iter().map(|(lo, hi)| self.sum(lo, hi)).collect(),
            Op::Update(..) | Op::Batch(_) => Vec::new(),
        }
    }

    /// The cube as a row-major vector.
    pub fn cells(&self) -> &[i64] {
        &self.cells
    }
}
