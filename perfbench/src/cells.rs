//! The paper's cost unit, cells touched per operation, counted on a
//! workload's seeded stream with `RpsEngine`'s own `Stats`, and the §4.3
//! worst-case bounds `rps-analysis` gives for the same shape.
//!
//! The counts involve no clock and no thread, so one seed always gives
//! the same numbers; the benchmark's tests pin that and the bounds.

use ndcube::Region;
use rps_analysis::CostModel;
use rps_core::{RangeSumEngine, RpsEngine};

use crate::workload::{Op, OpStream, Phase, Workload, CLIENTS};

/// Cells read per single `Query` and written per point `Update`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCounts {
    /// Queries counted.
    pub queries: u64,
    /// Mean cells read per query.
    pub reads_per_query: f64,
    /// Most cells one query read.
    pub max_reads: u64,
    /// Point updates counted.
    pub updates: u64,
    /// Mean cells written per update.
    pub writes_per_update: f64,
    /// Most cells one update wrote.
    pub max_writes: u64,
}

/// Counts cells over the first `ops` requests of every client's timed
/// stream (after the preload), each tenant on its own `RpsEngine`.
pub fn count(w: &'static Workload, seed: u64, ops: usize) -> CellCounts {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for client in 0..CLIENTS {
        let mut engine = RpsEngine::<i64>::zeros(w.dims).expect("workload dims are valid");
        let mut preload = OpStream::new(w, seed, client, Phase::Preload);
        for _ in 0..w.preload_batches {
            for (c, d) in preload.batch() {
                engine.update(&c, d).expect("generated cells are in bounds");
            }
        }
        let mut stream = OpStream::new(w, seed, client, Phase::Timed);
        for _ in 0..ops {
            let before = engine.stats();
            match stream.next_op() {
                Op::Query((lo, hi)) => {
                    let region = Region::new(&lo, &hi).expect("generated regions are valid");
                    engine
                        .query(&region)
                        .expect("generated regions are in bounds");
                    reads.push(engine.stats().cell_reads - before.cell_reads);
                }
                Op::Update(c, d) => {
                    engine.update(&c, d).expect("generated cells are in bounds");
                    writes.push(engine.stats().cell_writes - before.cell_writes);
                }
                Op::QueryMany(_) | Op::Batch(_) => {}
            }
        }
    }
    CellCounts {
        queries: reads.len() as u64,
        reads_per_query: mean(&reads),
        max_reads: reads.iter().copied().max().unwrap_or(0),
        updates: writes.len() as u64,
        writes_per_update: mean(&writes),
        max_writes: writes.iter().copied().max().unwrap_or(0),
    }
}

/// Mean of a count sample (NaN when empty).
fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len() as f64
}

/// The §4.3 worst-case cells per query and per update for the
/// workload's shape: `CostModel::rps(n, d, k)` with the box side `k`
/// the engine picks (`⌈√n⌉`). Every workload is a hypercube.
pub fn bounds(w: &Workload) -> CostModel {
    let n = w.dims[0];
    let k = RpsEngine::<i64>::zeros(w.dims)
        .expect("workload dims are valid")
        .grid()
        .box_size()[0];
    CostModel::rps(n as f64, w.dims.len() as u32, k as f64)
}
