//! The common interface of every range-sum method.

use ndcube::{NdCube, NdError, Region, Shape};

use crate::stats::CostStats;
use crate::value::GroupValue;

/// A dynamic range-sum structure over a dense data cube.
///
/// Every method in the paper — naive, prefix sum, relative prefix sum —
/// plus the Fenwick extension implements this trait, so workloads, tests,
/// and benches can drive them interchangeably.
///
/// Semantics: the engine represents a conceptual cube `A`; `query` returns
/// `⊕` over all cells of `A` inside the (inclusive) region; `update` adds a
/// delta to a single cell of `A`.
pub trait RangeSumEngine<T: GroupValue> {
    /// Human-readable method name ("naive", "prefix-sum", …).
    fn name(&self) -> &'static str;

    /// The shape of the conceptual cube `A`.
    fn shape(&self) -> &Shape;

    /// Range-sum over an inclusive region.
    fn query(&self, region: &Region) -> Result<T, NdError>;

    /// Adds `delta` to cell `coords` of the conceptual cube.
    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError>;

    /// Adds `delta` to **every** cell of the (inclusive) region — the bulk
    /// form real OLAP write streams use when a whole sub-array is adjusted
    /// at once (a price change over a date range, a reclassified slice).
    ///
    /// Default: one point update per cell, so every implementor is
    /// conformant by construction. Engines with a cheaper bulk path
    /// override it; the conformance suite pins every override bit-identical
    /// to this per-cell loop.
    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        self.shape().check_region(region)?;
        let m = crate::obs::core();
        m.range_update_slow.inc();
        m.range_update_cells
            .add(u64::try_from(region.cell_count()).unwrap_or(u64::MAX));
        if delta.is_zero() {
            return Ok(());
        }
        for coords in region.iter() {
            self.update(&coords, delta.clone())?;
        }
        Ok(())
    }

    /// Adds each `(coords, delta)` of `updates` — the unit a server's
    /// batch request carries and a write-ahead log appends as one run.
    ///
    /// Default: every coordinate is checked before the first update, then
    /// one [`Self::update`] per record, so a batch that returns an error
    /// changed nothing. Engines that apply a batch as one unit (one
    /// published version for [`crate::VersionedEngine`]) override it.
    fn update_batch(&mut self, updates: &[(Vec<usize>, T)]) -> Result<(), NdError> {
        for (coords, _) in updates {
            self.shape().check(coords)?;
        }
        for (coords, delta) in updates {
            self.update(coords, delta.clone())?;
        }
        Ok(())
    }

    /// Running cell-access counters.
    fn stats(&self) -> CostStats;

    /// Resets the counters (the structure itself is untouched).
    fn reset_stats(&self);

    /// Cells of storage allocated by this engine across all of its backing
    /// structures (used for the Figure 16 style storage accounting).
    fn storage_cells(&self) -> usize;

    /// The current value of one cell of `A`.
    ///
    /// Default: a point-region query, which every method answers in O(1)
    /// (or O(n^d) for naive, where it is a direct read anyway).
    fn cell(&self, coords: &[usize]) -> Result<T, NdError> {
        self.query(&Region::point(coords)?)
    }

    /// Overwrites a cell with `value` (the paper's "given any new value for
    /// a cell" update model), implemented as a read plus a delta update.
    fn set(&mut self, coords: &[usize], value: T) -> Result<(), NdError> {
        let old = self.cell(coords)?;
        self.update(coords, value.sub(&old))
    }

    /// Sum over the whole cube.
    fn total(&self) -> T {
        self.query(&self.shape().full_region())
            // lint:allow(L2): the engine's own full region always passes its own check
            .expect("full region is always valid")
    }

    /// Materializes the conceptual cube `A` cell by cell. Intended for
    /// tests and debugging (O(N) point queries).
    fn materialize(&self) -> NdCube<T> {
        let shape = self.shape().clone();
        // lint:allow(L2): from_fn yields only in-bounds coordinates of the engine's own shape
        NdCube::from_fn(shape.dims(), |c| self.cell(c).expect("in-bounds cell"))
            // lint:allow(L2): dims come from an existing valid shape
            .expect("valid shape")
    }
}

#[cfg(test)]
mod tests {
    // The trait itself is exercised through its implementors; shared
    // behavioural tests live in `tests/engine_conformance.rs`.
}
