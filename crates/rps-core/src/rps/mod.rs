//! The relative prefix sum method (§3–4) — the paper's contribution.
//!
//! Two structures work in concert:
//!
//! * the **overlay** ([`Overlay`]) — per box, an anchor value (sum of all
//!   cells preceding the anchor) and border values (sums of the slabs
//!   between the origin-facing faces of the box and the cube edge);
//! * the **RP array** ([`relative_prefix_sums`]) — prefix sums *relative
//!   to* each box's anchor, independent across boxes.
//!
//! Any prefix region sum `Sum(A[0,…,0] : A[x])` is reconstructed "on the
//! fly" from the anchor, border values and 1 RP cell (1 + d + 1 reads at
//! the paper's d = 2; up to 2^d reads for d ≥ 3 — see
//! [`RpsEngine::prefix_sum`]); range queries then use the 2^d-corner
//! identity of Figure 3. Updates cascade only within one RP box plus a
//! controlled set of overlay cells: O(n^{d/2}) worst case at `k = √n`
//! for d ≤ 2 (Θ(n^{d−1}) for d ≥ 3; see DESIGN.md).

mod batch;
mod build;
mod grid;
mod invariants;
pub mod kernels;
mod overlay;
mod parallel;
mod scratch;
mod update;

pub(crate) use build::inverse_relative_prefix_sums_in_place;
pub use build::{
    build_overlay, build_overlay_from_p, inverse_relative_prefix_sums, relative_prefix_sums,
};
pub use grid::BoxGrid;
pub use invariants::Violation;
pub use overlay::Overlay;
pub(crate) use overlay::{overlay_prefix_part_src, OverlaySource};
pub(crate) use parallel::{effective_threads, slab_sizes};
pub use parallel::{prefix_sums_parallel, relative_prefix_sums_parallel};
pub use scratch::{with_scratch, KernelScratch, Scratch};
pub(crate) use update::{overlay_range_walk, overlay_update_walk, rp_range_box};
pub use update::{
    apply_overlay_update, apply_overlay_update_with, apply_range_update_with, apply_update,
    apply_update_with, for_each_rp_cascade_cell, for_each_stored_offset_geq,
    for_each_stored_offset_geq_with,
};

use ndcube::{NdCube, NdError, Region, Shape};

use crate::corners::range_sum_from_prefix_with;
use crate::engine::RangeSumEngine;
use crate::stats::{CostStats, StatsCell};
use crate::value::GroupValue;

/// Range-sum engine implementing the relative prefix sum method.
///
/// The README quick start, compiled (through the `rps` facade the same
/// code reads `use rps::{RangeSumEngine, RpsEngine};`):
///
/// ```
/// use rps_core::{RangeSumEngine, RpsEngine};
/// use ndcube::{NdCube, Region};
///
/// // SALES by CUSTOMER_AGE × DAY.
/// let sales = NdCube::from_fn(&[100, 365], |c| ((c[0] * 13 + c[1]) % 97) as i64)?;
/// let mut engine = RpsEngine::from_cube(&sales);          // k = ⌈√n⌉ boxes
///
/// // O(1) range sum: ages 37–52, days 275–364.
/// let q = Region::new(&[37, 275], &[52, 364])?;
/// let total = engine.query(&q)?;
///
/// // A new sale arrives: cheap in-place update, no cube rebuild.
/// engine.update(&[41, 364], 250)?;
/// assert_eq!(engine.query(&q)?, total + 250);
/// # Ok::<(), ndcube::NdError>(())
/// ```
///
/// An explicit box side (the `k` the paper's §4.3 optimizes) comes from
/// [`RpsEngine::from_cube_uniform`]:
///
/// ```
/// use rps_core::{RangeSumEngine, RpsEngine};
/// use ndcube::{NdCube, Region};
///
/// let cube = NdCube::from_fn(&[9, 9], |c| (c[0] + c[1]) as i64)?;
/// let mut engine = RpsEngine::from_cube_uniform(&cube, 3)?;
/// let region = Region::new(&[2, 2], &[7, 5])?;
/// let before = engine.query(&region)?;
/// engine.update(&[4, 4], 10)?;
/// assert_eq!(engine.query(&region)?, before + 10);
/// // O(1): the query read at most 2^d·(d+2) = 16 cells.
/// # Ok::<(), ndcube::NdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RpsEngine<T> {
    grid: BoxGrid,
    overlay: Overlay<T>,
    rp: NdCube<T>,
    stats: StatsCell,
    /// Reusable coordinate buffers for the `&mut self` update path;
    /// queries (`&self`) borrow the thread-local scratch instead.
    scratch: KernelScratch,
}

impl<T: GroupValue> RpsEngine<T> {
    /// Builds from a data cube with the paper-recommended box side
    /// `k = ⌈√n⌉` per dimension.
    pub fn from_cube(a: &NdCube<T>) -> Self {
        let grid = BoxGrid::with_sqrt_boxes(a.shape().clone());
        Self::from_cube_with_grid(a, grid)
    }

    /// Builds from a data cube with a uniform box side `k` in every
    /// dimension (the paper's tunable parameter, §4.3).
    pub fn from_cube_uniform(a: &NdCube<T>, k: usize) -> Result<Self, NdError> {
        // lint:allow(L5): construction path, runs once per engine
        let grid = BoxGrid::new(a.shape().clone(), &vec![k; a.ndim()])?;
        Ok(Self::from_cube_with_grid(a, grid))
    }

    /// Builds from a data cube with explicit per-dimension box sides.
    pub fn from_cube_with_box_size(a: &NdCube<T>, k: &[usize]) -> Result<Self, NdError> {
        let grid = BoxGrid::new(a.shape().clone(), k)?;
        Ok(Self::from_cube_with_grid(a, grid))
    }

    /// Assembles an engine from prebuilt parts (used by the parallel
    /// constructor).
    pub(crate) fn from_parts(grid: BoxGrid, overlay: Overlay<T>, rp: NdCube<T>) -> Self {
        RpsEngine {
            grid,
            overlay,
            rp,
            stats: StatsCell::new(),
            scratch: KernelScratch::new(),
        }
    }

    /// Replaces the engine's counters (used when a rebuild swaps the
    /// whole structure but history must be preserved).
    pub(crate) fn set_stats(&mut self, stats: StatsCell) {
        self.stats = stats;
    }

    /// Mutable overlay access for corruption-injection tests only.
    #[doc(hidden)]
    pub fn overlay_mut_for_tests(&mut self) -> &mut Overlay<T> {
        &mut self.overlay
    }

    /// Decomposes the engine into its structures. The versioned engine's
    /// writer takes ownership this way and re-chunks them into
    /// copy-on-write slabs.
    pub(crate) fn into_parts(self) -> (BoxGrid, Overlay<T>, NdCube<T>) {
        (self.grid, self.overlay, self.rp)
    }

    fn from_cube_with_grid(a: &NdCube<T>, grid: BoxGrid) -> Self {
        let rp = relative_prefix_sums(a, &grid);
        let overlay = build_overlay(a, &rp, grid.clone());
        RpsEngine {
            grid,
            overlay,
            rp,
            stats: StatsCell::new(),
            scratch: KernelScratch::new(),
        }
    }

    /// An all-zero cube with `k = ⌈√n⌉` boxes.
    pub fn zeros(dims: &[usize]) -> Result<Self, NdError> {
        let shape = Shape::new(dims)?;
        let grid = BoxGrid::with_sqrt_boxes(shape.clone());
        let rp = NdCube::filled(dims, T::zero())?;
        let overlay = Overlay::zeros(grid.clone());
        Ok(RpsEngine {
            grid,
            overlay,
            rp,
            stats: StatsCell::new(),
            scratch: KernelScratch::new(),
        })
    }

    /// An all-zero cube with a uniform box side.
    pub fn zeros_uniform(dims: &[usize], k: usize) -> Result<Self, NdError> {
        let shape = Shape::new(dims)?;
        // lint:allow(L5): construction path, runs once per engine
        let grid = BoxGrid::new(shape, &vec![k; dims.len()])?;
        let rp = NdCube::filled(dims, T::zero())?;
        let overlay = Overlay::zeros(grid.clone());
        Ok(RpsEngine {
            grid,
            overlay,
            rp,
            stats: StatsCell::new(),
            scratch: KernelScratch::new(),
        })
    }

    /// The box partition in use.
    pub fn grid(&self) -> &BoxGrid {
        &self.grid
    }

    /// The overlay structure (Figure 13's top-right table).
    pub fn overlay(&self) -> &Overlay<T> {
        &self.overlay
    }

    /// The RP array (Figure 10).
    pub fn rp_array(&self) -> &NdCube<T> {
        &self.rp
    }

    /// The prefix region sum `Sum(A[0,…,0] : A[x])`, reconstructed from
    /// the anchor value, border values and one RP cell (§3.2).
    ///
    /// For `d = 2` this is exactly the paper's rule: anchor + one border
    /// per dimension past the anchor plane + RP — at most `d + 2` reads.
    /// For `d ≥ 3` the paper defers the algorithm to its companion
    /// technical report (unavailable); with the paper's own value
    /// definitions (`anchor = P[α] − A[α]`,
    /// `border[p] = P[p] − RP[p] − anchor`) the *unique* correct
    /// combination — found by solving the inclusion–exclusion identity
    /// over all cell-position patterns, and verified here by property
    /// tests against brute force — is alternating:
    ///
    /// ```text
    /// P[x] = anchor + Σ_{∅≠S⊊D} (−1)^{d−1−|S|} · border[v_S] + RP[x]
    /// v_S[i] = x[i] for i ∈ S, anchor[i] otherwise
    /// ```
    ///
    /// which degenerates to the paper's rule at `d = 2` (all signs `+1`)
    /// and costs `2^d` reads per region sum — still O(1) in `n`. When `x`
    /// lies on an anchor plane in any dimension, the sum telescopes to
    /// `anchor + border[x] + RP[x]` (3 reads), which the implementation
    /// exploits.
    pub fn prefix_sum(&self, x: &[usize]) -> Result<T, NdError> {
        self.rp.shape().check(x)?;
        Ok(with_scratch(|s| {
            let (acc, reads) = self.prefix_kernel(x, &mut s.kernel);
            self.stats.reads(reads);
            acc
        }))
    }

    /// One prefix reconstruction with caller scratch: overlay part plus
    /// the in-box RP cell. Returns (value, cells read) — no stats side
    /// effects, so callers can coalesce many reconstructions into a
    /// single counter add.
    fn prefix_kernel(&self, x: &[usize], ks: &mut KernelScratch) -> (T, u64) {
        let (mut acc, mut reads) = overlay_prefix_part_with(&self.grid, &self.overlay, x, ks);

        // Plus the in-box relative prefix.
        let lin = self.rp.shape().linear_unchecked(x);
        acc.add_assign(self.rp.get_linear(lin));
        reads += 1;
        (acc, reads)
    }
}

/// The overlay's share of a prefix-sum reconstruction: anchor plus the
/// border combination for `x` (the paper's d = 2 rule; the alternating
/// corner sum for d ≥ 3 — see [`RpsEngine::prefix_sum`]). Returns the
/// accumulated value and the number of overlay cells read.
///
/// Compatibility wrapper over [`overlay_prefix_part_with`] using the
/// thread-local scratch.
pub fn overlay_prefix_part<T: GroupValue>(
    grid: &BoxGrid,
    overlay: &Overlay<T>,
    x: &[usize],
) -> (T, u64) {
    with_scratch(|s| overlay_prefix_part_with(grid, overlay, x, &mut s.kernel))
}

/// [`overlay_prefix_part`] with caller scratch — zero heap allocations.
///
/// Shared by the in-memory engine, the disk-resident engine
/// (`rps-storage`) and the versioned snapshots
/// ([`crate::versioned::VersionedEngine`]), which differ only in where
/// the cells come from — this is the subtlest arithmetic in the
/// workspace and it exists exactly once, in the storage-generic
/// `overlay_prefix_part_src` this delegates to with the flat overlay
/// layout.
pub fn overlay_prefix_part_with<T: GroupValue>(
    grid: &BoxGrid,
    overlay: &Overlay<T>,
    x: &[usize],
    ks: &mut KernelScratch,
) -> (T, u64) {
    overlay_prefix_part_src(grid, overlay, x, ks)
}

impl<T: GroupValue> RpsEngine<T> {
    /// Answers a batch of range queries, sharing reconstructed prefix
    /// sums across them.
    ///
    /// Dashboards issue many related queries (rolling windows, group-bys,
    /// cross-tabs) whose 2^d corner sets overlap heavily; caching the
    /// per-corner reconstruction turns `q` queries with `s` distinct
    /// corners into `s` reconstructions instead of `2^d·q`.
    pub fn query_many(&self, regions: &[Region]) -> Result<Vec<T>, NdError> {
        use std::collections::HashMap;
        for r in regions {
            self.rp.shape().check_region(r)?;
        }
        let d = self.rp.shape().ndim();
        // Pre-size for the worst case — every region contributing 2^d
        // distinct corners — so the cache never rehashes mid-batch.
        let cap = regions.len().saturating_mul(
            1usize
                .checked_shl(u32::try_from(d).unwrap_or(u32::MAX))
                .unwrap_or(usize::MAX),
        );
        // Corners are keyed by their linear cell index: the corner
        // enumerator only ever hands this callback in-bounds coordinates
        // (underflowed corners are suppressed upstream), so the linear
        // index is collision-free — and a `usize` key needs no per-corner
        // heap allocation, unlike the owned `Vec` keys this cache used to
        // clone (~4 allocs per region in BENCH_THROUGHPUT.json).
        let shape = self.rp.shape();
        let mut cache: HashMap<usize, T> = HashMap::with_capacity(cap);
        let mut total_reads = 0u64;
        let mut lookups = 0u64;
        let out = with_scratch(|s| {
            let (corner_buf, ks) = s.split();
            regions
                .iter()
                .map(|r| {
                    let sum = range_sum_from_prefix_with(r, corner_buf, |corner| {
                        lookups += 1;
                        // Entry API: one hash per corner whether hit or miss.
                        cache
                            .entry(shape.linear_unchecked(corner))
                            .or_insert_with(|| {
                                let (v, reads) = self.prefix_kernel(corner, ks);
                                total_reads += reads;
                                v
                            })
                            .clone()
                    });
                    self.stats.query();
                    sum
                })
                .collect()
        });
        self.stats.reads(total_reads);
        // Coalesced observability: one add per counter per batch. Misses
        // are exactly the distinct corners the cache ended up owning.
        let m = crate::obs::engine(crate::obs::EngineKind::Rps);
        m.queries
            .add(u64::try_from(regions.len()).unwrap_or(u64::MAX));
        let misses = u64::try_from(cache.len()).unwrap_or(u64::MAX);
        let core = crate::obs::core();
        core.query_many_corner_misses.add(misses);
        core.query_many_corner_hits
            .add(lookups.saturating_sub(misses));
        Ok(out)
    }
}

impl<T: GroupValue> RangeSumEngine<T> for RpsEngine<T> {
    fn name(&self) -> &'static str {
        "relative-prefix-sum"
    }

    fn shape(&self) -> &Shape {
        self.rp.shape()
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        self.rp.shape().check_region(region)?;
        let m = crate::obs::engine(crate::obs::EngineKind::Rps);
        m.queries.inc();
        let _span = rps_obs::Span::enter("rps.query", &m.query_ns);
        let sum = with_scratch(|s| {
            let (corner_buf, ks) = s.split();
            let mut reads = 0u64;
            let sum = range_sum_from_prefix_with(region, corner_buf, |corner| {
                let (v, r) = self.prefix_kernel(corner, ks);
                reads += r;
                v
            });
            // One atomic add for the whole query, not one per corner.
            self.stats.reads(reads);
            sum
        });
        self.stats.query();
        Ok(sum)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.rp.shape().check(coords)?;
        let m = crate::obs::engine(crate::obs::EngineKind::Rps);
        m.updates.inc();
        let _span = rps_obs::Span::enter("rps.update", &m.update_ns);
        if delta.is_zero() {
            // Adding the identity touches nothing; skip the cascades.
            self.stats.update();
            return Ok(());
        }
        let writes = apply_update_with(
            &self.grid,
            &mut self.overlay,
            &mut self.rp,
            coords,
            &delta,
            &mut self.scratch,
        );
        // One atomic add for the whole update, not one per cascade half.
        self.stats.writes(writes);
        self.stats.update();
        Ok(())
    }

    // Fast path: per-box delta decomposition — each box's RP rows become
    // one ramp + one constant run, overlay cells get counting multiples of
    // the delta — instead of |R| full point-update cascades.
    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        self.rp.shape().check_region(region)?;
        let core = crate::obs::core();
        core.range_update_fast.inc();
        core.range_update_cells
            .add(u64::try_from(region.cell_count()).unwrap_or(u64::MAX));
        let _span = rps_obs::Span::enter("rps.range_update", &core.range_update_ns);
        if delta.is_zero() {
            self.stats.update();
            return Ok(());
        }
        let writes = apply_range_update_with(
            &self.grid,
            &mut self.overlay,
            &mut self.rp,
            region,
            &delta,
            &mut self.scratch,
        );
        self.stats.writes(writes);
        self.stats.update();
        Ok(())
    }

    fn stats(&self) -> CostStats {
        self.stats.get()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }

    fn storage_cells(&self) -> usize {
        self.rp.len() + self.overlay.storage_cells()
    }
}

/// The original allocating `overlay_prefix_part`, kept verbatim as the
/// oracle the scratch kernel is property-tested against.
#[cfg(test)]
fn oracle_overlay_prefix_part<T: GroupValue>(
    grid: &BoxGrid,
    overlay: &Overlay<T>,
    x: &[usize],
) -> (T, u64) {
    let d = x.len();
    let b = grid.box_index_of(x);
    let box_lin = overlay.box_linear(&b);
    let anchor = grid.anchor_of(&b);
    let extents = grid.extents_of(&b);

    let mut acc = overlay.get(overlay.anchor_index(box_lin)).clone();
    let mut reads = 1u64;

    let offsets: Vec<usize> = x.iter().zip(&anchor).map(|(&xi, &ai)| xi - ai).collect();

    if offsets.contains(&0) {
        if offsets.iter().any(|&e| e != 0) {
            let idx = overlay
                .cell_index(box_lin, &offsets, &extents)
                .expect("zero-offset cells are stored");
            acc.add_assign(overlay.get(idx));
            reads += 1;
        }
    } else {
        let mut e = vec![0usize; d];
        for mask in 1u64..((1u64 << d) - 1) {
            for (i, (ei, &off)) in e.iter_mut().zip(&offsets).enumerate() {
                *ei = if mask & (1 << i) != 0 { off } else { 0 };
            }
            let idx = overlay
                .cell_index(box_lin, &e, &extents)
                .expect("corner cells have a zero offset");
            let term = overlay.get(idx);
            let s = mask.count_ones() as usize;
            if (d - 1 - s).is_multiple_of(2) {
                acc.add_assign(term);
            } else {
                acc.sub_assign(term);
            }
            reads += 1;
        }
    }
    (acc, reads)
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Random geometry + cube contents, for d ∈ 1..=4.
    fn engine_case() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, Vec<i64>)> {
        (1usize..=4)
            .prop_flat_map(|d| {
                (
                    proptest::collection::vec(1usize..=6, d),
                    proptest::collection::vec(1usize..=4, d),
                )
            })
            .prop_flat_map(|(dims, ks)| {
                let len: usize = dims.iter().product();
                (
                    Just(dims),
                    Just(ks),
                    proptest::collection::vec(-100i64..100, len..=len),
                )
            })
    }

    proptest! {
        /// The scratch prefix kernel agrees with the original allocating
        /// path — value AND read count — at every coordinate.
        #[test]
        fn scratch_prefix_matches_oracle((dims, ks, data) in engine_case()) {
            let cube = NdCube::from_vec(&dims, data).unwrap();
            let engine = RpsEngine::from_cube_with_box_size(&cube, &ks).unwrap();
            let mut scratch = KernelScratch::new();
            for x in &cube.shape().full_region() {
                let (v_new, r_new) =
                    overlay_prefix_part_with(&engine.grid, &engine.overlay, &x, &mut scratch);
                let (v_old, r_old) =
                    oracle_overlay_prefix_part(&engine.grid, &engine.overlay, &x);
                prop_assert_eq!(v_new, v_old, "value at {:?}", &x);
                prop_assert_eq!(r_new, r_old, "reads at {:?}", &x);
            }
        }

        /// End to end: queries through the scratch path match a naive
        /// engine on random cubes.
        #[test]
        fn scratch_queries_match_naive((dims, ks, data) in engine_case()) {
            let cube = NdCube::from_vec(&dims, data).unwrap();
            let engine = RpsEngine::from_cube_with_box_size(&cube, &ks).unwrap();
            let naive = crate::naive::NaiveEngine::from_cube(cube);
            let full = engine.shape().full_region();
            prop_assert_eq!(
                engine.query(&full).unwrap(),
                naive.query(&full).unwrap()
            );
            for x in &full {
                let r = Region::new(&vec![0; x.len()], &x).unwrap();
                prop_assert_eq!(
                    engine.query(&r).unwrap(),
                    naive.query(&r).unwrap(),
                    "prefix region to {:?}", &x
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{paper_array_a, PAPER_BOX_SIZE};

    fn paper_engine() -> RpsEngine<i64> {
        RpsEngine::from_cube_uniform(&paper_array_a(), PAPER_BOX_SIZE).unwrap()
    }

    #[test]
    fn section33_complete_region_sum() {
        // "The complete region sum for A[0,0]:A[7,5] is 86+51+8+23 = 168."
        let e = paper_engine();
        assert_eq!(e.prefix_sum(&[7, 5]).unwrap(), 168);
    }

    #[test]
    fn prefix_sums_match_p_array_everywhere() {
        let e = paper_engine();
        let p = crate::testdata::paper_array_p();
        for r in 0..9 {
            for c in 0..9 {
                assert_eq!(e.prefix_sum(&[r, c]).unwrap(), p.get(&[r, c]), "P[{r},{c}]");
            }
        }
    }

    #[test]
    fn query_cost_at_most_2d_times_d_plus_2() {
        let e = paper_engine();
        e.reset_stats();
        let r = Region::new(&[2, 3], &[7, 5]).unwrap();
        e.query(&r).unwrap();
        // d = 2: ≤ 2² corners × (1 anchor + 2 borders + 1 RP) = 16 reads.
        assert!(
            e.stats().cell_reads <= 16,
            "reads = {}",
            e.stats().cell_reads
        );
        assert_eq!(e.stats().queries, 1);
    }

    #[test]
    fn query_reads_counted_once_per_operation() {
        // Coalesced stats (one atomic add per query) must report the same
        // totals as the old per-cell accounting: the paper query [2,3]..[7,5]
        // touches exactly 4 corners × 4 reads = 16 cells.
        let e = paper_engine();
        e.reset_stats();
        let r = Region::new(&[2, 3], &[7, 5]).unwrap();
        e.query(&r).unwrap();
        assert_eq!(e.stats().cell_reads, 16);
    }

    #[test]
    fn queries_match_naive_on_paper_array() {
        let a = paper_array_a();
        let e = paper_engine();
        for (lo, hi) in [
            ([0, 0], [8, 8]),
            ([2, 3], [7, 5]),
            ([4, 4], [4, 4]),
            ([0, 5], [3, 8]),
            ([6, 6], [8, 8]),
        ] {
            let r = Region::new(&lo, &hi).unwrap();
            let brute: i64 = a
                .shape()
                .linear_region_iter(&r)
                .map(|l| *a.get_linear(l))
                .sum();
            assert_eq!(e.query(&r).unwrap(), brute, "region {r:?}");
        }
    }

    #[test]
    fn figure15_update_touches_16_cells() {
        // "the total update cost … is sixteen cells (twelve overlay cells
        //  and four cells in RP), compared to sixty four … (Figure 4)."
        let mut e = paper_engine();
        e.reset_stats();
        e.update(&[1, 1], 1).unwrap();
        assert_eq!(e.stats().cell_writes, 16);
    }

    #[test]
    fn figure15_exact_cells_changed() {
        let before = paper_engine();
        let mut after = paper_engine();
        after.update(&[1, 1], 1).unwrap();

        // RP: exactly the four cells [1..=2]×[1..=2] change by +1.
        for r in 0..9 {
            for c in 0..9 {
                let expect = before.rp_array().get(&[r, c])
                    + i64::from((1..=2).contains(&r) && (1..=2).contains(&c));
                assert_eq!(after.rp_array().get(&[r, c]), expect, "RP[{r},{c}]");
            }
        }

        // Overlay: the twelve cells named in §4.2 change by +1.
        let changed: std::collections::HashSet<(usize, usize)> = [
            (1, 3),
            (2, 3),
            (1, 6),
            (2, 6), // borders right of the change
            (3, 1),
            (3, 2),
            (6, 1),
            (6, 2), // borders below the change
            (3, 3),
            (3, 6),
            (6, 3),
            (6, 6), // interior anchors
        ]
        .into_iter()
        .collect();
        for (r, c, v) in crate::testdata::paper_overlay_cells() {
            let expect = v + i64::from(changed.contains(&(r, c)));
            assert_eq!(
                after.overlay().value_at(&[r, c]),
                Some(&expect),
                "overlay ({r},{c})"
            );
        }
    }

    #[test]
    fn update_under_anchor_touches_only_anchors() {
        // §4.2: "when an update occurs to a cell directly under an anchor
        // cell, e.g. cell [0,0] … only updating anchor cells in other
        // overlay boxes; no border values would then need to be changed."
        let mut e = paper_engine();
        e.reset_stats();
        e.update(&[0, 0], 1).unwrap();
        // RP: whole box (0,0) = 9 cells; overlay: 8 other anchors.
        assert_eq!(e.stats().cell_writes, 9 + 8);
        for (r, c, v) in crate::testdata::paper_overlay_cells() {
            let is_anchor = r % 3 == 0 && c % 3 == 0;
            let not_own_box = !(r == 0 && c == 0);
            let expect = v + i64::from(is_anchor && not_own_box);
            assert_eq!(e.overlay().value_at(&[r, c]), Some(&expect), "({r},{c})");
        }
    }

    #[test]
    fn updates_preserve_query_answers() {
        let a = paper_array_a();
        let mut rps = paper_engine();
        let mut naive = crate::naive::NaiveEngine::from_cube(a);
        let updates = [
            ([1usize, 1usize], 1i64),
            ([0, 0], 5),
            ([8, 8], -3),
            ([4, 5], 10),
            ([7, 2], 2),
        ];
        for (c, delta) in updates {
            rps.update(&c, delta).unwrap();
            naive.update(&c, delta).unwrap();
        }
        for (lo, hi) in [
            ([0, 0], [8, 8]),
            ([1, 1], [7, 7]),
            ([0, 4], [5, 8]),
            ([8, 0], [8, 8]),
        ] {
            let r = Region::new(&lo, &hi).unwrap();
            assert_eq!(rps.query(&r).unwrap(), naive.query(&r).unwrap(), "{r:?}");
        }
    }

    #[test]
    fn incremental_equals_rebuild() {
        let mut a = paper_array_a();
        let mut e = paper_engine();
        e.update(&[5, 5], 7).unwrap();
        e.update(&[0, 3], -2).unwrap();
        a.set(&[5, 5], a.get(&[5, 5]) + 7);
        a.set(&[0, 3], a.get(&[0, 3]) - 2);
        let rebuilt = RpsEngine::from_cube_uniform(&a, PAPER_BOX_SIZE).unwrap();
        assert_eq!(e.rp_array(), rebuilt.rp_array());
        for r in 0..9 {
            for c in 0..9 {
                assert_eq!(
                    e.overlay().value_at(&[r, c]).is_some(),
                    rebuilt.overlay().value_at(&[r, c]).is_some()
                );
                if let (Some(x), Some(y)) = (
                    e.overlay().value_at(&[r, c]),
                    rebuilt.overlay().value_at(&[r, c]),
                ) {
                    assert_eq!(x, y, "overlay ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn query_many_matches_individual_queries() {
        let e = paper_engine();
        let regions: Vec<Region> = vec![
            Region::new(&[0, 0], &[8, 8]).unwrap(),
            Region::new(&[2, 3], &[7, 5]).unwrap(),
            Region::new(&[2, 3], &[7, 5]).unwrap(), // duplicate
            Region::new(&[0, 3], &[7, 5]).unwrap(), // shares corners
            Region::point(&[4, 4]).unwrap(),
        ];
        let batch = e.query_many(&regions).unwrap();
        let individual: Vec<i64> = regions.iter().map(|r| e.query(r).unwrap()).collect();
        assert_eq!(batch, individual);
    }

    #[test]
    fn query_many_caches_shared_corners() {
        // Rolling windows over one row share half their corners; the
        // batch path must read fewer cells than the individual path.
        let e = paper_engine();
        let windows: Vec<Region> = (0..6)
            .map(|s| Region::new(&[3, s], &[5, s + 3]).unwrap())
            .collect();
        e.reset_stats();
        e.query_many(&windows).unwrap();
        let batch_reads = e.stats().cell_reads;
        e.reset_stats();
        for w in &windows {
            e.query(w).unwrap();
        }
        let individual_reads = e.stats().cell_reads;
        assert!(
            batch_reads < individual_reads,
            "batch {batch_reads} vs individual {individual_reads}"
        );
    }

    #[test]
    fn zero_delta_update_is_free() {
        let mut e = paper_engine();
        e.reset_stats();
        e.update(&[1, 1], 0).unwrap();
        assert_eq!(e.stats().cell_writes, 0);
        assert_eq!(e.stats().updates, 1);
        assert_eq!(e.total(), 290);
    }

    #[test]
    fn storage_accounting() {
        let e = paper_engine();
        // RP (81) + overlay (9 boxes × 5) = 126.
        assert_eq!(e.storage_cells(), 81 + 45);
    }

    #[test]
    fn zeros_engine_consistent() {
        let mut e = RpsEngine::<i64>::zeros(&[10, 10]).unwrap();
        assert_eq!(e.total(), 0);
        e.update(&[3, 7], 5).unwrap();
        e.update(&[9, 9], 2).unwrap();
        assert_eq!(e.total(), 7);
        assert_eq!(e.query(&Region::new(&[0, 0], &[3, 7]).unwrap()).unwrap(), 5);
        assert_eq!(e.cell(&[9, 9]).unwrap(), 2);
    }

    #[test]
    fn three_dimensional_engine() {
        let a = NdCube::from_fn(&[6, 6, 6], |c| (c[0] * 36 + c[1] * 6 + c[2]) as i64).unwrap();
        let mut e = RpsEngine::from_cube_uniform(&a, 2).unwrap();
        let r = Region::new(&[1, 2, 0], &[4, 5, 3]).unwrap();
        let brute: i64 = a
            .shape()
            .linear_region_iter(&r)
            .map(|l| *a.get_linear(l))
            .sum();
        assert_eq!(e.query(&r).unwrap(), brute);
        e.update(&[2, 2, 2], 100).unwrap();
        assert_eq!(e.query(&r).unwrap(), brute + 100);
    }

    #[test]
    fn ragged_engine_matches_naive() {
        let a = NdCube::from_fn(&[7, 10], |c| (3 * c[0] + c[1] * c[1]) as i64).unwrap();
        let e = RpsEngine::from_cube_uniform(&a, 3).unwrap();
        let naive = crate::naive::NaiveEngine::from_cube(a);
        for (lo, hi) in [
            ([0, 0], [6, 9]),
            ([6, 9], [6, 9]),
            ([2, 4], [6, 8]),
            ([0, 9], [6, 9]),
        ] {
            let r = Region::new(&lo, &hi).unwrap();
            assert_eq!(e.query(&r).unwrap(), naive.query(&r).unwrap(), "{r:?}");
        }
    }
}
