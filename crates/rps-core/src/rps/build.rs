//! Construction of the RP array and overlay from a data cube (§3.1–3.2).

use ndcube::NdCube;

use crate::prefix::prefix_sums_in_place;
use crate::rps::grid::BoxGrid;
use crate::rps::kernels;
use crate::rps::overlay::Overlay;
use crate::value::GroupValue;

/// Computes the relative-prefix array `RP` of `a`: per overlay box, the
/// prefix sums relative to the box's anchor (Figure 10).
///
/// O(d·N): one running-sum sweep per dimension that simply *stops
/// accumulating* at box boundaries.
pub fn relative_prefix_sums<T: GroupValue>(a: &NdCube<T>, grid: &BoxGrid) -> NdCube<T> {
    let mut rp = a.clone();
    let shape = a.shape().clone();
    for dim in 0..shape.ndim() {
        // A cell accumulates its predecessor along `dim` only when it is
        // not the first cell of its box in that dimension: regions of RP
        // are independent across boxes (§3.2).
        crate::prefix::sweep_dim_forward(
            rp.as_mut_slice(),
            shape.strides()[dim],
            shape.dim(dim),
            grid.box_size()[dim],
        );
    }
    rp
}

/// Inverts [`relative_prefix_sums`]: recovers the cube `A` from its RP
/// array — O(d·N). Reverse sweeps so each cell's predecessor is still in
/// summed state when subtracted.
pub fn inverse_relative_prefix_sums<T: GroupValue>(rp: &NdCube<T>, grid: &BoxGrid) -> NdCube<T> {
    let mut a = rp.clone();
    inverse_relative_prefix_sums_in_place(a.as_mut_slice(), grid);
    a
}

/// [`inverse_relative_prefix_sums`] over a caller-owned row-major RP
/// buffer of `grid`'s cube shape, so a caller that already assembled
/// the buffer pays no second copy.
pub(crate) fn inverse_relative_prefix_sums_in_place<T: GroupValue>(data: &mut [T], grid: &BoxGrid) {
    let shape = grid.cube_shape();
    for dim in (0..shape.ndim()).rev() {
        crate::prefix::sweep_dim_backward(
            data,
            shape.strides()[dim],
            shape.dim(dim),
            grid.box_size()[dim],
        );
    }
}

/// Builds the overlay (anchors + borders) for `a`.
///
/// Uses the identities of §3.3 against a transient full prefix array `P`
/// (O(N) temporary, discarded after construction):
///
/// * anchor(α)  = `P[α] − A[α]`
/// * border(p)  = `P[p] − RP[p] − anchor`
pub fn build_overlay<T: GroupValue>(a: &NdCube<T>, rp: &NdCube<T>, grid: BoxGrid) -> Overlay<T> {
    let mut p = a.clone();
    prefix_sums_in_place(&mut p);
    build_overlay_from_p(a, &p, rp, grid)
}

/// [`build_overlay`] with a caller-supplied prefix array `P` (e.g. one
/// computed by the parallel sweeps).
///
/// Run-structured: stored slots are numbered in "first zero dimension"
/// groups, and within every group `z < d−1` the last dimension is the
/// fastest mixed-radix digit — so `extents[d−1]` consecutive slots map to
/// `extents[d−1]` consecutive cube cells, and the whole run is one call
/// of the fused lane kernel [`kernels::border_from_p_run`]
/// (`border = P − RP − anchor`, §3.3). Only the final group (`z = d−1`,
/// whose cells sit a full row apart in the cube) is handled cell-wise.
#[allow(clippy::too_many_lines)] // one arm per slot group; splitting obscures the odometer walk
pub fn build_overlay_from_p<T: GroupValue>(
    a: &NdCube<T>,
    p: &NdCube<T>,
    rp: &NdCube<T>,
    grid: BoxGrid,
) -> Overlay<T> {
    // Keep an owned grid handle so the box walk can read geometry while
    // the closure mutates overlay cells (no per-box Vec materialization).
    let walk_grid = grid.clone();
    let mut overlay = Overlay::zeros(grid);
    let grid_region = walk_grid.grid_shape().full_region();
    let shape = a.shape().clone();
    let d = shape.ndim();
    let p_data = p.as_slice();
    let rp_data = rp.as_slice();
    let a_data = a.as_slice();
    let grid_shape = walk_grid.grid_shape().clone();
    let (box_offsets, cells) = overlay.parts_mut();

    let mut e = vec![0usize; d];
    let mut coords = vec![0usize; d];
    let mut lane_runs = 0u64;
    ndcube::RegionIter::for_each_coords(&grid_region, |b| {
        let box_lin = grid_shape.linear_unchecked(b);
        let cell_base = box_offsets[box_lin];
        let anchor = walk_grid.anchor_of(b);
        let extents = walk_grid.extents_of(b);
        let t_last = extents[d - 1];

        let a_lin = shape.linear_unchecked(&anchor);
        let anchor_val = p_data[a_lin].sub(&a_data[a_lin]);

        for z in 0..d {
            if z + 1 < d {
                // Group z < d−1: runs of t_last slots along the last axis.
                // Outer digits walk dims i ∉ {z, d−1}, starting at 1 for
                // i < z (z is the FIRST zero) and 0 for i > z.
                let mut empty = false;
                for (i, ei) in e.iter_mut().enumerate() {
                    *ei = usize::from(i < z);
                    if i < z && extents[i] < 2 {
                        empty = true; // no offset ≥ 1 fits: group is empty
                    }
                }
                if empty {
                    continue;
                }
                'runs: loop {
                    let slot0 = BoxGrid::slot_of(&e, &extents)
                        // lint:allow(L2): e[z] = 0, so the offset is stored by construction
                        .expect("group enumeration yields stored slots");
                    #[cfg(debug_assertions)]
                    {
                        // The run-contiguity invariant this walk rests on.
                        e[d - 1] = t_last - 1;
                        debug_assert_eq!(BoxGrid::slot_of(&e, &extents), Some(slot0 + t_last - 1));
                        e[d - 1] = 0;
                    }
                    for (ci, (&ai, &ei)) in coords.iter_mut().zip(anchor.iter().zip(e.iter())) {
                        *ci = ai + ei;
                    }
                    let lin0 = shape.linear_unchecked(&coords);
                    let lo = cell_base + slot0;
                    kernels::border_from_p_run(
                        &mut cells[lo..lo + t_last],
                        &p_data[lin0..lin0 + t_last],
                        &rp_data[lin0..lin0 + t_last],
                        &anchor_val,
                    );
                    lane_runs += u64::from(kernels::is_lane_run(t_last));
                    // Advance the outer odometer (dims except z and d−1).
                    let mut dim = d - 1;
                    loop {
                        if dim == 0 {
                            break 'runs;
                        }
                        dim -= 1;
                        if dim == z {
                            continue;
                        }
                        if e[dim] + 1 < extents[dim] {
                            e[dim] += 1;
                            for (j, ej) in e.iter_mut().enumerate().take(d - 1).skip(dim + 1) {
                                if j != z {
                                    *ej = usize::from(j < z);
                                }
                            }
                            break;
                        }
                        e[dim] = usize::from(dim < z);
                    }
                }
            } else {
                // Group z = d−1: e_last = 0, every earlier offset ≥ 1 —
                // the cells sit a full cube row apart, handled cell-wise.
                // (At d = 1 this group is exactly the anchor, written
                // below.)
                let mut empty = d == 1;
                for (i, ei) in e.iter_mut().enumerate().take(d - 1) {
                    *ei = 1;
                    if extents[i] < 2 {
                        empty = true;
                    }
                }
                e[d - 1] = 0;
                if empty {
                    continue;
                }
                'cells: loop {
                    let slot = BoxGrid::slot_of(&e, &extents)
                        // lint:allow(L2): e[d−1] = 0, so the offset is stored by construction
                        .expect("group enumeration yields stored slots");
                    for (ci, (&ai, &ei)) in coords.iter_mut().zip(anchor.iter().zip(e.iter())) {
                        *ci = ai + ei;
                    }
                    let lin = shape.linear_unchecked(&coords);
                    cells[cell_base + slot] = p_data[lin].sub(&rp_data[lin]).sub(&anchor_val);
                    let mut dim = d - 1;
                    loop {
                        if dim == 0 {
                            break 'cells;
                        }
                        dim -= 1;
                        if e[dim] + 1 < extents[dim] {
                            e[dim] += 1;
                            for ej in e.iter_mut().take(d - 1).skip(dim + 1) {
                                *ej = 1;
                            }
                            break;
                        }
                        e[dim] = 1;
                    }
                }
            }
        }
        // The anchor (always slot 0) carries P[α] − A[α], not the border
        // identity the z = 0 run wrote there (which evaluates to 0 at α);
        // write it last so the run path needs no special case.
        cells[cell_base] = anchor_val;
    });
    if lane_runs > 0 {
        // Coalesced: one relaxed add per build, not one per run.
        crate::obs::core().lane_runs.add(lane_runs);
    }
    overlay
}

/// The original slot-by-slot overlay construction, kept verbatim as the
/// oracle the run-structured builder is property-tested against.
#[cfg(test)]
pub(crate) fn oracle_build_overlay_from_p<T: GroupValue>(
    a: &NdCube<T>,
    p: &NdCube<T>,
    rp: &NdCube<T>,
    grid: BoxGrid,
) -> Overlay<T> {
    let walk_grid = grid.clone();
    let mut overlay = Overlay::zeros(grid);
    let grid_region = walk_grid.grid_shape().full_region();
    let shape = a.shape().clone();

    ndcube::RegionIter::for_each_coords(&grid_region, |b| {
        let box_lin = overlay.box_linear(b);
        let anchor = walk_grid.anchor_of(b);
        let extents = walk_grid.extents_of(b);
        let stored = overlay.box_stored_count(box_lin);

        let a_lin = shape.linear_unchecked(&anchor);
        let anchor_val = p.get_linear(a_lin).sub(a.get_linear(a_lin));
        *overlay.get_mut(overlay.anchor_index(box_lin)) = anchor_val.clone();

        let mut coords = vec![0usize; shape.ndim()];
        for slot in 1..stored {
            let e = BoxGrid::offset_of_slot(slot, &extents);
            for (ci, (ai, ei)) in coords.iter_mut().zip(anchor.iter().zip(&e)) {
                *ci = ai + ei;
            }
            let lin = shape.linear_unchecked(&coords);
            let border = p.get_linear(lin).sub(rp.get_linear(lin)).sub(&anchor_val);
            let idx = overlay
                .cell_index(box_lin, &e, &extents)
                .expect("enumerated slots are stored");
            *overlay.get_mut(idx) = border;
        }
    });
    overlay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{paper_array_a, paper_array_rp, paper_overlay_cells, PAPER_BOX_SIZE};
    use ndcube::Shape;

    fn paper_grid() -> BoxGrid {
        BoxGrid::new(
            Shape::new(&[9, 9]).unwrap(),
            &[PAPER_BOX_SIZE, PAPER_BOX_SIZE],
        )
        .unwrap()
    }

    #[test]
    fn figure10_rp_array_reproduced() {
        let rp = relative_prefix_sums(&paper_array_a(), &paper_grid());
        assert_eq!(rp, paper_array_rp());
    }

    #[test]
    fn figure13_overlay_reproduced() {
        let a = paper_array_a();
        let grid = paper_grid();
        let rp = relative_prefix_sums(&a, &grid);
        let overlay = build_overlay(&a, &rp, grid);
        for (r, c, v) in paper_overlay_cells() {
            assert_eq!(
                overlay.value_at(&[r, c]),
                Some(&v),
                "overlay value at ({r},{c})"
            );
        }
    }

    #[test]
    fn section33_worked_anchor_and_borders() {
        // "anchor value in overlay cell O[3,3] … = 51−5 = 46.
        //  border [4,3] = 61−8−46 = 7;  [5,3] = 75−14−46 = 15;
        //  [3,4] = 67−8−46 = 13;        [3,5] = 86−13−46 = 27."
        let a = paper_array_a();
        let grid = paper_grid();
        let rp = relative_prefix_sums(&a, &grid);
        let overlay = build_overlay(&a, &rp, grid);
        assert_eq!(overlay.value_at(&[3, 3]), Some(&46));
        assert_eq!(overlay.value_at(&[4, 3]), Some(&7));
        assert_eq!(overlay.value_at(&[5, 3]), Some(&15));
        assert_eq!(overlay.value_at(&[3, 4]), Some(&13));
        assert_eq!(overlay.value_at(&[3, 5]), Some(&27));
    }

    #[test]
    fn rp_regions_are_independent() {
        // Changing A inside one box must leave other boxes' RP untouched.
        let mut a = paper_array_a();
        let grid = paper_grid();
        let rp1 = relative_prefix_sums(&a, &grid);
        a.set(&[4, 4], 100); // interior of box (1,1)
        let rp2 = relative_prefix_sums(&a, &grid);
        for r in 0..9 {
            for c in 0..9 {
                let same_box = (3..6).contains(&r) && (3..6).contains(&c);
                if !same_box {
                    assert_eq!(rp1.get(&[r, c]), rp2.get(&[r, c]), "RP[{r},{c}]");
                }
            }
        }
    }

    #[test]
    fn ragged_shape_builds() {
        let a = NdCube::from_fn(&[7, 5], |c| (c[0] * 5 + c[1]) as i64).unwrap();
        let grid = BoxGrid::new(a.shape().clone(), &[3, 2]).unwrap();
        let rp = relative_prefix_sums(&a, &grid);
        let overlay = build_overlay(&a, &rp, grid);
        // Anchor of the last box must equal P[anchor] − A[anchor].
        let anchor_val = overlay.value_at(&[6, 4]).copied().unwrap();
        let mut p = a.clone();
        crate::prefix::prefix_sums_in_place(&mut p);
        assert_eq!(anchor_val, p.get(&[6, 4]) - a.get(&[6, 4]));
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use ndcube::Shape;
    use proptest::prelude::*;

    fn dims_and_ks() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
        (1usize..=4).prop_flat_map(|d| {
            (
                proptest::collection::vec(1usize..=6, d),
                proptest::collection::vec(1usize..=4, d),
            )
        })
    }

    proptest! {
        /// Satellite 2 oracle: the run-structured overlay builder is
        /// bit-identical to the retained slot-by-slot scalar builder for
        /// d in 1..=4, including k = 1 and tails where k does not divide n.
        #[test]
        fn run_structured_builder_matches_oracle(
            (dims, ks) in dims_and_ks(),
            seed in 0i64..1000,
        ) {
            let shape = Shape::new(&dims).unwrap();
            let a = NdCube::from_fn(&dims, |c| {
                let mut h = seed;
                for &x in c {
                    h = h.wrapping_mul(31).wrapping_add(x as i64 + 1);
                }
                h % 97
            })
            .unwrap();
            let ks: Vec<usize> = ks
                .iter()
                .zip(shape.dims())
                .map(|(&k, &n)| k.min(n))
                .collect();
            let grid = BoxGrid::new(shape, &ks).unwrap();
            let rp = relative_prefix_sums(&a, &grid);
            let mut p = a.clone();
            prefix_sums_in_place(&mut p);

            let fast = build_overlay_from_p(&a, &p, &rp, grid.clone());
            let oracle = oracle_build_overlay_from_p(&a, &p, &rp, grid);
            prop_assert_eq!(fast.storage_cells(), oracle.storage_cells());
            for idx in 0..fast.storage_cells() {
                prop_assert_eq!(fast.get(idx), oracle.get(idx), "storage slot {}", idx);
            }
        }
    }
}
