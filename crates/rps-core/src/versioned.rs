//! Versioned-snapshot (MVCC-lite) engine: a lock-free read path for the
//! paper's read-heavy OLAP deployment.
//!
//! [`crate::SharedEngine`] serializes every reader against the writer
//! with one `RwLock`; a single update stalls a whole
//! `query_many_parallel` batch. [`VersionedEngine`] removes the reader
//! side of that lock entirely:
//!
//! * The **writer** owns the RPS structures chunked into per-box-row
//!   *slabs* (`Arc<Vec<T>>`), applies update batches copy-on-write —
//!   the RPS box partition is the natural granule, so only the box rows
//!   an update's RP cascade and overlay walk touch are cloned — and
//!   publishes each batch as a new immutable [`Version`] into a small
//!   ring of publication slots.
//! * **Readers** pin an epoch ([`ReaderHandle::pin`]), run
//!   [`Version::query`] / [`Version::query_many`] /
//!   [`Version::query_many_parallel`] against their pinned version
//!   without ever taking the write lock, and unpin on drop. A pinned
//!   version is never reclaimed from under a reader.
//!
//! # Publication protocol (all safe Rust)
//!
//! The crate forbids `unsafe`, so the classic `AtomicPtr` arc-swap is
//! built instead from a `current` version counter, a fixed ring of
//! `RwLock<Option<Arc<Version>>>` slots (slot `v % RING` holds version
//! `v`), and one atomic epoch slot per registered reader:
//!
//! * **Publish** (writer, under the `writer` mutex): store the new
//!   `Arc<Version>` into its ring slot, then `current.store(v,
//!   SeqCst)`, then scan reader epochs and eagerly clear ring slots no
//!   pinned reader can still need.
//! * **Pin** (reader, lock-free w.r.t. the writer): load `current → v`,
//!   announce `epochs[i] = v` (SeqCst), then *revalidate* `current ==
//!   v`. If revalidation passes, SeqCst ordering gives the Dekker-style
//!   guarantee that the writer's subsequent reclaim scans observe the
//!   announcement, so slot `v` survives until unpin; the reader then
//!   clones the `Arc` out of the slot (checking the stored version
//!   number to defeat ring wrap-around) and is done with shared state.
//!
//! `Arc` reference counts are the memory-safety backstop throughout:
//! the epoch protocol only governs how *eagerly* ring slots are
//! recycled, so every failure mode degrades to "retry the pin" or
//! "reclaim later", never to a dangling read. Interleavings are
//! exercised by `tests/loom_versioned_engine.rs` and the whole module
//! runs under TSan in CI (`scripts/tsan.sh`).

use crate::sync_compat::{Arc, AtomicU64, Mutex, Ordering, RwLock};

use ndcube::{NdCube, NdError, Region, Shape};

use crate::corners::range_sum_from_prefix_with;
use crate::engine::RangeSumEngine;
use crate::rps::{
    effective_threads, inverse_relative_prefix_sums_in_place, kernels, overlay_prefix_part_src,
    overlay_range_walk, overlay_update_walk, rp_range_box, slab_sizes, with_scratch, BoxGrid,
    KernelScratch, OverlaySource, RpsEngine, Scratch,
};
use crate::stats::CostStats;
use crate::value::GroupValue;

/// Publication-ring capacity. A reader that loads `current` can fall at
/// most `RING − 1` publishes behind before its validated pin loop
/// retries against a newer version; history beyond the ring is only
/// reachable through `Arc`s readers already hold.
const RING: usize = 8;

/// Epoch slots available to [`VersionedEngine::reader`] handles.
/// Registration past this count degrades gracefully: the handle still
/// pins safely (the `Arc` it clones keeps its version alive), it just
/// no longer holds back eager ring-slot reclamation.
const MAX_READERS: usize = 64;

/// Epoch-slot sentinel: the slot is unassigned.
const FREE: u64 = u64::MAX;
/// Epoch-slot sentinel: a reader owns the slot but holds no pin.
const IDLE: u64 = u64::MAX - 1;

/// The ring slot a version number is published into.
fn ring_slot(v: u64) -> usize {
    // lint:allow(L4): RING is a small constant; the remainder fits usize
    (v % (RING as u64)) as usize
}

/// The RPS structures of one immutable version, chunked into per-box-row
/// copy-on-write slabs.
///
/// Slab `r` of the overlay holds the stored cells of every box whose
/// dim-0 grid index is `r` (flat indices `ov_base[r] .. ov_base[r+1]`);
/// slab `r` of the RP array holds cube rows `r·k₀ .. (r+1)·k₀`. The
/// writer shares untouched slabs between consecutive versions by `Arc`
/// clone, so a publish clones only the box rows its batch wrote.
#[derive(Debug)]
struct VersionData<T> {
    grid: BoxGrid,
    shape: Shape,
    /// Per-box slot offsets (shared by every version; never mutated).
    box_offsets: Arc<Vec<usize>>,
    /// `ov_base[r]` = first flat overlay index of box row `r`
    /// (`rows + 1` entries; also shared and immutable).
    ov_base: Arc<Vec<usize>>,
    ov_slabs: Vec<Arc<Vec<T>>>,
    rp_slabs: Vec<Arc<Vec<T>>>,
    /// Dim-0 box side: cube row `x₀` lives in slab `x₀ / k0`.
    k0: usize,
    /// Dim-0 stride of the cube shape (cells per cube row).
    stride0: usize,
}

impl<T: GroupValue> OverlaySource<T> for VersionData<T> {
    #[inline]
    fn offsets(&self) -> &[usize] {
        &self.box_offsets
    }

    #[inline]
    fn cell(&self, box_row: usize, idx: usize) -> &T {
        &self.ov_slabs[box_row][idx - self.ov_base[box_row]]
    }
}

impl<T: GroupValue> VersionData<T> {
    /// The RP cell at cube coordinate `x`, located through its slab.
    #[inline]
    fn rp_cell(&self, x: &[usize]) -> &T {
        let row = x[0] / self.k0;
        let lin = self.shape.linear_unchecked(x);
        &self.rp_slabs[row][lin - row * self.k0 * self.stride0]
    }

    /// One prefix reconstruction against this version's slabs — the same
    /// arithmetic as [`crate::rps::overlay_prefix_part_with`], routed
    /// through the storage-generic kernel.
    fn prefix_kernel(&self, x: &[usize], ks: &mut KernelScratch) -> T {
        let (mut acc, _reads) = overlay_prefix_part_src(&self.grid, self, x, ks);
        acc.add_assign(self.rp_cell(x));
        acc
    }
}

/// One immutable published state of a [`VersionedEngine`].
///
/// All query methods are `&self`, allocation-free after scratch warm-up
/// (the same thread-local [`Scratch`] as [`RpsEngine`]), and
/// bit-identical to a serial [`RpsEngine`] that applied the same prefix
/// of the update sequence.
#[derive(Debug)]
pub struct Version<T> {
    number: u64,
    total_updates: u64,
    data: VersionData<T>,
}

impl<T: GroupValue> Version<T> {
    /// This version's publication number (0 = the initial build).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// Total updates folded into this version since the initial build —
    /// the length of the update-sequence prefix this version reflects.
    pub fn update_count(&self) -> u64 {
        self.total_updates
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        &self.data.shape
    }

    /// Overlay box size per dimension (the RP geometry).
    pub fn box_size(&self) -> &[usize] {
        self.data.grid.box_size()
    }

    /// Recovers the data cube `A` this version represents — the same
    /// result as [`RpsEngine::to_cube`] after the same updates. The RP
    /// slabs are copied once into one row-major buffer and the box-local
    /// prefix sweeps are inverted in place: O(d·N), no point queries.
    pub fn to_cube(&self) -> NdCube<T> {
        let mut cells = Vec::with_capacity(self.data.shape.len());
        for slab in &self.data.rp_slabs {
            cells.extend_from_slice(slab);
        }
        inverse_relative_prefix_sums_in_place(&mut cells, &self.data.grid);
        NdCube::from_vec(self.data.shape.dims(), cells)
            // lint:allow(L2): the RP slabs tile the cube shape row by row
            .expect("view dims match cell count")
    }

    /// Range-sum query against this version (the paper's O(1) corner
    /// reconstruction).
    pub fn query(&self, region: &Region) -> Result<T, NdError> {
        self.data.shape.check_region(region)?;
        Ok(with_scratch(|s| {
            let (corner_buf, ks) = s.split();
            range_sum_from_prefix_with(region, corner_buf, |corner| {
                self.data.prefix_kernel(corner, ks)
            })
        }))
    }

    /// Reads one cell (a point-region query).
    pub fn cell(&self, coords: &[usize]) -> Result<T, NdError> {
        self.query(&Region::point(coords)?)
    }

    /// Sum over the whole cube.
    pub fn total(&self) -> T {
        self.query(&self.data.shape.full_region())
            // lint:allow(L2): the shape's own full region always validates
            .expect("full region is always valid")
    }

    /// Answers a batch of range queries, sharing reconstructed prefix
    /// sums across them (the corner cache of
    /// [`RpsEngine::query_many`], keyed by linear cell index so the
    /// batch stays allocation-free after warm-up).
    pub fn query_many(&self, regions: &[Region]) -> Result<Vec<T>, NdError> {
        use std::collections::HashMap;
        for r in regions {
            self.data.shape.check_region(r)?;
        }
        let mut cache: HashMap<usize, T> =
            HashMap::with_capacity(corner_capacity(regions.len(), self.data.shape.ndim()));
        Ok(with_scratch(|s| {
            let (corner_buf, ks) = s.split();
            regions
                .iter()
                .map(|r| {
                    range_sum_from_prefix_with(r, corner_buf, |corner| {
                        cache
                            .entry(self.data.shape.linear_unchecked(corner))
                            .or_insert_with(|| self.data.prefix_kernel(corner, ks))
                            .clone()
                    })
                })
                .collect()
        }))
    }
}

impl<T: GroupValue + Send + Sync> Version<T> {
    /// Answers a batch of range queries sharded across up to `threads`
    /// scoped worker threads, like
    /// [`RpsEngine::query_many_parallel`] — but against an immutable
    /// version, so the whole batch observes one snapshot *without any
    /// lock hold at all*. Results are bit-identical to
    /// [`Version::query_many`].
    pub fn query_many_parallel(
        &self,
        regions: &[Region],
        threads: usize,
    ) -> Result<Vec<T>, NdError> {
        use std::collections::HashMap;
        // Unit-test and loom builds skip the host clamp so the shard
        // path stays exercised on 1-CPU hosts.
        let threads = if cfg!(any(test, loom)) {
            threads.max(1)
        } else {
            effective_threads(threads)
        };
        if threads == 1 || regions.len() < 2 * threads {
            return self.query_many(regions);
        }
        for r in regions {
            self.data.shape.check_region(r)?;
        }
        let shard_sizes = slab_sizes(regions.len(), 1, 1, threads);
        let cap_per_region = corner_capacity(1, self.data.shape.ndim());
        let mut out = vec![T::zero(); regions.len()];
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shard_sizes.len());
            let mut out_rest = out.as_mut_slice();
            let mut reg_rest = regions;
            for &size in &shard_sizes {
                let (my_out, out_tail) = out_rest.split_at_mut(size);
                out_rest = out_tail;
                let (my_regs, reg_tail) = reg_rest.split_at(size);
                reg_rest = reg_tail;
                handles.push(scope.spawn(move || {
                    let mut scratch = Scratch::new();
                    let (corner_buf, ks) = scratch.split();
                    let mut cache: HashMap<usize, T> =
                        HashMap::with_capacity(my_regs.len().saturating_mul(cap_per_region));
                    for (slot, r) in my_out.iter_mut().zip(my_regs) {
                        *slot = range_sum_from_prefix_with(r, corner_buf, |corner| {
                            cache
                                .entry(self.data.shape.linear_unchecked(corner))
                                .or_insert_with(|| self.data.prefix_kernel(corner, ks))
                                .clone()
                        });
                    }
                }));
            }
            for h in handles {
                // lint:allow(L2): a worker panic is already a bug; propagate it
                h.join().expect("parallel query worker panicked");
            }
        });
        Ok(out)
    }
}

/// Worst-case distinct corners for a query batch: 2^d per region.
fn corner_capacity(regions: usize, d: usize) -> usize {
    regions.saturating_mul(
        1usize
            .checked_shl(u32::try_from(d).unwrap_or(u32::MAX))
            .unwrap_or(usize::MAX),
    )
}

/// One accepted-but-unpublished write: a point delta or a whole-rectangle
/// delta. Both publish through the same copy-on-write batch path, so a
/// version boundary never splits a rectangle.
#[derive(Debug, Clone)]
enum PendingOp<T> {
    Point(Vec<usize>, T),
    Range(Region, T),
}

/// The writer's private, mutable twin of [`VersionData`]: same slabs,
/// plus the pending batch and reusable scratch.
#[derive(Debug)]
struct WriterState<T> {
    grid: BoxGrid,
    shape: Shape,
    box_offsets: Arc<Vec<usize>>,
    ov_base: Arc<Vec<usize>>,
    ov_slabs: Vec<Arc<Vec<T>>>,
    rp_slabs: Vec<Arc<Vec<T>>>,
    k0: usize,
    stride0: usize,
    scratch: KernelScratch,
    /// Updates accepted but not yet published.
    pending: Vec<PendingOp<T>>,
    /// Publish after this many pending updates (≥ 1; default 1 =
    /// publish every update immediately).
    publish_threshold: usize,
    /// Updates folded into the *published* state so far.
    total_updates: u64,
    /// Number of the most recently published version.
    version: u64,
}

impl<T: GroupValue> WriterState<T> {
    /// An immutable view of the current slabs (cheap: `Arc` clones).
    fn version_data(&self) -> VersionData<T> {
        VersionData {
            grid: self.grid.clone(),
            shape: self.shape.clone(),
            box_offsets: Arc::clone(&self.box_offsets),
            ov_base: Arc::clone(&self.ov_base),
            ov_slabs: self.ov_slabs.iter().map(Arc::clone).collect(),
            rp_slabs: self.rp_slabs.iter().map(Arc::clone).collect(),
            k0: self.k0,
            stride0: self.stride0,
        }
    }

    /// Applies a batch to the slabs copy-on-write. Returns (cells
    /// written, box granules cloned, lane-kernel runs).
    ///
    /// An update at `c` is confined to box rows `b₀ = c₀/k₀ ..` — the RP
    /// cascade stays inside `c`'s own box, and the overlay orthant walk
    /// only ever touches boxes at `b₀` or below (see
    /// [`crate::rps::apply_update_with`]) — so earlier rows keep sharing
    /// their slabs with published versions untouched.
    fn apply_batch(&mut self, batch: &[PendingOp<T>]) -> (u64, u64, u64) {
        let WriterState {
            grid,
            shape,
            box_offsets,
            ov_base,
            ov_slabs,
            rp_slabs,
            k0,
            stride0,
            scratch: ks,
            ..
        } = self;
        let (k0, stride0) = (*k0, *stride0);
        let rows = ov_slabs.len();
        let row_boxes = u64::try_from(grid.grid_shape().strides()[0]).unwrap_or(u64::MAX);
        let mut writes = 0u64;
        let mut cow_boxes = 0u64;
        let mut lane_runs = 0u64;
        for op in batch {
            match op {
                PendingOp::Point(c, delta) => {
                    if delta.is_zero() {
                        continue;
                    }
                    let b0 = c[0] / k0;
                    ks.ensure(c.len());
                    // RP cascade, run-structured through the lane kernel —
                    // the same replay as `apply_updates_parallel`, against
                    // slab b₀.
                    grid.box_hi_of_cell_into(c, &mut ks.hi);
                    {
                        let slab = &mut rp_slabs[b0];
                        if Arc::strong_count(slab) > 1 {
                            cow_boxes += row_boxes;
                        }
                        let cells = Arc::make_mut(slab);
                        let base = b0 * k0 * stride0;
                        shape.for_each_contiguous_run_in_bounds(
                            c,
                            &ks.hi,
                            &mut ks.cur,
                            |start, len| {
                                let lo = start - base;
                                kernels::add_delta_run(&mut cells[lo..lo + len], delta);
                                writes += u64::try_from(len).unwrap_or(u64::MAX);
                                lane_runs += u64::from(kernels::is_lane_run(len));
                            },
                        );
                    }
                    // Overlay orthant walk, clipped to one box-row slab at
                    // a time. Rows before b₀ are never touched (the walk's
                    // row clip would return 0 writes), so they are not
                    // even cloned.
                    for r in b0..rows {
                        let slab = &mut ov_slabs[r];
                        if Arc::strong_count(slab) > 1 {
                            cow_boxes += row_boxes;
                        }
                        let cells = Arc::make_mut(slab);
                        writes += overlay_update_walk(
                            grid,
                            box_offsets,
                            cells,
                            ov_base[r],
                            r,
                            r + 1,
                            c,
                            delta,
                            ks,
                        );
                    }
                }
                PendingOp::Range(region, delta) => {
                    if delta.is_zero() {
                        continue;
                    }
                    let (lo, hi) = (region.lo(), region.hi());
                    let d = lo.len();
                    ks.ensure(d);
                    // RP half: per affected box-row slab, sweep the boxes
                    // of the [box(lo), box(hi)] index rectangle with that
                    // dim-0 index — the slab-clipped form of the serial
                    // engine's box cascade.
                    grid.box_index_into(lo, &mut ks.b);
                    grid.box_index_into(hi, &mut ks.offsets);
                    let b0 = ks.b[0];
                    for r in b0..=ks.offsets[0] {
                        let slab = &mut rp_slabs[r];
                        if Arc::strong_count(slab) > 1 {
                            cow_boxes += row_boxes;
                        }
                        let cells = Arc::make_mut(slab);
                        let base = r * k0 * stride0;
                        let KernelScratch {
                            b,
                            offsets,
                            alpha,
                            lo: rlo,
                            hi: box_hi,
                            cur,
                            e,
                            ..
                        } = &mut *ks;
                        cur.clear();
                        cur.extend_from_slice(b);
                        cur[0] = r;
                        'boxes: loop {
                            writes += rp_range_box(
                                grid, cells, base, cur, lo, hi, delta, alpha, rlo, box_hi, e,
                            );
                            let mut dim = d;
                            loop {
                                if dim == 1 {
                                    break 'boxes; // dim 0 is pinned to this slab
                                }
                                dim -= 1;
                                if cur[dim] < offsets[dim] {
                                    cur[dim] += 1;
                                    continue 'boxes;
                                }
                                cur[dim] = b[dim];
                            }
                        }
                    }
                    // Overlay half: every box row of lo's upper orthant,
                    // one slab-clipped walk per row.
                    for r in b0..rows {
                        let slab = &mut ov_slabs[r];
                        if Arc::strong_count(slab) > 1 {
                            cow_boxes += row_boxes;
                        }
                        let cells = Arc::make_mut(slab);
                        writes += overlay_range_walk(
                            grid,
                            box_offsets,
                            cells,
                            ov_base[r],
                            r,
                            r + 1,
                            lo,
                            hi,
                            delta,
                            ks,
                        );
                    }
                }
            }
        }
        (writes, cow_boxes, lane_runs)
    }
}

/// Shared state behind every [`VersionedEngine`] handle.
#[derive(Debug)]
struct VersionedShared<T> {
    /// Writer-side slabs and pending batch. Always the outermost guard:
    /// ring-slot locks are only acquired beneath it (publish/reclaim)
    /// or on their own (reader pins). The sanctioned nesting
    /// (writer before slot) is declared next to `SharedEngine`'s in
    /// `concurrent.rs`.
    writer: Mutex<WriterState<T>>,
    /// Number of the most recently published version. Readers pin
    /// against this; the writer stores it *after* filling the ring slot.
    current: AtomicU64,
    /// Publication ring: slot `v % RING` holds version `v` until it is
    /// overwritten by version `v + RING` or eagerly reclaimed.
    slots: [RwLock<Option<Arc<Version<T>>>>; RING],
    /// Reader epoch slots: [`FREE`], [`IDLE`], or the pinned version.
    epochs: [AtomicU64; MAX_READERS],
    /// Cube shape (immutable; for lock-free validation).
    shape: Shape,
    queries: AtomicU64,
    updates: AtomicU64,
    cell_writes: AtomicU64,
}

impl<T: GroupValue> VersionedShared<T> {
    /// The validated pin loop (see the module docs for the ordering
    /// argument). With `epoch_slot`, the version is additionally
    /// protected from eager reclamation until the slot is reset.
    fn pin_current(&self, epoch_slot: Option<usize>) -> Arc<Version<T>> {
        loop {
            let v = self.current.load(Ordering::SeqCst);
            if let Some(i) = epoch_slot {
                self.epochs[i].store(v, Ordering::SeqCst);
                if self.current.load(Ordering::SeqCst) != v {
                    // A publish raced our announcement; the writer's
                    // reclaim scan may have missed it. Re-announce
                    // against the newer version.
                    continue;
                }
            }
            let slot = &self.slots[ring_slot(v)];
            // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
            let guard = slot.read().expect("engine lock poisoned");
            if let Some(arc) = guard.as_ref() {
                if arc.number == v {
                    return Arc::clone(arc);
                }
            }
            // The ring wrapped (≥ RING publishes between our two loads)
            // or an unpinned slot was reclaimed: retry against the
            // newer `current`. Each retry observes a strictly newer
            // version, so the loop terminates once the writer pauses.
        }
    }

    /// Publishes the pending batch as the next version and eagerly
    /// reclaims ring slots no pinned reader can still need.
    fn publish_locked(&self, w: &mut WriterState<T>) {
        let batch = std::mem::take(&mut w.pending);
        let (writes, cow_boxes, lane_runs) = w.apply_batch(&batch);
        w.total_updates += u64::try_from(batch.len()).unwrap_or(u64::MAX);
        w.version += 1;
        let next = w.version;
        let published = Arc::new(Version {
            number: next,
            total_updates: w.total_updates,
            data: w.version_data(),
        });
        {
            let slot = &self.slots[ring_slot(next)];
            // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
            let mut guard = slot.write().expect("engine lock poisoned");
            *guard = Some(published);
        }
        self.current.store(next, Ordering::SeqCst);
        self.reclaim(next);
        self.cell_writes.fetch_add(writes, Ordering::Relaxed);
        let m = crate::obs::snapshot();
        m.versions.inc();
        m.cow_boxes.add(cow_boxes);
        if lane_runs > 0 {
            crate::obs::core().lane_runs.add(lane_runs);
        }
    }

    /// Clears every ring slot holding a version older than the oldest
    /// pinned epoch. Memory safety never depends on this — pinned
    /// readers hold `Arc` clones — it just returns slab memory as soon
    /// as no reader can reach a retired version through the ring.
    fn reclaim(&self, just_published: u64) {
        let mut min_pinned = u64::MAX;
        for e in &self.epochs {
            let v = e.load(Ordering::SeqCst);
            if v < IDLE && v < min_pinned {
                min_pinned = v;
            }
        }
        for (i, s) in self.slots.iter().enumerate() {
            if i == ring_slot(just_published) {
                continue;
            }
            let slot = s;
            // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
            let mut guard = slot.write().expect("engine lock poisoned");
            if guard.as_ref().is_some_and(|v| v.number < min_pinned) {
                *guard = None;
            }
        }
    }

    /// Claims a free epoch slot, or `None` when all [`MAX_READERS`] are
    /// taken (the handle then pins without reclamation protection).
    fn acquire_epoch_slot(&self) -> Option<usize> {
        for (i, e) in self.epochs.iter().enumerate() {
            if e.compare_exchange(FREE, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(i);
            }
        }
        None
    }
}

/// Cheap-to-clone handle around the versioned engine.
///
/// ```
/// use rps_core::{RpsEngine, VersionedEngine};
/// use ndcube::Region;
///
/// let engine = VersionedEngine::new(RpsEngine::<i64>::zeros(&[8, 8]).unwrap());
/// let mut reader = engine.reader();
///
/// let before = reader.pin(); // epoch-pinned: never blocks on the writer
/// engine.update(&[2, 2], 5).unwrap();
///
/// // The pinned snapshot still sees the pre-update state; a fresh pin
/// // sees the published update.
/// let all = Region::new(&[0, 0], &[7, 7]).unwrap();
/// assert_eq!(before.query(&all).unwrap(), 0);
/// drop(before);
/// assert_eq!(reader.pin().query(&all).unwrap(), 5);
/// ```
#[derive(Debug)]
pub struct VersionedEngine<T> {
    inner: Arc<VersionedShared<T>>,
}

impl<T> Clone for VersionedEngine<T> {
    fn clone(&self) -> Self {
        VersionedEngine {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: GroupValue> VersionedEngine<T> {
    /// Takes ownership of a built engine and publishes its state as
    /// version 0.
    pub fn new(engine: RpsEngine<T>) -> Self {
        let (grid, overlay, rp) = engine.into_parts();
        let shape = rp.shape().clone();
        let (box_offsets, cells) = overlay.into_parts();
        let rows = grid.grid_shape().dim(0);
        let row_boxes = grid.grid_shape().strides()[0];
        let k0 = grid.box_size()[0];
        let stride0 = shape.strides()[0];
        let n0 = shape.dim(0);
        let ov_base: Vec<usize> = (0..=rows).map(|r| box_offsets[r * row_boxes]).collect();

        // Chunk the flat buffers into per-box-row slabs.
        let mut ov_slabs = Vec::with_capacity(rows);
        let mut rest = cells;
        for r in 0..rows {
            let tail = rest.split_off(ov_base[r + 1] - ov_base[r]);
            ov_slabs.push(Arc::new(rest));
            rest = tail;
        }
        let mut rp_slabs = Vec::with_capacity(rows);
        let mut rest = rp.into_vec();
        for r in 0..rows {
            let hi = ((r + 1) * k0).min(n0);
            let tail = rest.split_off((hi - r * k0) * stride0);
            rp_slabs.push(Arc::new(rest));
            rest = tail;
        }

        let state = WriterState {
            grid,
            shape: shape.clone(),
            box_offsets: Arc::new(box_offsets),
            ov_base: Arc::new(ov_base),
            ov_slabs,
            rp_slabs,
            k0,
            stride0,
            scratch: KernelScratch::new(),
            pending: Vec::new(),
            publish_threshold: 1,
            total_updates: 0,
            version: 0,
        };
        let initial = Arc::new(Version {
            number: 0,
            total_updates: 0,
            data: state.version_data(),
        });
        let slots: [RwLock<Option<Arc<Version<T>>>>; RING] = std::array::from_fn(|i| {
            RwLock::new(if i == 0 {
                Some(Arc::clone(&initial))
            } else {
                None
            })
        });
        crate::obs::snapshot().versions.inc();
        VersionedEngine {
            inner: Arc::new(VersionedShared {
                writer: Mutex::new(state),
                current: AtomicU64::new(0),
                slots,
                epochs: std::array::from_fn(|_| AtomicU64::new(FREE)),
                shape,
                queries: AtomicU64::new(0),
                updates: AtomicU64::new(0),
                cell_writes: AtomicU64::new(0),
            }),
        }
    }

    /// Builds from a data cube (paper-recommended `k = ⌈√n⌉` boxes).
    pub fn from_cube(a: &NdCube<T>) -> Self {
        Self::new(RpsEngine::from_cube(a))
    }

    /// An all-zero cube with `k = ⌈√n⌉` boxes.
    pub fn zeros(dims: &[usize]) -> Result<Self, NdError> {
        Ok(Self::new(RpsEngine::zeros(dims)?))
    }

    /// Sets how many accepted updates are buffered before the writer
    /// publishes a version (≥ 1; the default 1 publishes every update
    /// immediately). Buffered updates are invisible to readers until
    /// published by the threshold, [`Self::apply_batch`] or
    /// [`Self::flush`].
    #[must_use]
    pub fn with_publish_threshold(self, n: usize) -> Self {
        {
            // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
            let mut w = self.inner.writer.lock().expect("engine lock poisoned");
            w.publish_threshold = n.max(1);
        }
        self
    }

    /// The number of the most recently published version.
    pub fn current_version(&self) -> u64 {
        self.inner.current.load(Ordering::SeqCst)
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// Total queries served through the engine-level convenience
    /// methods (queries against held snapshots are not counted here).
    pub fn query_count(&self) -> u64 {
        self.inner.queries.load(Ordering::Relaxed)
    }

    /// Total updates accepted across all handles.
    pub fn update_count(&self) -> u64 {
        self.inner.updates.load(Ordering::Relaxed)
    }

    /// Total cells written by published batches (the paper's update-cost
    /// accounting, aggregated across versions).
    pub fn write_count(&self) -> u64 {
        self.inner.cell_writes.load(Ordering::Relaxed)
    }

    /// Registers an epoch-pinning reader.
    pub fn reader(&self) -> ReaderHandle<T> {
        let slot = self.inner.acquire_epoch_slot();
        if slot.is_some() {
            crate::obs::snapshot().readers.add(1);
        }
        ReaderHandle {
            inner: Arc::clone(&self.inner),
            slot,
        }
    }

    /// The current published version, unpinned: the returned `Arc`
    /// keeps it alive, but does not hold back ring-slot reclamation the
    /// way a pinned reader does. The cheap entry point for one-shot
    /// queries and CLI use.
    pub fn snapshot(&self) -> Arc<Version<T>> {
        self.inner.pin_current(None)
    }

    /// Accepts one update. It becomes visible to *new* snapshots once
    /// published (immediately at the default threshold 1).
    pub fn update(&self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.inner.shape.check(coords)?;
        let m = crate::obs::engine(crate::obs::EngineKind::Rps);
        m.updates.inc();
        // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
        let mut w = self.inner.writer.lock().expect("engine lock poisoned");
        w.pending.push(PendingOp::Point(coords.to_vec(), delta));
        self.inner.updates.fetch_add(1, Ordering::Relaxed);
        if w.pending.len() >= w.publish_threshold {
            self.inner.publish_locked(&mut w);
        }
        Ok(())
    }

    /// Accepts one bulk range update: `delta` is added to every cell of
    /// `region`. The rectangle is applied copy-on-write as a single
    /// pending op and published like a point update, so readers always
    /// observe it atomically — one version boundary never splits it.
    pub fn range_update(&self, region: &Region, delta: T) -> Result<(), NdError> {
        self.inner.shape.check_region(region)?;
        let m = crate::obs::core();
        m.range_update_fast.inc();
        m.range_update_cells
            .add(u64::try_from(region.cell_count()).unwrap_or(u64::MAX));
        let _span = rps_obs::Span::enter("versioned.range_update", &m.range_update_ns);
        crate::obs::engine(crate::obs::EngineKind::Rps).updates.inc();
        // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
        let mut w = self.inner.writer.lock().expect("engine lock poisoned");
        w.pending.push(PendingOp::Range(region.clone(), delta));
        self.inner.updates.fetch_add(1, Ordering::Relaxed);
        if w.pending.len() >= w.publish_threshold {
            self.inner.publish_locked(&mut w);
        }
        Ok(())
    }

    /// Applies a batch of updates and publishes exactly one new version
    /// for it (plus any updates already pending), so readers observe the
    /// batch atomically — never a partial batch.
    pub fn apply_batch(&self, updates: &[(Vec<usize>, T)]) -> Result<(), NdError> {
        for (coords, _) in updates {
            self.inner.shape.check(coords)?;
        }
        let m = crate::obs::engine(crate::obs::EngineKind::Rps);
        m.batches.inc();
        m.batch_updates
            .add(u64::try_from(updates.len()).unwrap_or(u64::MAX));
        // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
        let mut w = self.inner.writer.lock().expect("engine lock poisoned");
        w.pending
            .extend(updates.iter().cloned().map(|(c, v)| PendingOp::Point(c, v)));
        self.inner.updates.fetch_add(
            u64::try_from(updates.len()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.inner.publish_locked(&mut w);
        Ok(())
    }

    /// Publishes any pending buffered updates as a new version.
    pub fn flush(&self) {
        // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
        let mut w = self.inner.writer.lock().expect("engine lock poisoned");
        if !w.pending.is_empty() {
            self.inner.publish_locked(&mut w);
        }
    }

    /// One-shot query against the current version (pin-free snapshot).
    pub fn query(&self, region: &Region) -> Result<T, NdError> {
        let out = self.snapshot().query(region);
        if out.is_ok() {
            self.inner.queries.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// One-shot batch query against the current version.
    pub fn query_many(&self, regions: &[Region]) -> Result<Vec<T>, NdError> {
        let out = self.snapshot().query_many(regions);
        if out.is_ok() {
            self.inner.queries.fetch_add(
                u64::try_from(regions.len()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        out
    }

    /// Reads one cell of the current version.
    pub fn cell(&self, coords: &[usize]) -> Result<T, NdError> {
        self.snapshot().cell(coords)
    }

    /// Sum over the whole cube in the current version.
    pub fn total(&self) -> T {
        self.snapshot().total()
    }
}

/// The engine-trait face of the versioned engine, so generic wrappers
/// (the durable WAL wrapper above all) drive the same cube readers pin.
/// Every update publishes through the copy-on-write path; a batch is one
/// version.
impl<T: GroupValue> RangeSumEngine<T> for VersionedEngine<T> {
    fn name(&self) -> &'static str {
        "versioned-rps"
    }

    fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        VersionedEngine::query(self, region)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        VersionedEngine::update(self, coords, delta)
    }

    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        VersionedEngine::range_update(self, region, delta)
    }

    fn update_batch(&mut self, updates: &[(Vec<usize>, T)]) -> Result<(), NdError> {
        self.apply_batch(updates)
    }

    /// Queries, updates and cells written; reads are not counted on the
    /// lock-free path.
    fn stats(&self) -> CostStats {
        CostStats {
            cell_reads: 0,
            cell_writes: self.write_count(),
            queries: self.query_count(),
            updates: self.update_count(),
        }
    }

    fn reset_stats(&self) {
        self.inner.queries.store(0, Ordering::Relaxed);
        self.inner.updates.store(0, Ordering::Relaxed);
        self.inner.cell_writes.store(0, Ordering::Relaxed);
    }

    fn storage_cells(&self) -> usize {
        let snap = self.snapshot();
        let slab_cells = |slabs: &[Arc<Vec<T>>]| slabs.iter().map(|s| s.len()).sum::<usize>();
        slab_cells(&snap.data.ov_slabs) + slab_cells(&snap.data.rp_slabs)
    }
}

impl<T: GroupValue + Send + Sync> VersionedEngine<T> {
    /// One-shot sharded batch query against the current version. The
    /// writer is never blocked: the batch runs against an immutable
    /// snapshot while updates continue to publish.
    pub fn query_many_parallel(
        &self,
        regions: &[Region],
        threads: usize,
    ) -> Result<Vec<T>, NdError> {
        let out = self.snapshot().query_many_parallel(regions, threads);
        if out.is_ok() {
            self.inner.queries.fetch_add(
                u64::try_from(regions.len()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        out
    }
}

/// A registered reader: owns an epoch slot (when one is free) and pins
/// snapshots through it. Dropping the handle frees the slot.
#[derive(Debug)]
pub struct ReaderHandle<T> {
    inner: Arc<VersionedShared<T>>,
    slot: Option<usize>,
}

impl<T: GroupValue> ReaderHandle<T> {
    /// Pins the current version: the returned snapshot's version stays
    /// reachable (and its ring slot unreclaimed) until the pin is
    /// dropped. `&mut self` keeps one pin per handle — a handle is one
    /// reader, and its epoch slot can announce one version at a time.
    pub fn pin(&mut self) -> PinnedSnapshot<'_, T> {
        let version = self.inner.pin_current(self.slot);
        crate::obs::snapshot().pinned_readers.add(1);
        PinnedSnapshot {
            inner: &self.inner,
            slot: self.slot,
            version,
        }
    }

    /// Whether this handle owns an epoch slot (`false` once
    /// `MAX_READERS` handles are live; pinning still works, but no
    /// longer delays ring-slot reclamation).
    pub fn has_epoch_slot(&self) -> bool {
        self.slot.is_some()
    }
}

impl<T> Drop for ReaderHandle<T> {
    fn drop(&mut self) {
        if let Some(i) = self.slot {
            self.inner.epochs[i].store(FREE, Ordering::SeqCst);
            crate::obs::snapshot().readers.sub(1);
        }
    }
}

/// An epoch-pinned snapshot: dereferences to the pinned [`Version`], so
/// every query method is available directly. Unpins on drop.
#[derive(Debug)]
pub struct PinnedSnapshot<'r, T> {
    inner: &'r VersionedShared<T>,
    slot: Option<usize>,
    version: Arc<Version<T>>,
}

impl<T> PinnedSnapshot<'_, T> {
    /// The pinned version.
    pub fn version(&self) -> &Version<T> {
        &self.version
    }
}

impl<T> std::ops::Deref for PinnedSnapshot<'_, T> {
    type Target = Version<T>;

    fn deref(&self) -> &Version<T> {
        &self.version
    }
}

impl<T> Drop for PinnedSnapshot<'_, T> {
    fn drop(&mut self) {
        if let Some(i) = self.slot {
            self.inner.epochs[i].store(IDLE, Ordering::SeqCst);
        }
        crate::obs::snapshot().pinned_readers.sub(1);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::engine::RangeSumEngine;
    use crate::testdata::paper_array_a;

    fn paper_versioned() -> VersionedEngine<i64> {
        VersionedEngine::new(RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap())
    }

    #[test]
    fn initial_version_matches_serial_engine() {
        let serial = RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap();
        let v = paper_versioned();
        let snap = v.snapshot();
        assert_eq!(snap.number(), 0);
        for (lo, hi) in [([0, 0], [8, 8]), ([2, 3], [7, 5]), ([4, 4], [4, 4])] {
            let r = Region::new(&lo, &hi).unwrap();
            assert_eq!(snap.query(&r).unwrap(), serial.query(&r).unwrap(), "{r:?}");
        }
        // Every prefix cell agrees too (exercises every slab boundary).
        for x in &snap.shape().full_region() {
            let r = Region::new(&[0; 2], &x).unwrap();
            assert_eq!(snap.query(&r).unwrap(), serial.query(&r).unwrap(), "{x:?}");
        }
    }

    #[test]
    fn updates_publish_new_versions() {
        let v = paper_versioned();
        let all = Region::new(&[0, 0], &[8, 8]).unwrap();
        assert_eq!(v.query(&all).unwrap(), 290);
        v.update(&[1, 1], 10).unwrap();
        assert_eq!(v.current_version(), 1);
        assert_eq!(v.query(&all).unwrap(), 300);
        assert_eq!(v.update_count(), 1);
        assert_eq!(v.query_count(), 2);
    }

    #[test]
    fn pinned_snapshot_is_immutable() {
        let v = paper_versioned();
        let all = Region::new(&[0, 0], &[8, 8]).unwrap();
        let mut reader = v.reader();
        let pinned = reader.pin();
        assert_eq!(pinned.query(&all).unwrap(), 290);
        v.update(&[0, 0], 7).unwrap();
        // The pin still observes version 0; a fresh pin sees version 1.
        assert_eq!(pinned.query(&all).unwrap(), 290);
        assert_eq!(pinned.number(), 0);
        drop(pinned);
        let pinned = reader.pin();
        assert_eq!(pinned.number(), 1);
        assert_eq!(pinned.query(&all).unwrap(), 297);
    }

    #[test]
    fn cow_shares_untouched_slabs() {
        let v = paper_versioned();
        let before = v.snapshot();
        // Update in box row 1 (cube row 4): box row 0's slabs must be
        // shared untouched with version 0; row 1's RP slab must be new.
        v.update(&[4, 4], 1).unwrap();
        let after = v.snapshot();
        assert!(Arc::ptr_eq(
            &before.data.ov_slabs[0],
            &after.data.ov_slabs[0]
        ));
        assert!(Arc::ptr_eq(
            &before.data.rp_slabs[0],
            &after.data.rp_slabs[0]
        ));
        assert!(!Arc::ptr_eq(
            &before.data.rp_slabs[1],
            &after.data.rp_slabs[1]
        ));
        assert!(!Arc::ptr_eq(
            &before.data.ov_slabs[1],
            &after.data.ov_slabs[1]
        ));
        // Write cost matches the serial engine's accounting for the
        // same update.
        let mut serial = RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap();
        serial.update(&[4, 4], 1).unwrap();
        assert_eq!(v.write_count(), serial.stats().cell_writes);
    }

    #[test]
    fn batch_is_one_version() {
        let v = paper_versioned();
        v.apply_batch(&[(vec![0, 0], 1), (vec![8, 8], 2), (vec![4, 4], 3)])
            .unwrap();
        assert_eq!(v.current_version(), 1);
        assert_eq!(v.update_count(), 3);
        assert_eq!(v.snapshot().update_count(), 3);
        assert_eq!(v.total(), 296);
    }

    #[test]
    fn publish_threshold_buffers_until_flush() {
        let v = paper_versioned().with_publish_threshold(10);
        v.update(&[0, 0], 5).unwrap();
        v.update(&[1, 1], 5).unwrap();
        // Accepted but unpublished: readers still see version 0.
        assert_eq!(v.current_version(), 0);
        assert_eq!(v.total(), 290);
        v.flush();
        assert_eq!(v.current_version(), 1);
        assert_eq!(v.total(), 300);
        // An empty flush publishes nothing.
        v.flush();
        assert_eq!(v.current_version(), 1);
    }

    #[test]
    fn query_many_variants_match_serial() {
        let v = paper_versioned();
        v.apply_batch(&[(vec![2, 2], 9), (vec![7, 7], -4)]).unwrap();
        let regions: Vec<Region> = (0..24)
            .map(|i| Region::new(&[i % 5, i % 4], &[(i % 5) + 3, (i % 4) + 4]).unwrap())
            .collect();
        let snap = v.snapshot();
        let one_by_one: Vec<i64> = regions.iter().map(|r| snap.query(r).unwrap()).collect();
        assert_eq!(snap.query_many(&regions).unwrap(), one_by_one);
        assert_eq!(snap.query_many_parallel(&regions, 4).unwrap(), one_by_one);
        assert_eq!(v.query_many(&regions).unwrap(), one_by_one);
        assert_eq!(v.query_many_parallel(&regions, 4).unwrap(), one_by_one);
    }

    #[test]
    fn ring_wraparound_keeps_held_snapshots_alive() {
        let v = paper_versioned();
        let old = v.snapshot();
        // Publish far more versions than the ring holds.
        for i in 0..(2 * RING + 3) {
            v.update(&[i % 9, (i * 5) % 9], 1).unwrap();
        }
        // The held Arc still answers from version 0.
        assert_eq!(old.total(), 290);
        assert_eq!(old.number(), 0);
        // And fresh pins see the newest version.
        let newest = v.snapshot();
        assert_eq!(newest.number(), u64::try_from(2 * RING + 3).unwrap());
        assert_eq!(newest.total(), 290 + i64::try_from(2 * RING + 3).unwrap());
    }

    #[test]
    fn pinned_reader_protects_its_ring_slot() {
        let v = paper_versioned();
        let mut reader = v.reader();
        let pinned = reader.pin();
        // Fewer publishes than the ring size: the pinned version's slot
        // is skipped by eager reclamation (min pinned epoch = 0).
        for i in 0..3 {
            v.update(&[i, i], 1).unwrap();
        }
        let slot0 = v.inner.slots[0].read().unwrap();
        assert!(slot0.as_ref().is_some_and(|s| s.number() == 0));
        drop(slot0);
        drop(pinned);
        // With the pin gone, the next publish reclaims version 0's slot.
        v.update(&[5, 5], 1).unwrap();
        assert!(v.inner.slots[0].read().unwrap().is_none());
    }

    #[test]
    fn reader_slots_recycle_and_overflow_degrades() {
        let v = paper_versioned();
        let handles: Vec<_> = (0..MAX_READERS).map(|_| v.reader()).collect();
        assert!(handles.iter().all(ReaderHandle::has_epoch_slot));
        // Slot table exhausted: the next reader degrades gracefully...
        let mut extra = v.reader();
        assert!(!extra.has_epoch_slot());
        assert_eq!(extra.pin().total(), 290);
        // ...and dropping a registered handle frees its slot for reuse.
        drop(handles);
        let recycled = v.reader();
        assert!(recycled.has_epoch_slot());
    }

    #[test]
    fn concurrent_writer_and_pinned_readers() {
        let v = VersionedEngine::new(RpsEngine::<i64>::zeros(&[32, 32]).unwrap());
        let full = Region::new(&[0, 0], &[31, 31]).unwrap();
        let writer = {
            let v = v.clone();
            std::thread::spawn(move || {
                for i in 0..400usize {
                    v.update(&[i % 32, (i * 7) % 32], 1).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let v = v.clone();
                let full = full.clone();
                std::thread::spawn(move || {
                    let mut reader = v.reader();
                    let mut last = 0i64;
                    for _ in 0..150 {
                        let pinned = reader.pin();
                        let t = pinned.query(&full).unwrap();
                        // Each snapshot is exactly some prefix of the
                        // update sequence (all deltas are +1).
                        assert_eq!(t, i64::try_from(pinned.update_count()).unwrap());
                        assert!(t >= last, "total went backwards: {last} → {t}");
                        last = t;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(v.total(), 400);
        assert_eq!(v.update_count(), 400);
    }

    #[test]
    fn versioned_matches_serial_after_many_updates() {
        // d = 3, ragged boxes: every slab-boundary case in one sweep.
        let a = NdCube::from_fn(&[6, 5, 4], |c| (c[0] * 20 + c[1] * 4 + c[2]) as i64).unwrap();
        let mut serial = RpsEngine::from_cube_with_box_size(&a, &[2, 3, 2]).unwrap();
        let v = VersionedEngine::new(RpsEngine::from_cube_with_box_size(&a, &[2, 3, 2]).unwrap());
        for i in 0..40usize {
            let c = [i % 6, (i * 3) % 5, (i * 7) % 4];
            let delta = i64::try_from(i).unwrap() % 11 - 5;
            serial.update(&c, delta).unwrap();
            v.update(&c, delta).unwrap();
        }
        let snap = v.snapshot();
        for x in &a.shape().full_region() {
            let r = Region::new(&[0; 3], &x).unwrap();
            assert_eq!(snap.query(&r).unwrap(), serial.query(&r).unwrap(), "{x:?}");
        }
    }

    #[test]
    fn range_update_matches_serial_and_respects_pins() {
        let v = paper_versioned();
        let mut serial = RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap();
        let mut reader = v.reader();
        let pinned = reader.pin();
        let r = Region::new(&[1, 2], &[6, 7]).unwrap();
        v.range_update(&r, 5).unwrap();
        serial.range_update(&r, 5).unwrap();
        // The pin still observes the pre-update state...
        assert_eq!(pinned.total(), 290);
        drop(pinned);
        // ...and a fresh pin sees the whole rectangle at once, cell-for-
        // cell identical to the serial engine's fast path.
        let snap = reader.pin();
        for x in &snap.shape().full_region() {
            let pr = Region::new(&[0; 2], &x).unwrap();
            assert_eq!(snap.query(&pr).unwrap(), serial.query(&pr).unwrap(), "{x:?}");
        }
    }

    #[test]
    fn mixed_point_and_range_ops_match_serial_3d() {
        // d = 3, ragged boxes: range rectangles crossing slab boundaries
        // interleaved with point deltas.
        let a = NdCube::from_fn(&[6, 5, 4], |c| (c[0] * 20 + c[1] * 4 + c[2]) as i64).unwrap();
        let mut serial = RpsEngine::from_cube_with_box_size(&a, &[2, 3, 2]).unwrap();
        let v = VersionedEngine::new(RpsEngine::from_cube_with_box_size(&a, &[2, 3, 2]).unwrap());
        for i in 0..24usize {
            let c = [i % 6, (i * 3) % 5, (i * 7) % 4];
            let delta = i64::try_from(i).unwrap() % 11 - 5;
            if i % 3 == 0 {
                let hi = [(c[0] + 3).min(5), (c[1] + 2).min(4), (c[2] + 1).min(3)];
                let r = Region::new(&c, &hi).unwrap();
                serial.range_update(&r, delta).unwrap();
                v.range_update(&r, delta).unwrap();
            } else {
                serial.update(&c, delta).unwrap();
                v.update(&c, delta).unwrap();
            }
        }
        let snap = v.snapshot();
        for x in &a.shape().full_region() {
            let r = Region::new(&[0; 3], &x).unwrap();
            assert_eq!(snap.query(&r).unwrap(), serial.query(&r).unwrap(), "{x:?}");
        }
    }

    #[test]
    fn one_dimensional_cube() {
        let a = NdCube::from_fn(&[17], |c| c[0] as i64).unwrap();
        let v = VersionedEngine::from_cube(&a);
        let serial = RpsEngine::from_cube(&a);
        v.update(&[16], 100).unwrap();
        let snap = v.snapshot();
        for x in 0..17 {
            let r = Region::new(&[0], &[x]).unwrap();
            let expect = serial.query(&r).unwrap() + if x == 16 { 100 } else { 0 };
            assert_eq!(snap.query(&r).unwrap(), expect, "prefix to {x}");
        }
    }

    #[test]
    fn to_cube_matches_serial_engine_2d_and_ragged_3d() {
        let mut serial = RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap();
        let v = paper_versioned();
        for (i, c) in [[0, 0], [4, 7], [8, 8], [3, 3]].iter().enumerate() {
            let delta = 5 - i64::try_from(i).unwrap() * 3;
            serial.update(c, delta).unwrap();
            v.update(c, delta).unwrap();
        }
        let r = Region::new(&[1, 2], &[6, 8]).unwrap();
        serial.range_update(&r, 2).unwrap();
        v.range_update(&r, 2).unwrap();
        assert_eq!(v.snapshot().to_cube(), serial.to_cube());

        // d = 3 with ragged trailing boxes in every dimension.
        let a = NdCube::from_fn(&[7, 5, 4], |c| (c[0] * 20 + c[1] * 4 + c[2]) as i64).unwrap();
        let mut serial = RpsEngine::from_cube_with_box_size(&a, &[3, 2, 3]).unwrap();
        let v = VersionedEngine::new(RpsEngine::from_cube_with_box_size(&a, &[3, 2, 3]).unwrap());
        let snap0 = v.snapshot();
        for i in 0..30usize {
            let c = [i % 7, (i * 3) % 5, (i * 5) % 4];
            let delta = i64::try_from(i).unwrap() % 9 - 4;
            serial.update(&c, delta).unwrap();
            v.update(&c, delta).unwrap();
        }
        assert_eq!(v.snapshot().to_cube(), serial.to_cube());
        assert_eq!(v.snapshot().box_size(), &[3, 2, 3]);
        // An older version still recovers its own cube.
        assert_eq!(snap0.to_cube(), a);
    }

    /// Drives an engine only through the trait, as generic wrappers do.
    fn drive<E: RangeSumEngine<i64>>(e: &mut E) {
        e.update(&[1, 1], 4).unwrap();
        e.range_update(&Region::new(&[0, 0], &[1, 2]).unwrap(), 1)
            .unwrap();
        e.update_batch(&[(vec![2, 2], 3), (vec![3, 0], -2)])
            .unwrap();
        assert!(e.update_batch(&[(vec![0, 0], 9), (vec![4, 4], 1)]).is_err());
    }

    #[test]
    fn trait_surface_matches_serial_engine() {
        let mut serial = RpsEngine::<i64>::zeros(&[4, 4]).unwrap();
        let mut v = VersionedEngine::<i64>::zeros(&[4, 4]).unwrap();
        drive(&mut serial);
        drive(&mut v);
        assert_eq!(v.materialize(), serial.materialize());
        // Point, range and batch each publish exactly one version; the
        // rejected batch publishes none.
        assert_eq!(v.current_version(), 3);
        assert_eq!(RangeSumEngine::stats(&v).updates, 4);
        assert_eq!(v.storage_cells(), serial.storage_cells());
        v.reset_stats();
        assert_eq!(RangeSumEngine::stats(&v), CostStats::default());
    }

    #[test]
    fn rejects_out_of_bounds() {
        let v = VersionedEngine::<i64>::zeros(&[4, 4]).unwrap();
        assert!(v.update(&[4, 0], 1).is_err());
        assert!(v.query(&Region::new(&[0, 0], &[4, 4]).unwrap()).is_err());
        assert!(v.apply_batch(&[(vec![0, 0], 1), (vec![9, 9], 1)]).is_err());
        // The failed batch published nothing.
        assert_eq!(v.current_version(), 0);
        assert_eq!(v.total(), 0);
    }
}
