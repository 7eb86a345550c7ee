//! Property: recovery is serial replay.
//!
//! For random workloads across d ∈ {1, 2, 3}, with and without
//! `sync_every_append`, with and without a mid-workload checkpoint:
//! recovering a [`DurableEngine`] — after a clean shutdown-less crash
//! (all updates issued) *and* after a mid-batch crash (a prefix of the
//! updates issued) — yields exactly the state of serially replaying the
//! same updates against a [`NaiveEngine`]. No lost updates, no
//! double-applies, regardless of where the checkpoint fell relative to
//! the crash.

use ndcube::NdCube;
use proptest::prelude::*;
use rps_core::{NaiveEngine, RangeSumEngine, RpsEngine, VersionedEngine};
use rps_storage::{
    DurableEngine, FaultPlan, RecoverySource, SimLogFile, SimSnapshotStore, StorageError,
};

#[derive(Debug, Clone)]
struct Scenario {
    dims: Vec<usize>,
    updates: Vec<(Vec<usize>, i64)>,
    /// Checkpoint after this update index, if any.
    checkpoint_at: Option<usize>,
    /// Mid-batch crash: only updates[..crash_at] were issued.
    crash_at: usize,
    strict: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..=6, d),
                proptest::collection::vec(
                    (proptest::collection::vec(0usize..64, d), -50i64..=50),
                    1..32,
                ),
                any::<bool>(),
                0usize..64,
                (any::<bool>(), 0usize..64),
            )
        })
        .prop_map(|(dims, raw_updates, strict, crash_raw, (use_cp, cp_raw))| {
            let n = raw_updates.len();
            let updates: Vec<(Vec<usize>, i64)> = raw_updates
                .into_iter()
                .map(|(c, delta)| (c.iter().zip(&dims).map(|(r, &m)| r % m).collect(), delta))
                .collect();
            Scenario {
                checkpoint_at: use_cp.then(|| cp_raw % n),
                crash_at: crash_raw % (n + 1),
                dims,
                updates,
                strict,
            }
        })
}

/// Issues `updates[..stop]`, checkpointing where the scenario says, and
/// returns the crashed log bytes plus the snapshot (cube, LSN) the
/// checkpoint persisted (zeros/0 when no checkpoint ran).
fn run_until(sc: &Scenario, stop: usize) -> (Vec<u8>, NdCube<i64>, u64) {
    let log = SimLogFile::new(FaultPlan::none(), 1);
    let handle = log.handle();
    let mut d = DurableEngine::open_log(NaiveEngine::<i64>::zeros(&sc.dims).unwrap(), log, 0)
        .expect("fresh open");
    d.set_sync_every_append(sc.strict);
    let mut model = NdCube::filled(&sc.dims, 0i64).unwrap();
    let mut snapshot = (NdCube::filled(&sc.dims, 0i64).unwrap(), 0u64);
    for (i, (coords, delta)) in sc.updates.iter().take(stop).enumerate() {
        d.update(coords, *delta).expect("fault-free update");
        let lin = model.shape().linear_unchecked(coords);
        *model.get_linear_mut(lin) += *delta;
        if Some(i) == sc.checkpoint_at {
            let mut saved = None;
            d.checkpoint(|_, lsn| -> Result<(), ()> {
                saved = Some((model.clone(), lsn));
                Ok(())
            })
            .expect("fault-free checkpoint");
            snapshot = saved.expect("persist ran");
        }
    }
    // The crash: the process dies here. A fault-free SimLogFile keeps
    // every appended byte in its cache (process crash, not power loss),
    // so recovery sees exactly what a real intact WAL file would hold.
    (handle.cache(), snapshot.0, snapshot.1)
}

/// Serial-replay oracle: the same prefix applied to a fresh NaiveEngine.
fn oracle_after(sc: &Scenario, stop: usize) -> NaiveEngine<i64> {
    let mut e = NaiveEngine::<i64>::zeros(&sc.dims).unwrap();
    for (coords, delta) in sc.updates.iter().take(stop) {
        e.update(coords, *delta).unwrap();
    }
    e
}

fn assert_recovery_matches(sc: &Scenario, stop: usize, label: &str) {
    let (bytes, snap_cube, snap_lsn) = run_until(sc, stop);
    let recovered = DurableEngine::open_log(
        NaiveEngine::from_cube(snap_cube),
        SimLogFile::from_bytes(bytes),
        snap_lsn,
    )
    .expect("recovery must succeed");
    let oracle = oracle_after(sc, stop);
    let shape = oracle.shape().clone();
    let full = shape.full_region();
    let mut mismatch: Option<String> = None;
    shape.for_each_region_cell(&full, |coords, _| {
        if mismatch.is_some() {
            return;
        }
        let got = recovered.engine().cell(coords).unwrap();
        let want = oracle.cell(coords).unwrap();
        if got != want {
            mismatch = Some(format!(
                "{label}: cell {coords:?} recovered {got}, serial replay {want} ({sc:?})"
            ));
        }
    });
    if let Some(msg) = mismatch {
        panic!("{msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recovery_equals_serial_replay(sc in scenario()) {
        // Clean crash: every update issued, then the process dies.
        assert_recovery_matches(&sc, sc.updates.len(), "clean crash");
        // Mid-batch crash: only a prefix issued. The checkpoint may fall
        // before, at, or after the crash point — the LSN filter must
        // keep recovery exact in all three configurations.
        assert_recovery_matches(&sc, sc.crash_at, "mid-batch crash");
    }
}

// ---------------------------------------------------------------------
// Snapshot-path recovery: snapshot-then-replay ≡ full-replay ≡ serial
// oracle, with binary checkpoints cut at arbitrary points.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SnapScenario {
    dims: Vec<usize>,
    updates: Vec<(Vec<usize>, i64)>,
    /// Cut a binary snapshot after each of these update indices.
    checkpoints: Vec<usize>,
    /// Mid-batch crash: only updates[..crash_at] were issued.
    crash_at: usize,
    /// Which byte the negative control flips in the newest snapshot.
    flip_at: usize,
}

fn snap_scenario() -> impl Strategy<Value = SnapScenario> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..=6, d),
                proptest::collection::vec(
                    (proptest::collection::vec(0usize..64, d), -50i64..=50),
                    1..32,
                ),
                proptest::collection::vec(0usize..64, 0..4),
                0usize..64,
                any::<usize>(),
            )
        })
        .prop_map(|(dims, raw_updates, cp_raw, crash_raw, flip_at)| {
            let n = raw_updates.len();
            let updates: Vec<(Vec<usize>, i64)> = raw_updates
                .into_iter()
                .map(|(c, delta)| (c.iter().zip(&dims).map(|(r, &m)| r % m).collect(), delta))
                .collect();
            let mut checkpoints: Vec<usize> = cp_raw.into_iter().map(|c| c % n).collect();
            checkpoints.sort_unstable();
            checkpoints.dedup();
            SnapScenario {
                crash_at: crash_raw % (n + 1),
                dims,
                updates,
                checkpoints,
                flip_at,
            }
        })
}

/// Issues `updates[..crash_at]`, cutting binary snapshots where the
/// scenario says, and returns the store chain plus the crashed WAL.
fn run_with_snapshots(sc: &SnapScenario) -> (SimSnapshotStore, Vec<u8>) {
    let log = SimLogFile::new(FaultPlan::none(), 1);
    let handle = log.handle();
    let mut d = DurableEngine::open_log(RpsEngine::<i64>::zeros(&sc.dims).unwrap(), log, 0)
        .expect("fresh open");
    let mut store = SimSnapshotStore::new(FaultPlan::none(), 1);
    for (i, (coords, delta)) in sc.updates.iter().take(sc.crash_at).enumerate() {
        d.update(coords, *delta).expect("fault-free update");
        if sc.checkpoints.contains(&i) {
            d.checkpoint_to(&mut store).expect("fault-free checkpoint");
        }
    }
    (store, handle.cache())
}

/// Recovers from `store` + WAL and compares cell-for-cell against the
/// serial-replay oracle; returns the recovery report for source checks.
fn assert_snapshot_recovery_matches(
    sc: &SnapScenario,
    store: &mut SimSnapshotStore,
    wal: &[u8],
    label: &str,
) -> rps_storage::RecoveryReport {
    let fresh = || Ok::<_, StorageError>(RpsEngine::<i64>::zeros(&sc.dims)?);
    let (recovered, report) =
        DurableEngine::recover_with(store, SimLogFile::from_bytes(wal.to_vec()), fresh)
            .unwrap_or_else(|e| panic!("{label}: recovery must never fail: {e} ({sc:?})"));
    let oracle = {
        let mut e = NaiveEngine::<i64>::zeros(&sc.dims).unwrap();
        for (coords, delta) in sc.updates.iter().take(sc.crash_at) {
            e.update(coords, *delta).unwrap();
        }
        e
    };
    let shape = oracle.shape().clone();
    let full = shape.full_region();
    let mut mismatch: Option<String> = None;
    shape.for_each_region_cell(&full, |coords, _| {
        if mismatch.is_some() {
            return;
        }
        let got = recovered.engine().cell(coords).unwrap();
        let want = oracle.cell(coords).unwrap();
        if got != want {
            mismatch = Some(format!(
                "{label}: cell {coords:?} recovered {got}, serial replay {want} ({sc:?})"
            ));
        }
    });
    if let Some(msg) = mismatch {
        panic!("{msg}");
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn snapshot_recovery_equals_full_replay_equals_serial_replay(sc in snap_scenario()) {
        let (store, wal) = run_with_snapshots(&sc);
        // The newest snapshot the run actually cut (checkpoint after
        // update i ⇒ snapshot at LSN i+1; only those before the crash).
        let newest = sc
            .checkpoints
            .iter()
            .filter(|&&i| i < sc.crash_at)
            .max()
            .map(|&i| (i + 1) as u64);

        // 1. Snapshot-then-replay: the newest snapshot must be chosen as
        //    the base, and the result must equal the serial oracle.
        let mut chain = store.fork();
        let report = assert_snapshot_recovery_matches(&sc, &mut chain, &wal, "snapshot+replay");
        match newest {
            Some(lsn) => prop_assert_eq!(report.source, RecoverySource::Snapshot(lsn)),
            None => prop_assert_eq!(report.source, RecoverySource::FullReplay),
        }
        prop_assert_eq!(report.fallbacks(), 0);

        // 2. Full replay (no snapshots at all) reaches the same state.
        let mut empty = SimSnapshotStore::new(FaultPlan::none(), 2);
        let report = assert_snapshot_recovery_matches(&sc, &mut empty, &wal, "full replay");
        prop_assert_eq!(report.source, RecoverySource::FullReplay);
        prop_assert_eq!(report.replayed, sc.crash_at as u64);

        // 3. Negative control: flip ONE byte anywhere in the newest
        //    snapshot — recovery must take the fallback path (quarantine
        //    the rotted artifact) and still match the oracle exactly.
        if let Some(lsn) = newest {
            let mut rotted = store.fork();
            let mut bytes = rotted.slots()[&lsn].clone();
            let flip = sc.flip_at % bytes.len();
            bytes[flip] ^= 1 << (sc.flip_at % 8);
            rotted.plant(lsn, bytes);
            let report =
                assert_snapshot_recovery_matches(&sc, &mut rotted, &wal, "one-byte rot");
            prop_assert!(
                report.fallbacks() >= 1,
                "a flipped byte at offset {} must force a fallback ({:?})",
                flip,
                report
            );
            prop_assert_eq!(
                report.quarantined.first().map(|q| q.0),
                Some(lsn),
                "the rotted newest snapshot must be the quarantined one"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The serving composition: the WAL wrapped around a VersionedEngine (the
// engine lock-free readers pin), driven with point, range and batch
// updates plus checkpoints, crashed, and recovered the way a server
// re-provisions a tenant — snapshot + in-place replay onto a plain
// RpsEngine, then `map_engine(VersionedEngine::new)`. Every cell must
// equal a per-cell oracle, before the crash and after recovery.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum WriteOp {
    Point(Vec<usize>, i64),
    Range(Vec<usize>, Vec<usize>, i64),
    Batch(Vec<(Vec<usize>, i64)>),
}

#[derive(Debug, Clone)]
struct VersionedScenario {
    dims: Vec<usize>,
    ops: Vec<WriteOp>,
    /// Cut a checkpoint after each of these op indices.
    checkpoints: Vec<usize>,
    /// Only ops[..crash_at] were issued before the crash.
    crash_at: usize,
    strict: bool,
}

fn versioned_scenario() -> impl Strategy<Value = VersionedScenario> {
    (1usize..=3)
        .prop_flat_map(|d| {
            let coords = || proptest::collection::vec(0usize..64, d);
            (
                proptest::collection::vec(2usize..=6, d),
                proptest::collection::vec(
                    (
                        0usize..3,
                        coords(),
                        coords(),
                        proptest::collection::vec((coords(), -50i64..=50), 1..6),
                        -50i64..=50,
                    ),
                    1..24,
                ),
                proptest::collection::vec(0usize..64, 0..4),
                0usize..64,
                any::<bool>(),
            )
        })
        .prop_map(|(dims, raw_ops, cp_raw, crash_raw, strict)| {
            let clamp =
                |c: &[usize]| -> Vec<usize> { c.iter().zip(&dims).map(|(r, &m)| r % m).collect() };
            let ops: Vec<WriteOp> = raw_ops
                .into_iter()
                .map(|(kind, a, b, batch, delta)| match kind {
                    0 => WriteOp::Point(clamp(&a), delta),
                    1 => {
                        let (a, b) = (clamp(&a), clamp(&b));
                        let lo = a.iter().zip(&b).map(|(x, y)| *x.min(y)).collect();
                        let hi = a.iter().zip(&b).map(|(x, y)| *x.max(y)).collect();
                        WriteOp::Range(lo, hi, delta)
                    }
                    _ => WriteOp::Batch(batch.iter().map(|(c, d)| (clamp(c), *d)).collect()),
                })
                .collect();
            let n = ops.len();
            let mut checkpoints: Vec<usize> = cp_raw.into_iter().map(|c| c % n).collect();
            checkpoints.sort_unstable();
            checkpoints.dedup();
            VersionedScenario {
                crash_at: crash_raw % (n + 1),
                dims,
                ops,
                checkpoints,
                strict,
            }
        })
}

/// The per-cell oracle: every op applied cell by cell to a dense cube.
fn versioned_oracle(sc: &VersionedScenario) -> NdCube<i64> {
    let mut model = NdCube::filled(&sc.dims, 0i64).unwrap();
    let mut add = |c: &[usize], d: i64| {
        let lin = model.shape().linear_unchecked(c);
        *model.get_linear_mut(lin) += d;
    };
    for op in sc.ops.iter().take(sc.crash_at) {
        match op {
            WriteOp::Point(c, d) => add(c, *d),
            WriteOp::Range(lo, hi, d) => {
                for c in &ndcube::Region::new(lo, hi).unwrap() {
                    add(&c, *d);
                }
            }
            WriteOp::Batch(items) => {
                for (c, d) in items {
                    add(c, *d);
                }
            }
        }
    }
    model
}

fn assert_cells_match(
    engine: &impl RangeSumEngine<i64>,
    oracle: &NdCube<i64>,
    label: &str,
    sc: &VersionedScenario,
) {
    for c in &oracle.shape().full_region() {
        let got = engine.cell(&c).unwrap();
        let want = oracle.get(&c);
        assert_eq!(got, want, "{label}: cell {c:?} ({sc:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn versioned_durable_recovery_equals_per_cell_oracle(sc in versioned_scenario()) {
        let log = SimLogFile::new(FaultPlan::none(), 1);
        let handle = log.handle();
        let mut d = DurableEngine::open_log(VersionedEngine::<i64>::zeros(&sc.dims).unwrap(), log, 0)
            .expect("fresh open");
        d.set_sync_every_append(sc.strict);
        let mut store = SimSnapshotStore::new(FaultPlan::none(), 1);
        let mut records = 0u64;
        for (i, op) in sc.ops.iter().take(sc.crash_at).enumerate() {
            let version = d.engine().current_version();
            match op {
                WriteOp::Point(c, delta) => d.update(c, *delta),
                WriteOp::Range(lo, hi, delta) => {
                    d.range_update(&ndcube::Region::new(lo, hi).unwrap(), *delta)
                }
                WriteOp::Batch(items) => d.update_batch(items),
            }
            .expect("fault-free write");
            // One publish per write, a batch included.
            prop_assert_eq!(d.engine().current_version(), version + 1);
            records += match op {
                WriteOp::Batch(items) => items.len() as u64,
                _ => 1,
            };
            if sc.checkpoints.contains(&i) {
                prop_assert_eq!(d.checkpoint_to(&mut store).expect("checkpoint"), records);
            }
        }
        let oracle = versioned_oracle(&sc);
        // The live engine readers pin already holds every write.
        assert_cells_match(d.engine(), &oracle, "live", &sc);
        drop(d);

        let fresh = || Ok::<_, StorageError>(RpsEngine::<i64>::zeros(&sc.dims)?);
        let (recovered, report) =
            DurableEngine::recover_with(&mut store, SimLogFile::from_bytes(handle.cache()), fresh)
                .expect("recovery must succeed");
        prop_assert_eq!(report.fallbacks(), 0);
        let mut recovered = recovered.map_engine(VersionedEngine::new);
        // The whole replayed tail is published once, as version 0.
        prop_assert_eq!(recovered.engine().current_version(), 0);
        prop_assert_eq!(recovered.last_lsn(), records);
        assert_cells_match(recovered.engine(), &oracle, "recovered", &sc);
        // The mapped engine keeps logging where the old one stopped.
        let origin = vec![0; sc.dims.len()];
        recovered.update(&origin, 7).expect("post-recovery write");
        prop_assert_eq!(recovered.last_lsn(), records + 1);
        prop_assert_eq!(recovered.engine().cell(&origin).unwrap(), oracle.get(&origin) + 7);
    }
}
