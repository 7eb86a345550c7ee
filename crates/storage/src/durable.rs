//! Durability wrapper: WAL-protected updates over any engine.
//!
//! Protocol (classic ARIES-lite at the granularity of whole snapshots):
//!
//! 1. [`DurableEngine::recover`] enumerates the snapshot chain
//!    newest-first, verifies each artifact's header and CRCs, loads the
//!    newest valid one and replays only WAL records **newer than the
//!    LSN in its header** — quarantining anything corrupt and degrading
//!    gracefully down to full WAL replay;
//! 2. every [`update`](DurableEngine::update) appends to the WAL *before*
//!    touching the structure (optionally fsyncing per append);
//! 3. [`checkpoint_to`](DurableEngine::checkpoint_to) captures the
//!    engine at the current LSN into an `RPSSNAP1` artifact (the LSN
//!    lives *in the header* — no out-of-band sidecar needed) and GC's
//!    snapshots past the [`SnapshotPolicy`] retention;
//!    [`maybe_checkpoint`](DurableEngine::maybe_checkpoint) applies the
//!    policy's bytes/records hybrid trigger.
//!
//! Because recovery filters by LSN, a crash *anywhere* — including
//! mid-snapshot-write — replays exactly the updates the loaded snapshot
//! does not contain: no loss, no double-apply.
//!
//! **Compatibility path**: [`DurableEngine::open`] /
//! [`DurableEngine::open_log`] predate the snapshot format. There the
//! caller supplies the base engine *and the LSN its state includes*,
//! stored durably out-of-band (a sidecar file, a filename suffix, …) —
//! a footgun the snapshot header removes, kept for callers with their
//! own persistence format; [`checkpoint`](DurableEngine::checkpoint) is
//! its caller-managed persist hook, and the only path that truncates
//! the WAL. `checkpoint_to` deliberately does **not** truncate: the
//! intact log is what lets a later recovery fall past a corrupt
//! snapshot all the way to full replay, so corruption can only make
//! recovery slower, never lossy.
//!
//! Failure semantics (see `docs/DURABILITY.md`): a failed append is
//! rolled back, so an update that returns an error was **not** applied
//! and will **not** reappear at recovery; transient faults are retried
//! under the engine's [`RetryPolicy`] first. In strict
//! (`sync_every_append`) mode a failed sync also rolls the record back —
//! an acknowledged update is durable, an errored one is gone.

use std::path::Path;

use ndcube::Region;
use rps_core::{CostStats, RangeSumEngine};

use crate::error::{CheckpointError, RetryPolicy, StorageError};
use crate::snapshot::{
    decode_snapshot, encode_snapshot, FsSnapshotDir, RecoveryReport, RecoverySource,
    SnapshotCheckFailed, SnapshotPolicy, SnapshotRestore, SnapshotState, SnapshotStore,
};
use crate::wal::{FsLogFile, LogFile, Wal, WalRecord};

/// Applies one replayed WAL record — point or range — to an engine.
fn replay_record<E: RangeSumEngine<i64>>(
    engine: &mut E,
    rec: &WalRecord,
) -> Result<(), StorageError> {
    match &rec.hi {
        None => engine.update(&rec.coords, rec.delta),
        Some(hi) => Region::new(&rec.coords, hi)
            .and_then(|region| engine.range_update(&region, rec.delta)),
    }
    .map_err(StorageError::Engine)
}

/// An engine whose updates are write-ahead logged.
///
/// ```
/// use ndcube::{NdCube, Region};
/// use rps_core::RpsEngine;
/// use rps_storage::DurableEngine;
///
/// # let dir = std::env::temp_dir().join("rps-durable-doctest");
/// # std::fs::create_dir_all(&dir)?;
/// # let wal_path = dir.join("ops.wal");
/// # let _ = std::fs::remove_file(&wal_path);
/// // Fresh structure, nothing checkpointed yet → snapshot_lsn = 0.
/// let base = NdCube::from_fn(&[8, 8], |_| 0i64)?;
/// let mut durable = DurableEngine::open(RpsEngine::from_cube(&base), &wal_path, 0)?;
/// durable.update(&[3, 4], 250)?;   // WAL append happens first
///
/// // A crash here loses nothing: reopening replays the log.
/// let recovered = DurableEngine::open(RpsEngine::from_cube(&base), &wal_path, 0)?;
/// let everything = Region::new(&[0, 0], &[7, 7])?;
/// assert_eq!(recovered.query(&everything)?, 250);
/// # std::fs::remove_file(&wal_path)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Deltas are `i64` — the WAL frame stores one fixed-width delta, so
/// wrapping a `SumCount`/float engine would need a pluggable delta codec
/// (deliberately out of scope; see DESIGN.md S21). Every example and the
/// CLI persist `i64` measures.
///
/// Generic over the [`LogFile`] so the torture harness can swap the real
/// file for the fault-injecting [`crate::SimLogFile`].
#[derive(Debug)]
pub struct DurableEngine<E, L: LogFile = FsLogFile> {
    engine: E,
    wal: Wal<L>,
    sync_every_append: bool,
    retry: RetryPolicy,
    policy: SnapshotPolicy,
    /// WAL length at the last checkpoint — the byte half of the
    /// policy's hybrid trigger measures growth past this mark.
    wal_len_at_checkpoint: u64,
    /// Updates logged since the last checkpoint (the record half).
    records_since_checkpoint: u64,
}

impl<E: RangeSumEngine<i64>> DurableEngine<E, FsLogFile> {
    /// **Compatibility path** — wraps `engine`, the state of a
    /// checkpoint whose LSN the caller stored out-of-band (0 for a
    /// fresh structure), and replays WAL records with LSN >
    /// `snapshot_lsn` onto it. Repairs a torn tail left by a crash.
    ///
    /// New code should prefer [`DurableEngine::recover`]: `RPSSNAP1`
    /// snapshots carry their LSN in the header, so recovery needs no
    /// out-of-band LSN and survives a corrupt snapshot chain.
    pub fn open(
        engine: E,
        wal_path: &Path,
        snapshot_lsn: u64,
    ) -> Result<DurableEngine<E, FsLogFile>, StorageError> {
        Self::open_log(engine, FsLogFile::open(wal_path)?, snapshot_lsn)
    }
}

impl<E: RangeSumEngine<i64> + SnapshotRestore> DurableEngine<E, FsLogFile> {
    /// Recovers from the snapshot directory at `dir` plus the WAL at
    /// `wal_path`: newest valid snapshot wins, corrupt ones are
    /// quarantined, and with no usable snapshot the whole WAL is
    /// replayed onto `fresh()`. See [`DurableEngine::recover_with`].
    pub fn recover(
        dir: &Path,
        wal_path: &Path,
        fresh: impl FnOnce() -> Result<E, StorageError>,
    ) -> Result<(DurableEngine<E, FsLogFile>, RecoveryReport), StorageError> {
        let mut store = FsSnapshotDir::open(dir)?;
        Self::recover_with(&mut store, FsLogFile::open(wal_path)?, fresh)
    }
}

impl<E: RangeSumEngine<i64>, L: LogFile> DurableEngine<E, L> {
    /// [`Self::open`] over any [`LogFile`] — the entry point the fault
    /// harness uses with a [`crate::SimLogFile`].
    pub fn open_log(
        mut engine: E,
        log: L,
        snapshot_lsn: u64,
    ) -> Result<DurableEngine<E, L>, StorageError> {
        let (mut wal, records) = Wal::from_log(log)?;
        for rec in records.iter().filter(|r| r.lsn > snapshot_lsn) {
            replay_record(&mut engine, rec)?;
        }
        // After a checkpoint truncated the log, a reopened counter would
        // restart below snapshot_lsn and recovery would later discard new
        // records; pin the floor to the snapshot's LSN.
        wal.ensure_lsn_after(snapshot_lsn);
        let wal_len = wal.len();
        Ok(DurableEngine {
            engine,
            wal,
            sync_every_append: false,
            retry: RetryPolicy::default(),
            policy: SnapshotPolicy::default(),
            wal_len_at_checkpoint: wal_len,
            records_since_checkpoint: 0,
        })
    }

    /// Replaces the automatic-checkpoint policy consulted by
    /// [`Self::maybe_checkpoint`] (default: explicit trigger only,
    /// retain 2).
    pub fn set_snapshot_policy(&mut self, policy: SnapshotPolicy) {
        self.policy = policy;
    }

    /// The active automatic-checkpoint policy.
    pub fn snapshot_policy(&self) -> SnapshotPolicy {
        self.policy
    }

    /// Per-append `fdatasync` for strict durability (survives power
    /// loss, not just process crash). Default off: group-commit style,
    /// records are synced at checkpoints.
    pub fn set_sync_every_append(&mut self, on: bool) {
        self.sync_every_append = on;
    }

    /// Replaces the transient-fault retry policy for WAL appends and
    /// syncs (default: [`RetryPolicy::default`]).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Logged point update: the WAL append happens first, so a crash
    /// after the append but before the structural change is replayed on
    /// recovery, and a crash during the append leaves a repairable tail.
    ///
    /// On error the update was **not** applied and its record is not in
    /// the log (failed appends and failed strict-mode syncs are rolled
    /// back), so an error here never resurfaces as a phantom update at
    /// recovery.
    pub fn update(&mut self, coords: &[usize], delta: i64) -> Result<(), StorageError> {
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Durable);
        m.updates.inc();
        let _span = rps_obs::Span::enter("durable.update", &m.update_ns);
        self.engine
            .shape()
            .check(coords)
            .map_err(StorageError::Engine)?;
        let prev_len = self.wal.len();
        let prev_next_lsn = self.wal.last_lsn() + 1;
        {
            let retry = self.retry;
            let wal = &mut self.wal;
            retry.run(|| wal.append(coords, delta).map(|_| ()))?;
        }
        if self.sync_every_append {
            let sync_result = {
                let retry = self.retry;
                let wal = &mut self.wal;
                retry.run(|| wal.sync())
            };
            if let Err(e) = sync_result {
                // Leaving the record would let recovery apply an update
                // the caller is about to see fail.
                self.wal.rollback_last(prev_len, prev_next_lsn)?;
                return Err(e);
            }
        }
        self.engine
            .update(coords, delta)
            .map_err(StorageError::Engine)?;
        self.records_since_checkpoint += 1;
        Ok(())
    }

    /// Logged bulk range update: one WAL record covers the whole
    /// rectangle, so an arbitrarily large `region` is atomic under crash
    /// recovery — either the record is intact and replay re-applies the
    /// entire box, or it is torn and none of it reappears. Same
    /// error-means-not-applied contract as [`Self::update`]: a failed
    /// append (or failed strict-mode sync) is rolled back.
    pub fn range_update(&mut self, region: &Region, delta: i64) -> Result<(), StorageError> {
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Durable);
        m.updates.inc();
        let _span = rps_obs::Span::enter("durable.range_update", &m.update_ns);
        self.engine
            .shape()
            .check_region(region)
            .map_err(StorageError::Engine)?;
        let prev_len = self.wal.len();
        let prev_next_lsn = self.wal.last_lsn() + 1;
        {
            let retry = self.retry;
            let wal = &mut self.wal;
            retry.run(|| wal.append_range(region.lo(), region.hi(), delta).map(|_| ()))?;
        }
        if self.sync_every_append {
            let sync_result = {
                let retry = self.retry;
                let wal = &mut self.wal;
                retry.run(|| wal.sync())
            };
            if let Err(e) = sync_result {
                self.wal.rollback_last(prev_len, prev_next_lsn)?;
                return Err(e);
            }
        }
        self.engine
            .range_update(region, delta)
            .map_err(StorageError::Engine)?;
        self.records_since_checkpoint += 1;
        Ok(())
    }

    /// Logged atomic batch: every record is validated against the
    /// engine's shape *before* the first WAL append, and a failure
    /// anywhere in the append run (or a failed strict-mode sync) rolls
    /// the whole batch's records back in one truncation. A batch that
    /// returns an error was therefore **not** applied — in whole or in
    /// part — and leaves no durable trace to resurface at recovery,
    /// which is what lets a server promise rejected-means-not-applied
    /// for client batches.
    pub fn update_batch(&mut self, updates: &[(Vec<usize>, i64)]) -> Result<(), StorageError> {
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Durable);
        m.batches.inc();
        m.batch_updates
            .add(u64::try_from(updates.len()).unwrap_or(u64::MAX));
        let _span = rps_obs::Span::enter("durable.update_batch", &m.update_ns);
        for (coords, _) in updates {
            self.engine
                .shape()
                .check(coords)
                .map_err(StorageError::Engine)?;
        }
        let prev_len = self.wal.len();
        let prev_next_lsn = self.wal.last_lsn() + 1;
        for (coords, delta) in updates {
            let append = {
                let retry = self.retry;
                let wal = &mut self.wal;
                retry.run(|| wal.append(coords, *delta).map(|_| ()))
            };
            if let Err(e) = append {
                // `Wal::append` already trimmed its own torn tail;
                // rolling back to the batch start removes the earlier
                // records of this batch too.
                self.wal.rollback_last(prev_len, prev_next_lsn)?;
                return Err(e);
            }
        }
        if self.sync_every_append {
            let sync_result = {
                let retry = self.retry;
                let wal = &mut self.wal;
                retry.run(|| wal.sync())
            };
            if let Err(e) = sync_result {
                self.wal.rollback_last(prev_len, prev_next_lsn)?;
                return Err(e);
            }
        }
        // Shape-checked above, so structural application cannot fail; the
        // engine takes the batch as one unit (one published version for a
        // versioned engine).
        self.engine
            .update_batch(updates)
            .map_err(StorageError::Engine)?;
        self.records_since_checkpoint += u64::try_from(updates.len()).unwrap_or(u64::MAX);
        Ok(())
    }

    /// Range query (read-only; never logged).
    pub fn query(&self, region: &Region) -> Result<i64, StorageError> {
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Durable);
        m.queries.inc();
        let _span = rps_obs::Span::enter("durable.query", &m.query_ns);
        self.engine.query(region).map_err(StorageError::Engine)
    }

    /// **Compatibility path** — caller-managed checkpoint: `persist`
    /// receives the engine and the LSN this snapshot includes, and must
    /// durably save **both** (the LSN out-of-band). On success the WAL
    /// is truncated (replay-time optimization only — recovery is
    /// already correct without it, thanks to the LSN filter).
    ///
    /// Truncation makes this incompatible with a retained snapshot
    /// chain: records older checkpoints would need for fallback are
    /// gone. Use [`Self::checkpoint_to`] for chain-aware checkpoints.
    pub fn checkpoint<Err>(
        &mut self,
        persist: impl FnOnce(&E, u64) -> Result<(), Err>,
    ) -> Result<u64, CheckpointError<Err>> {
        {
            let retry = self.retry;
            let wal = &mut self.wal;
            retry.run(|| wal.sync()).map_err(CheckpointError::Storage)?;
        }
        let lsn = self.wal.last_lsn();
        persist(&self.engine, lsn).map_err(CheckpointError::Persist)?;
        self.wal.checkpoint().map_err(CheckpointError::Storage)?;
        crate::obs::storage().checkpoints.inc();
        self.wal_len_at_checkpoint = 0;
        self.records_since_checkpoint = 0;
        Ok(lsn)
    }

    /// LSN of the most recent logged update (0 when none ever).
    pub fn last_lsn(&self) -> u64 {
        self.wal.last_lsn()
    }

    /// WAL bytes accumulated since the last checkpoint — the byte half
    /// of the [`SnapshotPolicy`] hybrid trigger.
    pub fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.wal.len().saturating_sub(self.wal_len_at_checkpoint)
    }

    /// Updates logged since the last checkpoint (the record half).
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// Unflushed updates currently protected only by the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Moves the wrapped engine through `f`, keeping the WAL, its LSN
    /// counter, the policy and the checkpoint trigger state. Recovery
    /// replays onto a plain engine in place; this then hands the result
    /// to the structure that serves it (e.g. `VersionedEngine::new`)
    /// without a copy and without one publish per replayed record.
    pub fn map_engine<E2>(self, f: impl FnOnce(E) -> E2) -> DurableEngine<E2, L> {
        DurableEngine {
            engine: f(self.engine),
            wal: self.wal,
            sync_every_append: self.sync_every_append,
            retry: self.retry,
            policy: self.policy,
            wal_len_at_checkpoint: self.wal_len_at_checkpoint,
            records_since_checkpoint: self.records_since_checkpoint,
        }
    }

    /// Engine cost counters.
    pub fn stats(&self) -> CostStats {
        self.engine.stats()
    }
}

impl<E: RangeSumEngine<i64> + SnapshotState, L: LogFile> DurableEngine<E, L> {
    /// Checkpoints the engine into `store` as an `RPSSNAP1` artifact at
    /// the current LSN, then GC's snapshots beyond the policy's
    /// retention. Returns the checkpoint LSN.
    ///
    /// The WAL is synced first (so the snapshot never gets *ahead* of
    /// the durable log) but — unlike the legacy [`Self::checkpoint`] —
    /// **never truncated**: bounded recovery time comes from starting
    /// replay at the snapshot's LSN, and the intact log is exactly what
    /// lets [`Self::recover_with`] fall past a corrupt snapshot all the
    /// way to full replay with no data loss.
    ///
    /// A failed snapshot write leaves recovery no worse than before the
    /// call: the WAL still holds everything, and any partial artifact
    /// fails its CRC at load and is quarantined.
    pub fn checkpoint_to<S: SnapshotStore>(&mut self, store: &mut S) -> Result<u64, StorageError> {
        {
            let retry = self.retry;
            let wal = &mut self.wal;
            retry.run(|| wal.sync())?;
        }
        let lsn = self.wal.last_lsn();
        let (dims, box_size, cells) = self.engine.capture();
        let bytes = encode_snapshot(lsn, &dims, &box_size, &cells)?;
        let m = crate::obs::storage();
        let sw = rps_obs::Stopwatch::start();
        {
            let retry = self.retry;
            retry.run(|| store.write(lsn, &bytes))?;
        }
        sw.record(&m.snapshot_save_ns);
        m.snapshot_saves.inc();
        m.snapshot_last_lsn.set(lsn);
        m.checkpoints.inc();
        let retain = self.policy.retain.max(1);
        let lsns = store.list()?;
        if lsns.len() > retain {
            for &old in &lsns[..lsns.len() - retain] {
                // Retention GC is best-effort: a leftover artifact
                // costs disk, not correctness, and the next checkpoint
                // retries it.
                let _gc_best_effort = store.remove(old);
            }
        }
        self.wal_len_at_checkpoint = self.wal.len();
        self.records_since_checkpoint = 0;
        Ok(lsn)
    }

    /// Runs [`Self::checkpoint_to`] iff the [`SnapshotPolicy`] hybrid
    /// trigger (bytes-since-checkpoint OR records-since-checkpoint)
    /// fires; returns the checkpoint LSN when one was cut. Call after a
    /// batch of updates to drive automatic checkpointing.
    pub fn maybe_checkpoint<S: SnapshotStore>(
        &mut self,
        store: &mut S,
    ) -> Result<Option<u64>, StorageError> {
        if self.policy.should_checkpoint(
            self.wal_bytes_since_checkpoint(),
            self.records_since_checkpoint,
        ) {
            self.checkpoint_to(store).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<E: RangeSumEngine<i64> + SnapshotRestore, L: LogFile> DurableEngine<E, L> {
    /// Recovers from a snapshot chain plus the WAL, degrading
    /// gracefully:
    ///
    /// 1. enumerate `store`'s snapshots **newest-first**;
    /// 2. verify header + checksums, load the first valid one and
    ///    replay WAL records with LSN > its header LSN;
    /// 3. quarantine anything corrupt, torn or unreadable (typed in the
    ///    [`RecoveryReport`]) and try the next-older snapshot;
    /// 4. with no usable snapshot, replay the **whole** WAL onto
    ///    `fresh()` — corruption can make recovery slower, never lossy.
    ///
    /// `fresh` builds the empty engine full replay starts from (its
    /// geometry is the caller's, since no snapshot survived to provide
    /// one); it is not called when a snapshot loads.
    pub fn recover_with<S: SnapshotStore>(
        store: &mut S,
        log: L,
        fresh: impl FnOnce() -> Result<E, StorageError>,
    ) -> Result<(DurableEngine<E, L>, RecoveryReport), StorageError> {
        let (mut wal, records) = Wal::from_log(log)?;
        let m = crate::obs::storage();
        let mut quarantined: Vec<(u64, SnapshotCheckFailed)> = Vec::new();
        let mut quarantine_failures = 0u64;
        let mut base: Option<(E, u64)> = None;
        let lsns = store.list()?;
        for &slot in lsns.iter().rev() {
            let sw = rps_obs::Stopwatch::start();
            let failed = match store.read(slot) {
                Err(_) => SnapshotCheckFailed::Unreadable,
                Ok(bytes) => match decode_snapshot(&bytes) {
                    Err(check) => check,
                    Ok((header, cells)) => {
                        match E::restore(&header.dims, &header.box_size, cells) {
                            // The bytes verified but the engine rejects
                            // the geometry — same policy as a corrupt
                            // header: quarantine, fall back.
                            Err(_) => SnapshotCheckFailed::Geometry,
                            Ok(engine) => {
                                sw.record(&m.snapshot_load_ns);
                                m.snapshot_loads.inc();
                                base = Some((engine, header.lsn));
                                break;
                            }
                        }
                    }
                },
            };
            m.snapshot_fallbacks.inc();
            quarantined.push((slot, failed));
            if store.quarantine(slot).is_err() {
                quarantine_failures += 1;
            }
        }
        let (mut engine, snap_lsn, source) = match base {
            Some((engine, lsn)) => (engine, lsn, RecoverySource::Snapshot(lsn)),
            None => (fresh()?, 0, RecoverySource::FullReplay),
        };
        let mut replayed = 0u64;
        // Bytes of the replay-skipped prefix: records the snapshot
        // already contains still sit in the (untruncated) log, but they
        // must not count toward the next policy trigger.
        let mut prefix_bytes = 0u64;
        for rec in &records {
            if rec.lsn > snap_lsn {
                replay_record(&mut engine, rec)?;
                replayed += 1;
            } else {
                prefix_bytes += rec.encoded_len() as u64;
            }
        }
        wal.ensure_lsn_after(snap_lsn);
        Ok((
            DurableEngine {
                engine,
                wal,
                sync_every_append: false,
                retry: RetryPolicy::default(),
                policy: SnapshotPolicy::default(),
                wal_len_at_checkpoint: prefix_bytes,
                records_since_checkpoint: 0,
            },
            RecoveryReport {
                source,
                quarantined,
                replayed,
                quarantine_failures,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::snapshot;
    use rps_core::RpsEngine;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rps-durable-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn full() -> Region {
        Region::new(&[0, 0], &[7, 7]).unwrap()
    }

    /// Persists snapshot + LSN sidecar the way a real caller would.
    fn persist_with_lsn(
        e: &RpsEngine<i64>,
        lsn: u64,
        snap: &Path,
    ) -> Result<(), snapshot::SnapshotError> {
        snapshot::save_rps(e, std::fs::File::create(snap).unwrap())?;
        std::fs::write(snap.with_extension("lsn"), lsn.to_string()).unwrap();
        Ok(())
    }

    fn load_with_lsn(snap: &Path) -> (RpsEngine<i64>, u64) {
        let engine = snapshot::load_rps(std::fs::File::open(snap).unwrap()).unwrap();
        let lsn: u64 = std::fs::read_to_string(snap.with_extension("lsn"))
            .map_or(0, |s| s.trim().parse().unwrap());
        (engine, lsn)
    }

    #[test]
    fn rejected_batch_leaves_no_durable_trace() {
        let wal = tmp("batchatomic.wal");
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            let len_before = d.wal_bytes();
            let lsn_before = d.last_lsn();

            // Valid prefix, out-of-bounds tail: must reject before the
            // first append, so neither the log nor the engine moves.
            let bad: Vec<(Vec<usize>, i64)> =
                vec![(vec![1, 1], 5), (vec![2, 2], 6), (vec![9, 9], 7)];
            assert!(matches!(
                d.update_batch(&bad),
                Err(StorageError::Engine(_))
            ));
            assert_eq!(d.wal_bytes(), len_before, "rejected batch logged records");
            assert_eq!(d.last_lsn(), lsn_before, "rejected batch advanced the LSN");
            assert_eq!(d.query(&full()).unwrap(), 1);

            // A clean batch still goes through afterwards.
            d.update_batch(&[(vec![1, 1], 5), (vec![2, 2], 6)]).unwrap();
            assert_eq!(d.query(&full()).unwrap(), 12);
        }
        // Recovery replays exactly the accepted updates — no phantom
        // prefix from the rejected batch.
        let d = DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 12);
    }

    #[test]
    fn crash_before_checkpoint_recovers_from_wal() {
        let wal = tmp("crash.wal");
        let snap = tmp("crash.rps");

        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.checkpoint(|e, lsn| persist_with_lsn(e, lsn, &snap))
                .unwrap();
            d.update(&[2, 2], 10).unwrap();
            d.update(&[5, 5], 32).unwrap();
            // dropped here without another checkpoint
        }

        let (base, lsn) = load_with_lsn(&snap);
        let d = DurableEngine::open(base, &wal, lsn).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 42);
    }

    #[test]
    fn crash_between_persist_and_truncate_does_not_double_apply() {
        // The window the LSN filter exists for: the snapshot succeeded
        // but the WAL truncation never ran (persist returns Err AFTER
        // durably saving, simulating a crash at exactly that point).
        let wal = tmp("window.wal");
        let snap = tmp("window.rps");

        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[1, 1], 100).unwrap();
            // Persist succeeds durably, then "crash" before truncation.
            let result: Result<u64, _> = d.checkpoint(|e, lsn| {
                persist_with_lsn(e, lsn, &snap).unwrap();
                Err(()) // simulate dying before checkpoint() truncates
            });
            assert!(matches!(result, Err(CheckpointError::Persist(()))));
            assert!(d.wal_bytes() > 0, "WAL must still hold the record");
        }

        // Recovery: snapshot already CONTAINS the +100; the WAL record
        // for it (lsn 1) must be skipped, not re-applied.
        let (base, lsn) = load_with_lsn(&snap);
        assert_eq!(lsn, 1);
        let d = DurableEngine::open(base, &wal, lsn).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 100, "double-apply detected");
    }

    #[test]
    fn updates_after_checkpoint_and_restart_survive_next_recovery() {
        // Regression (found in review): session 1 checkpoints (lsn 3,
        // WAL truncated) and shuts down cleanly; session 2 reopens and
        // applies more updates; session 3 recovers. Without an LSN floor
        // the session-2 records get LSNs 1.. and are filtered out.
        let wal = tmp("restartlsn.wal");
        let snap = tmp("restartlsn.rps");

        // Session 1.
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.update(&[0, 1], 2).unwrap();
            d.update(&[0, 2], 4).unwrap();
            d.checkpoint(|e, lsn| persist_with_lsn(e, lsn, &snap))
                .unwrap();
        }
        // Session 2: more updates, no checkpoint ("crash" at the end).
        {
            let (base, lsn) = load_with_lsn(&snap);
            assert_eq!(lsn, 3);
            let mut d = DurableEngine::open(base, &wal, lsn).unwrap();
            d.update(&[1, 0], 8).unwrap();
            d.update(&[1, 1], 16).unwrap();
            assert_eq!(d.last_lsn(), 5, "LSNs must continue past the snapshot");
        }
        // Session 3: recovery must include the session-2 updates.
        let (base, lsn) = load_with_lsn(&snap);
        let d = DurableEngine::open(base, &wal, lsn).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 31);
    }

    #[test]
    fn checkpoint_clears_wal() {
        let wal = tmp("ckpt.wal");
        let snap = tmp("ckpt.rps");
        let mut d =
            DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        d.update(&[1, 1], 7).unwrap();
        assert!(d.wal_bytes() > 0);
        let lsn = d
            .checkpoint(|e, lsn| persist_with_lsn(e, lsn, &snap))
            .unwrap();
        assert_eq!(lsn, 1);
        assert_eq!(d.wal_bytes(), 0);

        let (base, lsn) = load_with_lsn(&snap);
        let d2 = DurableEngine::open(base, &wal, lsn).unwrap();
        assert_eq!(d2.query(&full()).unwrap(), 7);
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let wal = tmp("torn.wal");
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.update(&[1, 1], 2).unwrap();
        }
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let d = DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 1); // first update survived
    }

    #[test]
    fn range_update_recovers_from_wal() {
        let wal = tmp("range.wal");
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            let box2x3 = Region::new(&[2, 1], &[3, 3]).unwrap();
            d.range_update(&box2x3, 5).unwrap(); // 6 cells × 5 = 30
            d.update(&[7, 7], 2).unwrap();
            assert_eq!(d.query(&full()).unwrap(), 33);
            assert_eq!(d.last_lsn(), 3, "range record takes one LSN");
        }
        // Recovery replays the range record as a single bulk op.
        let d = DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 33);
        let inside = Region::new(&[2, 1], &[2, 1]).unwrap();
        assert_eq!(d.query(&inside).unwrap(), 5, "every cell of the box got the delta");
    }

    #[test]
    fn torn_range_record_drops_whole_box_atomically() {
        let wal = tmp("range-torn.wal");
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.range_update(&Region::new(&[0, 0], &[7, 7]).unwrap(), 3)
                .unwrap();
        }
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let d = DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        // All 64 cells of the torn bulk update vanish together; the
        // intact point update survives.
        assert_eq!(d.query(&full()).unwrap(), 1);
    }

    #[test]
    fn range_update_rejects_out_of_bounds_without_logging() {
        let wal = tmp("range-oob.wal");
        let mut d =
            DurableEngine::open(RpsEngine::<i64>::zeros(&[4, 4]).unwrap(), &wal, 0).unwrap();
        let out = Region::new(&[2, 2], &[5, 5]).unwrap();
        assert!(d.range_update(&out, 1).is_err());
        assert_eq!(d.wal_bytes(), 0, "invalid range updates must not be logged");
    }

    #[test]
    fn range_update_survives_snapshot_chain_recovery() {
        let dir = tmp_dir("range-snap");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            let mut store = FsSnapshotDir::open(&snaps).unwrap();
            d.range_update(&Region::new(&[0, 0], &[1, 1]).unwrap(), 10)
                .unwrap(); // 4 cells → 40, lsn 1
            d.checkpoint_to(&mut store).unwrap();
            d.range_update(&Region::new(&[4, 4], &[5, 5]).unwrap(), 1)
                .unwrap(); // post-checkpoint tail, lsn 2
        }
        let (d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(1));
        assert_eq!(report.replayed, 1, "only the post-checkpoint range record");
        assert_eq!(d.query(&full()).unwrap(), 44, "no loss, no double-apply");
    }

    #[test]
    fn failed_checkpoint_keeps_wal() {
        let wal = tmp("fail.wal");
        let mut d =
            DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        d.update(&[3, 3], 5).unwrap();
        let before = d.wal_bytes();
        let result: Result<u64, _> = d.checkpoint(|_, _| Err("disk full"));
        assert!(matches!(result, Err(CheckpointError::Persist("disk full"))));
        assert_eq!(
            d.wal_bytes(),
            before,
            "WAL must survive a failed checkpoint"
        );
    }

    #[test]
    fn rejects_out_of_bounds_without_logging() {
        let wal = tmp("oob.wal");
        let mut d =
            DurableEngine::open(RpsEngine::<i64>::zeros(&[4, 4]).unwrap(), &wal, 0).unwrap();
        assert!(d.update(&[9, 9], 1).is_err());
        assert_eq!(d.wal_bytes(), 0, "invalid updates must not be logged");
    }

    #[test]
    fn sync_every_append_mode() {
        fn full_small() -> Region {
            Region::new(&[0, 0], &[3, 3]).unwrap()
        }
        let wal = tmp("strict.wal");
        let mut d =
            DurableEngine::open(RpsEngine::<i64>::zeros(&[4, 4]).unwrap(), &wal, 0).unwrap();
        d.set_sync_every_append(true);
        d.update(&[1, 1], 3).unwrap();
        assert_eq!(d.query(&full_small()).unwrap(), 3);
    }

    // --- RPSSNAP1 snapshot-chain checkpoints ---------------------------

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rps-durable-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fresh_8x8() -> Result<RpsEngine<i64>, StorageError> {
        RpsEngine::<i64>::zeros(&[8, 8]).map_err(StorageError::Engine)
    }

    #[test]
    fn checkpoint_to_and_recover_round_trip() {
        let dir = tmp_dir("snapchain");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            let mut store = FsSnapshotDir::open(&snaps).unwrap();
            d.update(&[1, 1], 10).unwrap();
            d.update(&[2, 2], 20).unwrap();
            let lsn = d.checkpoint_to(&mut store).unwrap();
            assert_eq!(lsn, 2);
            assert!(d.wal_bytes() > 0, "checkpoint_to must not truncate the WAL");
            d.update(&[3, 3], 12).unwrap(); // post-checkpoint tail
        }
        let (d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(2));
        assert_eq!(report.replayed, 1, "only the post-checkpoint record");
        assert!(report.quarantined.is_empty());
        assert_eq!(d.query(&full()).unwrap(), 42);
        assert_eq!(d.last_lsn(), 3, "LSN counter continues past recovery");
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older_then_full_replay() {
        let dir = tmp_dir("snapfallback");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            let mut store = FsSnapshotDir::open(&snaps).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.checkpoint_to(&mut store).unwrap(); // lsn 1
            d.update(&[0, 1], 2).unwrap();
            d.checkpoint_to(&mut store).unwrap(); // lsn 2
            d.update(&[0, 2], 4).unwrap();
        }
        // Flip one payload byte in the newest snapshot.
        let store = FsSnapshotDir::open(&snaps).unwrap();
        let newest = store.slot_path(2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let len = bytes.len();
        bytes[len - 20] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();

        let (d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(1));
        assert_eq!(
            report.quarantined,
            vec![(2, crate::SnapshotCheckFailed::PayloadCrc)]
        );
        assert_eq!(report.replayed, 2);
        assert_eq!(
            d.query(&full()).unwrap(),
            7,
            "no data loss through fallback"
        );
        // The bad artifact left the chain.
        assert_eq!(
            FsSnapshotDir::open(&snaps).unwrap().list().unwrap(),
            vec![1]
        );

        // Corrupt the remaining snapshot too → full replay, still lossless.
        let store = FsSnapshotDir::open(&snaps).unwrap();
        let mut bytes = std::fs::read(store.slot_path(1)).unwrap();
        bytes[0] = b'X';
        std::fs::write(store.slot_path(1), &bytes).unwrap();
        let (d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::FullReplay);
        assert_eq!(report.fallbacks(), 1);
        assert_eq!(report.replayed, 3);
        assert_eq!(d.query(&full()).unwrap(), 7);
        assert!(
            store.list().unwrap().is_empty(),
            "all artifacts quarantined"
        );
    }

    #[test]
    fn recover_with_empty_chain_is_full_replay() {
        let dir = tmp_dir("snapnone");
        let wal = dir.join("ops.wal");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            d.update(&[4, 4], 9).unwrap();
        }
        let (d, report) = DurableEngine::recover(&dir.join("snaps"), &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::FullReplay);
        assert_eq!(report.fallbacks(), 0, "an empty chain is not corruption");
        assert_eq!(d.query(&full()).unwrap(), 9);
    }

    #[test]
    fn maybe_checkpoint_hybrid_trigger_and_retention_gc() {
        let dir = tmp_dir("snappolicy");
        let wal = dir.join("ops.wal");
        let mut store = FsSnapshotDir::open(&dir.join("snaps")).unwrap();
        let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
        d.set_snapshot_policy(SnapshotPolicy {
            max_wal_bytes: None,
            max_records: Some(3),
            retain: 2,
        });
        let mut cut = Vec::new();
        for i in 0..12u64 {
            d.update(&[(i % 8) as usize, 0], 1).unwrap();
            if let Some(lsn) = d.maybe_checkpoint(&mut store).unwrap() {
                cut.push(lsn);
            }
        }
        assert_eq!(cut, vec![3, 6, 9, 12], "every 3rd record cuts a checkpoint");
        assert_eq!(
            store.list().unwrap(),
            vec![9, 12],
            "retention keeps the newest two"
        );
        assert_eq!(d.records_since_checkpoint(), 0);
        // Recovery from the retained chain reproduces the state.
        let (r, report) = DurableEngine::recover_with(
            &mut FsSnapshotDir::open(&dir.join("snaps")).unwrap(),
            crate::FsLogFile::open(&wal).unwrap(),
            fresh_8x8,
        )
        .unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(12));
        assert_eq!(r.query(&full()).unwrap(), 12);
    }
}
