//! Named per-tenant cubes: one lock-free read engine per tenant, an
//! optional durable write path over that same engine, and admission
//! state.
//!
//! Each tenant holds exactly one cube, a [`VersionedEngine`]. Reads
//! never take a tenant lock — they pin its published versions (the
//! MVCC-lite path). A durable tenant's [`DurableEngine`] wraps that very
//! engine, so a write is WAL append → one copy-on-write publish →
//! snapshot-policy check, all under the per-tenant durable mutex. The
//! published state therefore never reflects an update the WAL could
//! lose, and a crash between WAL append and publish is repaired by
//! recovery exactly like any other torn write. Checkpoints capture the
//! current version ([`rps_core::Version::to_cube`]).
//!
//! Provisioning a durable tenant recovers into a plain [`RpsEngine`]
//! (snapshot load plus in-place WAL replay) and then moves that engine
//! into the [`VersionedEngine`] as its version 0 — one publish, however
//! long the replayed tail.
//!
//! The registry hosts up to `max_tenants` tenants; provisioning one
//! past the cap evicts the least-recently-used tenant (after a
//! best-effort final checkpoint when it is durable).
//!
//! Lock classes, outermost first:
//! `reserved` (in-flight creations), then `tenants` (registry map),
//! then any per-tenant `durable` mutex. `reserved` and `tenants` are
//! never held together.
// lock-order: reserved < tenants < durable

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use rps_core::{RpsEngine, VersionedEngine};
use rps_storage::{
    DurableEngine, FsSnapshotDir, RecoveryReport, SnapshotPolicy, SnapshotStore, StorageError,
};

use crate::quota::{QuotaState, TenantQuota};
use crate::wire::{RejectCode, TenantStats};

/// The durable half of a tenant: the WAL wrapped around the tenant's
/// versioned engine, plus its snapshot directory, serialized behind one
/// mutex (writes are per-tenant serial by design — the paper's update
/// cost dominates the lock).
#[derive(Debug)]
pub struct DurableTenant {
    engine: DurableEngine<VersionedEngine<i64>>,
    store: FsSnapshotDir,
    last_checkpoint_lsn: u64,
}

impl DurableTenant {
    /// Cuts a checkpoint when the snapshot policy's trigger fires.
    fn maybe_checkpoint(&mut self) -> Result<(), ServeError> {
        // lint:allow(L7): the WAL-first contract requires the policy-
        // driven checkpoint to run under the same per-tenant write lock
        // that ordered the update; snapshot I/O here is the feature.
        if let Some(lsn) = self.engine.maybe_checkpoint(&mut self.store)? {
            self.last_checkpoint_lsn = lsn;
        }
        Ok(())
    }
}

/// One hosted cube.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    /// The tenant's cube. For a durable tenant this is a second handle
    /// to the engine inside `durable` (an `Arc` clone, not a copy).
    versioned: VersionedEngine<i64>,
    durable: Option<Mutex<DurableTenant>>,
    quota: QuotaState,
    /// Logical LRU stamp (registry counter value at last touch).
    last_used: AtomicU64,
}

impl Tenant {
    /// Tenant name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lock-free read/write engine (reads pin published versions).
    /// On a durable tenant it is the cube the WAL protects, so writes
    /// belong on [`Tenant::update`] / [`Tenant::batch_update`].
    #[must_use]
    pub fn versioned(&self) -> &VersionedEngine<i64> {
        &self.versioned
    }

    /// Admission state.
    #[must_use]
    pub fn quota(&self) -> &QuotaState {
        &self.quota
    }

    /// Whether writes go through the WAL-backed durable path.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Applies one point update and publishes it: WAL-first when
    /// durable.
    pub fn update(&self, coords: &[usize], delta: i64) -> Result<(), ServeError> {
        let Some(durable) = &self.durable else {
            self.versioned.update(coords, delta)?;
            return Ok(());
        };
        let mut d = lock_durable(durable);
        d.engine.update(coords, delta)?;
        d.maybe_checkpoint()
    }

    /// Applies a batch atomically as one published version: readers
    /// observe all updates or none, and the durable path validates every
    /// record before the first WAL append (rolling the whole batch back
    /// on any append failure) — so a rejected batch leaves no durable
    /// trace to reappear at the next checkpoint or restart.
    pub fn batch_update(&self, updates: &[(Vec<usize>, i64)]) -> Result<(), ServeError> {
        let Some(durable) = &self.durable else {
            self.versioned.apply_batch(updates)?;
            return Ok(());
        };
        let mut d = lock_durable(durable);
        d.engine.update_batch(updates)?;
        d.maybe_checkpoint()
    }

    /// Forces a durable checkpoint, returning its LSN.
    pub fn checkpoint(&self) -> Result<u64, ServeError> {
        let Some(durable) = &self.durable else {
            return Err(ServeError::Reject(
                RejectCode::NotDurable,
                "server runs without --data-dir".to_string(),
            ));
        };
        let mut d = lock_durable(durable);
        let DurableTenant {
            engine,
            store,
            last_checkpoint_lsn,
        } = &mut *d;
        // lint:allow(L7): explicit checkpoint request; the snapshot write
        // must serialize with this tenant's WAL appends.
        let lsn = engine.checkpoint_to(store)?;
        *last_checkpoint_lsn = lsn;
        Ok(lsn)
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> TenantStats {
        let last_checkpoint_lsn = self
            .durable
            .as_ref()
            .map_or(0, |d| lock_durable(d).last_checkpoint_lsn);
        TenantStats {
            version: self.versioned.current_version(),
            update_count: self.versioned.update_count(),
            last_checkpoint_lsn,
            dims: self.versioned.shape().dims().to_vec(),
        }
    }
}

fn lock_durable(m: &Mutex<DurableTenant>) -> std::sync::MutexGuard<'_, DurableTenant> {
    match m.lock() {
        Ok(g) => g,
        // A panic while holding the durable lock cannot leave the pair
        // torn in a way recovery doesn't already handle (WAL-first), so
        // serve on rather than wedging the tenant.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Errors from tenant operations: a typed wire rejection or a storage
/// failure surfaced as [`RejectCode::Internal`].
#[derive(Debug)]
pub enum ServeError {
    /// Mapped directly to a typed wire rejection.
    Reject(RejectCode, String),
    /// Storage-stack failure (reported as `internal`).
    Storage(StorageError),
    /// Engine failure (reported as `bad_payload` — the request named
    /// coordinates the cube does not have).
    Engine(ndcube::NdError),
}

impl ServeError {
    /// The wire rejection this error maps to, as `(code, message)`.
    #[must_use]
    pub fn reject(&self) -> (RejectCode, String) {
        match self {
            ServeError::Reject(code, msg) => (*code, msg.clone()),
            ServeError::Storage(e) => (RejectCode::Internal, e.to_string()),
            ServeError::Engine(e) => (RejectCode::BadPayload, e.to_string()),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (code, msg) = self.reject();
        write!(f, "{}: {msg}", code.as_str())
    }
}

impl std::error::Error for ServeError {}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> ServeError {
        ServeError::Storage(e)
    }
}

impl From<ndcube::NdError> for ServeError {
    fn from(e: ndcube::NdError) -> ServeError {
        ServeError::Engine(e)
    }
}

/// How tenant state is kept.
#[derive(Debug, Clone)]
pub enum Persistence {
    /// In-memory only; state dies with the process.
    Ephemeral,
    /// WAL + snapshot chain per tenant under this directory, with the
    /// given automatic-checkpoint policy.
    Durable {
        /// Root directory; each tenant gets `<root>/<name>/`.
        root: PathBuf,
        /// Automatic checkpoint trigger.
        policy: SnapshotPolicy,
    },
}

/// The tenant registry: named cubes behind an `RwLock` map (reads take
/// the map read lock only to clone an `Arc`).
#[derive(Debug)]
pub struct Registry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Names with a provisioning in flight. A name is reserved here
    /// *before* any durable recovery I/O runs, because recovery opens
    /// (and may repair-truncate) `<root>/<name>/wal.log` — which must
    /// never happen for a name that is live in `tenants` or mid-recovery
    /// on another thread.
    reserved: Mutex<HashSet<String>>,
    persistence: Persistence,
    quota: TenantQuota,
    max_tenants: usize,
    lru_clock: AtomicU64,
}

/// Removes a name from [`Registry::reserved`] on drop, so every exit
/// from [`Registry::create`] — including error paths — releases the
/// reservation.
struct Reservation<'a> {
    reserved: &'a Mutex<HashSet<String>>,
    name: &'a str,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        lock_set(self.reserved).remove(self.name);
    }
}

fn lock_set<'a>(m: &'a Mutex<HashSet<String>>) -> std::sync::MutexGuard<'a, HashSet<String>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Registry {
    /// An empty registry. `max_tenants == 0` means unlimited.
    #[must_use]
    pub fn new(persistence: Persistence, quota: TenantQuota, max_tenants: usize) -> Registry {
        Registry {
            tenants: RwLock::new(HashMap::new()),
            reserved: Mutex::new(HashSet::new()),
            persistence,
            quota,
            max_tenants,
            lru_clock: AtomicU64::new(0),
        }
    }

    fn read_map(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Tenant>>> {
        match self.tenants.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<Tenant>>> {
        match self.tenants.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a tenant, stamping its LRU slot.
    pub fn get(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        let map = self.read_map();
        let Some(t) = map.get(name) else {
            return Err(ServeError::Reject(
                RejectCode::UnknownTenant,
                format!("no tenant `{name}`"),
            ));
        };
        t.last_used.store(
            self.lru_clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Ok(Arc::clone(t))
    }

    /// Provisions (or recovers, when durable state exists on disk) a
    /// tenant with the given cube dimensions. Evicts the LRU tenant
    /// when the registry is at capacity; returns the number of
    /// evictions performed (0 or 1).
    pub fn create(&self, name: &str, dims: &[usize]) -> Result<usize, ServeError> {
        if name.is_empty() || name.len() > 255 {
            return Err(ServeError::Reject(
                RejectCode::BadPayload,
                "tenant name must be 1..=255 bytes".to_string(),
            ));
        }
        // Reserve the name, then check liveness, and only then recover:
        // durable recovery opens (and may repair-truncate) the tenant's
        // WAL, so it must never run while the same name is hosted or a
        // concurrent create of it is mid-recovery. The reservation is
        // dropped after the map insert, so the name is always in at
        // least one of the two sets until creation fully resolves.
        if !lock_set(&self.reserved).insert(name.to_string()) {
            return Err(ServeError::Reject(
                RejectCode::TenantExists,
                format!("tenant `{name}` is being provisioned"),
            ));
        }
        let _reservation = Reservation {
            reserved: &self.reserved,
            name,
        };
        if self.read_map().contains_key(name) {
            return Err(ServeError::Reject(
                RejectCode::TenantExists,
                format!("tenant `{name}` already exists"),
            ));
        }
        let tenant = self.build_tenant(name, dims)?;
        let mut map = self.write_map();
        let mut evicted = 0usize;
        if self.max_tenants != 0 && map.len() >= self.max_tenants {
            let lru = map
                .values()
                .min_by_key(|t| t.last_used.load(Ordering::Relaxed))
                .map(|t| t.name.clone());
            if let Some(victim) = lru {
                if let Some(t) = map.remove(&victim) {
                    // Best-effort final checkpoint: the WAL already holds
                    // everything, so a failure here costs recovery time,
                    // never data.
                    if t.is_durable() {
                        let _checkpoint_best_effort = t.checkpoint();
                    }
                    crate::obs::serve().tenant_evictions.inc();
                    evicted = 1;
                }
            }
        }
        map.insert(name.to_string(), Arc::new(tenant));
        Ok(evicted)
    }

    fn build_tenant(&self, name: &str, dims: &[usize]) -> Result<Tenant, ServeError> {
        let (versioned, durable) = match &self.persistence {
            Persistence::Ephemeral => (VersionedEngine::zeros(dims)?, None),
            Persistence::Durable { root, policy } => {
                let (d, _report) = recover_tenant(root, name, dims, *policy)?;
                // A second handle to the one cube the WAL writes into.
                let versioned = VersionedEngine::clone(d.engine.engine());
                (versioned, Some(Mutex::new(d)))
            }
        };
        Ok(Tenant {
            name: name.to_string(),
            versioned,
            durable,
            quota: QuotaState::new(self.quota),
            last_used: AtomicU64::new(self.lru_clock.fetch_add(1, Ordering::Relaxed)),
        })
    }

    /// Names of all hosted tenants.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read_map().keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot handles to all hosted tenants (for drain).
    #[must_use]
    pub fn all(&self) -> Vec<Arc<Tenant>> {
        self.read_map().values().map(Arc::clone).collect()
    }
}

/// Recovers (or freshly creates) one tenant's durable state under
/// `<root>/<name>/`: snapshot chain in `snapshots/`, WAL in `wal.log`.
fn recover_tenant(
    root: &Path,
    name: &str,
    dims: &[usize],
    policy: SnapshotPolicy,
) -> Result<(DurableTenant, RecoveryReport), ServeError> {
    let dir = root.join(name);
    let snap_dir = dir.join("snapshots");
    std::fs::create_dir_all(&snap_dir).map_err(|source| StorageError::Io {
        op: "create tenant dir",
        source,
    })?;
    let wal_path = dir.join("wal.log");
    let dims_owned = dims.to_vec();
    let (engine, report) = DurableEngine::recover(&snap_dir, &wal_path, move || {
        RpsEngine::zeros(&dims_owned).map_err(StorageError::Engine)
    })?;
    // Replay ran in place on the plain engine; the cube now moves into
    // the versioned engine as version 0 — one publish for the whole tail.
    let mut engine = engine.map_engine(VersionedEngine::new);
    engine.set_snapshot_policy(policy);
    let store = FsSnapshotDir::open(&snap_dir)?;
    let last_checkpoint_lsn = store.list()?.last().copied().unwrap_or(0);
    Ok((
        DurableTenant {
            engine,
            store,
            last_checkpoint_lsn,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndcube::Region;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rps-serve-tenant-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    #[test]
    fn ephemeral_update_and_query() {
        let reg = Registry::new(Persistence::Ephemeral, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        let t = reg.get("a").unwrap();
        t.update(&[3, 4], 7).unwrap();
        let snap = t.versioned().snapshot();
        let sum = snap.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
        assert_eq!(sum, 7);
        assert!(t.checkpoint().is_err(), "ephemeral tenants cannot snapshot");
    }

    #[test]
    fn unknown_and_duplicate_tenants() {
        let reg = Registry::new(Persistence::Ephemeral, TenantQuota::default(), 0);
        assert!(matches!(
            reg.get("missing").unwrap_err(),
            ServeError::Reject(RejectCode::UnknownTenant, _)
        ));
        reg.create("a", &[4]).unwrap();
        assert!(matches!(
            reg.create("a", &[4]).unwrap_err(),
            ServeError::Reject(RejectCode::TenantExists, _)
        ));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let reg = Registry::new(Persistence::Ephemeral, TenantQuota::default(), 2);
        reg.create("a", &[4]).unwrap();
        reg.create("b", &[4]).unwrap();
        // Touch `a` so `b` is the LRU victim.
        let _ = reg.get("a").unwrap();
        let evicted = reg.create("c", &[4]).unwrap();
        assert_eq!(evicted, 1);
        let mut names = reg.names();
        names.sort();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn durable_tenant_survives_reprovisioning() {
        let root = tmp("durable-roundtrip");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("sales", &[8, 8]).unwrap();
            let t = reg.get("sales").unwrap();
            t.update(&[1, 1], 5).unwrap();
            t.update(&[2, 2], 6).unwrap();
            let lsn = t.checkpoint().unwrap();
            assert!(lsn >= 2);
            t.update(&[3, 3], 9).unwrap(); // WAL-only tail past the snapshot
        }
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("sales", &[8, 8]).unwrap();
        let t = reg.get("sales").unwrap();
        let snap = t.versioned().snapshot();
        let sum = snap.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
        assert_eq!(sum, 20, "snapshot base + WAL tail must both recover");
        assert_eq!(t.stats().last_checkpoint_lsn, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn durable_writes_publish_once_and_replay_publishes_nothing() {
        let root = tmp("one-cube");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("a", &[8, 8]).unwrap();
            let t = reg.get("a").unwrap();
            for i in 0..20 {
                t.update(&[i % 8, (i * 3) % 8], 1).unwrap();
            }
            t.batch_update(&[(vec![0, 0], 2), (vec![7, 7], 3)]).unwrap();
            // One version per point update, one for the whole batch.
            assert_eq!(t.versioned().current_version(), 21);
        }
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        let t = reg.get("a").unwrap();
        // The 22-record WAL tail replayed onto the plain engine; the
        // recovered cube is published once, as version 0.
        assert_eq!(t.versioned().current_version(), 0);
        assert_eq!(t.versioned().total(), 25);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_create_never_reopens_a_live_tenants_wal() {
        let root = tmp("dup-create");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("sales", &[8, 8]).unwrap();
            let t = reg.get("sales").unwrap();
            t.update(&[1, 1], 5).unwrap();
            // The duplicate create must be refused before any recovery
            // I/O touches the live tenant's directory.
            assert!(matches!(
                reg.create("sales", &[8, 8]).unwrap_err(),
                ServeError::Reject(RejectCode::TenantExists, _)
            ));
            // The live WAL is still intact and appendable.
            t.update(&[2, 2], 6).unwrap();
        }
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("sales", &[8, 8]).unwrap();
        let t = reg.get("sales").unwrap();
        let snap = t.versioned().snapshot();
        let sum = snap.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
        assert_eq!(sum, 11, "updates around the duplicate create must survive");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_creates_of_one_name_yield_exactly_one_winner() {
        let root = tmp("race-create");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        let reg = Arc::new(Registry::new(persistence, TenantQuota::default(), 0));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    reg.create("hot", &[8, 8]).is_ok()
                })
            })
            .collect();
        let wins = threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(wins, 1, "exactly one create may open the tenant's WAL");
        assert!(reg.get("hot").is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rejected_batch_leaves_no_trace_on_either_path() {
        let root = tmp("batch-reject");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("a", &[8, 8]).unwrap();
            let t = reg.get("a").unwrap();
            t.update(&[0, 0], 1).unwrap();
            let version_before = t.versioned().current_version();
            // Valid prefix, out-of-bounds last item: the whole batch
            // must be rejected with no durable or published effect.
            let bad: Vec<(Vec<usize>, i64)> =
                vec![(vec![1, 1], 5), (vec![2, 2], 6), (vec![9, 9], 7)];
            assert!(t.batch_update(&bad).is_err());
            assert_eq!(t.versioned().current_version(), version_before);
            let snap = t.versioned().snapshot();
            assert_eq!(snap.total(), 1, "rejected prefix published");
        }
        // The rejected prefix must not resurface from the WAL either.
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        let t = reg.get("a").unwrap();
        let snap = t.versioned().snapshot();
        let sum = snap.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
        assert_eq!(sum, 1, "rejected batch reappeared after recovery");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn batch_publishes_atomically() {
        let reg = Registry::new(Persistence::Ephemeral, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        let t = reg.get("a").unwrap();
        let before = t.versioned().current_version();
        t.batch_update(&[(vec![0, 0], 1), (vec![7, 7], 2)]).unwrap();
        assert_eq!(t.versioned().current_version(), before + 1);
        let snap = t.versioned().snapshot();
        assert_eq!(snap.total(), 3);
    }
}
