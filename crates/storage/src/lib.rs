//! # rps-storage — simulated block storage for disk-resident data cubes
//!
//! Section 4.4 of the RPS paper ("Practical Considerations") argues that
//! in realistic deployments the RP array lives on disk while the much
//! smaller overlay stays in main memory, and that the overlay box size
//! should be chosen so one box's RP region fills a whole number of disk
//! pages — making both queries and updates cost a *constant number of
//! block accesses*.
//!
//! The paper has no storage testbed; this crate supplies the substitute:
//! an in-memory [`BlockDevice`] that counts page reads/writes (the
//! quantity §4.4 reasons about, independent of the physical medium), an
//! LRU [`BufferPool`] with pin counts and dirty write-back, a
//! page-mapped [`DiskArray`] with either row-major or **box-aligned**
//! layout, and [`DiskRpsEngine`] — the paper's deployment: overlay in
//! RAM, RP behind the pool.
//!
//! ```
//! use rps_storage::{DeviceConfig, DiskRpsEngine};
//! use rps_core::RangeSumEngine;
//! use ndcube::{NdCube, Region};
//!
//! let cube = NdCube::from_fn(&[16, 16], |c| (c[0] + c[1]) as i64).unwrap();
//! let mut e = DiskRpsEngine::from_cube_uniform(
//!     &cube, 4, DeviceConfig { cells_per_page: 16 }, 8).unwrap();
//! let r = Region::new(&[3, 2], &[12, 13]).unwrap();
//! let sum = e.query(&r).unwrap();
//! e.update(&[5, 5], 10).unwrap();
//! assert_eq!(e.query(&r).unwrap(), sum + 10);
//! let io = e.io_stats();
//! assert!(io.page_reads > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checked;
mod device;
mod disk_array;
mod diskrps;
mod durable;
mod error;
mod fault;
mod file_device;
mod latency;
pub mod obs;
mod pool;
mod snapshot;
mod wal;

pub use checked::CheckedStore;
pub use device::{BlockDevice, DeviceConfig, DeviceStats, PageId};
pub use disk_array::{DiskArray, Layout};
pub use diskrps::{DiskRpsEngine, ScrubReport};
pub use durable::DurableEngine;
pub use error::{to_nd_error, CheckpointError, RetryPolicy, StorageError};
pub use fault::{FaultPlan, FaultyStore, SimLogFile, SimLogHandle, SimRng, SimSnapshotStore};
pub use file_device::{FileDevice, PageStore, PodCell};
pub use latency::LatencyModel;
pub use pool::{BufferPool, IoStats};
pub use snapshot::{
    crc32, decode_snapshot, encode_snapshot, peek_header, FsSnapshotDir, RecoveryReport,
    RecoverySource, SnapshotCheckFailed, SnapshotHeader, SnapshotPolicy, SnapshotRestore,
    SnapshotState, SnapshotStore, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use wal::{decode_records, FsLogFile, LogFile, Wal, WalRecord, RANGE_FLAG};
