//! The durable write path end to end: an in-process `rps-serve` server
//! over a data dir takes point updates, batches (one of them rejected),
//! an explicit checkpoint and more updates through the wire client; it
//! then drains, and a fresh registry re-provisions the tenant from the
//! same directory. Every region of the recovered cube must equal a
//! dense mirror of the acknowledged writes.

use rps::ndcube::Region;
use rps::storage::SnapshotPolicy;
use rps_serve::{Client, ClientError, Persistence, Registry, Server, ServerConfig, TenantQuota};

const DIMS: [usize; 2] = [12, 10];

/// Deterministic coordinates and deltas (xorshift), so a failure
/// reproduces exactly.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn point(&mut self) -> (Vec<usize>, i64) {
        let coords = DIMS
            .iter()
            .map(|&n| (self.next() % n as u64) as usize)
            .collect();
        (coords, (self.next() % 41) as i64 - 20)
    }
}

/// Row-major dense copy of every acknowledged write.
struct Mirror(Vec<i64>);

impl Mirror {
    fn add(&mut self, coords: &[usize], delta: i64) {
        self.0[coords[0] * DIMS[1] + coords[1]] += delta;
    }

    fn sum(&self, lo: &[usize], hi: &[usize]) -> i64 {
        (lo[0]..=hi[0])
            .flat_map(|x| (lo[1]..=hi[1]).map(move |y| x * DIMS[1] + y))
            .map(|i| self.0[i])
            .sum()
    }
}

#[test]
fn durable_server_writes_survive_drain_and_reprovisioning() {
    let root = std::env::temp_dir().join(format!("rps-durable-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Small record trigger, so policy checkpoints also fire mid-stream.
    let policy = SnapshotPolicy {
        max_wal_bytes: None,
        max_records: Some(16),
        retain: 2,
    };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::default().durable(root.clone(), policy),
    )
    .expect("bind");
    server.create_tenant("cube", &DIMS).expect("tenant");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let running = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let mut gen = Gen(0x9E37_79B9_7F4A_7C15);
    let mut mirror = Mirror(vec![0; DIMS[0] * DIMS[1]]);
    for _ in 0..30 {
        let (c, d) = gen.point();
        client.update("cube", &c, d).expect("update");
        mirror.add(&c, d);
    }
    let batch: Vec<(Vec<usize>, i64)> = (0..24).map(|_| gen.point()).collect();
    assert_eq!(client.batch_update("cube", &batch).expect("batch"), 24);
    for (c, d) in &batch {
        mirror.add(c, *d);
    }
    // A valid prefix with an out-of-bounds tail: rejected whole.
    let mut bad: Vec<(Vec<usize>, i64)> = (0..5).map(|_| gen.point()).collect();
    bad.push((vec![DIMS[0], 0], 1));
    assert!(matches!(
        client.batch_update("cube", &bad),
        Err(ClientError::Rejected { .. })
    ));
    assert_eq!(client.snapshot("cube").expect("checkpoint"), 54);
    for _ in 0..21 {
        let (c, d) = gen.point();
        client.update("cube", &c, d).expect("update");
        mirror.add(&c, d);
    }
    let full_hi = [DIMS[0] - 1, DIMS[1] - 1];
    assert_eq!(
        client.query("cube", &[0, 0], &full_hi).expect("query"),
        mirror.sum(&[0, 0], &full_hi)
    );

    handle.shutdown();
    let report = running.join().expect("server thread").expect("drain");
    assert_eq!(report.checkpoints, vec![("cube".to_string(), 75)]);

    let registry = Registry::new(
        Persistence::Durable {
            root: root.clone(),
            policy,
        },
        TenantQuota::default(),
        0,
    );
    registry.create("cube", &DIMS).expect("re-provision");
    let tenant = registry.get("cube").expect("tenant");
    let snap = tenant.versioned().snapshot();
    for lo0 in 0..DIMS[0] {
        for hi0 in lo0..DIMS[0] {
            for lo1 in 0..DIMS[1] {
                for hi1 in lo1..DIMS[1] {
                    let (lo, hi) = ([lo0, lo1], [hi0, hi1]);
                    let region = Region::new(&lo, &hi).expect("region");
                    assert_eq!(
                        snap.query(&region).expect("query"),
                        mirror.sum(&lo, &hi),
                        "region {lo:?}..={hi:?}"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
