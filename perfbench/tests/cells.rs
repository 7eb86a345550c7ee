//! Cells touched per operation — the paper's own cost unit — counted on
//! each workload's seeded stream. The counts involve no clock, so they
//! must repeat exactly, and they must stay within the §4.3 worst-case
//! bounds `rps-analysis` computes for the workload's shape.

use perfbench::cells::{bounds, count, CellCounts};
use perfbench::workload::{find, WORKLOADS};

const OPS: usize = 2000;

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for w in &WORKLOADS {
        assert_eq!(count(w, 7, OPS), count(w, 7, OPS), "{}", w.name);
    }
}

/// Counts for seed 1, pinned: a change of even one cell read or written
/// per operation on any workload fails here.
#[test]
fn counts_match_the_committed_values() {
    let pinned: [(&str, CellCounts); 3] = [
        ("dashboard_read", PINNED_DASHBOARD),
        ("durable_ingest", PINNED_DURABLE),
        ("cube3d_mixed", PINNED_CUBE3D),
    ];
    for (name, want) in pinned {
        let w = find(name).expect("named workload exists");
        assert_eq!(count(w, 1, OPS), want, "{name}");
    }
}

#[test]
fn queries_stay_within_the_paper_bound() {
    for w in &WORKLOADS {
        let c = count(w, 1, OPS);
        let b = bounds(w);
        assert!(c.queries > 0, "{}", w.name);
        assert!(
            c.max_reads as f64 <= b.query_cells,
            "{}: {} > {}",
            w.name,
            c.max_reads,
            b.query_cells
        );
    }
}

#[test]
fn two_dimensional_updates_stay_within_the_paper_bound() {
    for w in WORKLOADS.iter().filter(|w| w.dims.len() == 2) {
        let c = count(w, 1, OPS);
        let b = bounds(w);
        assert!(c.updates > 0, "{}", w.name);
        assert!(
            c.max_writes as f64 <= b.update_cells,
            "{}: {} > {}",
            w.name,
            c.max_writes,
            b.update_cells
        );
    }
}

/// `rps_update_cost` documents that for d ≥ 3 it undercounts: border
/// boxes mixed across dimensions add a Θ(n^{d−1}) term the 2-D-derived
/// border term misses. The 64³ workload shows it; this pins the size of
/// the gap so a change to either the engine or the formula is noticed.
#[test]
fn three_dimensional_updates_exceed_the_paper_formula_as_documented() {
    let w = find("cube3d_mixed").expect("named workload exists");
    let c = count(w, 1, OPS);
    let b = bounds(w);
    assert!(c.max_writes as f64 > b.update_cells);
    assert!(c.writes_per_update > b.update_cells);
}

const PINNED_DASHBOARD: CellCounts = CellCounts {
    queries: 3068,
    reads_per_query: 15.591916558018253,
    max_reads: 16,
    updates: 187,
    writes_per_update: 503.2299465240642,
    max_writes: 1677,
};
const PINNED_DURABLE: CellCounts = CellCounts {
    queries: 791,
    reads_per_query: 15.695322376738305,
    max_reads: 16,
    updates: 2988,
    writes_per_update: 1012.0261044176707,
    max_writes: 3422,
};
const PINNED_CUBE3D: CellCounts = CellCounts {
    queries: 2985,
    reads_per_query: 49.608375209380235,
    max_reads: 64,
    updates: 1011,
    writes_per_update: 2386.8387734915923,
    max_writes: 11952,
};
