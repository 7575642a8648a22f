//! Criterion: morsel-driven parallel query execution vs the serial engine.
//! Seven shapes at 1M rows — an eq scan, a fused 2-column conjunction, the
//! predicate-free sum, a sum and min/max under one rare point predicate
//! (`sum_eq`/`min_max_eq`: 1/1009 of the dictionary, so the executor
//! gathers the matching rows) and under a 25% range (`sum_where`/
//! `min_max_where`: the masked code-space path) — each as `serial` (no
//! hint: the inline path that never touches the pool) and `poolN`
//! (`with_threads(N)`: morsels claimed by the shared worker pool).
//!
//! Every pool timing is preceded by an equivalence assert against the
//! serial output, so the gate can never reward a wrong parallel combine.
//!
//! The `count_deleted` group times single-predicate counts (an eq and a
//! range) on snapshots with 1% and 30% of the rows deleted: the executor
//! subtracts deleted rows from the popcount below a deleted share of 1/32
//! and ANDs validity words into a row mask above it, and each share sits on
//! one side of that choice. Every count is first checked against the
//! length of the same query's row output.
//!
//! Interpreting the numbers: on the 1-core CI container the pool adds a
//! helper task on the caller's only core, so `poolN` gates *parity plus
//! bounded scheduling overhead*, not speedup — `pool1` in particular is
//! the serial code path and must track `serial` within noise. Speedup
//! only appears on multi-core hosts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyrise_core::OnlineTable;
use hyrise_query::Query;

const N: usize = 1_000_000;
const COLS: usize = 2;

/// 1M deterministic rows (xorshift64): col 0 in a ~1000-value domain so
/// predicates are selective, col 1 wide for the sum.
fn table() -> OnlineTable<u64> {
    let t = OnlineTable::new(COLS);
    let mut x = 0x5EED_0F3A_7B1C_55AAu64;
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t.try_insert_row(&[x % 1009, x % 65_537]).unwrap();
    }
    let _ = t.merge(1, None);
    // A short raw tail on top of the merged main, like a live table.
    let mut y = 0xDEC0DEu64;
    for _ in 0..4096 {
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
        t.try_insert_row(&[y % 1009, y % 65_537]).unwrap();
    }
    t
}

fn bench_morsel_scan(c: &mut Criterion) {
    let t = table();
    let snap = t.snapshot();
    let mut g = c.benchmark_group("morsel_scan");
    g.sample_size(15);
    g.throughput(Throughput::Elements(N as u64));

    let shapes: Vec<(&str, Query<u64>)> = vec![
        ("eq", Query::scan(0).eq(500)),
        (
            "fused",
            Query::scan(0).between(100, 600).and(1).between(0, 40_000),
        ),
        ("sum", Query::scan(0).sum(1)),
        ("sum_eq", Query::scan(0).eq(500).sum(1)),
        ("min_max_eq", Query::scan(0).eq(500).min_max(1)),
        ("sum_where", Query::scan(0).between(100, 350).sum(1)),
        ("min_max_where", Query::scan(0).between(100, 350).min_max(1)),
    ];
    for (name, q) in shapes {
        let serial = q.run(&snap);
        for hint in [1usize, 2, 4] {
            // The gate must never reward a wrong parallel combine.
            assert_eq!(
                q.clone().with_threads(hint).run(&snap),
                serial,
                "{name} diverges at hint {hint}"
            );
        }
        g.bench_with_input(BenchmarkId::new(name, "serial"), &q, |b, q| {
            b.iter(|| black_box(q.run(&snap)))
        });
        for hint in [1usize, 2, 4] {
            let hq = q.clone().with_threads(hint);
            g.bench_with_input(
                BenchmarkId::new(name, format!("pool{hint}")),
                &hq,
                |b, q| b.iter(|| black_box(q.run(&snap))),
            );
        }
    }
    g.finish();
}

fn bench_count_deleted(c: &mut Criterion) {
    let t = table();
    let mut g = c.benchmark_group("count_deleted");
    g.sample_size(15);
    g.throughput(Throughput::Elements(N as u64));
    let shapes = [
        ("eq", Query::scan(0).eq(500)),
        ("range", Query::scan(0).between(100, 500)),
    ];
    let rows = t.row_count();
    let mut deleted = 0;
    let mut x = 0xDE1E_7E5Au64;
    for pct in [1usize, 30] {
        while deleted < rows * pct / 100 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let row = (x % rows as u64) as usize;
            if t.is_valid(row) {
                t.try_delete_row(row).unwrap();
                deleted += 1;
            }
        }
        let snap = t.snapshot();
        for (name, q) in &shapes {
            let count = q.clone().count();
            assert_eq!(
                count.run(&snap).count(),
                q.run(&snap).into_rows().len(),
                "{name} count at {pct}% deleted"
            );
            g.bench_with_input(
                BenchmarkId::new(*name, format!("del{pct}")),
                &count,
                |b, q| b.iter(|| black_box(q.run(&snap))),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_morsel_scan, bench_count_deleted);
criterion_main!(benches);
