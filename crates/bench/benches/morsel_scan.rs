//! Criterion: morsel-driven parallel query execution vs the serial engine
//! (the ISSUE-10 tentpole). Three shapes at 1M rows — an eq scan, a fused
//! 2-column conjunction, and the predicate-free sum — each as `serial`
//! (no hint: the inline path that never touches the pool) and `poolN`
//! (`with_threads(N)`: morsels claimed by the shared worker pool).
//!
//! Every pool timing is preceded by an equivalence assert against the
//! serial output, so the gate can never reward a wrong parallel combine.
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

criterion_group!(benches, bench_morsel_scan);
criterion_main!(benches);
