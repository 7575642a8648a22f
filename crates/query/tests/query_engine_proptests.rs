//! The cross-backend query oracle: for **arbitrary conjunctive queries**
//! over **arbitrary insert/update/delete/merge interleavings**, the unified
//! [`Query`] engine must return exactly the rows and aggregates of a naive
//! row-at-a-time filter over a plain model — on every backend
//! ([`OnlineTable`], its [`TableSnapshot`], and 1–4-shard
//! [`ShardedTable`]s under both routing schemes).
//!
//! Merges interleave with the workload, so queries randomly hit every
//! physical split: merged main partitions (value-id pushdown), frozen
//! deltas, and active deltas (value-comparison fallback).

use hyrise_core::shard::{ShardBy, ShardRowId, ShardedTable};
use hyrise_core::OnlineTable;
use hyrise_query::Query;
use proptest::prelude::*;

const COLS: usize = 3;
/// Small value domain so predicates hit often and dictionaries stay dense.
const DOMAIN: u64 = 48;

/// Deterministic row payload: column `c` of seed `s` is a distinct mix.
fn row(seed: u64) -> Vec<u64> {
    (0..COLS as u64)
        .map(|c| seed.wrapping_mul(2 * c + 7).wrapping_add(c * 13) % DOMAIN)
        .collect()
}

/// One workload step, decoded from raw proptest integers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { seed: u64 },
    Update { target: u64, seed: u64 },
    Delete { target: u64 },
    Merge { shard: u64, single_too: bool },
}

fn decode(code: u8, a: u64, b: u64) -> Op {
    match code % 8 {
        0..=3 => Op::Insert { seed: a },
        4 => Op::Update { target: a, seed: b },
        5 => Op::Delete { target: a },
        _ => Op::Merge {
            shard: a,
            single_too: b.is_multiple_of(2),
        },
    }
}

/// The naive reference: every appended row's values + validity, in
/// insertion order (= the OnlineTable's global tuple ids).
struct Model {
    rows: Vec<(Vec<u64>, bool)>,
}

impl Model {
    /// Indices of valid rows matching the conjunction, row-at-a-time.
    fn matching(&self, preds: &[(usize, u64, u64)]) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, (vals, valid))| {
                *valid
                    && preds
                        .iter()
                        .all(|&(c, lo, hi)| vals[c] >= lo && vals[c] <= hi)
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Apply the op stream to the model, a single table and a sharded table.
/// Returns the sharded side's id per logical row.
fn apply_all(
    model: &mut Model,
    single: &OnlineTable<u64>,
    sharded: &ShardedTable<u64>,
    ops: &[(u8, u64, u64)],
) -> Vec<ShardRowId> {
    let mut shard_ids: Vec<ShardRowId> = Vec::new();
    for &(code, a, b) in ops {
        match decode(code, a, b) {
            Op::Insert { seed } => {
                let r = row(seed);
                let sid = single.try_insert_row(&r).unwrap();
                assert_eq!(sid, model.rows.len(), "single-table ids = model indices");
                shard_ids.push(sharded.try_insert_row(&r).unwrap());
                model.rows.push((r, true));
            }
            Op::Update { target, seed } => {
                if model.rows.is_empty() {
                    continue;
                }
                let i = (target as usize) % model.rows.len();
                let r = row(seed);
                single.try_update_row(i, &r).unwrap();
                shard_ids.push(sharded.try_update_row(shard_ids[i], &r).unwrap());
                model.rows[i].1 = false;
                model.rows.push((r, true));
            }
            Op::Delete { target } => {
                if model.rows.is_empty() {
                    continue;
                }
                let i = (target as usize) % model.rows.len();
                single.try_delete_row(i).unwrap();
                sharded.try_delete_row(shard_ids[i]).unwrap();
                model.rows[i].1 = false;
            }
            Op::Merge { shard, single_too } => {
                let _ = sharded
                    .shard((shard as usize) % sharded.num_shards())
                    .merge(1, None);
                if single_too {
                    let _ = single.merge(1, None);
                }
            }
        }
    }
    shard_ids
}

/// Build the conjunctive query: first predicate seeds the scan, the rest
/// chain through `.and(col)`.
fn build_query(preds: &[(usize, u64, u64)]) -> Query<u64> {
    let (first, rest) = preds.split_first().expect("at least one predicate");
    let mut q = Query::scan(first.0).between(first.1, first.2);
    for &(c, lo, hi) in rest {
        q = q.and(c).between(lo, hi);
    }
    q
}

/// Normalize raw proptest predicate triples: column into range, `eq` probes
/// collapse the interval (so dictionary-miss equality is exercised too).
fn normalize(preds: &[(u8, u64, u64)]) -> Vec<(usize, u64, u64)> {
    preds
        .iter()
        .map(|&(c, lo, span)| {
            let col = (c as usize) % COLS;
            let lo = lo % (DOMAIN + 8); // sometimes past the domain
            let hi = if span.is_multiple_of(3) {
                lo // equality probe
            } else {
                lo + span % 16
            };
            (col, lo, hi)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_naive_filter_on_every_backend(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..140),
        raw_preds in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..4),
        num_shards in 1usize..5,
        range_routing in any::<bool>(),
        agg_col in 0usize..COLS,
    ) {
        let mut model = Model { rows: Vec::new() };
        let single = OnlineTable::<u64>::new(COLS);
        let sharded = if range_routing {
            // Bounds chosen so all shards see traffic from the DOMAIN keys.
            let step = DOMAIN / num_shards as u64;
            let bounds: Vec<u64> = (1..num_shards as u64).map(|i| i * step.max(1)).collect();
            ShardedTable::<u64>::builder()
                .partitioning(ShardBy::Range(bounds))
                .columns(COLS)
                .build()
                .unwrap()
        } else {
            ShardedTable::<u64>::builder()
                .shards(num_shards)
                .columns(COLS)
                .build()
                .unwrap()
        };
        let shard_ids = apply_all(&mut model, &single, &sharded, &ops);

        let preds = normalize(&raw_preds);
        let q = build_query(&preds);
        let expected = model.matching(&preds);

        // OnlineTable: engine row ids are the model's insertion indices.
        prop_assert_eq!(&q.run(&single).into_rows(), &expected);

        // TableSnapshot: the canonical engine agrees.
        let snap = single.snapshot();
        prop_assert_eq!(&q.run(&snap).into_rows(), &expected);

        // ShardedTable: identical row *set* under the (shard, row) mapping.
        let mut got: Vec<ShardRowId> = q.run(&sharded).into_rows();
        got.sort_unstable();
        let mut want: Vec<ShardRowId> = expected.iter().map(|&i| shard_ids[i]).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        // Aggregates: count / sum / min-max agree with the naive fold on
        // every backend.
        let want_count = expected.len();
        let want_sum: u128 = expected.iter().map(|&i| model.rows[i].0[agg_col] as u128).sum();
        let want_mm = expected
            .iter()
            .map(|&i| model.rows[i].0[agg_col])
            .fold(None, |mm, v| Some(match mm {
                None => (v, v),
                Some((lo, hi)) => (if v < lo { v } else { lo }, if v > hi { v } else { hi }),
            }));
        let count_q = q.clone().count();
        let sum_q = q.clone().sum(agg_col);
        let mm_q = q.clone().min_max(agg_col);
        prop_assert_eq!(count_q.run(&single).count(), want_count);
        prop_assert_eq!(count_q.run(&snap).count(), want_count);
        prop_assert_eq!(count_q.run(&sharded).count(), want_count);
        prop_assert_eq!(sum_q.run(&single).sum(), want_sum);
        prop_assert_eq!(sum_q.run(&snap).sum(), want_sum);
        prop_assert_eq!(sum_q.run(&sharded).sum(), want_sum);
        prop_assert_eq!(mm_q.run(&single).min_max(), want_mm);
        prop_assert_eq!(mm_q.run(&snap).min_max(), want_mm);
        prop_assert_eq!(mm_q.run(&sharded).min_max(), want_mm);

        // Projection materializes the naive rows (single-table order is
        // insertion order; sharded order is shard-stitched, compare sorted).
        let proj_q = q.clone().project(&[agg_col, 0]);
        let want_proj: Vec<Vec<u64>> = expected
            .iter()
            .map(|&i| vec![model.rows[i].0[agg_col], model.rows[i].0[0]])
            .collect();
        prop_assert_eq!(&proj_q.run(&single).into_projected(), &want_proj);
        prop_assert_eq!(&proj_q.run(&snap).into_projected(), &want_proj);
        let mut got_proj = proj_q.run(&sharded).into_projected();
        got_proj.sort_unstable();
        let mut want_proj = want_proj;
        want_proj.sort_unstable();
        prop_assert_eq!(got_proj, want_proj);
    }

    #[test]
    fn no_predicate_queries_see_exactly_the_valid_rows(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..120),
        num_shards in 1usize..5,
    ) {
        let mut model = Model { rows: Vec::new() };
        let single = OnlineTable::<u64>::new(COLS);
        let sharded = ShardedTable::<u64>::builder()
            .shards(num_shards)
            .columns(COLS)
            .build()
            .unwrap();
        apply_all(&mut model, &single, &sharded, &ops);

        let valid: Vec<usize> = model
            .rows
            .iter()
            .enumerate()
            .filter(|(_, (_, v))| *v)
            .map(|(i, _)| i)
            .collect();
        let q = Query::scan(0);
        prop_assert_eq!(&q.run(&single).into_rows(), &valid);
        prop_assert_eq!(q.clone().count().run(&sharded).count(), valid.len());
        let want_sum: u128 = valid.iter().map(|&i| model.rows[i].0[1] as u128).sum();
        prop_assert_eq!(q.clone().sum(1).run(&single).sum(), want_sum);
        prop_assert_eq!(q.clone().sum(1).with_threads(4).run(&single).sum(), want_sum);
        prop_assert_eq!(q.sum(1).run(&sharded).sum(), want_sum);
    }
}
