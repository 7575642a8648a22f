//! Executor oracle: on a 1-shard [`ShardedTable`] with a merged main, an
//! unmerged tail and random deletes, every `count` / rows / `sum` /
//! `min_max` answer of a 1–3-predicate conjunction, and the unfiltered
//! `sum` and `min_max`, must equal a plain `Vec` evaluation over the
//! visible rows, at morsel hints 1, 2 and 8. A second property runs the
//! aggregates on an incremental merge stepped once, where the columns'
//! mains differ in length; a third runs one-point-predicate aggregates on
//! both sides of the executor's choice between gathering rare values'
//! rows and building a row mask.
//!
//! The morsel proptests compare the engine with its own serial run; this
//! suite pins the answers themselves, so it also guards the serial kernels.
//! The column domains are picked so the main's dictionary codes land in
//! every emit regime of the dense-mask kernels: narrow codes below 8 bits
//! (per-lane scatter), 9–16-bit codes (`u64` windows, one compaction
//! multiply per window) and codes above 16 bits (`u128` windows). Delete
//! shares run from none through sparse (a single-predicate count subtracts
//! deleted rows from its popcount) to dense (up to about half the rows,
//! where it ANDs validity words into a mask instead), so both count paths
//! are pinned.

use hyrise_core::shard::{ShardRowId, ShardedTable};
use hyrise_core::MergeGrant;
use hyrise_query::{Output, Query};
use proptest::prelude::*;

const COLS: usize = 3;
/// Rows above which a 16-bit dictionary overflows into 17-bit codes.
const WIDE_ROWS: usize = (1 << 16) + 1;

/// One emit regime: per-column value domains, the merged main's size, and
/// the widest main code width that results.
struct Regime {
    domains: [u64; COLS],
    main_rows: std::ops::Range<usize>,
    widest: std::ops::RangeInclusive<u8>,
}

const REGIMES: [Regime; 3] = [
    // Every column below 8 bits.
    Regime {
        domains: [100, 60, 7],
        main_rows: 0..2_000,
        widest: 1..=7,
    },
    // 9–16-bit codes in columns 0 and 2 (column 1 stays narrow).
    Regime {
        domains: [3_000, 90, 40_000],
        main_rows: 1_200..4_000,
        widest: 9..=16,
    },
    // Column 0 holds a distinct value per row: above 16 bits.
    Regime {
        domains: [1 << 17, 1_500, 90],
        main_rows: WIDE_ROWS..WIDE_ROWS + 700,
        widest: 17..=17,
    },
];

/// xorshift64: deterministic data from the case's seed.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Row `i` of the table. Column 0 of the wide regime is an odd-multiplier
/// permutation of `0..2^17`, so its values never repeat.
fn row(regime: &Regime, i: usize, rng: &mut u64) -> Vec<u64> {
    (0..COLS)
        .map(|c| {
            let d = regime.domains[c];
            if c == 0 && d == 1 << 17 {
                (i as u64).wrapping_mul(0x9E37_79B9) & (d - 1)
            } else {
                next(rng) % d
            }
        })
        .collect()
}

/// Bounds from raw draws: mostly inside the column's domain, sometimes an
/// equality, sometimes reaching past the largest value.
fn bounds(domain: u64, a: u64, b: u64) -> (u64, u64) {
    let lo = a % (domain + domain / 8 + 1);
    let hi = match b % 4 {
        0 => lo,
        1 => lo + b % 8,
        _ => lo + b % (domain / 2 + 1),
    };
    (lo, hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn answers_match_a_vec_oracle_over_visible_rows(
        regime in 0usize..REGIMES.len(),
        seed in any::<u64>(),
        main_draw in any::<u64>(),
        tail_rows in 0usize..300,
        delete_per_mille in prop_oneof![Just(0u64), 1u64..30, 30u64..600],
        raw_preds in prop::collection::vec((0usize..COLS, any::<u64>(), any::<u64>()), 1..=3),
        agg_col in 0usize..COLS,
    ) {
        let regime = &REGIMES[regime];
        let span = regime.main_rows.end - regime.main_rows.start;
        let main_rows = regime.main_rows.start + (main_draw % span as u64) as usize;
        let mut rng = seed | 1;

        let t = ShardedTable::<u64>::builder().columns(COLS).build().unwrap();
        let mut model: Vec<(Vec<u64>, bool)> = (0..main_rows + tail_rows)
            .map(|i| (row(regime, i, &mut rng), true))
            .collect();
        // Half the deletes land before the merge (the merged main carries
        // them), half after it (main and tail rows alike).
        let mut delete = |t: &ShardedTable<u64>, model: &mut [(Vec<u64>, bool)]| {
            for (i, (_, valid)) in model.iter_mut().enumerate() {
                if *valid && next(&mut rng) % 2000 < delete_per_mille {
                    t.try_delete_row(ShardRowId { shard: 0, row: i }).unwrap();
                    *valid = false;
                }
            }
        };
        let (main, tail) = model.split_at_mut(main_rows);
        for batch in main.chunks(4096) {
            let rows: Vec<&Vec<u64>> = batch.iter().map(|(r, _)| r).collect();
            t.insert_rows(&rows).unwrap();
        }
        delete(&t, main);
        t.shard(0).merge(1, None).unwrap();
        for batch in tail.chunks(4096) {
            let rows: Vec<&Vec<u64>> = batch.iter().map(|(r, _)| r).collect();
            t.insert_rows(&rows).unwrap();
        }
        delete(&t, &mut model);
        prop_assert_eq!(t.main_len(), main_rows);
        prop_assert_eq!(t.row_count(), model.len());
        let snap = t.shard(0).snapshot();
        let widest = (0..COLS)
            .map(|c| snap.col(c).main().packed_codes().bits())
            .max();
        prop_assert!(regime.widest.contains(&widest.unwrap()), "widest code {:?}", widest);

        let preds: Vec<(usize, u64, u64)> = raw_preds
            .iter()
            .map(|&(c, a, b)| {
                let (lo, hi) = bounds(regime.domains[c], a, b);
                (c, lo, hi)
            })
            .collect();
        let mut q = Query::scan(preds[0].0);
        for (i, &(c, lo, hi)) in preds.iter().enumerate() {
            q = if i == 0 { q } else { q.and(c) }.between(lo, hi);
        }

        let want_rows: Vec<ShardRowId> = model
            .iter()
            .enumerate()
            .filter(|(_, (r, valid))| {
                *valid && preds.iter().all(|&(c, lo, hi)| (lo..=hi).contains(&r[c]))
            })
            .map(|(row, _)| ShardRowId { shard: 0, row })
            .collect();
        let want_sum: u128 = want_rows
            .iter()
            .map(|id| model[id.row].0[agg_col] as u128)
            .sum();
        let selected: Vec<u64> = want_rows.iter().map(|id| model[id.row].0[agg_col]).collect();
        let want_min_max = min_max(&selected);
        let visible: Vec<u64> = model
            .iter()
            .filter(|(_, valid)| *valid)
            .map(|(r, _)| r[agg_col])
            .collect();
        let want_all_sum = sum(&visible);
        let want_all_min_max = min_max(&visible);

        for hint in [1usize, 2, 8] {
            let ctx = format!("hint {hint}, preds {preds:?}, main {main_rows}, tail {tail_rows}");
            prop_assert_eq!(
                q.clone().count().with_threads(hint).run(&t),
                Output::Count(want_rows.len()),
                "count, {}", ctx
            );
            prop_assert_eq!(
                &q.clone().with_threads(hint).run(&t).into_rows(),
                &want_rows,
                "rows, {}", ctx
            );
            prop_assert_eq!(
                q.clone().sum(agg_col).with_threads(hint).run(&t),
                Output::Sum(want_sum),
                "sum, {}", ctx
            );
            prop_assert_eq!(
                Query::scan(0).sum(agg_col).with_threads(hint).run(&t),
                Output::Sum(want_all_sum),
                "unfiltered sum, {}", ctx
            );
            prop_assert_eq!(
                q.clone().min_max(agg_col).with_threads(hint).run(&t),
                Output::MinMax(want_min_max),
                "min_max, {}", ctx
            );
            prop_assert_eq!(
                Query::scan(0).min_max(agg_col).with_threads(hint).run(&t),
                Output::MinMax(want_all_min_max),
                "unfiltered min_max, {}", ctx
            );
        }
    }

    #[test]
    fn stepped_main_aggregates_match_a_vec_oracle(
        seed in any::<u64>(),
        main_rows in 0usize..3_000,
        frozen_rows in 1usize..400,
        tail_rows in 0usize..200,
        delete_per_mille in prop_oneof![Just(0u64), 1u64..30, 30u64..600],
        raw_preds in prop::collection::vec((0usize..COLS, any::<u64>(), any::<u64>()), 1..=3),
        agg_col in 0usize..COLS,
    ) {
        // An incremental merge stepped once: column 0's main has absorbed
        // the frozen delta, columns 1 and 2 still hold it as a tail region.
        // Predicates on those columns cannot share a row mask with column
        // 0, so such queries take the row-id fallback; the others (every
        // column on one side of the step) stay on the masked path.
        let regime = &REGIMES[1];
        let mut rng = seed | 1;
        let t = ShardedTable::<u64>::builder().columns(COLS).build().unwrap();
        let mut model: Vec<(Vec<u64>, bool)> = Vec::new();
        let mut insert = |t: &ShardedTable<u64>, model: &mut Vec<(Vec<u64>, bool)>, n: usize| {
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|_| row(regime, model.len(), &mut rng))
                .collect();
            for r in &rows {
                t.insert_rows(&[r]).unwrap();
                model.push((r.clone(), true));
            }
        };
        insert(&t, &mut model, main_rows);
        t.shard(0).merge(1, None).unwrap();
        insert(&t, &mut model, frozen_rows);
        let mut del_rng = seed.rotate_left(17) | 1;
        let mut delete = |t: &ShardedTable<u64>, model: &mut [(Vec<u64>, bool)]| {
            for (i, (_, valid)) in model.iter_mut().enumerate() {
                if *valid && next(&mut del_rng) % 2000 < delete_per_mille {
                    t.try_delete_row(ShardRowId { shard: 0, row: i }).unwrap();
                    *valid = false;
                }
            }
        };
        delete(&t, &mut model);
        let shard = t.shard(0);
        let mut session = shard
            .try_begin_incremental_merge_with(MergeGrant::with_threads(1))
            .unwrap();
        prop_assert!(session.step());
        insert(&t, &mut model, tail_rows);
        delete(&t, &mut model);
        let snap = shard.snapshot();
        prop_assert_eq!(snap.col(0).main().len(), main_rows + frozen_rows);
        prop_assert_eq!(snap.col(1).main().len(), main_rows);

        let preds: Vec<(usize, u64, u64)> = raw_preds
            .iter()
            .map(|&(c, a, b)| {
                let (lo, hi) = bounds(regime.domains[c], a, b);
                (c, lo, hi)
            })
            .collect();
        let mut q = Query::scan(preds[0].0);
        for (i, &(c, lo, hi)) in preds.iter().enumerate() {
            q = if i == 0 { q } else { q.and(c) }.between(lo, hi);
        }
        let selected: Vec<u64> = model
            .iter()
            .filter(|(r, valid)| {
                *valid && preds.iter().all(|&(c, lo, hi)| (lo..=hi).contains(&r[c]))
            })
            .map(|(r, _)| r[agg_col])
            .collect();
        let visible: Vec<u64> = model
            .iter()
            .filter(|(_, valid)| *valid)
            .map(|(r, _)| r[agg_col])
            .collect();
        for hint in [1usize, 2, 8] {
            let ctx = format!("hint {hint}, preds {preds:?}, agg {agg_col}, main {main_rows}");
            prop_assert_eq!(
                q.clone().sum(agg_col).with_threads(hint).run(&t),
                Output::Sum(sum(&selected)),
                "sum, {}", ctx
            );
            prop_assert_eq!(
                q.clone().min_max(agg_col).with_threads(hint).run(&t),
                Output::MinMax(min_max(&selected)),
                "min_max, {}", ctx
            );
            prop_assert_eq!(
                Query::scan(0).sum(agg_col).with_threads(hint).run(&t),
                Output::Sum(sum(&visible)),
                "unfiltered sum, {}", ctx
            );
            prop_assert_eq!(
                Query::scan(0).min_max(agg_col).with_threads(hint).run(&t),
                Output::MinMax(min_max(&visible)),
                "unfiltered min_max, {}", ctx
            );
        }
        session.abort();
    }

    #[test]
    fn point_aggregates_match_a_vec_oracle(
        seed in any::<u64>(),
        main_rows in 500usize..4_000,
        tail_rows in 0usize..200,
        delete_per_mille in prop_oneof![Just(0u64), 1u64..30, 30u64..600],
        pred_col in 0usize..COLS,
        value in any::<u64>(),
        agg_col in 0usize..COLS,
    ) {
        // A lone point predicate gathers its rows through the select
        // kernel when its value id covers at most 1/32 of the dictionary,
        // and builds a row mask otherwise. Domains of 64, 8 and 300 values
        // put columns 0 and 2 on the gather side and column 1 on the mask
        // side; every value repeats, so deletes hit matching rows.
        const DOMAINS: [u64; COLS] = [64, 8, 300];
        let mut rng = seed | 1;
        let t = ShardedTable::<u64>::builder().columns(COLS).build().unwrap();
        let mut model: Vec<(Vec<u64>, bool)> = (0..main_rows + tail_rows)
            .map(|_| (DOMAINS.iter().map(|d| next(&mut rng) % d).collect(), true))
            .collect();
        let mut delete = |t: &ShardedTable<u64>, model: &mut [(Vec<u64>, bool)]| {
            for (i, (_, valid)) in model.iter_mut().enumerate() {
                if *valid && next(&mut rng) % 2000 < delete_per_mille {
                    t.try_delete_row(ShardRowId { shard: 0, row: i }).unwrap();
                    *valid = false;
                }
            }
        };
        let (main, tail) = model.split_at_mut(main_rows);
        let rows: Vec<&Vec<u64>> = main.iter().map(|(r, _)| r).collect();
        t.insert_rows(&rows).unwrap();
        delete(&t, main);
        t.shard(0).merge(1, None).unwrap();
        let rows: Vec<&Vec<u64>> = tail.iter().map(|(r, _)| r).collect();
        t.insert_rows(&rows).unwrap();
        delete(&t, &mut model);

        // Sometimes a value past the domain, which matches nothing.
        let v = value % (DOMAINS[pred_col] + 2);
        let q = Query::scan(pred_col).eq(v);
        let selected: Vec<u64> = model
            .iter()
            .filter(|(r, valid)| *valid && r[pred_col] == v)
            .map(|(r, _)| r[agg_col])
            .collect();
        for hint in [1usize, 2, 8] {
            let ctx = format!("hint {hint}, col {pred_col} = {v}, agg {agg_col}, main {main_rows}");
            prop_assert_eq!(
                q.clone().sum(agg_col).with_threads(hint).run(&t),
                Output::Sum(sum(&selected)),
                "sum, {}", ctx
            );
            prop_assert_eq!(
                q.clone().min_max(agg_col).with_threads(hint).run(&t),
                Output::MinMax(min_max(&selected)),
                "min_max, {}", ctx
            );
        }
    }
}

fn sum(values: &[u64]) -> u128 {
    values.iter().map(|&v| v as u128).sum()
}

fn min_max(values: &[u64]) -> Option<(u64, u64)> {
    Some((*values.iter().min()?, *values.iter().max()?))
}
