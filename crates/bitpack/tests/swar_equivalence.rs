//! Kernel-equivalence suite: for every width 1..=64 and arbitrary
//! data/ranges, the SWAR kernels must match the scalar `SeqCursor`
//! reference exactly — positions, counts, and sums — including codes that
//! straddle a word boundary and the final partial window.
//!
//! Two layers:
//!
//! * `proptest!` cases draw a width, data, and predicate bounds together,
//!   so the word-boundary phases exercised follow the width distribution.
//! * An exhaustive deterministic sweep runs *every* width (the proptest
//!   sampler is not guaranteed to visit all 64) against data shaped to hit
//!   the straddle cases: lengths chosen off multiples of `floor(64/bits)`
//!   so the last window is partial. It also drives the masked aggregate
//!   kernel (`fold_masked_at`) against `get()` at morsel starts 0, 64 and
//!   128 under all-ones, zero, single-bit, nearly full, random and
//!   partial-last-word masks.

use hyrise_bitpack::{mask_count, mask_words, max_value_for_bits, rows_from_mask, BitPackedVec};
use proptest::prelude::*;

fn width_data_and_bounds() -> impl Strategy<Value = (u8, Vec<u64>, u64, u64)> {
    (1u8..=64).prop_flat_map(|bits| {
        let mask = max_value_for_bits(bits);
        (
            Just(bits),
            prop::collection::vec(0..=mask, 0..400),
            0..=mask,
            0..=mask,
        )
    })
}

proptest! {
    #[test]
    fn select_kernels_match_scalar((bits, values, a, b) in width_data_and_bounds()) {
        let v = BitPackedVec::from_slice(bits, &values);
        let (lo, hi) = (a.min(b), a.max(b));

        let (mut swar, mut scalar) = (Vec::new(), Vec::new());
        v.select_in_range_into(lo, hi, 7, &mut swar);
        v.select_in_range_scalar_into(lo, hi, 7, &mut scalar);
        prop_assert_eq!(&swar, &scalar);

        // The inverted range matches nothing on both paths.
        let (mut swar, mut scalar) = (Vec::new(), Vec::new());
        v.select_in_range_into(hi.wrapping_add(1).max(1), 0, 0, &mut swar);
        v.select_in_range_scalar_into(hi.wrapping_add(1).max(1), 0, 0, &mut scalar);
        prop_assert_eq!(&swar, &scalar);

        let code = values.first().copied().unwrap_or(0);
        let (mut swar, mut scalar) = (Vec::new(), Vec::new());
        v.select_eq_into(code, 0, &mut swar);
        v.select_eq_scalar_into(code, 0, &mut scalar);
        prop_assert_eq!(&swar, &scalar);
    }

    #[test]
    fn count_and_sum_match_scalar((bits, values, a, b) in width_data_and_bounds()) {
        let v = BitPackedVec::from_slice(bits, &values);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert_eq!(v.count_in_range(lo, hi), v.count_in_range_scalar(lo, hi));
        let code = values.last().copied().unwrap_or(0);
        prop_assert_eq!(v.count_eq(code), v.count_eq_scalar(code));
        prop_assert_eq!(v.sum(), v.sum_scalar());
    }

    #[test]
    fn masks_match_select((bits, values, a, b) in width_data_and_bounds()) {
        let v = BitPackedVec::from_slice(bits, &values);
        let (lo, hi) = (a.min(b), a.max(b));
        let mut masks = vec![0u64; mask_words(v.len())];
        v.fill_range_mask(lo, hi, &mut masks);
        let mut from_mask = Vec::new();
        rows_from_mask(&masks, v.len(), 0, &mut from_mask);
        let mut direct = Vec::new();
        v.select_in_range_scalar_into(lo, hi, 0, &mut direct);
        prop_assert_eq!(&from_mask, &direct);
        prop_assert_eq!(mask_count(&masks), direct.len());

        // AND-ing the same predicate into its own fill is idempotent.
        let before = masks.clone();
        v.and_range_mask(lo, hi, &mut masks);
        prop_assert_eq!(masks, before);
    }

    #[test]
    fn and_mask_is_intersection(
        (bits, values, a, b) in width_data_and_bounds(),
        c in 0u64..,
        d in 0u64..,
    ) {
        let v = BitPackedVec::from_slice(bits, &values);
        let mask = max_value_for_bits(bits);
        let (lo1, hi1) = (a.min(b), a.max(b));
        let (lo2, hi2) = ((c & mask).min(d & mask), (c & mask).max(d & mask));
        let mut masks = vec![0u64; mask_words(v.len())];
        v.fill_range_mask(lo1, hi1, &mut masks);
        v.and_range_mask(lo2, hi2, &mut masks);
        let mut rows = Vec::new();
        rows_from_mask(&masks, v.len(), 0, &mut rows);
        let want: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, x)| **x >= lo1 && **x <= hi1 && **x >= lo2 && **x <= hi2)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(rows, want);
    }
}

/// Deterministic pseudo-random data, reproducible across runs.
fn sample(bits: u8, n: usize, seed: u64) -> (BitPackedVec, Vec<u64>) {
    let mask = max_value_for_bits(bits);
    let data: Vec<u64> = (0..n as u64)
        .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
        .collect();
    (BitPackedVec::from_slice(bits, &data), data)
}

/// The dense row mask over `rows` rows whose bit `r` is `matches(r)`.
fn ref_mask(rows: usize, matches: impl Fn(usize) -> bool) -> Vec<u64> {
    let mut masks = vec![0u64; mask_words(rows)];
    for r in (0..rows).filter(|&r| matches(r)) {
        masks[r / 64] |= 1 << (r % 64);
    }
    masks
}

#[test]
fn every_width_exhaustive_sweep() {
    for bits in 1..=64u8 {
        let m = 64 / bits as usize;
        // Lengths that leave a partial final window (and one empty vector);
        // the longer ones also hold several 64-row mask blocks.
        for n in [
            0usize,
            1,
            m,
            m + 1,
            5 * m + m.saturating_sub(1).max(1),
            257,
            515,
        ] {
            let (v, data) = sample(bits, n, bits as u64);
            let mask = max_value_for_bits(bits);
            let code = data.get(n / 2).copied().unwrap_or(0);
            let bounds = [
                (0u64, mask),
                (mask / 3, 2 * (mask / 3).max(1)),
                (code, code),
                (mask, mask),
                (1, 0), // inverted
            ];
            for (lo, hi) in bounds {
                let (mut swar, mut scalar) = (Vec::new(), Vec::new());
                v.select_in_range_into(lo, hi, 0, &mut swar);
                v.select_in_range_scalar_into(lo, hi, 0, &mut scalar);
                assert_eq!(swar, scalar, "width {bits}, n {n}, range {lo}..={hi}");
                assert_eq!(
                    v.count_in_range(lo, hi),
                    v.count_in_range_scalar(lo, hi),
                    "width {bits}, n {n}, range {lo}..={hi}"
                );
                // Morsel-local masks at non-zero 64-aligned starts, ending
                // short of `len()`, against the scalar reference.
                for (s, e) in [(64, n.saturating_sub(1)), (128, n.saturating_sub(3))] {
                    if e <= s {
                        continue;
                    }
                    let want = |r: usize| (lo..=hi).contains(&data[s + r]);
                    let mut masks = vec![u64::MAX; mask_words(e - s)];
                    v.fill_range_mask_at(lo, hi, s, e, &mut masks);
                    assert_eq!(
                        masks,
                        ref_mask(e - s, want),
                        "fill width {bits}, n {n}, rows {s}..{e}, range {lo}..={hi}"
                    );
                    // AND a second predicate into a pattern of pre-zeroed
                    // and all-ones words: zero words must stay zero (the
                    // skipped blocks), the others become the intersection.
                    let (lo2, hi2) = (mask / 4, mask / 4 + mask / 2);
                    let mut masks: Vec<u64> = (0..mask_words(e - s))
                        .map(|j| if j % 3 == 1 { 0 } else { u64::MAX })
                        .collect();
                    v.and_range_mask_at(lo2, hi2, s, e, &mut masks);
                    let both = ref_mask(e - s, |r| {
                        r / 64 % 3 != 1 && (lo2..=hi2).contains(&data[s + r])
                    });
                    assert_eq!(
                        masks, both,
                        "and width {bits}, n {n}, rows {s}..{e}, range {lo2}..={hi2}"
                    );
                }
            }
            check_fold_masked(&v, bits, n);
            let (mut swar, mut scalar) = (Vec::new(), Vec::new());
            v.select_eq_into(code, 11, &mut swar);
            v.select_eq_scalar_into(code, 11, &mut scalar);
            assert_eq!(swar, scalar, "width {bits}, n {n}, eq {code}");
            assert_eq!(
                v.count_eq(code),
                v.count_eq_scalar(code),
                "width {bits}, n {n}"
            );
            assert_eq!(v.sum(), v.sum_scalar(), "width {bits}, n {n}");
        }
    }
}

/// `fold_masked_at` against `get()` over morsels at starts 0, 64 and 128
/// that end short of `len()`, under masks that are all ones, zero, a
/// single bit, nearly full, dense and sparse random, or have a partial
/// last word. The all-ones, nearly full and random masks also set bits at
/// and beyond `end` in their last word, where the vector still holds
/// rows, so a kernel that reported a row at or beyond `end` would hand
/// over a code too many.
fn check_fold_masked(v: &BitPackedVec, bits: u8, n: usize) {
    let mut x = 0x5EED ^ bits as u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for (s, e) in [
        (0, n.saturating_sub(1)),
        (64, n.saturating_sub(2)),
        (128, n.saturating_sub(5)),
    ] {
        if e <= s {
            continue;
        }
        let words = mask_words(e - s);
        let last_bit = 1u64 << ((e - s - 1) % 64);
        let nearly_full: Vec<u64> = (0..words)
            .map(|_| !(1u64 << (rand() % 64)) & !(1u64 << (rand() % 64)))
            .collect();
        let mut partial_last = vec![u64::MAX; words];
        partial_last[words - 1] = u64::MAX << 3 >> 9;
        let masks: Vec<(&str, Vec<u64>)> = vec![
            ("all ones", vec![u64::MAX; words]),
            ("zero", vec![0; words]),
            ("single bit", {
                let mut m = vec![0; words];
                m[words - 1] = last_bit;
                m
            }),
            ("nearly full", nearly_full),
            ("dense", (0..words).map(|_| rand()).collect()),
            (
                "sparse",
                (0..words).map(|_| rand() & rand() & rand()).collect(),
            ),
            ("partial last word", partial_last),
        ];
        let mut want_all = Vec::new();
        for r in s..e {
            want_all.push(v.get(r));
        }
        let mut got = Vec::new();
        v.fold_masked_at(s, e, None, |c| got.push(c));
        assert_eq!(got, want_all, "width {bits}, rows {s}..{e}, no mask");
        for (name, mask) in masks {
            let want: Vec<u64> = (s..e)
                .filter(|&r| mask[(r - s) / 64] >> ((r - s) % 64) & 1 == 1)
                .map(|r| v.get(r))
                .collect();
            let mut got = Vec::new();
            v.fold_masked_at(s, e, Some(&mask), |c| got.push(c));
            assert_eq!(got, want, "width {bits}, rows {s}..{e}, {name} mask");
        }
    }
}

#[test]
fn every_width_all_extremes() {
    // All-zero and all-max data stress the eq/ge boundary lanes and the
    // sum fold's worst-case magnitudes at every width.
    for bits in 1..=64u8 {
        let mask = max_value_for_bits(bits);
        for fill in [0u64, mask] {
            let data = vec![fill; 193];
            let v = BitPackedVec::from_slice(bits, &data);
            assert_eq!(v.count_eq(fill), 193, "width {bits}, fill {fill}");
            let other = (fill ^ 1) & mask;
            assert_eq!(
                v.count_eq(other),
                v.count_eq_scalar(other),
                "width {bits}, fill {fill}, other {other}"
            );
            assert_eq!(v.sum(), 193 * fill as u128, "width {bits}, fill {fill}");
            let mut rows = Vec::new();
            v.select_in_range_into(fill, fill, 0, &mut rows);
            assert_eq!(rows.len(), 193, "width {bits}, fill {fill}");
        }
    }
}
