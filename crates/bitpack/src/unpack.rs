//! Straight-line decoders for one 64-row block of packed codes.
//!
//! 64 codes of `b` bits fill exactly `b` words, so a block starts on a word
//! boundary at every width and its layout depends on `b` alone: code `k`
//! is bits `k * b..(k + 1) * b` of the block's words. Instantiated per
//! width, the decode is a fixed run of shifts and masks whose word indices
//! and shift amounts are all constants — no loop counter, no per-code
//! branch, no bounds check. The masked aggregate kernel
//! ([`crate::BitPackedVec::fold_masked_at`]) decodes every block that is
//! not sparse this way.

/// Decodes one full 64-row block: the block's `bits` words in, its 64
/// codes out.
pub(crate) type Unpack = fn(&[u64], &mut [u64; 64]);

/// Decode the 64 codes held in `words` (exactly `B` words).
#[inline(always)]
fn unpack<const B: usize>(words: &[u64], out: &mut [u64; 64]) {
    let words: &[u64; B] = words.try_into().expect("a block is `B` words");
    let mask = if B == 64 { u64::MAX } else { (1u64 << B) - 1 };
    macro_rules! codes {
        ($($k:literal)*) => {$({
            let bit = $k * B;
            let (w, s) = (bit / 64, bit % 64);
            let mut x = words[w] >> s;
            if s + B > 64 {
                x |= words[w + 1] << (64 - s);
            }
            out[$k] = x & mask;
        })*};
    }
    codes!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63);
}

macro_rules! unpackers {
    ($($b:literal)*) => {
        [$(unpack::<$b>),*]
    };
}

const UNPACK: [Unpack; 64] = unpackers!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64);

/// The block decoder for `bits`-wide codes (`1..=64`).
#[inline]
pub(crate) fn unpacker(bits: u8) -> Unpack {
    UNPACK[bits as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::width::max_value_for_bits;
    use crate::BitPackedVec;

    #[test]
    fn every_width_matches_get() {
        for bits in 1..=64u8 {
            let mask = max_value_for_bits(bits);
            let data: Vec<u64> = (0..192u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32) & mask)
                .collect();
            let v = BitPackedVec::from_slice(bits, &data);
            let b = bits as usize;
            for block in 0..3 {
                let mut out = [0u64; 64];
                unpacker(bits)(&v.words()[block * b..(block + 1) * b], &mut out);
                assert_eq!(
                    out[..],
                    data[block * 64..(block + 1) * 64],
                    "width {bits}, block {block}"
                );
            }
        }
    }
}
