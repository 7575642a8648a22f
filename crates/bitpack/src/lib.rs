//! Bit-packed integer vectors.
//!
//! The paper stores compressed values (dictionary codes) using exactly
//! `E_C = ceil(log2 |U|)` bits per value (Section 5, Equation 4), so that a
//! main partition of `N_M` tuples occupies `N_M * E_C / 8` bytes — the memory
//! traffic terms of Equations 13 and 14 assume precisely this layout.
//!
//! This crate provides that layout:
//!
//! * [`BitPackedVec`] — a dense vector of `len` unsigned values, each stored
//!   with a fixed bit width `bits` (1..=64), packed contiguously into `u64`
//!   words with no per-value padding.
//! * [`bits_for`] — the paper's Equation 4, clamped to a minimum of one bit.
//! * [`BitPackedVec::split_mut`] — disjoint, word-aligned mutable regions for
//!   the *parallel* Step 2 of the merge (Section 6.2.2): each thread receives
//!   a tuple range whose start index is a multiple of 64, so its first bit
//!   offset (`start * bits`) is a multiple of 64 and the threads write
//!   non-overlapping `&mut [u64]` slices without any synchronization.
//!
//! # Example
//!
//! ```
//! use hyrise_bitpack::{bits_for, BitPackedVec};
//!
//! // 9 distinct values need ceil(log2 9) = 4 bits, as in the paper's Figure 5.
//! let bits = bits_for(9);
//! assert_eq!(bits, 4);
//!
//! let mut v = BitPackedVec::new(bits);
//! for code in [6u64, 3, 4, 3, 0, 1, 2, 2, 5, 8] {
//!     v.push(code);
//! }
//! assert_eq!(v.get(0), 6);
//! assert_eq!(v.get(9), 8);
//! assert_eq!(v.len(), 10);
//! ```

mod region;
mod scan;
mod swar;
mod unpack;
mod vec;
mod width;

pub use region::{BitRegion, RegionSplit};
pub use scan::SeqCursor;
pub use swar::{mask_count, mask_words, rows_from_mask};
pub use vec::{BitPackedIter, BitPackedVec};
pub use width::{bits_for, ceil_log2, max_value_for_bits};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_from_paper_figure5() {
        // Figure 5: merged dictionary has 9 unique values -> 4 bits per code.
        assert_eq!(bits_for(9), 4);
        // Pre-merge main dictionary has 6 unique values -> 3 bits per code.
        assert_eq!(bits_for(6), 3);
    }
}
